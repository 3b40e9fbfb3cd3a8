"""Sampled-vs-full validation harness.

Runs every (workload, policy) cell of the requested suites twice — a
full simulation and a sampled one — and reports per-cell and per-suite
relative errors on the gated metrics (LLC MPKI, IPC) plus the achieved
trace-reduction factors and wall-clock. ``benchmarks/record_sampling.py``
appends the aggregates to the checked-in ``BENCH_sampling.json`` and
``benchmarks/check_regression.py --sampling`` gates them against the
committed error budget in CI.

Each policy validates under its committed warm-state synthesis strategy
(:data:`PREFERRED_SYNTHESIS`): the recency family needs only the
recency-ordered content rebuild, while learned policies additionally
need their predictor tables synthesized by interval-boundary table
checkpoints (see docs/sampling.md for the per-policy validation
status).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..core.config import MachineConfig, cascade_lake
from ..core.simulator import DEFAULT_WARMUP_FRACTION, simulate
from ..errors import ConfigurationError
from ..trace.trace import Trace
from .executor import simulate_sampled
from .spec import SamplingSpec

#: Policies the committed error budget is validated (and gated) for.
#: glider and drrip are deliberately absent: under every synthesis
#: strategy their sampled MPKI matches the full run but their IPC error
#: exceeds the budget on a few timing-sensitive cells (miss burstiness
#: does not extrapolate from one representative window) — see
#: docs/sampling.md for the measured numbers.
VALIDATED_POLICIES = ("lru", "srrip", "dip", "ship", "hawkeye", "mpppb")

#: The warm-state synthesis strategy each policy validates (and is
#: gated) under. Policies absent from this mapping run with whatever
#: strategy the caller's spec carries. The recency family needs no
#: predictor synthesis; learned policies use interval-boundary table
#: checkpoints, which reproduce a full run's tables bit-exactly at the
#: warm-up boundary.
PREFERRED_SYNTHESIS: dict[str, str] = {
    "lru": "recency",
    "srrip": "recency",
    "drrip": "checkpoint",
    "dip": "checkpoint",
    "ship": "checkpoint",
    "hawkeye": "checkpoint",
    "glider": "checkpoint",
    "mpppb": "checkpoint",
}

#: Suites the smoke validation covers.
DEFAULT_SUITES = ("gap", "spec06")


@dataclass(frozen=True)
class ValidationCell:
    """Sampled-vs-full comparison of one (workload, policy) cell."""

    suite: str
    workload: str
    policy: str
    #: Warm-state synthesis strategy the sampled run used.
    synthesis: str
    full_mpki: float
    sampled_mpki: float
    full_ipc: float
    sampled_ipc: float
    reduction: float
    full_wall_s: float
    sampled_wall_s: float

    @property
    def mpki_error(self) -> float:
        """Relative LLC MPKI error (0 when the full run had 0 MPKI)."""
        if self.full_mpki == 0.0:
            return abs(self.sampled_mpki)
        return abs(self.sampled_mpki - self.full_mpki) / self.full_mpki

    @property
    def ipc_error(self) -> float:
        if self.full_ipc == 0.0:
            return abs(self.sampled_ipc)
        return abs(self.sampled_ipc - self.full_ipc) / self.full_ipc


@dataclass
class SuiteSummary:
    """Per-suite aggregate of the gated quantities."""

    suite: str
    cells: int
    mpki_err_mean: float
    mpki_err_max: float
    ipc_err_mean: float
    ipc_err_max: float
    reduction_min: float
    reduction_mean: float
    full_wall_s: float
    sampled_wall_s: float

    @classmethod
    def from_cells(cls, suite: str, cells: list[ValidationCell]) -> "SuiteSummary":
        mpki_errors = [cell.mpki_error for cell in cells]
        ipc_errors = [cell.ipc_error for cell in cells]
        reductions = [cell.reduction for cell in cells]
        return cls(
            suite=suite,
            cells=len(cells),
            mpki_err_mean=sum(mpki_errors) / len(cells),
            mpki_err_max=max(mpki_errors),
            ipc_err_mean=sum(ipc_errors) / len(cells),
            ipc_err_max=max(ipc_errors),
            reduction_min=min(reductions),
            reduction_mean=sum(reductions) / len(cells),
            full_wall_s=sum(cell.full_wall_s for cell in cells),
            sampled_wall_s=sum(cell.sampled_wall_s for cell in cells),
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "cells": self.cells,
            "mpki_err_mean": round(self.mpki_err_mean, 5),
            "mpki_err_max": round(self.mpki_err_max, 5),
            "ipc_err_mean": round(self.ipc_err_mean, 5),
            "ipc_err_max": round(self.ipc_err_max, 5),
            "reduction_min": round(self.reduction_min, 2),
            "reduction_mean": round(self.reduction_mean, 2),
            "full_wall_s": round(self.full_wall_s, 3),
            "sampled_wall_s": round(self.sampled_wall_s, 3),
        }


@dataclass
class ValidationReport:
    """Everything one validation run measured."""

    spec: SamplingSpec
    policies: tuple[str, ...]
    cells: list[ValidationCell] = field(default_factory=list)

    @property
    def suites(self) -> dict[str, SuiteSummary]:
        grouped: dict[str, list[ValidationCell]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.suite, []).append(cell)
        return {
            suite: SuiteSummary.from_cells(suite, members)
            for suite, members in grouped.items()
        }

    @property
    def overall(self) -> SuiteSummary:
        return SuiteSummary.from_cells("overall", self.cells)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_json_dict(),
            "policies": list(self.policies),
            "synthesis": {
                policy: PREFERRED_SYNTHESIS.get(policy, self.spec.warm_synthesis)
                for policy in self.policies
            },
            "suites": {
                suite: summary.to_json_dict()
                for suite, summary in sorted(self.suites.items())
            },
            "overall": self.overall.to_json_dict(),
            "cells": [
                {
                    "suite": cell.suite,
                    "workload": cell.workload,
                    "policy": cell.policy,
                    "synthesis": cell.synthesis,
                    "full_mpki": round(cell.full_mpki, 4),
                    "sampled_mpki": round(cell.sampled_mpki, 4),
                    "mpki_error": round(cell.mpki_error, 5),
                    "full_ipc": round(cell.full_ipc, 4),
                    "sampled_ipc": round(cell.sampled_ipc, 4),
                    "ipc_error": round(cell.ipc_error, 5),
                    "reduction": round(cell.reduction, 2),
                }
                for cell in self.cells
            ],
        }

    def render(self) -> str:
        lines = [
            f"sampled-vs-full validation — spec {self.spec.describe()}, "
            f"policies {', '.join(self.policies)}",
            "",
            f"{'workload':24s} {'policy':8s} {'synth':10s} {'full mpki':>10s} "
            f"{'sampled':>10s} {'err':>7s} {'ipc err':>8s} {'red':>7s}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.workload:24s} {cell.policy:8s} {cell.synthesis:10s} "
                f"{cell.full_mpki:10.2f} "
                f"{cell.sampled_mpki:10.2f} {cell.mpki_error:6.1%} "
                f"{cell.ipc_error:7.1%} {cell.reduction:6.1f}x"
            )
        lines.append("")
        for suite, summary in sorted(self.suites.items()):
            lines.append(
                f"{suite}: mpki err mean {summary.mpki_err_mean:.2%} "
                f"max {summary.mpki_err_max:.2%} | ipc err mean "
                f"{summary.ipc_err_mean:.2%} max {summary.ipc_err_max:.2%} | "
                f"reduction min {summary.reduction_min:.1f}x "
                f"mean {summary.reduction_mean:.1f}x ({summary.cells} cells)"
            )
        overall = self.overall
        lines.append(
            f"overall: mpki err mean {overall.mpki_err_mean:.2%} "
            f"max {overall.mpki_err_max:.2%} | ipc err mean "
            f"{overall.ipc_err_mean:.2%} max {overall.ipc_err_max:.2%} | "
            f"reduction min {overall.reduction_min:.1f}x"
        )
        return "\n".join(lines)


def suite_traces(suite: str) -> dict[str, Trace]:
    """The traces of one named validation suite (at effective scale)."""
    from ..harness.experiments import gap_traces, spec_traces

    if suite == "gap":
        return gap_traces()
    if suite in ("spec06", "spec17"):
        return spec_traces(suite)
    raise ConfigurationError(
        f"unknown validation suite {suite!r}; expected gap, spec06 or spec17"
    )


def run_validation(
    suites: tuple[str, ...] = DEFAULT_SUITES,
    policies: tuple[str, ...] = VALIDATED_POLICIES,
    spec: SamplingSpec | None = None,
    config: MachineConfig | None = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    progress: Callable[[str], None] | None = None,
) -> ValidationReport:
    """Sampled-vs-full comparison over whole suites.

    Every cell simulates twice in-process (full, then sampled), so the
    wall-clock totals in the report compare like with like. Policies
    with a committed strategy in :data:`PREFERRED_SYNTHESIS` sample
    under it; other policies use the strategy the spec carries.
    """
    if spec is None:
        spec = SamplingSpec()
    if config is None:
        config = cascade_lake()
    report = ValidationReport(spec=spec, policies=tuple(policies))
    for suite in suites:
        for workload, trace in suite_traces(suite).items():
            for policy in policies:
                if progress is not None:
                    progress(f"{workload} x {policy}")
                synthesis = PREFERRED_SYNTHESIS.get(policy, spec.warm_synthesis)
                cell_spec = (
                    spec if synthesis == spec.warm_synthesis
                    else replace(spec, warm_synthesis=synthesis)
                )
                started = time.perf_counter()
                full = simulate(
                    trace, config=config, llc_policy=policy,
                    warmup_fraction=warmup_fraction,
                )
                full_wall = time.perf_counter() - started
                started = time.perf_counter()
                sampled = simulate_sampled(
                    trace, config=config, llc_policy=policy,
                    warmup_fraction=warmup_fraction, sampling=cell_spec,
                )
                sampled_wall = time.perf_counter() - started
                plan_doc = sampled.info["sampling_plan"]
                report.cells.append(
                    ValidationCell(
                        suite=suite,
                        workload=workload,
                        policy=policy,
                        synthesis=synthesis,
                        full_mpki=full.llc_mpki,
                        sampled_mpki=sampled.llc_mpki,
                        full_ipc=full.ipc,
                        sampled_ipc=sampled.ipc,
                        reduction=float(plan_doc["reduction"]),
                        full_wall_s=full_wall,
                        sampled_wall_s=sampled_wall,
                    )
                )
    return report
