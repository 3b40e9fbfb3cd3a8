"""The benchmark workloads: inputs, timed phase and correctness check.

Each workload builds its traces from the benchmark seed (the seed feeds
``GapWorkloadSpec(seed=...)`` for every GAP graph; the SPEC proxies carry
seeds fixed inside ``repro.spec.suite`` and do not change with it), then
runs *units* of work — whole calls into the program — until the run's
seconds are up. A unit always completes, so a run measures whole calls.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

from catalogue import MATRIX_POLICIES
from harness import Spans, Tally, digest_mismatch, host_probe, host_scale, relative_error

#: The seed ``reference.json`` was recorded at.
DEFAULT_SEED = 42
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Graph and window sizes: the smoke fig2/fig3 scales of
#: ``repro.harness.experiments`` for matrix and sampled.
GAP_DEGREE = 16
SMOKE_GAP_SCALE = 16
SMOKE_GAP_WINDOW = 120_000
SMOKE_SPEC_WINDOW = 60_000
LONG_GAP_SCALE = 17
LONG_GAP_WINDOW = 500_000

#: The matrix's sweep units: one GAP kernel and four SPEC proxies each,
#: balanced by the measured cost of simulating each trace under the 7
#: policies (plan plus replays, 12.4-13.6 s serial per unit at the
#: default seed on a 2-vCPU VM), so that a run's throughput does not
#: depend on which units its seed picks.
MATRIX_UNITS = (
    ("bfs.kron16", "spec17.fotonik3d_r", "spec17.gcc_r", "spec17.blender_r",
     "spec06.omnetpp"),
    ("pr.kron16", "spec06.soplex", "spec06.bwaves", "spec06.cactusADM",
     "spec17.deepsjeng_r"),
    ("cc.kron16", "spec17.pop2_s", "spec17.mcf_r", "spec06.mcf", "spec06.xalancbmk"),
    ("sssp.kron16", "spec06.lbm", "spec17.lbm_r", "spec06.gcc", "spec17.omnetpp_r"),
    ("bc.kron16", "spec06.milc", "spec17.roms_r", "spec06.sphinx3",
     "spec17.cactuBSSN_r"),
    ("tc.kron16", "spec06.GemsFDTD", "spec06.libquantum", "spec17.x264_r",
     "spec17.xalancbmk_r"),
)

#: Per-cell error budget of a sampled estimate against the full run, as
#: gated by ``benchmarks/check_regression.py --sampling``.
SAMPLED_MPKI_BUDGET = 0.08
SAMPLED_IPC_BUDGET = 0.12


@dataclass(frozen=True)
class Cell:
    """One (trace, policy) pair."""

    trace: Any
    policy: str

    @property
    def name(self) -> str:
        return f"{self.trace.name}/{self.policy}"


@dataclass
class Outcome:
    """What one run of one cell produced."""

    cell: Cell
    result: Any = None
    error: str | None = None


@dataclass
class Phase:
    """A timed phase: the cells it completed and the time of every unit.

    Each unit's host seconds are scaled to the reference host speed by
    the host probes taken before and after it (``harness.host_scale``).
    Throughput is work per scaled unit time with each distinct unit
    counted once, at the median of its timings in the phase, so a unit
    that ran twice weighs as much as one that ran once.
    """

    outcomes: list[Outcome] = field(default_factory=list)
    seconds: float = 0.0
    #: (unit index, host seconds, cells, trace accesses) per unit run.
    unit_runs: list[tuple[int, float, int, int]] = field(default_factory=list)
    #: Host probes: one before the first unit and one after every unit.
    host_runs: list[float] = field(default_factory=list)

    def _per_unit(self) -> tuple[int, int, float]:
        by_unit: dict[int, list[tuple[float, int, int]]] = {}
        for k, (index, seconds, cells, accesses) in enumerate(self.unit_runs):
            scaled = seconds * host_scale(self.host_runs[k], self.host_runs[k + 1])
            by_unit.setdefault(index, []).append((scaled, cells, accesses))
        cells = sum(runs[0][1] for runs in by_unit.values())
        accesses = sum(runs[0][2] for runs in by_unit.values())
        seconds = sum(median([run[0] for run in runs]) for runs in by_unit.values())
        return cells, accesses, seconds

    @property
    def cells_per_s(self) -> float:
        cells, _, seconds = self._per_unit()
        return cells / seconds

    @property
    def accesses_per_s(self) -> float:
        _, accesses, seconds = self._per_unit()
        return accesses / seconds


def load_reference() -> dict:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {"seed": DEFAULT_SEED, "cells": {}}


def reference_entry(reference: dict, cell: Cell) -> dict | None:
    """The recorded full-run result of a cell, keyed by trace content."""
    per_trace = reference["cells"].get(cell.trace.digest())
    return None if per_trace is None else per_trace["policies"].get(cell.policy)


def result_digest(result: Any) -> str:
    from repro.harness.engine import result_checksum

    return result_checksum(result.to_json_dict())


# -- trace building -----------------------------------------------------------


def build_gap(
    spans: Spans, seed: int, scale: int, window: int, kernels: tuple[str, ...]
) -> dict:
    from repro.gap.suite import GapWorkloadSpec, build_graph, run_kernel

    spec = GapWorkloadSpec(
        kernel=kernels[0], graph_name="kron", scale=scale, degree=GAP_DEGREE, seed=seed
    )
    with spans.span("trace.graph"):
        graph = build_graph(spec)
    traces = {}
    for kernel in kernels:
        name = f"{kernel}.kron{scale}"
        with spans.span("trace.kernel", kernel=kernel):
            traces[name] = run_kernel(
                kernel, graph, trace_name=name, max_accesses=window
            ).trace
    return traces


def build_spec(spans: Spans, suite: str, names: tuple[str, ...] | None = None) -> dict:
    from repro.spec.suite import build_spec_workload, spec06_workloads, spec17_workloads

    if names is None:
        names = tuple(spec06_workloads() if suite == "spec06" else spec17_workloads())
    traces = {}
    for name in names:
        with spans.span("trace.spec", workload=f"{suite}.{name}"):
            traces[f"{suite}.{name}"] = build_spec_workload(
                suite, name, SMOKE_SPEC_WINDOW
            )
    return traces


# -- workloads ------------------------------------------------------------------


class Workload:
    """Base: one unit is one cell, simulated in this process."""

    name = ""
    #: CPUs a unit keeps busy at once, which the host probe matches.
    cpus = 1

    def setup(self, spans: Spans, seed: int) -> dict:
        raise NotImplementedError

    def cells(self, traces: dict) -> list[Cell]:
        raise NotImplementedError

    def units(self, traces: dict) -> list[list[Cell]]:
        return [[cell] for cell in self.cells(traces)]

    def probe_traces(self, traces: dict) -> dict:
        """The traces the traced run's layer probes run on."""
        raise NotImplementedError

    def start_pass(self) -> None:
        """Called before the first unit of every pass over the units."""

    def run_unit(self, unit: list[Cell], workdir: Path) -> list[Outcome]:
        outcomes = []
        for cell in unit:
            try:
                outcomes.append(Outcome(cell, result=self.run_cell(cell)))
            except Exception as exc:  # a failing cell is counted, not fatal
                outcomes.append(Outcome(cell, error=f"{type(exc).__name__}: {exc}"))
        return outcomes

    def run_cell(self, cell: Cell) -> Any:
        raise NotImplementedError

    def timed_phase(
        self,
        units: list[list[Cell]],
        seconds: float,
        spans: Spans,
        workdir: Path,
        seed: int,
        min_units: int | None = None,
    ) -> Phase:
        """Run whole units in order, wrapping around, for about ``seconds``.

        The phase starts at unit ``seed % len(units)``, so runs at
        different seeds measure (and check) different units when a phase
        holds only a few of them. It stops at the unit boundary nearest
        to ``seconds``, after at least ``min_units`` units (default
        :meth:`min_units`), so its length is steady even when a unit is a
        sizeable share of it.
        """
        if min_units is None:
            min_units = self.min_units(units)
        phase = Phase()
        done = 0
        started = time.perf_counter()
        phase.host_runs.append(host_probe(self.cpus))
        while True:
            index = (seed + done) % len(units)
            if done % len(units) == 0:
                self.start_pass()
            unit = units[index]
            unit_started = time.perf_counter()
            with spans.span(f"{self.name}.unit", cells=len(unit)):
                outcomes = self.run_unit(unit, workdir / f"unit{done}")
            unit_seconds = time.perf_counter() - unit_started
            phase.host_runs.append(host_probe(self.cpus))
            phase.outcomes.extend(outcomes)
            phase.unit_runs.append((
                index, unit_seconds,
                sum(1 for o in outcomes if o.error is None),
                sum(len(o.cell.trace) for o in outcomes if o.error is None),
            ))
            done += 1
            phase.seconds = time.perf_counter() - started
            if done >= min_units and phase.seconds * (1 + 0.5 / done) >= seconds:
                return phase

    def min_units(self, units: list[list[Cell]]) -> int:
        """Units a phase runs at least: one whole pass."""
        return len(units)

    def check(self, phase: Phase, reference: dict, seed: int) -> Tally:
        """Digest check of every full-simulation cell, plus spot checks.

        A cell whose trace is in ``reference.json`` must match its
        recorded digest. Other cells (GAP cells at a seed other than
        the recorded one) are spot-checked: one per run, chosen by the
        seed, is re-simulated on the reference engine outside the timed
        phase. Repeats of one cell within the phase must agree.
        """
        tally = Tally()
        seen: dict[str, str] = {}
        unreferenced: dict[str, Outcome] = {}
        for outcome in phase.outcomes:
            cell = outcome.cell
            if outcome.error is not None:
                tally.attempt(cell.name, outcome.error)
                continue
            digest = result_digest(outcome.result)
            entry = reference_entry(reference, cell)
            error = digest_mismatch(digest, entry["digest"] if entry else None)
            if error is None and seen.get(cell.name, digest) != digest:
                error = "repeat of the cell gave a different result"
            tally.attempt(cell.name, error)
            seen[cell.name] = digest
            if entry is None:
                unreferenced[cell.name] = outcome
        if unreferenced:
            names = sorted(unreferenced)
            outcome = unreferenced[names[seed % len(names)]]
            error = spot_check(outcome)
            if error is not None:
                tally.fail(outcome.cell.name, error)
        return tally

    def record(self, traces: dict, reference: dict) -> None:
        """Add every cell's reference-engine result to ``reference``."""
        from repro.core.simulator import simulate

        for unit in self.units(traces):
            for cell in unit:
                result = simulate(cell.trace, llc_policy=cell.policy, engine="reference")
                add_reference(reference, cell, result)


def add_reference(reference: dict, cell: Cell, result: Any) -> None:
    per_trace = reference["cells"].setdefault(
        cell.trace.digest(), {"trace": cell.trace.name, "policies": {}}
    )
    per_trace["policies"][cell.policy] = {
        "digest": result_digest(result),
        "llc_mpki": result.llc_mpki,
        "ipc": result.ipc,
    }


def spot_check(outcome: Outcome) -> str | None:
    """Re-simulate a cell on the reference engine; the mismatch, if any."""
    from repro.core.simulator import simulate

    cell = outcome.cell
    try:
        expected = simulate(cell.trace, llc_policy=cell.policy, engine="reference")
    except Exception as exc:
        return f"reference engine raised {type(exc).__name__}: {exc}"
    return digest_mismatch(result_digest(outcome.result), result_digest(expected))


class Matrix(Workload):
    """The smoke fig2/fig3 matrix through the batched sweep engine.

    30 traces (6 GAP kernels on kron16 at 120k accesses, 12 spec06 and
    12 spec17 proxies at 60k) under the 7 matrix policies. A unit is one
    ``SweepEngine(jobs=2, cache_dir=<fresh>, journal_dir=<fresh>).run(...,
    engine="batched")`` over the 5 traces of one of :data:`MATRIX_UNITS`,
    so one plan serves 7 replays, cells cross the process pool, and every
    cell is stored and journaled. A 30-second run holds four to six
    units on a 2-vCPU VM, about one pass; the seed picks the first, so
    runs at different seeds leave different units out. A run is not
    held to a whole pass: on a slowed host a pass takes over a minute,
    which the run budget cannot give every run.
    """

    name = "matrix"
    jobs = 2
    cpus = jobs

    def min_units(self, units: list[list[Cell]]) -> int:
        return 1

    def setup(self, spans: Spans, seed: int) -> dict:
        from repro.gap.suite import GAP_KERNELS

        traces = build_gap(spans, seed, SMOKE_GAP_SCALE, SMOKE_GAP_WINDOW, GAP_KERNELS)
        traces.update(build_spec(spans, "spec06"))
        traces.update(build_spec(spans, "spec17"))
        return traces

    def units(self, traces: dict) -> list[list[Cell]]:
        names = [name for unit in MATRIX_UNITS for name in unit]
        if sorted(names) != sorted(traces):
            raise RuntimeError("MATRIX_UNITS does not partition the matrix traces")
        return [
            [Cell(traces[name], policy) for name in unit for policy in MATRIX_POLICIES]
            for unit in MATRIX_UNITS
        ]

    def probe_traces(self, traces: dict) -> dict:
        return {cell.trace.name: cell.trace for cell in self.units(traces)[0]}

    def record(self, traces: dict, reference: dict) -> None:
        from repro.harness.engine import SweepEngine

        outcome = SweepEngine(jobs=self.jobs).run(
            traces, list(MATRIX_POLICIES), engine="reference"
        )
        for unit in self.units(traces):
            for cell in unit:
                add_reference(reference, cell, outcome.matrix.get(cell.trace.name, cell.policy))

    def run_unit(self, unit: list[Cell], workdir: Path) -> list[Outcome]:
        from repro.harness.engine import SweepEngine

        traces = {cell.trace.name: cell.trace for cell in unit}
        sweep = SweepEngine(
            jobs=self.jobs, cache_dir=workdir / "cache", journal_dir=workdir / "journal"
        )
        try:
            outcome = sweep.run(
                traces, list(MATRIX_POLICIES), engine="batched", isolate_failures=True
            )
        except Exception as exc:  # the whole sweep died: every cell failed
            error = f"sweep raised {type(exc).__name__}: {exc}"
            return [Outcome(cell, error=error) for cell in unit]
        outcomes = []
        for cell in unit:
            key = (cell.trace.name, cell.policy)
            if key in outcome.errors:
                outcomes.append(Outcome(cell, error=outcome.errors[key].render()))
            else:
                result = outcome.matrix.results.get(key[0], {}).get(key[1])
                outcomes.append(
                    Outcome(cell, result=result)
                    if result is not None
                    else Outcome(cell, error="missing from the sweep's matrix")
                )
        return outcomes


class SingleCell(Workload):
    """Long single-policy cells, one ``simulate(engine="fast")`` at a time.

    pr and sssp on a kron17 graph at 500k accesses, each under lru and
    hawkeye: serial, in this process, uncached. bfs is left out: which
    part of a BFS its 500k-access window holds depends on the graph seed
    (LLC MPKI about 15 on some seeds, 32 on others), so its cost per
    access would swing with the seed rather than with the program.
    """

    name = "single_cell"
    kernels = ("pr", "sssp")
    policies = ("lru", "hawkeye")

    def setup(self, spans: Spans, seed: int) -> dict:
        return build_gap(spans, seed, LONG_GAP_SCALE, LONG_GAP_WINDOW, self.kernels)

    def cells(self, traces: dict) -> list[Cell]:
        return [Cell(t, p) for t in traces.values() for p in self.policies]

    def probe_traces(self, traces: dict) -> dict:
        return dict(traces)

    def run_cell(self, cell: Cell) -> Any:
        from repro.core.simulator import simulate

        return simulate(cell.trace, llc_policy=cell.policy, engine="fast")


class Sampled(Workload):
    """Representative-interval sampling of a subset of the matrix cells.

    The 6 GAP smoke traces and the spec06 mcf proxy, each under lru
    (recency warm-state synthesis) and hawkeye (boundary checkpoints),
    one ``simulate(..., sampling=SamplingSpec(warm_synthesis=
    PREFERRED_SYNTHESIS[policy]))`` at a time. The checkpoint store is
    cleared at the start of every pass, as a fresh sweep process starts.

    Run by hand (``--workload sampled``); ``BENCHMARK.json`` does not list
    it. The time a pass takes follows the sampling plan that k-means picks
    for the seed's graph, 14.5-20.3 s over seeds 1-4 on a 2-vCPU VM, so
    the spread of its throughput over seeds alone approaches the 25 %
    bound, and a third 30-second workload would not fit the run budget.
    """

    name = "sampled"
    policies = ("lru", "hawkeye")
    spec06 = ("mcf",)

    def __init__(self) -> None:
        #: Full-run (MPKI, IPC) of cells missing from reference.json.
        self.full_runs: dict[str, dict] = {}

    def setup(self, spans: Spans, seed: int) -> dict:
        from repro.gap.suite import GAP_KERNELS

        traces = build_gap(spans, seed, SMOKE_GAP_SCALE, SMOKE_GAP_WINDOW, GAP_KERNELS)
        traces.update(build_spec(spans, "spec06", self.spec06))
        return traces

    def cells(self, traces: dict) -> list[Cell]:
        return [Cell(t, p) for t in traces.values() for p in self.policies]

    def probe_traces(self, traces: dict) -> dict:
        names = [next(iter(traces)), f"spec06.{self.spec06[0]}"]
        return {name: traces[name] for name in names}

    def start_pass(self) -> None:
        from repro.sampling import clear_checkpoint_store

        clear_checkpoint_store()

    def run_cell(self, cell: Cell) -> Any:
        from repro.core.simulator import simulate
        from repro.sampling import PREFERRED_SYNTHESIS, SamplingSpec

        spec = SamplingSpec(warm_synthesis=PREFERRED_SYNTHESIS[cell.policy])
        return simulate(cell.trace, llc_policy=cell.policy, sampling=spec)

    def errors(self, phase: Phase, reference: dict) -> dict[str, tuple[float, float]]:
        """Per-cell (MPKI, IPC) relative error against the full run.

        Full-run results come from ``reference.json`` where the trace is
        recorded there, else from a full ``simulate`` run here, outside
        the timed phase.
        """
        from repro.core.simulator import simulate

        errors = {}
        for outcome in phase.outcomes:
            cell = outcome.cell
            if outcome.error is not None or cell.name in errors:
                continue
            full = reference_entry(reference, cell) or self.full_runs.get(cell.name)
            if full is None:
                result = simulate(cell.trace, llc_policy=cell.policy)
                full = {"llc_mpki": result.llc_mpki, "ipc": result.ipc}
                self.full_runs[cell.name] = full
            errors[cell.name] = (
                relative_error(outcome.result.llc_mpki, full["llc_mpki"]),
                relative_error(outcome.result.ipc, full["ipc"]),
            )
        return errors

    def check(self, phase: Phase, reference: dict, seed: int) -> Tally:
        """Budget check of every estimate; repeats of a cell must agree."""
        errors = self.errors(phase, reference)
        tally = Tally()
        seen: dict[str, str] = {}
        for outcome in phase.outcomes:
            cell = outcome.cell
            if outcome.error is not None:
                tally.attempt(cell.name, outcome.error)
                continue
            mpki_err, ipc_err = errors[cell.name]
            digest = result_digest(outcome.result)
            if seen.setdefault(cell.name, digest) != digest:
                tally.attempt(cell.name, "repeat of the cell gave a different estimate")
            elif mpki_err > SAMPLED_MPKI_BUDGET or ipc_err > SAMPLED_IPC_BUDGET:
                tally.attempt(
                    cell.name,
                    f"error over budget: MPKI {mpki_err:.2%}, IPC {ipc_err:.2%}",
                    wrong=False,
                )
            else:
                tally.attempt(cell.name)
        return tally

    def record(self, traces: dict, reference: dict) -> None:
        """Sampled cells are matrix cells: their full runs are recorded there."""


WORKLOAD_CLASSES = {cls.name: cls for cls in (Matrix, SingleCell, Sampled)}


def error_summary(errors: dict[str, tuple[float, float]]) -> dict[str, float]:
    mpki = [e[0] for e in errors.values()]
    ipc = [e[1] for e in errors.values()]
    return {
        "mpki_err_mean": sum(mpki) / len(mpki),
        "mpki_err_max": max(mpki),
        "ipc_err_mean": sum(ipc) / len(ipc),
        "ipc_err_max": max(ipc),
    }
