"""Sampling specification: what a sampled simulation is keyed on.

A :class:`SamplingSpec` is the complete, JSON-serializable description
of one representative-interval sampling configuration. It rides inside
the sweep engine's cell key (:func:`repro.harness.engine.cell_key`), so
two sweeps that sample differently can never collide in the on-disk
result cache, and a spec round-trips losslessly through JSON for the
CLI and the validation recorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError

#: Version of the spec's JSON representation (part of cell cache keys).
#: v3 dropped the ``replay`` strategy's ``replay_windows`` field.
SPEC_SCHEMA_VERSION = 3

#: Floor on the auto-sized measurement window, in accesses. Windows
#: below this measure too little to be statistically meaningful even on
#: tiny smoke traces.
MIN_AUTO_WINDOW = 250

#: Warm-state synthesis strategies the executor implements:
#:
#: * ``"recency"`` — rebuild per-level content from trace recency only
#:   (MTR-style); right for recency-family policies, blind to learned
#:   predictor tables.
#: * ``"checkpoint"`` — recency content plus predictor tables restored
#:   from a functional pass over the trace prefix, captured once per
#:   (trace, policy, config, boundaries) and reused across runs.
SYNTHESIS_STRATEGIES = ("recency", "checkpoint")


@dataclass(frozen=True)
class SamplingSpec:
    """Configuration of representative-interval sampling.

    Parameters
    ----------
    intervals:
        Number of clusters k — at most this many representative
        intervals are simulated (fewer when the trace has fewer
        windows, or when k-means leaves clusters empty).
    window_size:
        Accesses per interval window. ``0`` (the default) auto-sizes
        the window from the trace length so that simulating
        ``intervals`` representatives (warm-up windows included) costs
        at most ``1/target_reduction`` of a full run.
    warm_windows:
        Windows of real simulation run immediately before each measured
        interval (on top of the synthesized warm state) to settle DRAM
        row buffers, queues and policy recency state.
    seed:
        Seed of the deterministic k-means clustering. Fixed seed =>
        bit-identical interval selection and recombined results.
    target_reduction:
        The trace-reduction factor the auto window sizing aims for.
        Ignored when ``window_size`` is explicit.
    warm_synthesis:
        Warm-state synthesis strategy, one of
        :data:`SYNTHESIS_STRATEGIES`. ``"recency"`` rebuilds cache
        content only; ``"checkpoint"`` also restores predictor tables
        captured at interval boundaries by a functional pass over the
        trace prefix.
    """

    intervals: int = 4
    window_size: int = 0
    warm_windows: int = 1
    seed: int = 0
    target_reduction: int = 12
    warm_synthesis: str = "recency"

    def __post_init__(self) -> None:
        if self.intervals < 1:
            raise ConfigurationError(
                f"sampling intervals must be >= 1, got {self.intervals}"
            )
        if self.window_size < 0:
            raise ConfigurationError(
                f"sampling window_size must be >= 0 (0 = auto), "
                f"got {self.window_size}"
            )
        if self.warm_windows < 0:
            raise ConfigurationError(
                f"sampling warm_windows must be >= 0, got {self.warm_windows}"
            )
        if self.target_reduction < 2:
            raise ConfigurationError(
                f"sampling target_reduction must be >= 2, "
                f"got {self.target_reduction}"
            )
        if self.warm_synthesis not in SYNTHESIS_STRATEGIES:
            raise ConfigurationError(
                f"sampling warm_synthesis must be one of "
                f"{', '.join(SYNTHESIS_STRATEGIES)}; got {self.warm_synthesis!r}"
            )

    def effective_window(self, trace_accesses: int) -> int:
        """The window size used for a trace of ``trace_accesses`` records.

        Auto sizing solves ``intervals * windows_touched * window <=
        trace_accesses / target_reduction`` for the window, floored at
        :data:`MIN_AUTO_WINDOW` so degenerate traces still get a usable
        window. ``windows_touched`` counts the measured window and the
        timed warm-up windows.
        """
        if self.window_size > 0:
            return self.window_size
        per_interval = self.warm_windows + 1
        budget = self.intervals * per_interval * self.target_reduction
        return max(MIN_AUTO_WINDOW, trace_accesses // max(budget, 1))

    def to_json_dict(self) -> dict[str, Any]:
        """Canonical JSON form (embedded in sweep cell cache keys)."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "intervals": self.intervals,
            "window_size": self.window_size,
            "warm_windows": self.warm_windows,
            "seed": self.seed,
            "target_reduction": self.target_reduction,
            "warm_synthesis": self.warm_synthesis,
        }

    @classmethod
    def from_json_dict(cls, doc: dict[str, Any]) -> "SamplingSpec":
        """Rebuild a spec from :meth:`to_json_dict` output."""
        version = doc.get("schema_version")
        if version != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"sampling spec has schema_version={version!r}, "
                f"this build reads {SPEC_SCHEMA_VERSION}"
            )
        return cls(
            intervals=int(doc["intervals"]),
            window_size=int(doc["window_size"]),
            warm_windows=int(doc["warm_windows"]),
            seed=int(doc["seed"]),
            target_reduction=int(doc["target_reduction"]),
            warm_synthesis=str(doc["warm_synthesis"]),
        )

    @classmethod
    def from_string(cls, text: str) -> "SamplingSpec":
        """Parse a CLI spec string into a :class:`SamplingSpec`.

        ``"default"`` (or the empty string) yields the default spec;
        otherwise the string is comma-separated ``key=value`` pairs with
        the keys ``k`` (intervals), ``window``, ``warm``, ``seed``,
        ``reduction`` and ``synthesis`` (a strategy name from
        :data:`SYNTHESIS_STRATEGIES`), e.g.
        ``"k=4,window=0,synthesis=checkpoint"``.
        """
        text = text.strip()
        if text in ("", "default"):
            return cls()
        values: dict[str, Any] = {}
        aliases = {
            "k": "intervals",
            "intervals": "intervals",
            "window": "window_size",
            "window_size": "window_size",
            "warm": "warm_windows",
            "warm_windows": "warm_windows",
            "seed": "seed",
            "reduction": "target_reduction",
            "target_reduction": "target_reduction",
            "synthesis": "warm_synthesis",
            "warm_synthesis": "warm_synthesis",
        }
        for part in text.split(","):
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in aliases:
                raise ConfigurationError(
                    f"bad sampling spec element {part!r}; expected "
                    "comma-separated key=value pairs with keys "
                    "k, window, warm, seed, reduction, synthesis "
                    "(or 'default')"
                )
            field = aliases[key]
            raw = raw.strip()
            if field == "warm_synthesis":
                values[field] = raw  # validated by __post_init__
                continue
            try:
                values[field] = int(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad sampling spec value {part!r}: not an integer"
                ) from exc
        return cls(**values)

    def describe(self) -> str:
        """One-line human-readable form (CLI output)."""
        window = self.window_size if self.window_size else "auto"
        return (
            f"k={self.intervals} window={window} warm={self.warm_windows} "
            f"seed={self.seed} target_reduction={self.target_reduction}x "
            f"synthesis={self.warm_synthesis}"
        )
