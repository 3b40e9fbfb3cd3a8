"""Representative-interval selection: from trace to sampling plan.

:func:`build_plan` windows the measured region of a trace, clusters the
windows on their BBV-like feature vectors, and picks one representative
window per cluster (the member closest to the cluster center, lowest
index on ties) weighted by its cluster's population — the SimPoint
recipe applied to memory-access windows. The resulting
:class:`SamplingPlan` is pure data: the executor simulates it, the CLI
renders it, and tests assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.simulator import DEFAULT_WARMUP_FRACTION
from ..errors import ConfigurationError
from ..trace.trace import Trace
from .features import window_features
from .kmeans import kmeans
from .spec import SamplingSpec


@dataclass(frozen=True)
class Interval:
    """One selected representative interval of a sampling plan."""

    #: Position of the window among the plan's eligible windows.
    index: int
    #: First trace record of the measured window.
    start: int
    #: One past the last trace record of the measured window.
    stop: int
    #: First record of the simulated warm-up run preceding the window.
    warm_start: int
    #: Number of eligible windows this interval stands for (its
    #: cluster's population) — the recombination weight.
    weight: int
    #: Cluster index the interval represents.
    cluster: int

    @property
    def measured_accesses(self) -> int:
        return self.stop - self.start

    @property
    def simulated_accesses(self) -> int:
        """Warm-up plus measured records actually simulated (timed)."""
        return self.stop - self.warm_start


@dataclass(frozen=True)
class SamplingPlan:
    """Everything needed to execute and audit one sampled run."""

    workload: str
    spec: SamplingSpec
    window_size: int
    #: Eligible (post-warm-up) windows the clustering ran over.
    num_windows: int
    intervals: tuple[Interval, ...]
    trace_accesses: int

    @property
    def total_weight(self) -> int:
        return sum(interval.weight for interval in self.intervals)

    @property
    def simulated_accesses(self) -> int:
        """Trace records simulated (all warm-up and measured windows)."""
        return sum(interval.simulated_accesses for interval in self.intervals)

    @property
    def reduction(self) -> float:
        """Trace-reduction factor: full length over simulated records."""
        if not self.simulated_accesses:
            return 0.0
        return self.trace_accesses / self.simulated_accesses

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "spec": self.spec.to_json_dict(),
            "window_size": self.window_size,
            "num_windows": self.num_windows,
            "trace_accesses": self.trace_accesses,
            "simulated_accesses": self.simulated_accesses,
            "reduction": round(self.reduction, 3),
            "intervals": [
                {
                    "index": i.index,
                    "start": i.start,
                    "stop": i.stop,
                    "warm_start": i.warm_start,
                    "weight": i.weight,
                    "cluster": i.cluster,
                }
                for i in self.intervals
            ],
        }

    def summary(self) -> str:
        return (
            f"{self.workload}: {len(self.intervals)} representative "
            f"interval(s) of {self.window_size} accesses covering "
            f"{self.num_windows} windows — simulate "
            f"{self.simulated_accesses} of {self.trace_accesses} accesses "
            f"({self.reduction:.1f}x reduction)"
        )


def build_plan(
    trace: Trace,
    spec: SamplingSpec,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> SamplingPlan:
    """Select weighted representative intervals for ``trace``.

    Deterministic for a fixed ``(trace, spec, warmup_fraction)``: the
    clustering seed comes from the spec and representative choice
    breaks ties by lowest window index. Intervals come back sorted by
    start position so the executor replays them in trace order.
    """
    if len(trace) == 0:
        raise ConfigurationError("cannot build a sampling plan for an empty trace")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    window = spec.effective_window(len(trace))
    if len(trace) < window:
        raise ConfigurationError(
            f"trace {trace.name!r} is too short to sample: {len(trace)} "
            f"accesses is less than one {window}-access window; run it "
            "unsampled or pass a smaller explicit window_size"
        )
    warmup_end = int(len(trace) * warmup_fraction)
    vectors, spans = window_features(trace, window, first_start=warmup_end)
    clustering = kmeans(vectors, spec.intervals, spec.seed)
    intervals: list[Interval] = []
    for cluster in range(clustering.k):
        members = np.nonzero(clustering.assignments == cluster)[0]
        if not len(members):
            continue
        # Among members (near-)tied at the minimum centroid distance,
        # take the one at the median trace position: feature-identical
        # windows can still differ in behaviour at a phase boundary
        # (e.g. the first windows of a re-scan phase miss while the
        # bulk hits), and those transients sit at the edges of the tied
        # run, never at its middle. Exact comparisons keep the choice
        # deterministic.
        member_distances = clustering.distances[members, cluster]
        tied = members[member_distances <= member_distances.min() + 1e-12]
        representative = int(tied[len(tied) // 2])
        start, stop = spans[representative]
        warm_start = max(start - spec.warm_windows * window, 0)
        intervals.append(
            Interval(
                index=representative,
                start=start,
                stop=stop,
                warm_start=warm_start,
                weight=int(len(members)),
                cluster=cluster,
            )
        )
    intervals.sort(key=lambda interval: interval.start)
    plan = SamplingPlan(
        workload=trace.name,
        spec=spec,
        window_size=window,
        num_windows=len(spans),
        intervals=tuple(intervals),
        trace_accesses=len(trace),
    )
    if plan.simulated_accesses >= len(trace):
        raise ConfigurationError(
            f"sampling plan for trace {trace.name!r} would simulate "
            f"{plan.simulated_accesses} of {len(trace)} accesses "
            f"(warm_windows={spec.warm_windows} around "
            f"{len(plan.intervals)} window(s) of {window}); the trace is "
            "too short for this spec — run it unsampled"
        )
    return plan
