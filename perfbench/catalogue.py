"""The benchmark's metrics: units from BENCHMARK.json, layers from here.

``BENCHMARK.json`` at the repository root names every metric with its
unit and direction. Its schema has no field for the layer a per-layer
metric times or for the end-to-end metric (and workload) it should move
— the prediction a performance change is judged against — so that map
is kept here, in :data:`PER_LAYER`. The map also names ``sampled``, the
workload that is run by hand rather than listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: The LLC policies of the paper's matrix, baseline first.
MATRIX_POLICIES = ("lru", "srrip", "drrip", "ship", "hawkeye", "glider", "mpppb")


def metric_units(kind: str, path: Path = BENCHMARK_JSON) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    doc = json.loads(path.read_text())
    return {metric["name"]: metric["unit"] for metric in doc[kind]}


_ALL = "matrix,single_cell,sampled"

#: Per-layer metrics of the traced run:
#: name -> (layer, the end-to-end metrics it should move, and where).
PER_LAYER: dict[str, tuple[str, str]] = {
    "trace.graph_s": ("repro.graphs", f"setup_s@{_ALL}"),
    "trace.kernel_s": ("repro.gap", f"setup_s@{_ALL}"),
    "trace.spec_s": ("repro.spec", "setup_s@matrix,sampled"),
    "trace.accesses": ("repro.trace", "none (input size)"),
    "batch.plan_s": (
        "repro.mem.batch",
        "cells_per_s@matrix; cells_per_s,peak_rss_mb@single_cell once fast "
        "goes through plan/replay; none@sampled",
    ),
    "batch.plan_events": ("repro.mem.batch", "cells_per_s@matrix"),
    "batch.llc_visible_frac": ("repro.mem.batch", "cells_per_s@matrix"),
    "batch.plan_peak_mb": ("repro.mem.batch", "peak_rss_mb@matrix,single_cell"),
    **{
        f"batch.replay_s.{policy}": ("repro.mem.batch", "cells_per_s@matrix")
        for policy in MATRIX_POLICIES
    },
    "batch.replay_s": ("repro.mem.batch", "cells_per_s@matrix"),
    "batch.replay_ns_per_event": ("repro.mem.batch", "cells_per_s@matrix"),
    **{
        name: ("repro.mem.fastpath", "cells_per_s@single_cell,sampled; none@matrix")
        for name in ("fast.cell_s.lru", "fast.cell_s.hawkeye", "fast.ns_per_access")
    },
    "fast.peak_mb": ("repro.mem.fastpath", "peak_rss_mb@single_cell"),
    **{
        name: ("repro.sampling", "cells_per_s@sampled")
        for name in ("sampling.plan_s", "sampling.checkpoint_s",
                     "sampling.checkpoint_ns_per_access", "sampling.interval_s")
    },
    "sampling.simulated_frac": (
        "repro.sampling", "cells_per_s@sampled; *_err_* must not move unless meant to",
    ),
    **{
        name: ("repro.sampling", "none: accuracy, moves only when meant to")
        for name in ("mpki_err_mean", "mpki_err_max", "ipc_err_mean", "ipc_err_max")
    },
    **{
        name: ("repro.harness.engine", "cells_per_s@matrix")
        for name in ("cache.store_ms", "cache.load_ms", "cache.entry_kb")
    },
    "journal.record_ms": ("repro.resilience.durability", "cells_per_s@matrix"),
    **{
        name: ("repro.harness.engine", "cells_per_s@matrix")
        for name in ("sweep.overhead_s", "sweep.parallel_efficiency",
                     "sweep.failed_cells", "sweep.retries")
    },
    "host.probe_ms": ("perfbench", "none (the host speed the traced phase saw)"),
    "tracing.cells_per_s": ("perfbench", "none (traced timed phase)"),
    "tracing.overhead_cells_per_s": (
        "perfbench", "none (spans opened x measured cost of one span)",
    ),
}

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_name(name: str) -> bool:
    """Whether a metric name uses only letters, digits, ``_``, ``.``, ``-``."""
    return bool(_NAME.match(name))

