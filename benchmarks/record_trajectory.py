#!/usr/bin/env python
"""Record a sweep-throughput entry in the checked-in perf trajectory.

Runs the smoke fig2/fig3 sweep matrix (every GAP + SPEC proxy workload
x every paper policy, at the ``REPRO_SMOKE`` scales) once per engine —
the per-cell fast path and the batched multi-cell engine — with the
result cache disabled, and appends a schema-versioned entry to
``BENCH_sweep.json`` at the repository root:

* git SHA and UTC date of the measurement,
* per-engine wall-clock and cells/second for the identical matrix,
* the batched-over-fast wall-clock speed-up.

The file is the project's canonical performance trajectory (linked from
README/ROADMAP): every CI benchmarks run appends the current commit's
numbers and ``check_regression.py --trajectory`` gates them against the
last checked-in entry, so a throughput regression (or a batched engine
that quietly stops being faster) fails the build instead of eroding
silently. Because both engines run in the same process on the same
machine, the *ratio* is robust to host speed even though the absolute
cells/second are not.

Usage::

    REPRO_SMOKE=1 python benchmarks/record_trajectory.py --jobs 1
    python benchmarks/check_regression.py --trajectory

Appends are guarded (``recording_guard``): a dirty working tree or an
existing entry for the same commit at the same matrix shape refuses the
recording — either would poison the trajectory's latest-vs-previous
comparison — unless ``--force`` is given.

The gated quantity is the *ratio*, so the trajectory is recorded at
``--jobs 1`` by default even on multi-core hosts: serial runs keep the
two engines' wall-clocks free of process-pool startup and per-worker
trace-registry transfer, a fixed absolute cost that would dent the
(much shorter) batched wall-clock disproportionately.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_TRAJECTORY = REPO_ROOT / "BENCH_sweep.json"

#: Version of one trajectory entry's layout.
ENTRY_SCHEMA = 1

#: Entry fields that together define the "matrix shape" for the
#: duplicate-recording guard: a re-measurement of the same commit at a
#: different scale or matrix is allowed, an identical one is refused.
SHAPE_KEYS = ("smoke", "scale", "matrix")

#: Engines measured per entry, in run order. The fast per-cell engine
#: runs first so its wall-clock is the denominator of the speed-up.
MEASURED_ENGINES = ("fast", "batched")


def _git_sha() -> str:
    """The commit being measured: CI's GITHUB_SHA, else git, else unknown."""
    env = os.environ.get("GITHUB_SHA", "").strip()
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _smoke_matrix() -> tuple[dict, list[str]]:
    """The fig2/fig3 sweep inputs at the effective (smoke) scales."""
    from repro.harness.experiments import gap_traces, spec_traces
    from repro.policies.registry import BASELINE_POLICY, PAPER_POLICIES

    traces: dict = {}
    traces.update(gap_traces())
    traces.update(spec_traces("spec06"))
    traces.update(spec_traces("spec17"))
    policies = list(dict.fromkeys([BASELINE_POLICY, *PAPER_POLICIES]))
    return traces, policies


def expected_shape(jobs: int) -> dict:
    """The shape the next entry will record, computed before measuring.

    Matches the ``SHAPE_KEYS`` fields :func:`measure` writes, so the
    duplicate-recording guard can refuse *before* the (minutes-long)
    measurement runs. ``jobs`` is accepted for signature symmetry but is
    deliberately not part of the shape: re-recording the same commit at
    a different ``--jobs`` still overwrites the gated ratio, so it is
    just as much a duplicate.
    """
    del jobs
    from repro.harness.experiments import (
        effective_gap_scale,
        effective_gap_window,
        effective_spec_window,
        smoke_mode,
    )

    traces, policies = _smoke_matrix()
    return {
        "smoke": smoke_mode(),
        "scale": {
            "gap_window": effective_gap_window(),
            "gap_scale": effective_gap_scale(),
            "spec_window": effective_spec_window(),
        },
        "matrix": {
            "workloads": len(traces),
            "policies": len(policies),
            "cells": len(traces) * len(policies),
        },
    }


def measure(jobs: int, repeats: int = 2) -> dict:
    """One trajectory entry: the smoke matrix timed under each engine.

    Caching is disabled so the numbers measure simulation throughput,
    not cache hits; traces are built (and memoized) before the first
    timer starts so workload generation is excluded from both engines
    equally.

    Each engine is timed ``repeats`` times and the entry keeps the
    *minimum* wall-clock — the standard estimator of un-contended run
    time, since interference (host contention, thermal throttling, a
    noisy CI neighbour) only ever adds time. Runs alternate engine
    order so a machine that slows down over the measurement cannot
    systematically tax whichever engine runs last.
    """
    from repro.harness.engine import SweepEngine
    from repro.harness.experiments import (
        effective_gap_scale,
        effective_gap_window,
        effective_spec_window,
        smoke_mode,
    )

    traces, policies = _smoke_matrix()
    cells = len(traces) * len(policies)
    best: dict[str, float] = {}
    # Both engines run with the cyclic garbage collector off: its full
    # passes re-traverse every long-lived container (traces, policy
    # tables, results), which measures the allocator, not the engines,
    # and every earlier trajectory entry was timed this way. Reference
    # counting still frees everything that matters here; the collector
    # is restored afterwards.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for rep in range(max(1, repeats)):
            order = MEASURED_ENGINES if rep % 2 == 0 else MEASURED_ENGINES[::-1]
            for name in order:
                sweep = SweepEngine(cache_dir=None, jobs=jobs)
                started = time.perf_counter()
                outcome = sweep.run(traces, policies, engine=name)
                wall = time.perf_counter() - started
                if outcome.stats.simulated != cells:
                    raise RuntimeError(
                        f"engine {name!r} simulated "
                        f"{outcome.stats.simulated} of {cells} cells — "
                        "trajectory numbers would not be comparable"
                    )
                best[name] = min(wall, best.get(name, wall))
                print(
                    f"  engine={name}: {cells} cells in {wall:.1f}s "
                    f"({cells / wall:.2f} cells/s, jobs={jobs}, "
                    f"run {rep + 1}/{max(1, repeats)})",
                    file=sys.stderr,
                )
                gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    engines = {
        name: {
            "wall_s": round(best[name], 3),
            "cells_per_sec": round(cells / best[name], 3),
        }
        for name in MEASURED_ENGINES
    }
    entry = {
        "schema": ENTRY_SCHEMA,
        "git_sha": _git_sha(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "smoke": smoke_mode(),
        "jobs": jobs,
        "repeats": max(1, repeats),
        "scale": {
            "gap_window": effective_gap_window(),
            "gap_scale": effective_gap_scale(),
            "spec_window": effective_spec_window(),
        },
        "matrix": {
            "workloads": len(traces),
            "policies": len(policies),
            "cells": cells,
        },
        "engines": engines,
    }
    entry["batched_speedup"] = round(
        engines["fast"]["wall_s"] / engines["batched"]["wall_s"], 3
    )
    return entry


def load_trajectory(path: Path) -> dict:
    """The trajectory document, or a fresh empty one."""
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    return {
        "schema": ENTRY_SCHEMA,
        "description": (
            "Sweep-throughput trajectory of the smoke fig2/fig3 matrix; "
            "appended by benchmarks/record_trajectory.py, gated by "
            "benchmarks/check_regression.py --trajectory"
        ),
        "entries": [],
    }


def append_entry(path: Path, entry: dict) -> None:
    document = load_trajectory(path)
    document["entries"].append(entry)
    path.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per sweep (default 1: the gated speed-up "
        "ratio is cleanest serial — see the module docstring)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timed runs per engine; the entry keeps the minimum (default 2)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_TRAJECTORY,
        help="trajectory file to append to (default: BENCH_sweep.json)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="record even with a dirty working tree or an existing entry "
             "for this commit at the same matrix shape",
    )
    args = parser.parse_args(argv)
    if str(BENCH_DIR) not in sys.path:  # direct-script and importlib runs
        sys.path.insert(0, str(BENCH_DIR))
    from recording_guard import RecordingGuardError, guard_append

    jobs = max(1, args.jobs)
    try:
        guard_append(
            args.output,
            load_trajectory(args.output).get("entries", []),
            _git_sha(),
            expected_shape(jobs),
            SHAPE_KEYS,
            force=args.force,
        )
    except RecordingGuardError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    entry = measure(jobs=jobs, repeats=max(1, args.repeats))
    append_entry(args.output, entry)
    print(
        f"appended entry for {entry['git_sha'][:12]} to {args.output} "
        f"(batched speed-up {entry['batched_speedup']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
