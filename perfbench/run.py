#!/usr/bin/env python3
"""Benchmark of the repro simulator: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload matrix --seed 42 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time (median of
three trace builds), cells and trace accesses completed per second in
the timed phase, and the peak resident memory of this process and
its pool workers during that phase. Times are scaled to a reference
host speed: a fixed pure-Python probe (``harness.host_probe``) runs
before and after every build and every unit of work, and each timing is
multiplied by the probe's reference time over its mean time around it,
which keeps most of a shared host's speed swings out of the metrics.
The unscaled unit timings and the probes go to standard error.
``--trace 1`` reports the per-layer metrics instead: it runs the timed
phase with spans around every unit (the spans' measured cost, in cells
per second, is the tracing overhead), then probes each layer's public
functions on the workload's probe traces (``probes.py``), and writes
the spans to ``perfbench/out/``. Both modes check every cell (see
``workloads.Workload.check``) and print, as the last line of standard
output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--record-reference`` (at the default seed only) re-simulates the
workload's cells on the reference engine and stores their digests in
``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from statistics import median
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"

#: Trace builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOAD_CLASSES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of every GAP graph (GapWorkloadSpec.seed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference digests instead of measuring")
    return parser.parse_args(argv)


def metric_doc(values: dict[str, float], units: dict[str, str]) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def timed_setup(workload, spans, seed: int) -> tuple[dict, float]:
    """The workload's traces and the seconds it took to build them.

    The seconds are scaled to the reference host speed by host probes
    taken just before and after the build, which runs in one process.
    """
    from harness import host_probe, host_scale

    before = host_probe(1)
    started = time.perf_counter()
    traces = workload.setup(spans, seed)
    elapsed = time.perf_counter() - started
    return traces, elapsed * host_scale(before, host_probe(1))


def measure(workload, traces, seconds: float, workdir: Path, reference: dict, seed):
    """The untraced run: end-to-end metrics and the correctness tally."""
    from harness import PeakMemory, Spans, release_free_memory

    units = workload.units(traces)
    release_free_memory()
    with PeakMemory() as memory:
        phase = workload.timed_phase(units, seconds, Spans(False), workdir, seed)
    tally = workload.check(phase, reference, seed)
    print(json.dumps({"unit_runs": phase.unit_runs, "host_runs": phase.host_runs}),
          file=sys.stderr)
    values = {
        "cells_per_s": phase.cells_per_s,
        "accesses_per_s": phase.accesses_per_s,
        "peak_rss_mb": memory.peak_mb,
    }
    return values, tally


def traced(workload, traces, spans, seconds: float, workdir: Path, reference, seed):
    """The traced run: per-layer metrics, tracing overhead, correctness.

    The traced phase is a quarter of the run's seconds, leaving room for the
    probes. The tracing overhead is the spans opened in it times the
    measured cost of one span, expressed as the cells per second it
    takes from the phase.
    """
    from harness import span_cost
    from probes import run_probes
    from workloads import error_summary

    units = workload.units(traces)
    spans.enabled = True
    before = len(spans.records)
    phase = workload.timed_phase(units, seconds / 4, spans, workdir, seed, 1)
    share = (len(spans.records) - before) * span_cost() / phase.seconds
    tally = workload.check(phase, reference, seed)
    values = run_probes(spans, workload.probe_traces(traces), workdir / "probes")
    if workload.name == "sampled":
        values.update(error_summary(workload.errors(phase, reference)))
    values.update({
        "trace.graph_s": spans.total("trace.graph"),
        "trace.kernel_s": spans.total("trace.kernel"),
        "trace.spec_s": spans.total("trace.spec"),
        "trace.accesses": sum(len(t) for t in traces.values()),
        "host.probe_ms": 1e3 * median(phase.host_runs),
        "tracing.cells_per_s": phase.cells_per_s,
        "tracing.overhead_cells_per_s": phase.cells_per_s * share / (1 - share),
    })
    return values, tally


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from catalogue import metric_units
    from harness import Spans
    from workloads import DEFAULT_SEED, WORKLOAD_CLASSES, load_reference

    workload = WORKLOAD_CLASSES[args.workload]()
    reference = load_reference()
    spans = Spans(bool(args.trace))
    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            print(f"error: references are recorded at seed {DEFAULT_SEED}",
                  file=sys.stderr)
            return 2
        traces, _ = timed_setup(workload, spans, args.seed)
        workload.record(traces, reference)
        path = BENCH_DIR / "reference.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"recorded {args.workload} references in {path}", file=sys.stderr)
        return 0

    traces, setup_s = timed_setup(workload, spans, args.seed)
    spans.enabled = False  # only the first build is traced
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "out"))
    try:
        if args.trace:
            values, tally = traced(
                workload, traces, spans, args.seconds, workdir, reference, args.seed
            )
            units = metric_units("per_layer")
            spans.write(BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.json")
        else:
            values, tally = measure(
                workload, traces, args.seconds, workdir, reference, args.seed
            )
            # The repeat builds run after the timed phase, so their
            # garbage never counts towards its peak memory.
            repeats = [timed_setup(workload, spans, args.seed)[1]
                       for _ in range(SETUP_REPEATS - 1)]
            values["setup_s"] = median([setup_s, *repeats])
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in tally.failures:
        print(f"failed cell: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metric_doc(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
