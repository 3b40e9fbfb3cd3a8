"""Per-layer probes of the traced run.

Each probe calls one layer's public functions directly, from this file,
on the workload's probe traces, inside a span; the per-layer metrics are
read back from the spans. The one layer only reachable through another
(the checkpoint pass inside ``simulate_sampled``) is timed by wrapping
its public function for the length of the probe. No source inside
``repro`` is changed.
"""

from __future__ import annotations

import functools
import os
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

from catalogue import MATRIX_POLICIES
from harness import PeakMemory, Spans, relative_error, release_free_memory, resident_kb
from workloads import error_summary

#: Warm-state checkpointing policy the sampling probe runs.
SAMPLING_PROBE_POLICY = "hawkeye"


def peak_traced_mb(call: Callable[[], Any]) -> float:
    """Peak Python heap allocated while ``call`` runs (tracemalloc), MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@contextmanager
def traced_calls(
    spans: Spans, module: ModuleType, attr: str, span_name: str, **attrs: object
) -> Iterator[None]:
    """Record a span around every call the program makes to ``module.attr``.

    The function is wrapped for the duration of the block and restored
    after it, so a layer called from inside another one is timed without
    editing the program.
    """
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with spans.span(span_name, **attrs):
            return original(*args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def probe_batch(spans: Spans, traces: dict) -> dict[tuple[str, str], Any]:
    """Plan and replay of every probe trace under the 7 matrix policies."""
    from repro.mem.batch import BatchSimulator

    results = {}
    for name, trace in traces.items():
        with spans.span("batch.plan", trace=name) as record:
            sim = BatchSimulator(trace)
        record["events"] = len(sim.plan.events)
        record["accesses"] = len(trace)
        for policy in MATRIX_POLICIES:
            with spans.span(f"batch.replay.{policy}", trace=name):
                results[(name, policy)] = sim.run_cell(policy)
        del sim
    return results


def probe_cache_and_journal(
    spans: Spans, traces: dict, results: dict, workdir: Path
) -> None:
    """Store, load and journal every result the batch probe produced."""
    from repro.core.config import cascade_lake
    from repro.core.simulator import DEFAULT_WARMUP_FRACTION
    from repro.harness.engine import ResultCache, cell_key
    from repro.resilience.durability import CELL_OK, RunJournal, sweep_spec_doc

    config = cascade_lake()
    cache = ResultCache(workdir / "cache")
    keys = {
        (name, policy): cell_key(traces[name], policy, config, DEFAULT_WARMUP_FRACTION)
        for name, policy in results
    }
    for cell, result in results.items():
        with spans.span("cache.store") as record:
            path = cache.store(keys[cell], result)
        record["bytes"] = path.stat().st_size if path is not None else 0
    for cell in results:
        with spans.span("cache.load"):
            cache.load(keys[cell])
    spec_doc = sweep_spec_doc(
        {name: t.digest() for name, t in traces.items()}, list(MATRIX_POLICIES),
        config.to_json_dict(), DEFAULT_WARMUP_FRACTION, False, None, None, cache.salt,
    )
    journal = RunJournal.open_or_create(workdir / "journal", spec_doc)
    if journal is None:
        raise RuntimeError(f"run journal under {workdir} is unusable")
    try:
        for (name, policy), key in keys.items():
            with spans.span("journal.record"):
                journal.record_cell(name, policy, CELL_OK, key=key, sync=True)
    finally:
        journal.close(complete=True)


def probe_sweeps(spans: Spans, traces: dict, workdir: Path) -> dict[str, float]:
    """The same cells swept at jobs=1 and jobs=2 (batched, fresh cache)."""
    from repro.harness.engine import SweepEngine

    stats = {"failed_cells": 0, "retries": 0}
    for jobs in (1, 2):
        sweep = SweepEngine(
            jobs=jobs,
            cache_dir=workdir / f"sweep{jobs}" / "cache",
            journal_dir=workdir / f"sweep{jobs}" / "journal",
        )
        with spans.span(f"sweep.jobs{jobs}"):
            outcome = sweep.run(
                traces, list(MATRIX_POLICIES), engine="batched", isolate_failures=True
            )
        stats["failed_cells"] += outcome.stats.errors
        if outcome.failure_report is not None:
            stats["retries"] += outcome.failure_report.total_failed_attempts
    return stats


def probe_fast(spans: Spans, traces: dict) -> float:
    """One ``simulate(engine="fast")`` per probe trace under lru and hawkeye.

    Returns the largest rise in resident memory over one cell, in MiB.
    """
    from repro.core.simulator import simulate

    peak_mb = 0.0
    for name, trace in traces.items():
        for policy in ("lru", "hawkeye"):
            release_free_memory()
            before_mb = resident_kb(os.getpid()) / 1024
            with PeakMemory() as memory:
                with spans.span(f"fast.cell.{policy}", trace=name, accesses=len(trace)):
                    simulate(trace, llc_policy=policy, engine="fast")
            peak_mb = max(peak_mb, memory.peak_mb - before_mb)
    return peak_mb


def probe_sampling(
    spans: Spans, traces: dict, full: dict[tuple[str, str], Any]
) -> dict[str, tuple[float, float]]:
    """Plan, checkpoint and interval passes of one sampled cell per trace.

    Returns the (MPKI, IPC) relative error of each estimate against the
    batch probe's full result of the same cell.
    """
    from repro.core.config import cascade_lake
    from repro.sampling import (
        SamplingSpec,
        build_plan,
        clear_checkpoint_store,
        executor,
        simulate_sampled,
    )

    config = cascade_lake()
    spec = SamplingSpec(warm_synthesis="checkpoint")
    policy = SAMPLING_PROBE_POLICY
    errors = {}
    for name, trace in traces.items():
        clear_checkpoint_store()
        with spans.span("sampling.plan", trace=name) as record:
            plan = build_plan(trace, spec)
        record["simulated"] = plan.simulated_accesses
        record["accesses"] = len(trace)
        # The first call computes the boundary checkpoints (timed through
        # a span around the executor's call) and fills the store; the
        # second call then runs only warm-state restores and intervals.
        walked = max(i.warm_start for i in plan.intervals)
        with traced_calls(spans, executor, "compute_boundary_checkpoints",
                          "sampling.checkpoint", trace=name, walked=walked):
            simulate_sampled(
                trace, config=config, llc_policy=policy, sampling=spec, plan=plan
            )
        with spans.span("sampling.interval", trace=name):
            estimate = simulate_sampled(
                trace, config=config, llc_policy=policy, sampling=spec, plan=plan
            )
        reference = full[(name, policy)]
        errors[name] = (
            relative_error(estimate.llc_mpki, reference.llc_mpki),
            relative_error(estimate.ipc, reference.ipc),
        )
    clear_checkpoint_store()
    return errors


def run_probes(spans: Spans, traces: dict, workdir: Path) -> dict[str, float]:
    """Every layer probe; returns the per-layer metrics.

    The plan/replay, cache, journal and sweep probes run on all of
    ``traces``, so the sweep overhead is measured on one set of cells.
    The per-cell engine, sampling and memory probes run on the first
    trace only, which keeps a traced run of 500k-access traces short.
    """
    from repro.mem.batch import BatchSimulator

    first_name, first = next(iter(traces.items()))
    results = probe_batch(spans, traces)
    probe_cache_and_journal(spans, traces, results, workdir / "direct")
    sweep_stats = probe_sweeps(spans, traces, workdir)
    fast_peak = probe_fast(spans, {first_name: first})
    sampling_errors = probe_sampling(spans, {first_name: first}, results)
    plan_peak = peak_traced_mb(lambda: BatchSimulator(first))

    def records(name: str) -> list[dict]:
        return [r for r in spans.records if r["name"] == name]

    accesses = sum(len(t) for t in traces.values())
    events = sum(r["events"] for r in records("batch.plan"))
    replay = {p: spans.total(f"batch.replay.{p}") for p in MATRIX_POLICIES}
    replay_s = sum(replay.values())
    plan_s = spans.total("batch.plan")
    stores = records("cache.store")
    walked = sum(r["walked"] for r in records("sampling.checkpoint"))
    checkpoint_s = spans.total("sampling.checkpoint")
    fast_s = {p: spans.total(f"fast.cell.{p}") for p in ("lru", "hawkeye")}
    jobs1, jobs2 = spans.total("sweep.jobs1"), spans.total("sweep.jobs2")
    direct_s = (
        plan_s + replay_s + spans.total("cache.store") + spans.total("journal.record")
    )
    return {
        "batch.plan_s": plan_s,
        "batch.plan_events": events,
        "batch.llc_visible_frac": events / accesses,
        "batch.plan_peak_mb": plan_peak,
        **{f"batch.replay_s.{p}": s for p, s in replay.items()},
        "batch.replay_s": replay_s,
        "batch.replay_ns_per_event": replay_s * 1e9 / (events * len(MATRIX_POLICIES)),
        "fast.cell_s.lru": fast_s["lru"],
        "fast.cell_s.hawkeye": fast_s["hawkeye"],
        "fast.ns_per_access": sum(fast_s.values()) * 1e9 / (2 * len(first)),
        "fast.peak_mb": fast_peak,
        "sampling.plan_s": spans.total("sampling.plan"),
        "sampling.checkpoint_s": checkpoint_s,
        "sampling.checkpoint_ns_per_access": checkpoint_s * 1e9 / max(walked, 1),
        "sampling.interval_s": spans.total("sampling.interval"),
        "sampling.simulated_frac": (
            sum(r["simulated"] for r in records("sampling.plan")) / len(first)
        ),
        **error_summary(sampling_errors),
        "cache.store_ms": 1e3 * spans.total("cache.store") / len(stores),
        "cache.load_ms": 1e3 * spans.total("cache.load") / len(records("cache.load")),
        "cache.entry_kb": sum(r["bytes"] for r in stores) / len(stores) / 1024,
        "journal.record_ms": (
            1e3 * spans.total("journal.record") / len(records("journal.record"))
        ),
        "sweep.overhead_s": jobs1 - direct_s,
        "sweep.parallel_efficiency": jobs1 / (2 * jobs2),
        "sweep.failed_cells": sweep_stats["failed_cells"],
        "sweep.retries": sweep_stats["retries"],
    }

