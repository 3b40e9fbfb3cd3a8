"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from catalogue import BENCHMARK_JSON, PER_LAYER, metric_units, valid_name  # noqa: E402
from harness import (  # noqa: E402
    HOST_REFERENCE_S,
    PeakMemory,
    Spans,
    Tally,
    host_probe,
    resident_kb,
)
from workloads import Cell, Outcome, Phase, SingleCell, result_digest  # noqa: E402


class FakeTrace:
    def __init__(self, name: str) -> None:
        self.name = name

    def digest(self) -> str:
        return f"digest-of-{self.name}"

    def __len__(self) -> int:
        return 1000


class FakeResult:
    def __init__(self, **fields: float) -> None:
        self.fields = fields

    def to_json_dict(self) -> dict:
        return dict(self.fields)


def reference_for(cells: dict[Cell, FakeResult]) -> dict:
    doc: dict = {"cells": {}}
    for cell, result in cells.items():
        per_trace = doc["cells"].setdefault(cell.trace.digest(), {"policies": {}})
        per_trace["policies"][cell.policy] = {"digest": result_digest(result)}
    return doc


def test_perturbed_result_is_a_failed_cell():
    cell = Cell(FakeTrace("bfs.kron16"), "lru")
    good = FakeResult(llc_mpki=12.5, ipc=0.75)
    reference = reference_for({cell: good})
    phase = Phase([Outcome(cell, result=FakeResult(llc_mpki=12.5, ipc=0.75))], 1.0)
    assert SingleCell().check(phase, reference, seed=0).failed == 0

    perturbed = FakeResult(llc_mpki=12.5, ipc=0.7500001)
    tally = SingleCell().check(Phase([Outcome(cell, result=perturbed)], 1.0), reference, 0)
    assert tally.attempted == 1
    assert tally.failed == 1
    assert "digest" in tally.failures[0]


def test_failed_share_counts_against_attempted_cells():
    cells = [Cell(FakeTrace(f"t{i}"), "lru") for i in range(4)]
    results = {cell: FakeResult(value=i) for i, cell in enumerate(cells)}
    reference = reference_for(results)
    outcomes = [
        Outcome(cells[0], result=results[cells[0]]),
        Outcome(cells[1], error="SimulationError: boom"),
        Outcome(cells[2], result=FakeResult(value=99)),
        Outcome(cells[3], result=results[cells[3]]),
    ]
    tally = SingleCell().check(Phase(outcomes, 1.0), reference, 0)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 2, False)

    later = Tally()
    later.attempt("a")
    later.attempt("b")
    later.fail("a", "spot check mismatch")
    assert (later.attempted, later.failed, later.correct) == (2, 1, False)

    over_budget = Tally()
    over_budget.attempt("a")
    over_budget.attempt("b", "error over budget", wrong=False)
    assert (over_budget.attempted, over_budget.failed, over_budget.correct) == (2, 1, True)


def _hold_memory(megabytes: int, ready, release) -> None:
    block = b"x" * (megabytes << 20)  # written, so resident
    ready.set()
    release.wait(30)
    del block


def test_peak_memory_covers_pool_workers():
    ctx = multiprocessing.get_context("spawn")
    ready, release = ctx.Event(), ctx.Event()
    worker = ctx.Process(target=_hold_memory, args=(96, ready, release))
    own_mb = resident_kb(os.getpid()) / 1024
    with PeakMemory(interval=0.01) as memory:
        worker.start()
        try:
            assert ready.wait(60), "worker never allocated"
            memory.sample()
        finally:
            release.set()
            worker.join(30)
    assert not worker.is_alive()
    assert memory.peak_mb >= own_mb + 80


def test_metric_names_are_well_formed():
    if not BENCHMARK_JSON.is_file():
        pytest.skip("BENCHMARK.json not present")
    doc = json.loads(BENCHMARK_JSON.read_text())
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in doc[kind]]
    assert len(names) == len(set(names))
    assert [name for name in names if not valid_name(name)] == []
    assert not valid_name("cells per s")
    assert not valid_name(".hidden")
    assert set(metric_units("per_layer")) == set(PER_LAYER)


def test_spans_nest_and_disable():
    spans = Spans(True)
    with spans.span("outer"):
        with spans.span("inner", trace="t"):
            pass
    outer, inner = spans.records
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert spans.total("outer") >= spans.total("inner") >= 0
    off = Spans(False)
    with off.span("outer"):
        pass
    assert off.records == []


def test_unit_times_are_scaled_by_the_host_probes_around_them():
    # Two runs of one unit. The first, 4 s between two probes that read
    # twice the reference time (a host at half speed), scales to 2 s; the
    # second, 2 s between a slow and a reference-speed probe, to 2 s / 1.5.
    slow, fast = 2 * HOST_REFERENCE_S, HOST_REFERENCE_S
    phase = Phase(
        unit_runs=[(0, 4.0, 7, 7000), (0, 2.0, 7, 7000)],
        host_runs=[slow, slow, fast],
    )
    assert phase.cells_per_s == pytest.approx(7 / ((2.0 + 2.0 / 1.5) / 2))
    steady = Phase(unit_runs=[(0, 2.0, 7, 7000)], host_runs=[slow, slow])
    assert steady.accesses_per_s == pytest.approx(7000 / 1.0)


def test_host_probe_leaves_no_process_behind():
    assert host_probe(1) > 0
    assert host_probe(2) > 0
    assert multiprocessing.active_children() == []

