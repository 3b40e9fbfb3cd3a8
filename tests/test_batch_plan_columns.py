"""Edge paths of the batched engine's columnar plan and chunked replay.

The plan stores timing records and LLC events as typed columns and every
replay reads them back :data:`~repro.mem.batch._CHUNK` records at a time.
Each case here runs the batched engine against the reference engine on
``small_test_machine`` and compares canonical JSON, choosing inputs that
land on a boundary of that layout: the unfolded record path, empty
phases, a phase without LLC events, event streams spanning several
chunks, and telemetry intervals that end inside a chunk.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import small_test_machine
from repro.core.simulator import simulate
from repro.errors import ConfigurationError
from repro.mem.batch import (
    _CHUNK,
    _EV_SHIFT,
    BatchSimulator,
    _fold_records,
    simulate_batched,
)
from repro.telemetry import TelemetryConfig
from repro.trace.record import AccessKind
from repro.trace.trace import Trace

POLICIES = ["lru", "drrip", "ship", "hawkeye", "mpppb"]


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def mixed_trace(n: int, seed: int = 11) -> Trace:
    """Loads, stores and instruction fetches: a hot set plus a cold tail.

    Random gaps give ROB retirements and foldable store runs; the cold
    half makes many records reach the small machine's LLC, with dirty
    L2 victims adding writeback events.
    """
    rng = np.random.default_rng(seed)
    block = np.where(
        rng.random(n) < 0.5, rng.integers(0, 4000, n), rng.zipf(1.3, n) % 64
    ).astype(np.uint64)
    kinds = rng.choice(
        [int(AccessKind.LOAD), int(AccessKind.STORE), int(AccessKind.IFETCH)],
        size=n, p=[0.6, 0.3, 0.1],
    ).astype(np.uint8)
    addrs = np.uint64(0x40000000) + block * np.uint64(64)
    pcs = np.uint64(0x400000) + (block % np.uint64(37)) * np.uint64(4)
    gaps = rng.integers(1, 9, size=n).astype(np.uint32)
    return Trace.from_arrays(addrs, pcs, kinds, gaps, name=f"mixed.{seed}")


def assert_matches_reference(trace, config, warmup_fraction=0.2, telemetry=None):
    batched = simulate_batched(
        trace, POLICIES, config=config, warmup_fraction=warmup_fraction,
        telemetry=telemetry,
    )
    for policy in POLICIES:
        reference = simulate(
            trace, config=config, llc_policy=policy, engine="reference",
            warmup_fraction=warmup_fraction, telemetry=telemetry,
        )
        assert canonical(batched[policy]) == canonical(reference), policy


def fold_loop(gws, lats, codes):
    """The record fold as one pass of Python floats: the reference for
    the vectorized ``_fold_records``."""
    out = []
    pending = 0.0
    have = False
    for gw, lat, code in zip(gws, lats, codes):
        if code == 0:
            pending += gw
            have = True
            continue
        if have:
            if code >> _EV_SHIFT:
                out.append((pending, 0, 0))
                out.append((gw, lat, code))
            else:
                out.append((pending + gw, lat, code))
            pending = 0.0
            have = False
        else:
            out.append((gw, lat, code))
    if have:
        out.append((pending, 0, 0))
    return out


@pytest.fixture(scope="module")
def machine():
    return small_test_machine()


@pytest.fixture(scope="module")
def long_trace():
    return mixed_trace(6 * _CHUNK + 137)


class TestFold:
    @pytest.mark.parametrize("seed", range(20))
    def test_vectorized_fold_equals_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        # Opcodes: mostly pure front-end records (0), event-free loads
        # (1, 3) and records carrying one LLC event, in long runs.
        code = rng.choice(
            [0, 0, 0, 1, 3, 1 << _EV_SHIFT | 1], size=n
        ).astype(np.int32)
        gw = rng.integers(1, 40, size=n) / 4
        lat = rng.integers(1, 300, size=n).astype(np.int32)
        folded = list(zip(*(col.tolist() for col in _fold_records(gw, lat, code))))
        assert folded == fold_loop(gw.tolist(), lat.tolist(), code.tolist())


class TestRecordPaths:
    def test_folded_plan_drops_records(self, machine, long_trace):
        plan = BatchSimulator(long_trace, machine).plan
        folded = len(plan.warmup_recs[0]) + len(plan.measured_recs[0])
        assert folded < len(long_trace)

    def test_non_power_of_two_width_keeps_unfolded_columns(self, machine, long_trace):
        config = replace(machine, core=replace(machine.core, dispatch_width=3))
        plan = BatchSimulator(long_trace, config).plan
        assert len(plan.warmup_recs[0]) + len(plan.measured_recs[0]) == len(long_trace)
        assert_matches_reference(long_trace, config)

    def test_events_span_many_chunks(self, machine, long_trace):
        plan = BatchSimulator(long_trace, machine).plan
        assert len(plan.events) > 2 * _CHUNK
        assert_matches_reference(long_trace, machine)


class TestPhaseBoundaries:
    def test_no_warmup(self, machine, long_trace):
        assert BatchSimulator(long_trace, machine, 0.0).plan.warmup_end == 0
        assert_matches_reference(long_trace, machine, warmup_fraction=0.0)

    def test_warmup_of_all_but_one_record(self, machine, long_trace):
        fraction = (len(long_trace) - 1) / len(long_trace)
        assert BatchSimulator(long_trace, machine, fraction).plan.warmup_end == (
            len(long_trace) - 1
        )
        assert_matches_reference(long_trace, machine, warmup_fraction=fraction)

    def test_full_warmup_is_rejected_like_reference(self, machine, long_trace):
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            simulate(long_trace, config=machine, warmup_fraction=1.0,
                     engine="reference")
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            BatchSimulator(long_trace, machine, 1.0)

    def test_phases_ending_in_store_runs(self, machine):
        # 300 store hits outlast the ROB, so both phases end in a run of
        # pure front-end records that folds into one trailing record.
        stores = Trace.from_arrays(
            np.full(300, 0x9000, dtype=np.uint64),
            np.full(300, 0x400000, dtype=np.uint64),
            np.full(300, int(AccessKind.STORE), dtype=np.uint8),
            np.ones(300, dtype=np.uint32),
        )
        trace = Trace.concat(
            [mixed_trace(1500, seed=1), stores, mixed_trace(1500, seed=2), stores]
        )
        plan = BatchSimulator(trace, machine, 0.5).plan
        assert plan.warmup_end == 1800
        assert plan.warmup_recs[2][-1] == 0 and plan.measured_recs[2][-1] == 0
        assert_matches_reference(trace, machine, warmup_fraction=0.5)

    def test_measured_phase_without_llc_events(self, machine):
        # Eight blocks fit in L1D: after the cold misses of the warm-up
        # every measured record hits, so no event is left to replay.
        addrs = np.uint64(0x9000) + (np.arange(4000) % 8).astype(np.uint64) * np.uint64(64)
        trace = Trace.from_arrays(
            addrs, np.full(4000, 0x400000, dtype=np.uint64),
            np.zeros(4000, dtype=np.uint8), np.full(4000, 3, dtype=np.uint32),
            name="l1.resident",
        )
        plan = BatchSimulator(trace, machine, 0.5).plan
        assert len(plan.events) > 0
        assert plan.measured_ec == len(plan.events)
        assert_matches_reference(trace, machine, warmup_fraction=0.5)

    def test_empty_trace(self, machine):
        empty = mixed_trace(0)
        plan = BatchSimulator(empty, machine).plan
        assert len(plan.events) == 0
        assert_matches_reference(empty, machine)


class TestTelemetryChunks:
    def test_intervals_end_inside_chunks_and_span_several(self, machine, long_trace):
        tele = TelemetryConfig(interval_instructions=7001)
        plan = BatchSimulator(long_trace, machine, telemetry=tele).plan
        cum = plan.measured_cum
        ends = np.searchsorted(cum, np.arange(1, cum[-1] // 7001 + 1) * 7001) + 1
        starts = np.concatenate(([0], ends[:-1]))
        assert (ends % _CHUNK != 0).any()
        assert (ends - starts > _CHUNK).any()
        assert_matches_reference(long_trace, machine, telemetry=tele)
