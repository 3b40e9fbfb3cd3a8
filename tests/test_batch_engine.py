"""Batched multi-cell engine: bit-identity, sweep integration, fallback.

The batched engine (repro.mem.batch) decodes a trace once and replays
every eligible policy against one shared plan; these tests hold it to
the same standard as the single-run fast path — bit-identical canonical
JSON against the reference — and cover the sweep-engine integration the
per-cell machinery must preserve: cache hits/misses, ineligible-cell
fallback, trace-dedup submission, and resilience (a poisoned batched
cell must not take the rest of the matrix down).
"""

import json
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from conftest import make_trace
from repro.core.config import small_test_machine
from repro.core.simulator import build_hierarchy, simulate
from repro.errors import ConfigurationError, SimulationError
from repro.harness.engine import (
    SweepEngine,
    _init_worker,
    _install_worker_traces,
    _simulate_cell_by_name,
    _simulate_group,
)
from repro.mem.batch import BatchSimulator, batch_eligible, simulate_batched
from repro.resilience import RetryPolicy
from repro.resilience.report import OUTCOME_RECOVERED
from repro.telemetry import TelemetryConfig
from repro.trace import synthetic
from repro.trace.record import AccessKind


#: Marker file of :func:`_run_cell_hanging_once`; set by the test that
#: installs the patch. Module state, so forked pool workers inherit it.
_HANG_MARKER: list = []
_ORIGINAL_RUN_CELL = BatchSimulator.run_cell


def _run_cell_hanging_once(self, llc_policy, hierarchy=None):
    """``BatchSimulator.run_cell`` that hangs 30 s on its first call.

    The first caller (in any process) creates the marker file; every
    later call, in any worker, replays normally.
    """
    (marker,) = _HANG_MARKER
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        pass
    else:
        time.sleep(30)
    return _ORIGINAL_RUN_CELL(self, llc_policy, hierarchy)


def _signal_actions():
    """This process's SIGTERM and SIGINT actions (run in a pool worker)."""
    return signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def canon_matrix(outcome) -> dict:
    return {
        (workload, policy): canonical(result)
        for workload, row in outcome.matrix.results.items()
        for policy, result in row.items()
    }


POLICIES = ["lru", "ship", "drrip"]


@pytest.fixture(scope="module")
def machine():
    return small_test_machine()


@pytest.fixture(scope="module")
def traces():
    return {
        "zipf": synthetic.zipf_reuse(2_500, num_blocks=400, seed=3),
        "stream": synthetic.strided(2_500, stride=64, elements=120),
    }


@pytest.fixture(scope="module")
def fast_baseline(machine, traces):
    """The per-cell fast engine's canonical results (telemetry off)."""
    return canon_matrix(
        SweepEngine().run(traces, POLICIES, config=machine)
    )


class TestSimulateBatched:
    def test_bit_identical_to_single_run(self, machine, traces):
        trace = traces["zipf"]
        batched = simulate_batched(trace, POLICIES, config=machine)
        for policy in POLICIES:
            single = simulate(trace, config=machine, llc_policy=policy)
            assert canonical(batched[policy]) == canonical(single), policy

    def test_telemetry_armed_bit_identical(self, machine, traces):
        trace = traces["stream"]
        tele = TelemetryConfig(interval_instructions=600)
        batched = simulate_batched(
            trace, ["lru", "ship"], config=machine, telemetry=tele
        )
        for policy in ("lru", "ship"):
            single = simulate(
                trace, config=machine, llc_policy=policy, telemetry=tele
            )
            assert canonical(batched[policy]) == canonical(single), policy

    def test_ineligible_trace_falls_back(self, machine):
        # WRITEBACK records are outside the modeled kinds; the batched
        # wrapper must route the cell through simulate() instead.
        trace = make_trace([0, 64, 128, 192], kinds=int(AccessKind.WRITEBACK))
        assert not batch_eligible(build_hierarchy(machine, "lru"), trace)
        batched = simulate_batched(trace, ["lru"], config=machine)
        single = simulate(trace, config=machine, llc_policy="lru")
        assert canonical(batched["lru"]) == canonical(single)

    def test_eligibility_mirrors_fastpath_guards(self, machine, traces):
        from repro.mem.prefetcher import NextLinePrefetcher
        from repro.policies.registry import make_policy

        zipf = traces["zipf"]
        assert batch_eligible(build_hierarchy(machine, "hawkeye"), zipf)
        with_pf = build_hierarchy(
            machine, "lru", l2_prefetcher=NextLinePrefetcher()
        )
        assert not batch_eligible(with_pf, zipf)
        inclusive = build_hierarchy(machine, "lru", inclusive=True)
        assert not batch_eligible(inclusive, zipf)
        swapped = build_hierarchy(machine, "lru")
        swapped.l1d.policy = make_policy("fifo")
        assert not batch_eligible(swapped, zipf)


class TestBatchedSweepBitIdentity:
    def test_serial_batched_equals_fast(self, machine, traces, fast_baseline):
        outcome = SweepEngine().run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == fast_baseline
        assert outcome.stats.simulated == len(traces) * len(POLICIES)

    def test_parallel_batched_equals_fast(self, machine, traces, fast_baseline):
        outcome = SweepEngine(jobs=2).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == fast_baseline

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_telemetry_armed_batched_equals_fast(self, machine, traces, jobs):
        tele = TelemetryConfig(interval_instructions=600)
        fast = canon_matrix(
            SweepEngine().run(traces, POLICIES, config=machine, telemetry=tele)
        )
        batched = canon_matrix(
            SweepEngine(jobs=jobs).run(
                traces, POLICIES, config=machine, telemetry=tele,
                engine="batched",
            )
        )
        assert batched == fast

    def test_resilient_batched_equals_fast(self, machine, traces, fast_baseline):
        outcome = SweepEngine(jobs=2).run(
            traces, POLICIES, config=machine, engine="batched",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              backoff_max=0.05),
        )
        assert canon_matrix(outcome) == fast_baseline
        assert not outcome.failure_report.cells  # nothing was absorbed

    def test_invalid_engine_rejected(self, machine, traces):
        with pytest.raises(ConfigurationError, match="sweep engine"):
            SweepEngine().run(traces, ["lru"], config=machine, engine="warp")


class TestCacheInteraction:
    def test_batched_populates_the_shared_cache(
        self, tmp_path, machine, traces, fast_baseline
    ):
        # Engine choice is not part of the cell key: a batched sweep's
        # entries must serve a later fast-engine sweep verbatim.
        cells = len(traces) * len(POLICIES)
        first = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert first.stats.simulated == cells and first.stats.hits == 0
        second = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="fast"
        )
        assert second.stats.hits == cells and second.stats.simulated == 0
        assert canon_matrix(second) == fast_baseline

    def test_cached_cells_never_reach_the_batch_path(
        self, tmp_path, machine, traces, monkeypatch
    ):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, POLICIES, config=machine, engine="batched")

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("batched path ran despite a full cache")

        monkeypatch.setattr(BatchSimulator, "__init__", boom)
        outcome = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert outcome.stats.hits == len(traces) * len(POLICIES)

    def test_partial_cache_batches_only_the_pending_cells(
        self, tmp_path, machine, traces, fast_baseline
    ):
        warm = SweepEngine(cache_dir=tmp_path, jobs=1)
        warm.run({"zipf": traces["zipf"]}, POLICIES, config=machine)
        outcome = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert outcome.stats.hits == len(POLICIES)
        assert outcome.stats.simulated == len(POLICIES)
        assert canon_matrix(outcome) == fast_baseline


class TestIneligibleFallback:
    def test_writeback_trace_completes_per_cell(self, machine, traces):
        mixed = dict(traces)
        mixed["wb"] = make_trace(
            [i * 64 for i in range(64)], kinds=int(AccessKind.WRITEBACK),
            name="wb",
        )
        batched = canon_matrix(
            SweepEngine().run(mixed, POLICIES, config=machine, engine="batched")
        )
        fast = canon_matrix(
            SweepEngine().run(mixed, POLICIES, config=machine)
        )
        assert batched == fast
        assert {w for w, _ in batched} == {"zipf", "stream", "wb"}

    def test_plan_failure_falls_back_per_cell(
        self, machine, traces, fast_baseline, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("plan construction exploded")

        monkeypatch.setattr(BatchSimulator, "__init__", boom)
        outcome = SweepEngine().run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == fast_baseline

    def test_group_worker_reports_incomplete_cells(self, machine, traces):
        original = BatchSimulator.run_cell

        def flaky(self, policy, hierarchy):
            if policy == "ship":
                raise RuntimeError("cell exploded mid-batch")
            return original(self, policy, hierarchy)

        BatchSimulator.run_cell = flaky
        try:
            outcomes = _simulate_group(
                "zipf", POLICIES, traces["zipf"], machine, 0.2
            )
        finally:
            BatchSimulator.run_cell = original
        by_policy = {policy: completed for policy, completed, _ in outcomes}
        assert by_policy == {"lru": True, "ship": False, "drrip": True}
        (failed,) = [payload for policy, _, payload in outcomes if policy == "ship"]
        assert isinstance(failed, RuntimeError)


class TestResilienceIntegration:
    def test_poisoned_batched_cell_rest_recovers(
        self, machine, traces, fast_baseline, monkeypatch
    ):
        """One cell fails in the batch AND per-cell with MemoryError: it
        must be isolated as poison while every other cell — including the
        other policies of the same trace — completes bit-identically."""
        import repro.harness.engine as engine_module

        original_run_cell = BatchSimulator.run_cell

        def poisoned_run_cell(self, policy, hierarchy):
            if policy == "ship" and self.trace.name == traces["zipf"].name:
                raise MemoryError("poisoned cell")
            return original_run_cell(self, policy, hierarchy)

        original_cell = engine_module._simulate_cell

        def poisoned_cell(workload, policy, trace, *args, **kwargs):
            if workload == "zipf" and policy == "ship":
                raise MemoryError("poisoned cell")
            return original_cell(workload, policy, trace, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "run_cell", poisoned_run_cell)
        monkeypatch.setattr(engine_module, "_simulate_cell", poisoned_cell)

        outcome = SweepEngine().run(
            traces, POLICIES, config=machine, engine="batched",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              backoff_max=0.05),
            isolate_failures=True,
        )
        assert set(outcome.errors) == {("zipf", "ship")}
        assert outcome.errors[("zipf", "ship")].classification == "poison"
        survived = canon_matrix(outcome)
        expected = {
            cell: payload for cell, payload in fast_baseline.items()
            if cell != ("zipf", "ship")
        }
        assert survived == expected
        report = outcome.failure_report
        assert len(report.poisoned) == 1


class TestTraceDedup:
    """The standalone fix: traces cross the pool boundary once per
    worker (via the initializer registry), never per submitted cell."""

    def _recording_pool(self, monkeypatch):
        import repro.harness.engine as engine_module

        captured = {"initargs": [], "submits": []}

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                captured["initargs"].append(kwargs.get("initargs"))
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                captured["submits"].append((fn.__name__, args))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", RecordingPool)
        return captured

    def test_parallel_submits_names_not_traces(
        self, machine, traces, monkeypatch
    ):
        from repro.trace.trace import Trace

        captured = self._recording_pool(monkeypatch)
        SweepEngine(jobs=2).run(traces, POLICIES, config=machine)
        assert len(captured["submits"]) == len(traces) * len(POLICIES)
        for name, args in captured["submits"]:
            assert name == "_simulate_cell_by_name"
            assert not any(isinstance(a, Trace) for a in args)
        (initargs,) = captured["initargs"]
        (registry,) = initargs
        assert set(registry) == set(traces)

    def test_batched_groups_submit_names_not_traces(
        self, machine, traces, monkeypatch
    ):
        from repro.trace.trace import Trace

        captured = self._recording_pool(monkeypatch)
        SweepEngine(jobs=2).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        group_submits = [
            (name, args) for name, args in captured["submits"]
            if name == "_simulate_group_by_name"
        ]
        assert len(group_submits) == len(traces)
        for _, args in group_submits:
            assert not any(isinstance(a, Trace) for a in args)

    def test_group_failures_are_recorded_and_split_cells_share_the_pool(
        self, machine, traces, fast_baseline, monkeypatch
    ):
        original = BatchSimulator.run_cell

        def flaky(self, policy, hierarchy=None):
            if policy == "ship":
                raise RuntimeError("cell exploded mid-batch")
            return original(self, policy, hierarchy)

        monkeypatch.setattr(BatchSimulator, "run_cell", flaky)
        captured = self._recording_pool(monkeypatch)
        outcome = SweepEngine(jobs=2).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == fast_baseline
        report = outcome.failure_report
        assert set(report.cells) == {(w, "ship") for w in traces}
        for workload in traces:
            history = report.cells[(workload, "ship")]
            assert history.outcome == OUTCOME_RECOVERED
            (attempt,) = history.attempts
            assert attempt.attempt == 0
            assert attempt.error_type == "RuntimeError"
            assert attempt.classification == "deterministic"
        # The failed cells reran per cell on the groups' pool.
        assert len(captured["initargs"]) == 1
        cell_submits = [
            args for name, args in captured["submits"]
            if name == "_simulate_cell_by_name"
        ]
        assert sorted(args[:2] for args in cell_submits) == sorted(
            (w, "ship") for w in traces
        )

    def test_single_group_hands_back_cells_to_the_pool(
        self, machine, monkeypatch
    ):
        # One workload is one unit; the pool is sized by its cells, so
        # the cells an ineligible group hands back still run in parallel.
        wb = {"wb": make_trace(
            [i * 64 for i in range(64)], kinds=int(AccessKind.WRITEBACK),
            name="wb",
        )}
        fast = canon_matrix(SweepEngine().run(wb, POLICIES, config=machine))
        captured = self._recording_pool(monkeypatch)
        outcome = SweepEngine(jobs=2).run(
            wb, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == fast
        assert len(captured["initargs"]) == 1
        names = [name for name, _ in captured["submits"]]
        assert names.count("_simulate_group_by_name") == 1
        assert names.count("_simulate_cell_by_name") == len(POLICIES)
        assert not outcome.failure_report.cells  # ineligible is no failure

    def test_worker_registry_resolves_and_rejects(self, machine, traces):
        _install_worker_traces(dict(traces))
        try:
            workload, policy, result = _simulate_cell_by_name(
                "zipf", "lru", machine, 0.2, False
            )
            assert (workload, policy) == ("zipf", "lru")
            direct = simulate(traces["zipf"], config=machine, llc_policy="lru")
            assert canonical(result) == canonical(direct)
            with pytest.raises(SimulationError, match="no registered trace"):
                _simulate_cell_by_name("missing", "lru", machine, 0.2, False)
        finally:
            _install_worker_traces({})


class TestBatchedWatchdog:
    def test_batched_groups_honour_the_cell_timeout(
        self, tmp_path, machine, traces, fast_baseline, monkeypatch
    ):
        _HANG_MARKER[:] = [tmp_path / "hung"]
        monkeypatch.setattr(BatchSimulator, "run_cell", _run_cell_hanging_once)
        try:
            started = time.monotonic()
            outcome = SweepEngine(jobs=2).run(
                traces, POLICIES, config=machine, engine="batched",
                retry=RetryPolicy(max_attempts=2, cell_timeout=2,
                                  backoff_base=0.01, backoff_max=0.05),
            )
            elapsed = time.monotonic() - started
        finally:
            _HANG_MARKER.clear()
        assert elapsed < 20, f"a hung group held the sweep for {elapsed:.1f}s"
        assert canon_matrix(outcome) == fast_baseline
        report = outcome.failure_report
        timeouts = report.attempts_with_error("CellTimeoutError")
        assert timeouts
        assert all(a.attempt == 0 and a.classification == "transient"
                   for a in timeouts)
        # The group deadline is cell_timeout x its 3 policies; every cell
        # of the hung group is charged the one group timeout.
        assert all(a.duration >= 2 * len(POLICIES) for a in timeouts)
        (hung,) = {w for w, _ in report.cells}
        assert set(report.cells) == {(hung, p) for p in POLICIES}
        assert all(h.outcome == OUTCOME_RECOVERED for h in report.cells.values())
        assert report.pool_rebuilds >= 1

    def test_workers_drop_the_shutdown_handlers(self):
        """Forked workers must not inherit the CLI's graceful-shutdown
        handlers: the watchdog's terminate() has to kill a hung worker,
        and a terminal Ctrl-C is the parent's to handle."""
        from repro.resilience.durability import ShutdownCoordinator

        with ShutdownCoordinator():
            with ProcessPoolExecutor(
                max_workers=1, initializer=_init_worker, initargs=({},)
            ) as pool:
                term, intr = pool.submit(_signal_actions).result()
        assert term == signal.SIG_DFL
        assert intr == signal.SIG_IGN


class TestEquivalenceHarness:
    def test_verify_fastpath_batched_engine(self, machine):
        from repro.harness.equivalence import verify_fastpath

        traces = {"zipf": synthetic.zipf_reuse(2_000, num_blocks=300, seed=5)}
        report = verify_fastpath(
            config=machine, policies=["lru", "ship"], traces=traces,
            engine="batched",
        )
        assert report.passed
        assert report.fast_coverage == len(report.cases) == 4

    def test_invalid_candidate_engine_rejected(self, machine):
        from repro.harness.equivalence import verify_fastpath

        with pytest.raises(ValueError, match="candidate engine"):
            verify_fastpath(config=machine, engine="warp")
