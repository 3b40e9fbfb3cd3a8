"""Fault-tolerant execution of sweep work units.

:class:`ResilientExecutor` is the one execution loop of
:meth:`repro.harness.engine.SweepEngine.run`, serial or over a process
pool. Its unit of work is a :class:`WorkUnit`: either one cell
``(workload, (policy,))``, or a *batch group* — one workload's pending
policies replayed against a shared batch plan. A group returns one
outcome per policy; the cells it did not complete go back into the same
queue as single-cell units, so they run on the same pool (and its trace
registry) under the same retry rules as every other cell.

The executor owns the recovery mechanisms:

* **Retry with deterministic backoff** — transient cell failures are
  retried up to ``max_attempts`` with exponential backoff and seeded
  jitter; deterministic failures fail fast.
* **Watchdog timeouts** — each in-flight unit carries a wall-clock
  deadline (``cell_timeout`` per cell, ``cell_timeout x len(policies)``
  per group). A unit that blows it has its worker pool torn down (a hung
  worker cannot be cancelled politely); a cell is charged a strike and
  retried, a group splits into cells. Innocent in-flight units are
  resubmitted at the *same* attempt number with no penalty.
* **``BrokenProcessPool`` recovery** — a worker dying (OOM killer,
  ``os._exit``, segfault) breaks the whole ``ProcessPoolExecutor``. The
  executor rebuilds the pool, charges a strike to every cell whose
  future died with it (the culprit cannot be singled out post-mortem;
  innocents rotate, so spurious strikes do not accumulate on any one
  cell), and resubmits. A cell that keeps killing workers past
  ``poison_strikes`` is marked **poison** and abandoned so the rest of
  the matrix can finish.
* **Graceful shutdown** — with a coordinator armed, a raised flag stops
  submission and drains in-flight units for a bounded window.

A group failure — an exception out of the group, its timeout, or one
policy's replay raising — is recorded as a classified attempt ``0`` on
every affected cell. It uses up none of the cell's own attempts and
adds no strike. Policies a group skips as not batch-eligible have not
failed and are not recorded.

Submission is bounded to the worker count, so every in-flight future is
actually running — deadlines measure real wall-clock execution, and a
pool break never charges strikes to units that were still queued.

Every absorbed failure lands in the shared
:class:`~repro.resilience.report.FailureReport`.
"""

from __future__ import annotations

import heapq
import itertools
import time
import traceback as traceback_module
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, cast

from ..errors import CellTimeoutError, MemoryBudgetError
from .durability import ShutdownCoordinator
from .policy import FailureKind, RetryPolicy, classify_failure
from .report import (
    OUTCOME_FAILED,
    OUTCOME_POISONED,
    OUTCOME_RECOVERED,
    CellAttempt,
    FailureReport,
)

#: Floor on the wait() slice so a pathological deadline spread cannot
#: degenerate into a busy loop.
_MIN_WAIT = 0.01

#: Ceiling on waits while a shutdown coordinator is armed: Python signal
#: handlers cannot interrupt ``concurrent.futures.wait`` or a PEP-475
#: ``time.sleep``, so the loop must come up for air to see the flag.
_SHUTDOWN_POLL = 0.5


@dataclass(frozen=True)
class WorkUnit:
    """One submission: a single cell, or one workload's batch group.

    A cell unit has exactly one policy. A group unit (``group=True``)
    returns a list of ``(policy, completed, payload)`` outcomes, where
    ``payload`` is the cell's result when ``completed``, the exception
    its replay raised, or ``None`` for a policy the group could not
    batch.
    """

    workload: str
    policies: tuple[str, ...]
    group: bool = False


@dataclass
class _UnitState:
    """Mutable per-unit bookkeeping while the sweep is in flight."""

    unit: WorkUnit
    attempt: int = 1  # groups stay at 0: their failures use no cell attempt
    strikes: int = 0  # worker-killing faults (pool breaks, timeouts)

    def __post_init__(self) -> None:
        if self.unit.group:
            self.attempt = 0

    @property
    def workload(self) -> str:
        return self.unit.workload

    @property
    def policy(self) -> str:
        return self.unit.policies[0]

    @property
    def cell_id(self) -> str:
        return f"{self.workload} x {', '.join(self.unit.policies)}"


#: Callback that queues a unit again: ``(state, backoff_seconds)``.
_Reschedule = Callable[[_UnitState, float], None]


class ResilientExecutor:
    """Runs sweep work units under a :class:`RetryPolicy`.

    Parameters
    ----------
    retry:
        The retry/timeout/backoff policy.
    workers:
        Worker processes for the pool path (``run_pool``).
    submit:
        ``submit(pool, unit, attempt) -> Future`` — builds the worker
        call for one attempt of one unit.
    run_inline:
        ``run_inline(unit, attempt) -> result`` — the serial in-process
        equivalent (``run_serial``).
    on_success:
        Called with ``(workload, policy, result)`` for every finished
        cell. A cell unit's call returns ``(workload, policy, result)``
        (as the sweep's cell workers do); a group's completed outcome
        carries the result as its payload.
    on_failure:
        Called with ``(workload, policy, exc, kind)`` when a cell is
        abandoned (retries exhausted, deterministic, or poison). May
        raise to abort the sweep; the executor then tears the pool down.
    report:
        Shared :class:`FailureReport` receiving every absorbed attempt.
    pool_factory:
        Optional ``() -> ProcessPoolExecutor`` used for every pool
        generation (initial creation and post-recycle rebuilds). The
        sweep engine uses it to install per-worker state — the trace
        registry — via a pool initializer; ``None`` falls back to a
        plain pool of ``workers`` processes.
    shutdown:
        Optional :class:`~repro.resilience.durability.ShutdownCoordinator`.
        When its flag is raised the executor stops submitting, drains
        in-flight units for at most ``drain_timeout`` seconds, and
        returns — unfinished cells are simply left unrun (the journal
        marks them incomplete, so a resume re-runs them).
    """

    def __init__(
        self,
        retry: RetryPolicy,
        workers: int,
        submit: Callable[[ProcessPoolExecutor, WorkUnit, int], Future],
        run_inline: Callable[[WorkUnit, int], object],
        on_success: Callable[[str, str, Any], None],
        on_failure: Callable[[str, str, BaseException, FailureKind], None],
        report: FailureReport,
        pool_factory: Callable[[], ProcessPoolExecutor] | None = None,
        shutdown: ShutdownCoordinator | None = None,
        drain_timeout: float = 30.0,
    ) -> None:
        self.retry = retry
        self.workers = max(1, workers)
        self.submit = submit
        self.run_inline = run_inline
        self.on_success = on_success
        self.on_failure = on_failure
        self.report = report
        self.pool_factory = pool_factory
        self.shutdown = shutdown
        self.drain_timeout = drain_timeout

    def _stopping(self) -> bool:
        return self.shutdown is not None and self.shutdown.requested

    # -- shared bookkeeping -------------------------------------------------

    def _record_attempt(
        self,
        workload: str,
        policy: str,
        attempt: int,
        exc: BaseException,
        duration: float,
        kind: FailureKind | None = None,
        backoff: float = 0.0,
    ) -> None:
        self.report.record_attempt(
            workload,
            policy,
            CellAttempt(
                attempt=attempt,
                classification=(kind or classify_failure(exc)).value,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback="".join(
                    traceback_module.format_exception(type(exc), exc, exc.__traceback__)
                ),
                duration=duration,
                backoff=backoff,
            ),
        )

    def _succeed(self, workload: str, policy: str, result: object) -> None:
        if (workload, policy) in self.report.cells:
            self.report.record_outcome(workload, policy, OUTCOME_RECOVERED)
        self.on_success(workload, policy, result)

    def _finish(
        self,
        state: _UnitState,
        result: object,
        duration: float,
        requeue: Callable[[_UnitState], None],
    ) -> None:
        """Record a finished unit; a group's unfinished cells are requeued."""
        if not state.unit.group:
            _, _, cell_result = cast("tuple[str, str, object]", result)
            self._succeed(state.workload, state.policy, cell_result)
            return
        for policy, completed, payload in cast("list[tuple[str, bool, object]]", result):
            if completed:
                self._succeed(state.workload, policy, payload)
                continue
            if isinstance(payload, BaseException):  # else None: not batchable
                self._record_attempt(state.workload, policy, 0, payload, duration)
            requeue(_UnitState(WorkUnit(state.workload, (policy,))))

    def _fail(
        self,
        state: _UnitState,
        exc: BaseException,
        duration: float,
        strike: bool,
        reschedule: _Reschedule,
        requeue: Callable[[_UnitState], None],
    ) -> None:
        """One failed attempt: a group splits into cells, a cell is absorbed."""
        if state.unit.group:
            outcomes = [(policy, False, exc) for policy in state.unit.policies]
            self._finish(state, outcomes, duration, requeue)
        else:
            self._absorb(state, exc, duration, strike, reschedule)

    def _absorb(
        self,
        cell: _UnitState,
        exc: BaseException,
        duration: float,
        strike: bool,
        reschedule: _Reschedule,
    ) -> None:
        """Classify one failed cell attempt; retry, or abandon the cell."""
        kind = classify_failure(exc)
        if strike:
            cell.strikes += 1
            if kind is FailureKind.TRANSIENT and cell.strikes >= self.retry.poison_strikes:
                kind = FailureKind.POISON
        retrying = self.retry.should_retry(kind, cell.attempt)
        backoff = self.retry.backoff_for(cell.cell_id, cell.attempt) if retrying else 0.0
        self._record_attempt(
            cell.workload, cell.policy, cell.attempt, exc, duration,
            kind=kind, backoff=backoff,
        )
        if retrying:
            cell.attempt += 1
            reschedule(cell, backoff)
            return
        outcome = OUTCOME_POISONED if kind is FailureKind.POISON else OUTCOME_FAILED
        self.report.record_outcome(cell.workload, cell.policy, outcome)
        self.on_failure(cell.workload, cell.policy, exc, kind)

    # -- serial path --------------------------------------------------------

    def run_serial(self, units: Iterable[WorkUnit]) -> None:
        """In-process loop (no timeout enforcement possible).

        The engine routes timeout-armed or chaos-armed sweeps to
        :meth:`run_pool` even at ``jobs=1``; this path covers plain
        retry/classification where in-process execution keeps unit
        sweeps hermetic. A retried cell runs again straight after its
        backoff; a group's unfinished cells join the end of the queue.
        """
        queue: deque[_UnitState] = deque(_UnitState(unit) for unit in units)

        def retry_now(cell: _UnitState, backoff: float) -> None:
            if not self._stopping():  # skip the wait; the cell resumes later
                time.sleep(backoff)
            queue.appendleft(cell)

        while queue:
            if self._stopping():
                return  # remaining units stay unrun (resumable)
            state = queue.popleft()
            started = time.monotonic()
            try:
                result = self.run_inline(state.unit, state.attempt)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                # Memory-budget breaches strike even in-process: a cell
                # that keeps blowing its budget must walk the same
                # ladder to poison as a worker-killer.
                self._fail(state, exc, time.monotonic() - started,
                           strike=isinstance(exc, MemoryBudgetError),
                           reschedule=retry_now, requeue=queue.append)
            else:
                self._finish(state, result, time.monotonic() - started, queue.append)

    # -- pool path ----------------------------------------------------------

    def _deadline(self, unit: WorkUnit, started: float) -> float:
        timeout = self.retry.cell_timeout
        if timeout is None:
            return float("inf")
        return started + timeout * len(unit.policies)

    def run_pool(self, units: Iterable[WorkUnit]) -> None:
        """Fan units over a process pool with watchdog + rebuild."""
        seq = itertools.count()  # heap tie-breaker
        queue: deque[_UnitState] = deque(_UnitState(unit) for unit in units)
        delayed: list[tuple[float, int, _UnitState]] = []  # backoff heap
        inflight: dict[Future, tuple[_UnitState, float, float]] = {}  # start, deadline
        pool: ProcessPoolExecutor | None = None

        def reschedule(state: _UnitState, backoff: float) -> None:
            heapq.heappush(delayed, (time.monotonic() + backoff, next(seq), state))

        try:
            while queue or delayed or inflight:
                if self._stopping():
                    self._drain(inflight)
                    return  # queue/delayed units stay unrun (resumable)
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    queue.append(heapq.heappop(delayed)[2])
                while queue and len(inflight) < self.workers:
                    state = queue.popleft()
                    if pool is None:
                        pool = (
                            self.pool_factory()
                            if self.pool_factory is not None
                            else ProcessPoolExecutor(max_workers=self.workers)
                        )
                    future = self.submit(pool, state.unit, state.attempt)
                    started = time.monotonic()
                    inflight[future] = (state, started, self._deadline(state.unit, started))

                if not inflight:
                    if delayed:  # everything is backing off
                        pause = max(_MIN_WAIT, delayed[0][0] - time.monotonic())
                        if self.shutdown is not None:
                            # Signal handlers cannot interrupt the sleep
                            # (PEP 475 retries it); poll the flag instead.
                            pause = min(pause, _SHUTDOWN_POLL)
                        time.sleep(pause)
                    continue

                done, _ = wait(
                    set(inflight),
                    timeout=self._wait_slice(inflight, delayed),
                    return_when=FIRST_COMPLETED,
                )

                pool_broke = False
                for future in done:
                    state, started, _ = inflight.pop(future)
                    duration = time.monotonic() - started
                    try:
                        result = future.result()
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BrokenProcessPool as exc:
                        pool_broke = True
                        self._fail(state, exc, duration, strike=True,
                                   reschedule=reschedule, requeue=queue.append)
                    except Exception as exc:
                        # A memory-budget breach counts as a strike: the
                        # worker survived (unlike an OOM kill), but a
                        # cell that keeps blowing its budget must still
                        # reach poison before the OS OOM-killer does.
                        self._fail(state, exc, duration,
                                   strike=isinstance(exc, MemoryBudgetError),
                                   reschedule=reschedule, requeue=queue.append)
                    else:
                        self._finish(state, result, duration, queue.append)

                if pool_broke:
                    pool = self._recycle_pool(pool, inflight, queue, kill=False)
                    continue

                now = time.monotonic()
                expired = [f for f, (_, _, dl) in inflight.items() if dl <= now]
                for future in expired:
                    state, started, deadline = inflight.pop(future)
                    exc = CellTimeoutError(
                        f"{'batch group' if state.unit.group else 'cell'} "
                        f"{state.cell_id} exceeded its {deadline - started:g}s "
                        f"wall-clock budget (attempt {state.attempt})"
                    )
                    self._fail(state, exc, now - started, strike=True,
                               reschedule=reschedule, requeue=queue.append)
                if expired:
                    # The hung worker cannot be cancelled; kill the pool
                    # and resubmit the innocent in-flight units at the
                    # same attempt with no penalty.
                    pool = self._recycle_pool(pool, inflight, queue, kill=True)
        finally:
            if pool is not None:
                if inflight:  # abandoned by an exception or a drain deadline
                    self._shutdown_pool(pool, kill=True)
                else:
                    pool.shutdown(wait=True)

    def _wait_slice(
        self,
        inflight: dict[Future, tuple[_UnitState, float, float]],
        delayed: list[tuple[float, int, _UnitState]],
    ) -> float | None:
        """How long wait() may block before a deadline or backoff expiry."""
        now = time.monotonic()
        horizon = min(deadline for _, _, deadline in inflight.values())
        if delayed:
            horizon = min(horizon, delayed[0][0])
        if self.shutdown is not None:
            return min(_SHUTDOWN_POLL, max(_MIN_WAIT, horizon - now))
        if horizon == float("inf"):
            return None
        return max(_MIN_WAIT, horizon - now)

    def _drain(self, inflight: dict[Future, tuple[_UnitState, float, float]]) -> None:
        """Give in-flight units a bounded window to finish, then stop.

        Completed cells are recorded (and checkpointed by the engine's
        callbacks) like any other; cells that fail — or are still
        running when the drain deadline expires — are left unfinished
        without retrying, so the journal marks them incomplete and a
        resume re-runs them. The caller's ``finally`` kills the pool if
        any are still running.
        """
        deadline = time.monotonic() + self.drain_timeout
        while inflight and time.monotonic() < deadline:
            done, _ = wait(set(inflight), timeout=0.25,
                           return_when=FIRST_COMPLETED)
            for future in done:
                state, started, _ = inflight.pop(future)
                duration = time.monotonic() - started
                try:
                    result = future.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    # Account for the attempt but never resubmit during
                    # a shutdown; the cells simply stay unfinished.
                    for policy in state.unit.policies:
                        self._record_attempt(
                            state.workload, policy, state.attempt, exc, duration
                        )
                else:
                    self._finish(state, result, duration, requeue=lambda _: None)

    def _recycle_pool(
        self,
        pool: ProcessPoolExecutor | None,
        inflight: dict[Future, tuple[_UnitState, float, float]],
        queue: deque[_UnitState],
        kill: bool,
    ) -> None:
        """Tear the pool down and resubmit innocent in-flight units.

        Units still in ``inflight`` were victims of the teardown, not
        its cause — they rejoin the queue at the same attempt number.
        """
        survivors = [state for state, _, _ in inflight.values()]
        inflight.clear()
        queue.extend(survivors)
        if pool is not None:
            self._shutdown_pool(pool, kill=kill)
            self.report.pool_rebuilds += 1
        return None

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
        if kill:
            # Hung workers ignore a polite shutdown; terminate them.
            # ``_processes`` is CPython-private but stable since 3.7 and
            # the only handle on the worker PIDs; degrade to a plain
            # shutdown if it ever disappears.
            try:
                for process in list(pool._processes.values()):
                    process.terminate()
            except (AttributeError, OSError):  # pragma: no cover - fallback
                pass
        pool.shutdown(wait=False, cancel_futures=True)
