"""Fault tolerance for long-horizon sweeps (:mod:`repro.resilience`).

Production-scale GAP x SPEC x policy matrices run for hours; over that
horizon workers get OOM-killed, cells hang, processes are killed, disks
fill up, and on-disk state rots. This package makes the sweep stack
survive all of it:

* :class:`RetryPolicy` / :func:`classify_failure` — a failure model
  (transient vs deterministic vs poison) with bounded retry, exponential
  backoff and *deterministic* per-cell jitter (same seed, same schedule).
* :class:`ResilientExecutor` — the engine's one execution loop, over
  cells and batch groups alike: wall-clock timeouts enforced by a
  watchdog, process pool rebuild after ``BrokenProcessPool``, poison
  marking after repeated strikes, and a structured
  :class:`FailureReport` of every attempt.
* :mod:`repro.resilience.durability` — durability across *process*
  death and resource exhaustion: the write-ahead :class:`RunJournal`
  behind ``repro sweep --resume``, the :class:`ShutdownCoordinator`
  that turns SIGTERM/SIGINT into a drained, resumable exit
  (:data:`EXIT_INTERRUPTED`), and the per-worker RSS watchdog
  (:func:`memory_guard`) that converts would-be OOM kills into
  structured, retryable failures.
* :mod:`repro.resilience.chaos` — a seeded fault-injection harness
  (``repro chaos``) that crashes workers, hangs cells, corrupts cache
  entries and truncates traces on a deterministic schedule; chaos v2
  (:func:`run_chaos_v2`) extends it to whole-process SIGKILL + journal
  resume, disk-full cache degradation and memory-bomb cells — every
  scenario must end in bit-identical recovered results.

See ``docs/resilience.md`` for the failure-domain ladder and knobs.
"""

from .chaos import ChaosPlan, ChaosReport, ChaosV2Report, run_chaos, run_chaos_v2
from .durability import (
    EXIT_INTERRUPTED,
    MemoryWatchdog,
    RunJournal,
    ShutdownCoordinator,
    memory_guard,
    run_id_for,
    write_failure_report,
)
from .executor import ResilientExecutor
from .policy import FailureKind, RetryPolicy, classify_failure
from .report import (
    FAILURE_REPORT_SCHEMA_VERSION,
    CellAttempt,
    CellHistory,
    FailureReport,
)

__all__ = [
    "CellAttempt",
    "CellHistory",
    "ChaosPlan",
    "ChaosReport",
    "ChaosV2Report",
    "EXIT_INTERRUPTED",
    "FAILURE_REPORT_SCHEMA_VERSION",
    "FailureKind",
    "FailureReport",
    "MemoryWatchdog",
    "ResilientExecutor",
    "RetryPolicy",
    "RunJournal",
    "ShutdownCoordinator",
    "classify_failure",
    "memory_guard",
    "run_chaos",
    "run_chaos_v2",
    "run_id_for",
    "write_failure_report",
]
