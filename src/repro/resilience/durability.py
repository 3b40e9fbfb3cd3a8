"""Durability for long sweeps: run journal, graceful shutdown, budgets.

PR 5's resilience layer survives failures *inside* the sweep process —
worker deaths, hangs, poison cells. This module covers the failure
domains above it, the ones a simulation *service* actually meets over an
hours-to-days horizon:

* **whole-process death** — :class:`RunJournal`, a schema-versioned
  write-ahead journal of cell outcomes. Every ``SweepEngine.run`` with a
  journal directory appends one fsync'd record per finished cell, so a
  ``kill -9`` (or a power cut) loses at most the cell that was in
  flight. Re-running the identical sweep spec — or ``repro sweep
  --resume <run-id>`` — restarts exactly at the first incomplete cell:
  completed cells come back from the result cache (the cache is the
  value store, the journal is the truth about what finished).
* **operator/scheduler shutdown** — :class:`ShutdownCoordinator`
  translates SIGTERM/SIGINT into a graceful stop: submission halts,
  in-flight cells drain against a deadline, the journal and failure
  report flush, and the sweep raises
  :class:`~repro.errors.SweepInterrupted` so the CLI can exit with
  :data:`EXIT_INTERRUPTED` ("interrupted, resumable") instead of a
  generic failure.
* **memory pressure** — :class:`MemoryWatchdog`, a per-worker RSS
  sampler. A cell that blows its budget raises a structured
  :class:`~repro.errors.MemoryBudgetError` inside the worker *before*
  the OS OOM-killer takes out the whole pool; the executor charges it a
  strike, so persistent offenders are poisoned while one-off pressure
  spikes recover on retry.

Disk exhaustion is handled by the result cache itself (byte budget with
LRU pruning, ENOSPC degradation — see
:class:`repro.harness.engine.ResultCache`); the chaos harness
(:mod:`repro.resilience.chaos`, ``repro chaos --scenario v2``) proves
every one of these paths end-to-end with bit-identical recovery.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from types import FrameType
from typing import Any

from ..errors import MemoryBudgetError, ResilienceError

#: Schema version of one journal file. Bump on any incompatible change
#: to the header or record layout; readers refuse newer schemas instead
#: of misinterpreting them.
JOURNAL_SCHEMA_VERSION = 1

#: File suffix of a run journal (one file per run id).
JOURNAL_SUFFIX = ".journal"

#: Exit code of a gracefully interrupted (and therefore resumable)
#: sweep — BSD ``EX_TEMPFAIL``: "temporary failure, user is invited to
#: retry". Distinct from 0 (success) and 1 (failed), so wrappers and
#: schedulers can requeue interrupted runs without parsing stderr.
EXIT_INTERRUPTED = 75

#: Environment variable naming the journal directory for
#: :meth:`repro.harness.engine.SweepEngine.from_env`.
ENV_JOURNAL_DIR = "REPRO_JOURNAL_DIR"

#: Record-type tags inside a journal file.
_RECORD_HEADER = "header"
_RECORD_CELL = "cell"
_RECORD_END = "end"

#: Cell outcome values a journal records.
CELL_OK = "ok"
CELL_FAILED = "failed"
CELL_POISONED = "poisoned"


def sweep_spec_doc(
    trace_digests: dict[str, str],
    policies: list[str],
    config_doc: dict,
    warmup_fraction: float,
    sanitize: bool,
    telemetry_doc: dict | None,
    sampling_doc: dict | None,
    salt: str,
) -> dict:
    """The canonical description of one sweep — the journal's identity.

    Everything that determines the *result set* of a sweep is in here
    (mirroring :func:`repro.harness.engine.cell_key`, minus the per-cell
    split): trace content digests, policy list, machine configuration,
    warm-up fraction, sanitize/telemetry/sampling modes, and the
    simulator-version salt. Two runs with the same spec doc are the same
    run — which is exactly what makes auto-resume safe.
    """
    return {
        "traces": dict(sorted(trace_digests.items())),
        "policies": list(policies),
        "config": config_doc,
        "warmup_fraction": warmup_fraction,
        "sanitize": bool(sanitize),
        "telemetry": telemetry_doc,
        "sampling": sampling_doc,
        "salt": salt,
    }


def run_id_for(spec_doc: dict) -> str:
    """Deterministic run identifier: SHA-256 of the canonical spec."""
    canonical = json.dumps(spec_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class RunJournal:
    """Crash-safe write-ahead journal of one sweep's cell outcomes.

    Layout: one JSON-lines file per run id under the journal directory.
    The first line is the header (schema version, run id, full sweep
    spec including the simulator salt, and an opaque ``context`` the CLI
    uses to rebuild the sweep for ``--resume``); every subsequent line
    is either a cell record or an end record. Appends are atomic at the
    line level and fsync'd, so after ``kill -9`` the journal is intact
    up to (at worst) one torn trailing line, which the reader discards.

    The journal never stores results — the content-addressed result
    cache does. A cell is *done* when both its cache entry and its
    journal record exist; a cell that died between compute and store has
    neither and simply re-runs. Journal writes degrade to a no-op with a
    single :class:`RuntimeWarning` if the journal location becomes
    unwritable: durability must never be the thing that kills a sweep.
    """

    def __init__(
        self,
        path: Path,
        run_id: str,
        spec_doc: dict,
        context: dict | None,
        resumed: bool,
        cell_records: dict[tuple[str, str], dict],
    ) -> None:
        self.path = path
        self.run_id = run_id
        self.spec_doc = spec_doc
        self.context = context
        #: True when this journal belonged to an earlier, incomplete run
        #: of the same spec and the current run is continuing it.
        self.resumed = resumed
        self._cells = cell_records
        self._fh = None  # type: ignore[var-annotated]
        self._disabled = False

    # -- construction -------------------------------------------------------

    @classmethod
    def open_or_create(
        cls,
        journal_dir: str | Path,
        spec_doc: dict,
        context: dict | None = None,
    ) -> "RunJournal | None":
        """The journal for this spec: resume it, rotate it, or create it.

        * no journal on disk → create a fresh one (header written
          atomically, then fsync'd);
        * an *incomplete* journal with the same run id → resume: its
          cell records are loaded and appends continue in place;
        * a *complete* journal → the previous run finished; it is
          rotated away (``.1`` suffix) and a fresh journal starts.

        Returns ``None`` (after one :class:`RuntimeWarning`) when the
        journal directory cannot be written — the sweep then runs
        journal-less rather than dying.
        """
        run_id = run_id_for(spec_doc)
        directory = Path(journal_dir)
        path = directory / f"{run_id}{JOURNAL_SUFFIX}"
        try:
            directory.mkdir(parents=True, exist_ok=True)
            if path.is_file():
                parsed = _parse_journal(path)
                if parsed is not None and not parsed.complete:
                    journal = cls(
                        path, run_id, spec_doc,
                        parsed.context if context is None else context,
                        resumed=True, cell_records=parsed.cells,
                    )
                    journal._fh = open(path, "a", encoding="utf-8")
                    return journal
                # Finished (or unreadable) previous generation: keep it
                # as history, never append a new run onto it.
                os.replace(path, path.with_suffix(path.suffix + ".1"))
            journal = cls(
                path, run_id, spec_doc, context,
                resumed=False, cell_records={},
            )
            header = {
                "record": _RECORD_HEADER,
                "schema": JOURNAL_SCHEMA_VERSION,
                "run_id": run_id,
                "spec": spec_doc,
                "context": context,
            }
            tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            journal._fh = open(path, "a", encoding="utf-8")
            return journal
        except OSError as exc:
            warnings.warn(
                f"run journal at {path} is unusable ({exc}); "
                "continuing without crash-safe resume",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    @staticmethod
    def load(path: str | Path) -> "_ParsedJournal":
        """Read-only parse of a journal file (``repro sweep --resume``)."""
        parsed = _parse_journal(Path(path))
        if parsed is None:
            raise ResilienceError(
                f"not a readable run journal: {path} (missing, torn header, "
                "or written by a newer schema)"
            )
        return parsed

    @staticmethod
    def find(journal_dir: str | Path, run_id: str) -> Path:
        """Path of ``run_id``'s journal; raises if it does not exist."""
        path = Path(journal_dir) / f"{run_id}{JOURNAL_SUFFIX}"
        if not path.is_file():
            known = sorted(
                p.name[: -len(JOURNAL_SUFFIX)]
                for p in Path(journal_dir).glob(f"*{JOURNAL_SUFFIX}")
            ) if Path(journal_dir).is_dir() else []
            raise ResilienceError(
                f"no journal for run id {run_id!r} under {journal_dir}"
                + (f"; known runs: {', '.join(known)}" if known else "")
            )
        return path

    # -- state --------------------------------------------------------------

    @property
    def completed_cells(self) -> set[tuple[str, str]]:
        """Cells recorded as finished OK (by this run or a resumed one)."""
        return {
            cell for cell, record in self._cells.items()
            if record.get("status") == CELL_OK
        }

    @property
    def failure_report_path(self) -> Path:
        """Default location of the persisted failure report for this run."""
        return self.path.with_name(f"{self.run_id}-failures.json")

    # -- writes -------------------------------------------------------------

    def _append(self, record: dict, sync: bool) -> None:
        if self._fh is None or self._disabled:
            return
        try:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            if sync:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        except OSError as exc:
            self._disabled = True
            warnings.warn(
                f"run journal at {self.path} stopped accepting writes "
                f"({exc}); continuing without crash-safe resume",
                RuntimeWarning,
                stacklevel=3,
            )

    def record_cell(
        self,
        workload: str,
        policy: str,
        status: str,
        key: str | None = None,
        classification: str | None = None,
        sync: bool = True,
    ) -> None:
        """Append one cell outcome (idempotent per (cell, status)).

        ``sync=False`` skips the per-record fsync — the engine uses it
        for cache-hit bursts during the pre-scan, followed by one
        :meth:`flush`; computed cells always sync, because they are the
        records a crash would otherwise lose.
        """
        previous = self._cells.get((workload, policy))
        if previous is not None and previous.get("status") == status:
            return
        record = {
            "record": _RECORD_CELL,
            "workload": workload,
            "policy": policy,
            "status": status,
            "key": key,
            "classification": classification,
        }
        self._cells[(workload, policy)] = record
        self._append(record, sync=sync)

    def flush(self) -> None:
        """fsync any buffered (``sync=False``) records."""
        if self._fh is None or self._disabled:
            return
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError:
            self._disabled = True

    def close(self, complete: bool) -> None:
        """Seal the journal: append the end record and close the file.

        ``complete=True`` marks the run finished (every cell has a
        terminal record); ``False`` marks it interrupted-and-resumable.
        Safe to call more than once.
        """
        if self._fh is None:
            return
        self._append({"record": _RECORD_END, "complete": bool(complete)},
                     sync=True)
        try:
            self._fh.close()
        except OSError:
            pass
        self._fh = None


class _ParsedJournal:
    """The read-side view of a journal file (torn-tail tolerant)."""

    def __init__(
        self,
        run_id: str,
        spec: dict,
        context: dict | None,
        cells: dict[tuple[str, str], dict],
        complete: bool,
    ) -> None:
        self.run_id = run_id
        self.spec = spec
        self.context = context
        self.cells = cells
        self.complete = complete

    @property
    def completed_cells(self) -> set[tuple[str, str]]:
        return {
            cell for cell, record in self.cells.items()
            if record.get("status") == CELL_OK
        }


def _parse_journal(path: Path) -> _ParsedJournal | None:
    """Parse a journal file; ``None`` if the header is unusable.

    A torn trailing line (the crash case the journal exists for) is
    discarded; any later line is then unreachable by construction, since
    there is exactly one writer appending whole lines.
    """
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    records: list[dict] = []
    for line in raw_lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail: everything up to here is durable
        if not isinstance(record, dict):
            break
        records.append(record)
    if not records:
        return None
    header = records[0]
    if (
        header.get("record") != _RECORD_HEADER
        or header.get("schema") != JOURNAL_SCHEMA_VERSION
    ):
        return None
    cells: dict[tuple[str, str], dict] = {}
    complete = False
    for record in records[1:]:
        kind = record.get("record")
        if kind == _RECORD_CELL:
            cells[(record["workload"], record["policy"])] = record
            complete = False  # a resumed run reopens the journal
        elif kind == _RECORD_END:
            complete = bool(record.get("complete"))
    return _ParsedJournal(
        run_id=header.get("run_id", ""),
        spec=header.get("spec", {}),
        context=header.get("context"),
        cells=cells,
        complete=complete,
    )


# -- graceful shutdown --------------------------------------------------------


class ShutdownCoordinator:
    """Turns SIGTERM/SIGINT into a cooperative, journaled stop.

    While installed, the first signal sets :attr:`requested` — the sweep
    loops notice it between cells (or wait slices), stop submitting,
    drain in-flight work against the drain deadline, flush the journal
    and failure report, and raise
    :class:`~repro.errors.SweepInterrupted`. A *second* signal escalates
    to an immediate ``KeyboardInterrupt``, because an operator mashing
    Ctrl-C has withdrawn their patience.

    Handlers can only be installed from the main thread (a Python
    restriction); elsewhere :meth:`install` is a no-op and the
    coordinator still works as a plain flag (tests drive it via
    :meth:`request`).
    """

    #: Signals a graceful shutdown listens for.
    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self) -> None:
        self._event = threading.Event()
        self._previous: dict[int, object] = {}
        self._installed = False
        self.signal_name: str | None = None

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def request(self, signal_name: str = "request()") -> None:
        """Flag a shutdown as if a signal had arrived (test hook)."""
        self.signal_name = self.signal_name or signal_name
        self._event.set()

    def _handler(self, signum: int, frame: FrameType | None) -> None:
        if self._event.is_set():
            # Second signal: the polite window is over.
            raise KeyboardInterrupt
        self.request(signal.Signals(signum).name)
        print(
            f"received {self.signal_name}: finishing in-flight cells, "
            "flushing journal (signal again to abort immediately) ...",
            file=sys.stderr,
        )

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for sig in self.SIGNALS:
            self._previous[sig] = signal.getsignal(sig)
            signal.signal(sig, self._handler)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)  # type: ignore[arg-type]
        self._previous.clear()
        self._installed = False

    def __enter__(self) -> "ShutdownCoordinator":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


# -- per-worker memory governance ---------------------------------------------


def current_rss_bytes() -> int | None:
    """Resident-set size of this process, or ``None`` if unmeasurable.

    Prefers ``/proc/self/statm`` (current RSS — drops when memory is
    returned, so one bomb does not taint every later cell in a reused
    worker); falls back to ``getrusage`` peak RSS on non-Linux unix.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            resident_pages = int(fh.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return peak if sys.platform == "darwin" else peak * 1024
    except (ImportError, ValueError, OSError):  # pragma: no cover - exotic OS
        return None


class MemoryWatchdog:
    """Samples this process's RSS and trips when a budget is exceeded.

    Runs a daemon thread; on breach it records the measured RSS, then
    interrupts the main thread so the in-flight cell stops *now* rather
    than after the allocation that would have drawn the OOM-killer. The
    :func:`memory_guard` wrapper routes that interrupt to the cell,
    whatever SIGINT's handler is, and converts it into a structured
    :class:`~repro.errors.MemoryBudgetError`.
    """

    def __init__(self, budget_mb: float, interval: float = 0.05) -> None:
        if budget_mb <= 0:
            raise ResilienceError(
                f"memory budget must be positive, got {budget_mb}"
            )
        self.budget_bytes = int(budget_mb * 1024 * 1024)
        self.interval = interval
        self.breached_rss: int | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def breached(self) -> bool:
        return self.breached_rss is not None

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def _watch(self) -> None:
        # First sample after a few milliseconds, then every interval. A
        # cell can arrive already over budget (the allocation predates
        # the guard) and finish in less than one interval, so waiting a
        # full interval first would miss it — but sampling *immediately*
        # races :func:`memory_guard`: the interrupt could land before
        # the main thread enters the guarded body, escaping the handler
        # that converts it into a MemoryBudgetError.
        delay = min(0.005, self.interval)
        while True:
            if self._stop.wait(delay):
                return
            delay = self.interval
            rss = current_rss_bytes()
            if rss is not None and rss > self.budget_bytes:
                self.breached_rss = rss
                import _thread

                _thread.interrupt_main()
                return

    def start(self) -> None:
        if current_rss_bytes() is None:  # pragma: no cover - exotic OS
            return  # unmeasurable platform: watchdog degrades to off
        self._thread = threading.Thread(
            target=self._watch, name="repro-memory-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


@contextmanager
def memory_guard(budget_mb: float | None) -> Iterator[None]:
    """Enforce a per-worker RSS budget around one cell's simulation.

    ``None`` disables the guard entirely (zero overhead when off). On
    breach, the cell raises :class:`~repro.errors.MemoryBudgetError`
    naming the measured RSS and the budget — a picklable, classifiable
    failure instead of a dead worker.
    """
    if budget_mb is None:
        yield
        return
    watchdog = MemoryWatchdog(budget_mb)
    previous = _route_breach_interrupt(watchdog)
    try:
        try:
            # Inside the handler: on a loaded host the first sample can
            # trip while start() still waits for the thread to run.
            watchdog.start()
            yield
        except KeyboardInterrupt:
            if watchdog.breached:
                raise _budget_error(watchdog, budget_mb) from None
            raise
    finally:
        watchdog.stop()
        if previous is not None:
            signal.signal(signal.SIGINT, previous)
    if watchdog.breached:
        # The interrupt raced the cell's completion; the verdict stands.
        raise _budget_error(watchdog, budget_mb)


def _route_breach_interrupt(
    watchdog: MemoryWatchdog,
) -> Callable[[int, FrameType | None], Any] | int | None:
    """Make the watchdog's interrupt reach the guarded cell.

    ``_thread.interrupt_main`` only runs the SIGINT *handler*: it does
    nothing where SIGINT is ignored (pool workers, see
    :func:`repro.harness.engine._init_worker`) and merely requests a
    graceful stop where a :class:`ShutdownCoordinator` holds SIGINT.
    For the guarded span this installs a handler that raises
    ``KeyboardInterrupt`` once the watchdog has tripped and otherwise
    defers to the previous action, so an outside Ctrl-C still means
    what it meant. Returns the previous handler for the caller to
    restore, or ``None`` where none could be installed (off the main
    thread, or a handler not set from Python).
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous = signal.getsignal(signal.SIGINT)
    if previous is None:
        return None

    def handler(signum: int, frame: FrameType | None) -> None:
        if watchdog.breached:
            if not watchdog.stopped:
                raise KeyboardInterrupt
            return  # late: memory_guard raises the verdict itself
        if callable(previous):
            previous(signum, frame)
        elif previous != signal.SIG_IGN:
            raise KeyboardInterrupt  # SIG_DFL: a Ctrl-C stops the process

    signal.signal(signal.SIGINT, handler)
    return previous


def _budget_error(watchdog: MemoryWatchdog, budget_mb: float) -> MemoryBudgetError:
    measured = (watchdog.breached_rss or 0) / (1024 * 1024)
    return MemoryBudgetError(
        f"worker RSS {measured:.0f} MiB exceeded the {budget_mb:g} MiB "
        f"memory budget (pid {os.getpid()}); cell aborted before the "
        "OS OOM-killer could take the pool down"
    )


# -- failure-report persistence ----------------------------------------------


def write_failure_report(path: str | Path, report_doc: dict) -> Path:
    """Atomically persist a failure-report JSON document.

    The document comes from
    :meth:`repro.resilience.report.FailureReport.to_json_dict` and
    carries its own schema version. Parent directories are created;
    the write is temp-file + rename, so a crash cannot leave a torn
    report where a complete one is expected.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    tmp.write_text(json.dumps(report_doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, target)
    return target


# Re-exported for convenience: scripts that poll a child sweep's journal
# (the chaos kill+resume scenario, ops tooling) need the suffix and the
# parse entry point but not the writer.
__all__ = [
    "CELL_FAILED",
    "CELL_OK",
    "CELL_POISONED",
    "ENV_JOURNAL_DIR",
    "EXIT_INTERRUPTED",
    "JOURNAL_SCHEMA_VERSION",
    "JOURNAL_SUFFIX",
    "MemoryWatchdog",
    "RunJournal",
    "ShutdownCoordinator",
    "current_rss_bytes",
    "memory_guard",
    "run_id_for",
    "sweep_spec_doc",
    "write_failure_report",
]
