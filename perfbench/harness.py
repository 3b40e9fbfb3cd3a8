"""Measurement plumbing shared by the workloads: spans, memory, correctness.

Nothing here imports :mod:`repro`; the workloads pass simulation results
in as plain digests, so these helpers stay testable without a simulator.
"""

from __future__ import annotations

import ctypes
import gc
import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median


class Spans:
    """In-memory span recorder around calls into the program's layers.

    A span has a name, a start, an end and the id of the span that was
    open when it started. Spans are kept in a list and written out once,
    by :meth:`write`, when the benchmark ends. A disabled recorder hands
    out one shared no-op context, so the untraced run pays one attribute
    test per call site.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, **attrs: object) -> "_Span | _NoSpan":
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, attrs)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.records}, indent=1) + "\n")


def span_cost(repeats: int = 20_000) -> float:
    """Host seconds one enabled span costs, timed on a throwaway recorder."""
    spans = Spans(True)
    started = time.perf_counter()
    for _ in range(repeats):
        with spans.span("cost"):
            pass
    return (time.perf_counter() - started) / repeats


class _Span:
    __slots__ = ("_spans", "record")

    def __init__(self, spans: Spans, name: str, attrs: dict) -> None:
        self._spans = spans
        self.record = {
            "id": len(spans.records),
            "name": name,
            "parent": spans._open[-1] if spans._open else None,
            "start": 0.0,
            "end": 0.0,
            **attrs,
        }

    def __enter__(self) -> dict:
        self._spans.records.append(self.record)
        self._spans._open.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc: object) -> None:
        self.record["end"] = time.perf_counter()
        self._spans._open.pop()


class _NoSpan:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()


# -- host speed --------------------------------------------------------------

#: Seconds one :func:`host_seconds` loop takes at the reference host
#: speed scaled timings are given at: about what one loop at a time takes
#: on an unloaded 2-vCPU Intel Xeon VM under Python 3.11.
HOST_REFERENCE_S = 0.05


def _host_stream(length: int = 120_000, seed: int = 7) -> list[int]:
    import random

    rng = random.Random(seed)
    hot = [rng.randrange(1 << 12) for _ in range(512)]
    return [
        hot[rng.randrange(512)] if rng.random() < 0.7 else rng.randrange(1 << 16)
        for _ in range(length)
    ]


_HOST_STREAM = _host_stream()


def host_seconds(sets: int = 64, ways: int = 8) -> float:
    """Host seconds one fixed pure-Python LRU cache loop takes.

    The loop does the simulator's kind of work (dict lookups, list
    indexing, a victim search per miss) but is the benchmark's own code,
    so a change to the program never changes it: its time moves only
    with the speed the shared host gives. The garbage collector is off
    while it runs, so it never pays for scanning the program's heap.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        tags = [[-1] * ways for _ in range(sets)]
        stamps = [[0] * ways for _ in range(sets)]
        where: dict[int, int] = {}
        for clock, block in enumerate(_HOST_STREAM):
            row = stamps[block % sets]
            way = where.get(block)
            if way is None:
                way = row.index(min(row))
                old = tags[block % sets][way]
                if old != -1:
                    del where[old]
                tags[block % sets][way] = block
                where[block] = way
            row[way] = clock
        return time.perf_counter() - started
    finally:
        gc.enable()


def _probe_child(send) -> None:
    try:
        send.send(median(host_seconds() for _ in range(3)))
    finally:
        send.close()


def host_probe(processes: int) -> float:
    """The host's speed now, as seconds of one :func:`host_seconds` loop.

    The probe loads the host as the work it scales does: ``processes``
    is the number of CPUs that work keeps busy. One process runs three
    loops here and gives their median; more run as forked children, at
    the same time, and the probe is the mean of their medians, because
    a host shared with others slows its CPUs unevenly and parallel work
    runs on all of them. Every child is joined (or killed) before this
    returns or raises.
    """
    if processes == 1:
        return median(host_seconds() for _ in range(3))
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for _ in range(processes):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_probe_child, args=(send,), daemon=True)
            child.start()
            send.close()
            children.append((child, receive))
        return sum(receive.recv() for _, receive in children) / processes
    finally:
        for child, receive in children:
            receive.close()
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()


def host_scale(before: float, after: float) -> float:
    """Factor from host seconds timed between two probes to reference seconds.

    The host's speed over the interval is the mean of the probes on
    either side of it. A shared host's speed swings by a third or more
    within minutes; scaling each timing to :data:`HOST_REFERENCE_S`
    keeps most of that swing out of the metrics, while a change to the
    program moves them in full.
    """
    return HOST_REFERENCE_S / ((before + after) / 2)


# -- memory ------------------------------------------------------------------


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant of it, from /proc's child lists."""
    tree, stack = [], [root]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue  # exited since its parent listed it
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    stack.extend(int(child) for child in fh.read().split())
            except OSError:
                continue
    return tree


def release_free_memory() -> None:
    """Collect garbage and hand freed heap back to the OS (glibc only).

    Run before a timed phase, so its peak memory counts what the phase
    holds rather than what set-up happened to leave in the allocator.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def resident_kb(pid: int) -> int:
    """Proportional resident set of one process, in KiB (0 if gone).

    PSS splits pages shared by forked pool workers among them, so a sum
    over a process tree counts each physical page once. Falls back to
    VmRSS where smaps_rollup is unavailable.
    """
    for path, key in ((f"/proc/{pid}/smaps_rollup", b"Pss:"),
                      (f"/proc/{pid}/status", b"VmRSS:")):
        try:
            with open(path, "rb") as fh:
                for line in fh:
                    if line.startswith(key):
                        return int(line.split()[1])
        except OSError:
            continue
    return 0


class PeakMemory:
    """Samples the resident memory of this process and its descendants.

    Used as a context manager around the timed phase; ``peak_mb`` is the
    largest sum seen, taken every ``interval`` seconds by a background
    thread (plus once at entry and once at exit).
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.root = os.getpid()
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def sample(self) -> None:
        total = sum(resident_kb(pid) for pid in process_tree(self.root))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# -- correctness ---------------------------------------------------------------


@dataclass
class Tally:
    """Cells attempted in a run and the ones that failed, with reasons.

    A cell fails when it raises, when its result is wrong (a digest or
    reference-engine mismatch, or a repeat that disagrees), or when it is
    a sampled estimate outside the error budget. Only the first two make
    the run's output incorrect: an estimate over budget is a correct run
    of the program that missed its accuracy target, as a request that
    misses a latency limit is served but failed.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    incorrect: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return self.incorrect == 0

    def attempt(self, cell: str, error: str | None = None, wrong: bool = True) -> None:
        """Count one attempted cell; ``error`` marks it failed.

        ``wrong=False`` marks a failure that is not an incorrect output.
        """
        self.attempted += 1
        if error is not None:
            self.fail(cell, error, wrong)

    def fail(self, cell: str, error: str, wrong: bool = True) -> None:
        """Mark a counted cell failed (also for a check made after it ran)."""
        self.failures.append(f"{cell}: {error}")
        self.incorrect += wrong


def digest_mismatch(got: str, expected: str | None) -> str | None:
    """The failure reason when a cell's result digest is not the reference."""
    if expected is None or got == expected:
        return None
    return f"result digest {got[:12]} != reference {expected[:12]}"


def relative_error(estimate: float, full: float) -> float:
    return abs(estimate - full) / abs(full) if full else abs(estimate)
