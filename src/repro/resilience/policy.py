"""Failure classification and retry/backoff policy for sweep cells.

The failure model distinguishes three kinds of cell failure:

* **transient** — the environment, not the cell: a worker process died
  (``BrokenProcessPool``), the cell blew its wall-clock budget
  (:class:`~repro.errors.CellTimeoutError`), or the OS refused a
  resource (``OSError``). Retrying is worthwhile.
* **deterministic** — the cell itself: an unknown policy, a malformed
  trace, a simulator invariant violation. The same inputs will fail the
  same way forever, so retrying only burns time.
* **poison** — the cell takes the *harness* down with it: it OOMs the
  worker (``MemoryError``) or keeps killing/hanging workers past the
  strike budget. Poison cells are abandoned so the rest of the matrix
  can finish.

Backoff is exponential with **deterministic jitter**: the jitter factor
for (cell, attempt) is derived from a SHA-256 of the policy seed, the
cell identifier and the attempt number — two runs with the same seed
produce bit-identical backoff schedules, which keeps resilient sweeps
reproducible end-to-end (the chaos harness and the retry-determinism
tests rely on it).
"""

from __future__ import annotations

import enum
import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import (
    CellTimeoutError,
    ConfigurationError,
    MemoryBudgetError,
    ReproError,
)


class FailureKind(str, enum.Enum):
    """What a cell failure says about the cell (see module docstring)."""

    TRANSIENT = "transient"
    DETERMINISTIC = "deterministic"
    POISON = "poison"


def classify_failure(exc: BaseException) -> FailureKind:
    """Map one exception to the failure taxonomy.

    ``MemoryError`` is poison: an OOM-ing cell will OOM again and takes
    a worker with it each time. A
    :class:`~repro.errors.MemoryBudgetError` (the RSS watchdog tripping
    *before* the OOM-killer) is transient instead — the worker survived
    and a one-off pressure spike recovers on retry — but the executor
    charges it a strike, so a cell that keeps blowing its budget still
    walks the ladder to poison. (The check must precede the generic
    ``ReproError`` branch, which the budget error subclasses.) Worker
    death, timeouts and OS-level refusals are transient. Everything
    else — including every :class:`~repro.errors.ReproError` — is
    deterministic: the same inputs produce the same failure, so it is
    reported, not retried.
    """
    if isinstance(exc, MemoryError):
        return FailureKind.POISON
    if isinstance(exc, (BrokenProcessPool, CellTimeoutError, MemoryBudgetError)):
        return FailureKind.TRANSIENT
    if isinstance(exc, ReproError):
        return FailureKind.DETERMINISTIC
    if isinstance(exc, OSError):
        return FailureKind.TRANSIENT
    return FailureKind.DETERMINISTIC


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the engine fights for each sweep cell.

    Parameters
    ----------
    max_attempts:
        Total tries per cell (1 = no retry). Only transient failures
        consume retries; deterministic and poison failures stop at once.
    cell_timeout:
        Wall-clock seconds one cell may run before the watchdog aborts
        it (``None`` disables the watchdog). Enforced via worker
        processes, so a timeout forces pool execution even at
        ``jobs=1``.
    backoff_base / backoff_factor / backoff_max:
        Delay before attempt ``n+1`` is ``base * factor**(n-1)``,
        clamped to ``backoff_max``, then stretched by jitter.
    jitter:
        Fraction of deterministic jitter added on top (0.25 means up to
        +25%). Derived from ``seed``, never from a wall clock.
    seed:
        Seed of the jitter schedule; same seed, same schedule.
    poison_strikes:
        Worker-killing or timeout strikes one cell may accumulate
        before it is marked poison and abandoned.
    """

    max_attempts: int = 3
    cell_timeout: float | None = None
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.25
    seed: int = 0
    poison_strikes: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError(
                f"RetryPolicy.cell_timeout must be positive, got {self.cell_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ConfigurationError(
                "RetryPolicy backoff parameters must satisfy "
                "base >= 0, factor >= 1, max >= 0"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError(
                f"RetryPolicy.jitter must be within [0, 1], got {self.jitter}"
            )
        if self.poison_strikes < 1:
            raise ConfigurationError(
                f"RetryPolicy.poison_strikes must be >= 1, got {self.poison_strikes}"
            )

    def jitter_fraction(self, cell_id: str, attempt: int) -> float:
        """Deterministic jitter in ``[0, 1)`` for (cell, attempt)."""
        digest = hashlib.sha256(
            f"{self.seed}:{cell_id}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def backoff_for(self, cell_id: str, attempt: int) -> float:
        """Seconds to wait after ``attempt`` (1-based) failed transiently."""
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        return delay * (1.0 + self.jitter * self.jitter_fraction(cell_id, attempt))

    def should_retry(self, kind: FailureKind, attempt: int) -> bool:
        """Whether another attempt is warranted after this failure."""
        return kind is FailureKind.TRANSIENT and attempt < self.max_attempts


#: The policy a sweep runs under when the caller gives none: one
#: attempt per cell, and the first strike (a worker death or a memory
#: budget breach) makes a cell poison. Nothing retries, but every
#: failure is still classified by :func:`classify_failure`.
NO_RETRY = RetryPolicy(max_attempts=1, poison_strikes=1)
