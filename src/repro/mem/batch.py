"""Batched multi-cell execution path (``engine="batched"``).

A sweep matrix runs the *same trace* under many LLC policies. The
reference and fast engines simulate each (trace, policy) cell from
scratch, so everything above the LLC — the L1I/L1D/L2 levels, which
always run exact LRU and are probed before any LLC interaction — is
recomputed once per policy even though the LLC never feeds back into it:

* an LLC probe or fill never touches the upper levels (non-inclusive
  hierarchy, the only mode the fast engines model), and
* memory latency only reaches the core model, never upper-level state.

So the upper levels' entire evolution, the sequence of events that
escape to the LLC (demand probes and L2-victim writebacks), and the base
(pre-DRAM) latency of every record are functions of the trace and the
machine config alone. The same is true of the core model's *pop
schedule*: which record retires how many ROB entries and whether a load
waits on an MSHR slot depend only on instruction positions and queue
occupancy — integers derived from the gap stream — never on latencies.
Only the *stall values* (completion cycle vs front-end cycle) differ per
policy.

:class:`BatchPlan` therefore scans the trace once per (trace, config,
warmup) combination and bakes out three typed columns, one entry per
record (16 bytes in all):

* ``gap / dispatch_width`` (float64, the float the core adds every
  record),
* the base latency (int32: L1 hit, +L2 on L1 miss, +LLC on L2 miss),
* an opcode (int32) packing the LLC event count, the ROB pop count, the
  MSHR pop flag and the load flag,

plus one column per field of the LLC-visible events (36 bytes per
event): the demand/writeback flag, block, PC, access kind and L1D
origin, and the LLC set and DRAM row/bank a demand miss would use. The
scan appends to ``array.array`` buffers that numpy then views without a
copy, so a plan holds no Python object per record or per event.

:meth:`BatchPlan.replay` reads those columns :data:`_CHUNK` records at a
time: each chunk calls ``.tolist()`` on its slice of the records, and
its events are streamed as the tuples the hot loop unpacks, with a fresh
:class:`~repro.policies.base.PolicyAccess` per event. The Python objects
of a replay live for one chunk, and the chunk is kept small so they are
still in the CPU caches when the hot loop reads them.

A replay drives one cell: the LLC tag/dirty rows and DRAM bank timing with
the generic cache/memory bookkeeping inlined around the *real*
policy-hook calls (``on_hit``/``find_victim``/``on_eviction``/
``on_fill`` — the per-cell variable is the policy, so its code runs
unmodified on the live tag rows), plus a ring buffer of load-completion
cycles that replays :meth:`~repro.core.cpu.CoreModel.step`'s float
arithmetic in the identical order. Everything the upper levels
contribute to the result — level statistics, ``l1d_misses``, served-by
counts, final tag/dirty/LRU state — is computed once in the plan and
published into every cell.

Two further plan-time reductions keep the per-cell replay close to the
irreducible LLC/DRAM work:

* When ``dispatch_width`` is a power of two (every shipped config),
  every core float is an exact multiple of ``1/width`` far below 2**53,
  so ``cycle`` arithmetic is *exact* and therefore associative: runs of
  records that neither pop, load, nor carry LLC events fold into a
  single front-end advance bit-identically (:func:`_fold_records`, one
  vectorized pass over the columns). Other widths replay the unfolded
  columns.
* The hot dispatch handles the three event-free record shapes
  (load+MSHR-pop, load into a free slot, store) without touching the
  event machinery at all.

Bit-identity with the reference engine rests on the invariants above
plus the ones inherited from :mod:`repro.mem.fastpath` (victim-selection
order under a shared monotonic clock, LLC call order, float operation
order); ``repro verify-fastpath --engine batched`` proves it per policy.

Eligibility (:func:`batch_eligible`) is exactly as conservative as
:func:`~repro.mem.fastpath.fastpath_eligible`: prefetching, inclusive
mode, sanitizers, upper-level taps, non-LRU upper levels or trace
records beyond IFETCH all fall back to the per-cell engines. An LLC
telemetry tap is allowed — tapped replays route LLC events through the
regular :class:`~repro.mem.cache.Cache` methods (:meth:`_replay_tapped`)
so the tap observes every access and eviction.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.config import cascade_lake
from ..core.cpu import CoreModel, CoreStats
from ..core.results import SimulationResult, snapshot_result
from ..core.simulator import (
    DEFAULT_WARMUP_FRACTION,
    _reset_statistics,
    build_hierarchy,
    simulate,
)
from ..errors import ConfigurationError
from ..policies.base import BYPASS, PolicyAccess
from ..policies.basic import LRUPolicy
from ..policies.glider import (
    ISVM_TABLE_BITS,
    ISVM_TABLE_SIZE,
    THRESHOLD_AVERSE,
    THRESHOLD_CONFIDENT,
    GliderPolicy,
)
from ..policies.hawkeye import (
    FRIENDLY_THRESHOLD,
    HAWKEYE_RRPV_MAX,
    PREDICTOR_BITS,
    PREDICTOR_SIZE,
    HawkeyePolicy,
)
from ..policies.mpppb import (
    SAMPLE_STRIDE as MP_SAMPLE_STRIDE,
    TABLE_BITS as MP_TABLE_BITS,
    TABLE_SIZE as MP_TABLE_SIZE,
    THETA_BYPASS,
    THETA_DEAD,
    MPPPBPolicy,
)
from ..policies.rrip import (
    BRRIP_LONG_PERIOD,
    RRPV_MAX,
    DRRIPPolicy,
    SRRIPPolicy,
)
from ..policies.ship import SHCT_MAX, SHCT_SIZE, SIGNATURE_BITS, SHiPPolicy
from .hierarchy import ServiceLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Iterable, Iterator, Sequence

    from ..core.config import CoreConfig, MachineConfig
    from ..policies.base import ReplacementPolicy
    from ..telemetry.collector import TelemetryCollector, TelemetryConfig
    from ..trace.trace import Trace
    from .cache import Cache
    from .hierarchy import CacheHierarchy

    #: (on_hit, on_fill, on_eviction, find_victim, check_in) closure set.
    _TouchHook = Callable[[int, int, PolicyAccess], None]
    _EvictHook = Callable[[int, int, int], None]
    _VictimHook = Callable[[int, PolicyAccess, list[int]], int]
    _PolicyHooks = tuple[
        _TouchHook, _TouchHook, _EvictHook, _VictimHook, Callable[[], None] | None
    ]

#: Opcode layout: bit 0 = load/ifetch (occupies the window), bit 1 =
#: MSHR pop, bits 2..19 = ROB pop count, bits 20+ = LLC event count.
_OP_LOAD = 1
_OP_MSHR = 2
_ROB_SHIFT = 2
_ROB_MASK = (1 << 18) - 1
_EV_SHIFT = 20

#: Gap folding requires every intermediate ``cycle`` value to be exactly
#: representable (an integer multiple of 1/width below 2**53) so float
#: addition stays associative; 2**50 leaves width ≤ 8 of headroom.
_EXACT_CYCLE_BOUND = 1 << 50

#: Records per chunk: the plan scan and every replay turn at most this
#: many records (and their LLC events) into Python objects at a time.
#: Small enough that a chunk's objects are still cache-resident when the
#: replay reads them: on the matrix traces 8192-record chunks cost a
#: replay up to 0.6 us more per event than 512-record ones.
_CHUNK = 512

#: Timing records as three parallel columns: ``gap / dispatch_width``
#: (float64), base latency (int32) and opcode (int32: at most three LLC
#: events per record keep it below 2**22).
_Records = tuple[np.ndarray, np.ndarray, np.ndarray]


class _PlanLevel:
    """Flattened checkout of one always-LRU upper level.

    Mirrors ``_FastLevel`` from :mod:`repro.mem.fastpath`, but checked
    out of a scratch hierarchy the plan owns: after the scan its state is
    frozen and :meth:`publish_into` copies counters plus final
    tag/dirty/stamp state into every cell's hierarchy.
    """

    __slots__ = (
        "num_ways", "num_sets", "set_mask", "hit_latency",
        "tags", "dirty", "stamps", "index", "occupancy",
        "demand_accesses", "demand_hits", "writeback_accesses",
        "writeback_hits", "evictions", "dirty_evictions", "per_kind_misses",
        "_final_rows",
    )

    def __init__(self, cache: Cache) -> None:
        policy = cache.policy
        if type(policy) is not LRUPolicy:
            raise TypeError(
                f"{cache.name}: batch plan requires exact LRU, got {policy.name}"
            )
        self.num_ways = cache.num_ways
        self.num_sets = cache.num_sets
        self.set_mask = cache._set_mask
        self.hit_latency = cache.hit_latency
        self.tags: list[int] = [t for row in cache._tags for t in row]
        self.dirty = bytearray(
            1 if d else 0 for row in cache._dirty for d in row
        )
        self.stamps: list[int] = [s for row in policy._stamp for s in row]
        self.index: dict[int, int] = {
            tag: i for i, tag in enumerate(self.tags) if tag != -1
        }
        self.occupancy: list[int] = [
            sum(1 for t in row if t != -1) for row in cache._tags
        ]
        self.demand_accesses = 0
        self.demand_hits = 0
        self.writeback_accesses = 0
        self.writeback_hits = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.per_kind_misses: dict[int, int] = {}
        # Final state re-nested into rows, built lazily on the first
        # publish (the plan is frozen by then) and row-copied into each
        # cell so cells never alias the plan or each other.
        self._final_rows: tuple[
            list[list[int]], list[list[bool]], list[list[int]]
        ] | None = None

    def reset_counters(self) -> None:
        """Mirror of the driver's warm-up statistics reset."""
        self.demand_accesses = 0
        self.demand_hits = 0
        self.writeback_accesses = 0
        self.writeback_hits = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.per_kind_misses = {}

    def publish_into(self, cache: Cache, clock: int) -> None:
        """Copy measured counters and final state into a cell's cache."""
        stats = cache.stats
        stats.demand_accesses = self.demand_accesses
        stats.demand_hits = self.demand_hits
        stats.writeback_accesses = self.writeback_accesses
        stats.writeback_hits = self.writeback_hits
        stats.evictions = self.evictions
        stats.dirty_evictions = self.dirty_evictions
        stats.per_kind_misses = dict(self.per_kind_misses)
        if self._final_rows is None:
            ways = self.num_ways
            sets = self.num_sets
            tags = self.tags
            dirty = self.dirty
            stamps = self.stamps
            self._final_rows = (
                [tags[s * ways:(s + 1) * ways] for s in range(sets)],
                [
                    [b != 0 for b in dirty[s * ways:(s + 1) * ways]]
                    for s in range(sets)
                ],
                [stamps[s * ways:(s + 1) * ways] for s in range(sets)],
            )
        tag_rows, dirty_rows, stamp_rows = self._final_rows
        cache._tags = [row[:] for row in tag_rows]
        cache._dirty = [row[:] for row in dirty_rows]
        policy = cache.policy
        policy._stamp = [row[:] for row in stamp_rows]
        policy._clock = clock


def _stream(columns: Sequence[np.ndarray], lo: int, hi: int) -> Iterator[tuple]:
    """Rows ``[lo, hi)`` of parallel ``columns`` as tuples, converted to
    Python objects :data:`_CHUNK` rows at a time."""
    return chain.from_iterable(
        zip(*[column[start:min(start + _CHUNK, hi)].tolist() for column in columns])
        for start in range(lo, hi, _CHUNK)
    )


class _PlanMachine:
    """Upper-level machine that records LLC-visible events.

    Runs the L1I/L1D/L2 transitions of :class:`FastMachine` with the
    same shared monotonic clock, but instead of probing the LLC it
    appends (demand | writeback) events to typed per-field buffers for
    the per-cell replay to consume.
    """

    __slots__ = (
        "l1i", "l1d", "l2", "clock", "block_bits", "llc_hit_latency",
        "l1d_misses", "served_l1", "served_l2",
        "ev_demand", "ev_block", "ev_pc", "ev_kind", "ev_isdata",
    )

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.l1i = _PlanLevel(hierarchy.l1i)
        self.l1d = _PlanLevel(hierarchy.l1d)
        self.l2 = _PlanLevel(hierarchy.l2)
        # One machine-wide clock, seeded past every checked-out stamp —
        # the same relative-order argument as FastMachine.
        self.clock = max(
            hierarchy.l1i.policy._clock,
            hierarchy.l1d.policy._clock,
            hierarchy.l2.policy._clock,
        )
        self.block_bits = hierarchy.block_bits
        self.llc_hit_latency = hierarchy.llc.hit_latency
        self.l1d_misses = 0
        self.served_l1 = 0
        self.served_l2 = 0
        self.ev_demand = array("b")
        self.ev_block = array("Q")
        self.ev_pc = array("Q")
        self.ev_kind = array("b")
        self.ev_isdata = array("b")

    def reset_counters(self) -> None:
        self.l1i.reset_counters()
        self.l1d.reset_counters()
        self.l2.reset_counters()
        self.l1d_misses = 0
        self.served_l1 = 0
        self.served_l2 = 0

    # -- fill / writeback cascade (same transitions as FastMachine) -----------

    def _fill(self, lvl: _PlanLevel, block: int, kind: int) -> int:
        """Insert ``block``; returns the dirty victim block, or -1."""
        ways = lvl.num_ways
        set_index = block & lvl.set_mask
        base = set_index * ways
        tags = lvl.tags
        occupancy = lvl.occupancy
        victim = -1
        victim_dirty = 0
        if occupancy[set_index] < ways:
            idx = tags.index(-1, base, base + ways)
            occupancy[set_index] += 1
        else:
            end = base + ways
            stamps = lvl.stamps
            idx = stamps.index(min(stamps[base:end]), base, end)
            victim = tags[idx]
            victim_dirty = lvl.dirty[idx]
            lvl.evictions += 1
            if victim_dirty:
                lvl.dirty_evictions += 1
            del lvl.index[victim]
        tags[idx] = block
        lvl.index[block] = idx
        lvl.dirty[idx] = 1 if kind == 1 or kind == 4 else 0  # STORE/WRITEBACK
        clock = self.clock + 1
        self.clock = clock
        lvl.stamps[idx] = clock
        return victim if victim_dirty else -1

    def _emit_writeback(self, block: int) -> None:
        """An L2 victim escapes to the LLC: record the writeback event."""
        self.ev_demand.append(0)
        self.ev_block.append(block)
        self.ev_pc.append(0)
        self.ev_kind.append(4)  # AccessKind.WRITEBACK
        self.ev_isdata.append(0)

    def _writeback_to_l2(self, block: int) -> None:
        l2 = self.l2
        l2.writeback_accesses += 1
        idx = l2.index.get(block)
        if idx is not None:
            l2.writeback_hits += 1
            clock = self.clock + 1
            self.clock = clock
            l2.stamps[idx] = clock
            l2.dirty[idx] = 1
            return
        pkm = l2.per_kind_misses
        pkm[4] = pkm.get(4, 0) + 1
        wb = self._fill(l2, block, 4)
        if wb >= 0:
            self._emit_writeback(wb)

    def _miss(
        self, l1: _PlanLevel, block: int, pc: int, kind: int, is_data: bool
    ) -> int:
        """L1 demand miss: probe L2, emitting any LLC-bound events.

        Event order per record matches FastMachine's LLC call order:
        demand probe first, then the L2-fill victim writeback, then the
        L1-fill → L2 cascade's victim writeback.
        """
        latency = l1.hit_latency
        fill = self._fill
        l2 = self.l2
        l2.demand_accesses += 1
        idx = l2.index.get(block)
        if idx is not None:
            l2.demand_hits += 1
            clock = self.clock + 1
            self.clock = clock
            l2.stamps[idx] = clock
            if kind == 1:
                l2.dirty[idx] = 1
            latency += l2.hit_latency
            wb = fill(l1, block, kind)
            if wb >= 0:
                self._writeback_to_l2(wb)
            self.served_l2 += 1
            return latency
        pkm = l2.per_kind_misses
        pkm[kind] = pkm.get(kind, 0) + 1

        # The demand escapes to the LLC. Both the hit and miss branches
        # of the per-cell replay add llc.hit_latency, so it folds into
        # the base latency here; DRAM latency is added per cell.
        latency += l2.hit_latency
        latency += self.llc_hit_latency
        self.ev_demand.append(1)
        self.ev_block.append(block)
        self.ev_pc.append(pc)
        self.ev_kind.append(kind)
        self.ev_isdata.append(1 if is_data else 0)

        wb = fill(l2, block, kind)
        if wb >= 0:
            self._emit_writeback(wb)
        wb = fill(l1, block, kind)
        if wb >= 0:
            self._writeback_to_l2(wb)
        return latency

    # -- the scan --------------------------------------------------------------

    def scan(
        self,
        trace: Trace,
        start: int,
        stop: int,
        core_cfg: CoreConfig,
        gws: array[float],
        lats: array[int],
        codes: array[int],
        prefixes: array[int] | None,
    ) -> tuple[int, int, int, int]:
        """Stream records [start, stop): upper levels + core schedule.

        Appends one (gap/width, base latency, opcode) triple per record
        to the typed column buffers — with ``prefixes``, also the six
        upper-level demand counters after it — and returns ``(loads,
        base load latency, instructions, loads still in flight)`` for
        the phase. The core schedule — how many ROB entries retire at
        each record and whether a load waits on an MSHR slot — is pure
        integer arithmetic on instruction positions, so it is identical
        for every cell.
        """
        from collections import deque

        width = core_cfg.dispatch_width
        rob = core_cfg.rob_size
        mshrs = core_cfg.max_outstanding_misses
        posq: deque[int] = deque()
        pos_pop = posq.popleft
        pos_push = posq.append
        instr = 0
        loads = 0
        load_lat = 0

        l1d = self.l1d
        l1i = self.l1i
        l2 = self.l2
        d_get = l1d.index.get
        i_get = l1i.index.get
        d_stamps = l1d.stamps
        i_stamps = l1i.stamps
        d_dirty = l1d.dirty
        d_lat = l1d.hit_latency
        i_lat = l1i.hit_latency
        d_pkm = l1d.per_kind_misses
        i_pkm = l1i.per_kind_misses
        d_acc = l1d.demand_accesses
        d_hits = l1d.demand_hits
        i_acc = l1i.demand_accesses
        i_hits = l1i.demand_hits
        served_l1 = self.served_l1
        l1d_misses = self.l1d_misses
        clock = self.clock
        bbits = self.block_bits
        miss = self._miss
        ev_blocks = self.ev_block
        n_ev = len(ev_blocks)

        gw_append = gws.append
        lat_append = lats.append
        code_append = codes.append
        px_extend = prefixes.extend if prefixes is not None else None

        records = trace.records
        fields = (records["addr"], records["pc"], records["kind"], records["gap"])
        for addr, pc, kind, gap in _stream(fields, start, stop):
            block = addr >> bbits
            if kind <= 1:  # LOAD / STORE → L1D
                d_acc += 1
                idx = d_get(block)
                if idx is not None:
                    d_hits += 1
                    clock += 1
                    d_stamps[idx] = clock
                    if kind == 1:
                        d_dirty[idx] = 1
                    served_l1 += 1
                    latency = d_lat
                    ne = 0
                else:
                    d_pkm[kind] = d_pkm.get(kind, 0) + 1
                    l1d_misses += 1
                    self.clock = clock
                    latency = miss(l1d, block, pc, kind, True)
                    clock = self.clock
                    new_ev = len(ev_blocks)
                    ne = new_ev - n_ev
                    n_ev = new_ev
            else:  # IFETCH (eligibility guarantees kind == 2) → L1I
                i_acc += 1
                idx = i_get(block)
                if idx is not None:
                    i_hits += 1
                    clock += 1
                    i_stamps[idx] = clock
                    served_l1 += 1
                    latency = i_lat
                    ne = 0
                else:
                    i_pkm[2] = i_pkm.get(2, 0) + 1
                    self.clock = clock
                    latency = miss(l1i, block, pc, 2, False)
                    clock = self.clock
                    new_ev = len(ev_blocks)
                    ne = new_ev - n_ev
                    n_ev = new_ev

            # Core schedule: positions only; completion cycles are
            # per-cell. Same pop conditions as CoreModel.step.
            instr += gap
            horizon = instr - rob
            nrob = 0
            while posq and posq[0] < horizon:
                pos_pop()
                nrob += 1
            if kind != 1:  # LOAD or IFETCH occupy the window
                if len(posq) >= mshrs:
                    pos_pop()
                    op = (ne << _EV_SHIFT) | (nrob << _ROB_SHIFT) | _OP_MSHR | _OP_LOAD
                else:
                    op = (ne << _EV_SHIFT) | (nrob << _ROB_SHIFT) | _OP_LOAD
                loads += 1
                load_lat += latency
                pos_push(instr)
            else:
                op = (ne << _EV_SHIFT) | (nrob << _ROB_SHIFT)
            code_append(op)
            gw_append(gap / width)
            lat_append(latency)
            if px_extend is not None:
                px_extend(
                    (d_acc, d_hits, i_acc, i_hits, l2.demand_accesses, l2.demand_hits)
                )

        self.clock = clock
        l1d.demand_accesses = d_acc
        l1d.demand_hits = d_hits
        l1i.demand_accesses = i_acc
        l1i.demand_hits = i_hits
        self.served_l1 = served_l1
        self.l1d_misses = l1d_misses
        return loads, load_lat, instr, len(posq)


class _CellState:
    """Per-cell mutable replay state: core clock + in-flight ring."""

    __slots__ = (
        "cycle", "ring", "rh", "rt", "rob_stall", "mshr_stall",
        "load_lat_extra", "served_llc", "served_dram", "l1d_misses_to_dram",
    )

    def __init__(self, ring_size: int) -> None:
        self.cycle = 0.0
        # Completion cycles of in-flight loads, FIFO. Occupancy is
        # bounded by the MSHR count (the schedule pops before every
        # append at capacity), so a fixed ring with head/tail cursors
        # replaces the reference deque of (position, completion) tuples.
        self.ring = [0.0] * ring_size
        self.rh = 0
        self.rt = 0
        self.rob_stall = 0.0
        self.mshr_stall = 0.0
        self.load_lat_extra = 0
        self.served_llc = 0
        self.served_dram = 0
        self.l1d_misses_to_dram = 0


def _noop_eviction(set_index: int, way: int, victim_block: int) -> None:
    """Stand-in for the base class's no-op ``on_eviction``."""


_KIND_STORE = 1
_KIND_PREFETCH = 3
_KIND_WRITEBACK = 4
_SHCT_MASK = SHCT_SIZE - 1
_SIG2 = 2 * SIGNATURE_BITS
_PRED_MASK = PREDICTOR_SIZE - 1
_PRED_SHIFT2 = 2 * PREDICTOR_BITS
_ISVM_MASK = ISVM_TABLE_SIZE - 1
_ISVM_SHIFT2 = 2 * ISVM_TABLE_BITS
_MP_MASK = MP_TABLE_SIZE - 1


def _specialized_hooks(policy: Any) -> _PolicyHooks | None:
    """Closure replacements for the paper policies' hook methods.

    Hook *dispatch* — bound-method calls, ``PolicyAccess`` property
    lookups, Python-level victim scans — costs as much as the state
    updates themselves for the simple policies, and is a sizable tax
    even on the learned ones. This returns ``(on_hit, on_fill,
    on_eviction, find_victim, check_in)`` closures that mutate the
    policy's own state lists in place with the identical arithmetic in
    the identical order (C-level ``min``/``index``/``in`` scans replace
    the reference's first-match Python loops, which pick the same way),
    so results stay bit-identical — `verify-fastpath --engine batched`
    covers every one of these policies. Scalar state (the LRU clock,
    DRRIP's PSEL/fill counter, fill/bypass statistics) lives in cells
    of the closure; ``check_in`` (possibly ``None``) writes it back so
    snapshots and later replays observe it.

    Exact-type matches only: a subclass overriding any hook falls back
    to its real methods.
    """
    cls = type(policy)
    if cls is LRUPolicy:
        stamps: list[list[int]] = policy._stamp
        clock: int = policy._clock

        def lru_touch(set_index: int, way: int, access: PolicyAccess) -> None:
            nonlocal clock
            clock += 1
            stamps[set_index][way] = clock

        def lru_victim(set_index: int, access: PolicyAccess, tags: list[int]) -> int:
            row = stamps[set_index]
            return row.index(min(row))

        def lru_check_in() -> None:
            policy._clock = clock

        return lru_touch, lru_touch, _noop_eviction, lru_victim, lru_check_in

    if cls is SRRIPPolicy or cls is DRRIPPolicy:
        rrpv: list[list[int]] = policy._rrpv

        def rrip_hit(set_index: int, way: int, access: PolicyAccess) -> None:
            rrpv[set_index][way] = 0

        def rrip_victim(set_index: int, access: PolicyAccess, tags: list[int]) -> int:
            row = rrpv[set_index]
            while RRPV_MAX not in row:
                row[:] = [value + 1 for value in row]
            return row.index(RRPV_MAX)

        if cls is SRRIPPolicy:

            def srrip_fill(set_index: int, way: int, access: PolicyAccess) -> None:
                rrpv[set_index][way] = RRPV_MAX - 1

            return rrip_hit, srrip_fill, _noop_eviction, rrip_victim, None

        leader = policy._leader
        psel = policy._psel
        psel_max = policy._psel_max
        psel_mid = (psel_max + 1) // 2
        fills = policy._fill_count

        def drrip_fill(set_index: int, way: int, access: PolicyAccess) -> None:
            nonlocal psel, fills
            role = leader[set_index]
            kind = access.kind
            # record_demand_miss() precedes the insertion decision, so a
            # follower read of PSEL sees this miss already counted.
            if kind != _KIND_WRITEBACK and kind != _KIND_PREFETCH:
                if role > 0:
                    if psel < psel_max:
                        psel += 1
                elif role < 0 and psel > 0:
                    psel -= 1
            if role > 0 or (role == 0 and psel < psel_mid):
                rrpv[set_index][way] = RRPV_MAX - 1
            else:
                fills += 1
                rrpv[set_index][way] = (
                    RRPV_MAX - 1 if fills % BRRIP_LONG_PERIOD == 0 else RRPV_MAX
                )

        def drrip_check_in() -> None:
            policy._psel = psel
            policy._fill_count = fills

        return rrip_hit, drrip_fill, _noop_eviction, rrip_victim, drrip_check_in

    if cls is SHiPPolicy:
        ship_rrpv: list[list[int]] = policy._rrpv
        line_sig = policy._line_sig
        line_reused = policy._line_reused
        line_valid = policy._line_valid
        shct = policy._shct

        def ship_hit(set_index: int, way: int, access: PolicyAccess) -> None:
            if access.kind == _KIND_WRITEBACK:
                return
            ship_rrpv[set_index][way] = 0
            if line_valid[set_index][way] and not line_reused[set_index][way]:
                line_reused[set_index][way] = True
                sig = line_sig[set_index][way]
                if shct[sig] < SHCT_MAX:
                    shct[sig] += 1

        def ship_fill(set_index: int, way: int, access: PolicyAccess) -> None:
            pc = access.pc
            sig = (pc ^ (pc >> SIGNATURE_BITS) ^ (pc >> _SIG2)) & _SHCT_MASK
            line_sig[set_index][way] = sig
            line_reused[set_index][way] = False
            if access.kind == _KIND_WRITEBACK:
                ship_rrpv[set_index][way] = RRPV_MAX
                line_valid[set_index][way] = False
                return
            line_valid[set_index][way] = True
            ship_rrpv[set_index][way] = (
                RRPV_MAX if shct[sig] == 0 else RRPV_MAX - 1
            )

        def ship_evict(set_index: int, way: int, victim_block: int) -> None:
            if line_valid[set_index][way] and not line_reused[set_index][way]:
                sig = line_sig[set_index][way]
                if shct[sig] > 0:
                    shct[sig] -= 1
            line_valid[set_index][way] = False

        def ship_victim(set_index: int, access: PolicyAccess, tags: list[int]) -> int:
            row = ship_rrpv[set_index]
            while RRPV_MAX not in row:
                row[:] = [value + 1 for value in row]
            return row.index(RRPV_MAX)

        return ship_hit, ship_fill, ship_evict, ship_victim, None

    # The learned policies get the same treatment with one boundary:
    # everything that *learns* — Hawkeye's and Glider's OPTgen sampler
    # and (de)training, MPPPB's perceptron update — stays a real method
    # call, while the per-touch bookkeeping around it (prediction reads,
    # RRPV/stamp writes, the insertion-aging loop) is inlined. Their
    # find_victim common case — evict the first cache-averse line (RRPV
    # at max) — is a side-effect-free scan the C-level ``in``/``index``
    # pair resolves identically; the friendly-eviction fallback (which
    # detrains the predictor) re-enters the real method, whose own
    # leading scan then finds nothing and proceeds unchanged.

    if cls is HawkeyePolicy:
        h_rrpv: list[list[int]] = policy._rrpv
        h_friendly = policy._line_friendly
        h_pc = policy._line_pc
        h_counters = policy._counters
        h_sample = policy._sample
        h_real_victim: _VictimHook = policy.find_victim
        h_stat_friendly = policy.stat_friendly_fills
        h_stat_averse = policy.stat_averse_fills

        def hawkeye_hit(set_index: int, way: int, access: PolicyAccess) -> None:
            h_sample(set_index, access)
            if access.kind == _KIND_WRITEBACK:
                return
            pc = access.pc
            friendly = (
                h_counters[(pc ^ (pc >> PREDICTOR_BITS) ^ (pc >> _PRED_SHIFT2)) & _PRED_MASK]
                >= FRIENDLY_THRESHOLD
            )
            h_friendly[set_index][way] = friendly
            h_pc[set_index][way] = pc
            h_rrpv[set_index][way] = 0 if friendly else HAWKEYE_RRPV_MAX

        def hawkeye_fill(set_index: int, way: int, access: PolicyAccess) -> None:
            nonlocal h_stat_friendly, h_stat_averse
            h_sample(set_index, access)
            if access.kind == _KIND_WRITEBACK:
                h_friendly[set_index][way] = False
                h_pc[set_index][way] = 0
                h_rrpv[set_index][way] = HAWKEYE_RRPV_MAX
                return
            pc = access.pc
            friendly = (
                h_counters[(pc ^ (pc >> PREDICTOR_BITS) ^ (pc >> _PRED_SHIFT2)) & _PRED_MASK]
                >= FRIENDLY_THRESHOLD
            )
            h_friendly[set_index][way] = friendly
            h_pc[set_index][way] = pc
            if friendly:
                h_stat_friendly += 1
                row = h_rrpv[set_index]
                for w, value in enumerate(row):
                    if w != way and value < HAWKEYE_RRPV_MAX - 1:
                        row[w] = value + 1
                row[way] = 0
            else:
                h_stat_averse += 1
                h_rrpv[set_index][way] = HAWKEYE_RRPV_MAX

        def hawkeye_victim(set_index: int, access: PolicyAccess, tags: list[int]) -> int:
            row = h_rrpv[set_index]
            if HAWKEYE_RRPV_MAX in row:
                return row.index(HAWKEYE_RRPV_MAX)
            return h_real_victim(set_index, access, tags)

        def hawkeye_check_in() -> None:
            policy.stat_friendly_fills = h_stat_friendly
            policy.stat_averse_fills = h_stat_averse

        return (
            hawkeye_hit,
            hawkeye_fill,
            _noop_eviction,
            hawkeye_victim,
            hawkeye_check_in,
        )

    if cls is GliderPolicy:
        g_rrpv: list[list[int]] = policy._rrpv
        g_friendly = policy._line_friendly
        g_line_features = policy._line_features
        g_isvms = policy._isvms
        g_sample = policy._sample
        g_push = policy._push_history
        g_real_victim: _VictimHook = policy.find_victim
        g_stat_friendly = policy.stat_friendly_fills
        g_stat_averse = policy.stat_averse_fills

        def glider_hit(set_index: int, way: int, access: PolicyAccess) -> None:
            if access.kind == _KIND_WRITEBACK:
                g_friendly[set_index][way] = False
                g_line_features[set_index][way] = (0, ())
                g_rrpv[set_index][way] = HAWKEYE_RRPV_MAX
                return
            pc = access.pc
            features = (
                (pc ^ (pc >> ISVM_TABLE_BITS) ^ (pc >> _ISVM_SHIFT2)) & _ISVM_MASK,
                policy._pchr_slots,
            )
            # _sample may train the ISVM, so the prediction sum reads
            # the weights only after it — the reference _touch order.
            g_sample(set_index, access, features)
            weights = g_isvms[features[0]]
            total = sum(map(weights.__getitem__, features[1]))
            g_push(pc)
            g_line_features[set_index][way] = features
            if total < THRESHOLD_AVERSE:
                g_friendly[set_index][way] = False
                g_rrpv[set_index][way] = HAWKEYE_RRPV_MAX
                return
            g_friendly[set_index][way] = True
            g_rrpv[set_index][way] = 0 if total >= THRESHOLD_CONFIDENT else 2

        def glider_fill(set_index: int, way: int, access: PolicyAccess) -> None:
            nonlocal g_stat_friendly, g_stat_averse
            if access.kind == _KIND_WRITEBACK:
                g_friendly[set_index][way] = False
                g_line_features[set_index][way] = (0, ())
                g_rrpv[set_index][way] = HAWKEYE_RRPV_MAX
                return
            pc = access.pc
            features = (
                (pc ^ (pc >> ISVM_TABLE_BITS) ^ (pc >> _ISVM_SHIFT2)) & _ISVM_MASK,
                policy._pchr_slots,
            )
            g_sample(set_index, access, features)
            weights = g_isvms[features[0]]
            total = sum(map(weights.__getitem__, features[1]))
            g_push(pc)
            g_line_features[set_index][way] = features
            if total < THRESHOLD_AVERSE:
                g_friendly[set_index][way] = False
                g_rrpv[set_index][way] = HAWKEYE_RRPV_MAX
                g_stat_averse += 1
                return
            g_friendly[set_index][way] = True
            g_stat_friendly += 1
            row = g_rrpv[set_index]
            for w, value in enumerate(row):
                if w != way and value < HAWKEYE_RRPV_MAX - 1:
                    row[w] = value + 1
            g_rrpv[set_index][way] = 0 if total >= THRESHOLD_CONFIDENT else 2

        def glider_victim(set_index: int, access: PolicyAccess, tags: list[int]) -> int:
            row = g_rrpv[set_index]
            if HAWKEYE_RRPV_MAX in row:
                return row.index(HAWKEYE_RRPV_MAX)
            return g_real_victim(set_index, access, tags)

        def glider_check_in() -> None:
            policy.stat_friendly_fills = g_stat_friendly
            policy.stat_averse_fills = g_stat_averse

        return (
            glider_hit,
            glider_fill,
            _noop_eviction,
            glider_victim,
            glider_check_in,
        )

    if cls is MPPPBPolicy:
        mp_stamp: list[list[int]] = policy._stamp
        mp_clock = policy._clock
        mp_dead = policy._line_dead
        mp_line_features = policy._line_features
        mp_reused = policy._line_reused
        w0, w1, w2, w3, w4, w5, w6 = policy._weights
        mp_history = policy._pc_history
        mp_train = policy._train
        mp_ways = policy.num_ways
        mp_bypasses = policy.stat_bypasses
        mp_fills = policy.stat_fills

        def mp_features(access: PolicyAccess) -> tuple[int, ...]:
            pc = access.pc
            block = access.block
            history_fold = 0
            for i, h in enumerate(mp_history):
                history_fold ^= h >> (i + 1)
            page = block >> 6
            return (
                pc & _MP_MASK,
                (pc >> 4) & _MP_MASK,
                (pc >> 8) & _MP_MASK,
                (pc ^ (pc >> MP_TABLE_BITS)) & _MP_MASK,
                history_fold & _MP_MASK,
                (page ^ (page >> MP_TABLE_BITS)) & _MP_MASK,
                block & _MP_MASK,
            )

        def mp_touch(set_index: int, way: int, access: PolicyAccess) -> None:
            nonlocal mp_clock
            mp_clock += 1
            mp_stamp[set_index][way] = mp_clock
            if access.kind == _KIND_WRITEBACK:
                mp_dead[set_index][way] = True
                mp_line_features[set_index][way] = None
                mp_reused[set_index][way] = True
                return
            features = mp_features(access)
            f0, f1, f2, f3, f4, f5, f6 = features
            total = w0[f0] + w1[f1] + w2[f2] + w3[f3] + w4[f4] + w5[f5] + w6[f6]
            mp_dead[set_index][way] = total >= THETA_DEAD
            if not set_index % MP_SAMPLE_STRIDE:
                mp_line_features[set_index][way] = features
            mp_history.append(access.pc)

        def mp_hit(set_index: int, way: int, access: PolicyAccess) -> None:
            if not set_index % MP_SAMPLE_STRIDE:
                prior = mp_line_features[set_index][way]
                if prior is not None:
                    mp_train(prior, dead=False)
            mp_reused[set_index][way] = True
            mp_touch(set_index, way, access)

        def mp_fill(set_index: int, way: int, access: PolicyAccess) -> None:
            nonlocal mp_fills
            mp_fills += 1
            mp_reused[set_index][way] = False
            mp_touch(set_index, way, access)

        def mp_evict(set_index: int, way: int, victim_block: int) -> None:
            if not set_index % MP_SAMPLE_STRIDE:
                prior = mp_line_features[set_index][way]
                if prior is not None and not mp_reused[set_index][way]:
                    mp_train(prior, dead=True)
            mp_line_features[set_index][way] = None

        def mp_victim(set_index: int, access: PolicyAccess, tags: list[int]) -> int:
            nonlocal mp_bypasses
            if access.kind != _KIND_WRITEBACK:
                features = mp_features(access)
                f0, f1, f2, f3, f4, f5, f6 = features
                total = (
                    w0[f0] + w1[f1] + w2[f2] + w3[f3] + w4[f4] + w5[f5] + w6[f6]
                )
                if total >= THETA_BYPASS:
                    mp_bypasses += 1
                    return BYPASS
            dead = mp_dead[set_index]
            stamps = mp_stamp[set_index]
            victim = -1
            oldest = None
            for way in range(mp_ways):
                if dead[way] and (oldest is None or stamps[way] < oldest):
                    victim = way
                    oldest = stamps[way]
            if victim >= 0:
                return victim
            return stamps.index(min(stamps))

        def mp_check_in() -> None:
            policy._clock = mp_clock
            policy.stat_bypasses = mp_bypasses
            policy.stat_fills = mp_fills

        return mp_hit, mp_fill, mp_evict, mp_victim, mp_check_in

    return None


def _fold_records(gw: np.ndarray, lat: np.ndarray, code: np.ndarray) -> _Records:
    """Merge runs of pure front-end records into their successor.

    A code-0 record (store, no pops, no LLC events) only advances
    ``cycle`` by its ``gap/width``. With exact (power-of-two-width)
    arithmetic those adds are associative, so a run of them merges into
    the next record's advance whenever that record reads ``cycle`` only
    *after* its own add — any event-free record qualifies. A record
    carrying LLC events reads ``int(cycle)`` *before* its add, so the
    pending run is flushed as one standalone code-0 record instead, and
    a trailing run becomes one code-0 record at the end. Event order and
    every per-cell float value are preserved bit-for-bit.

    One vectorized pass over the columns: each run's sum is a difference
    of prefix sums over the code-0 advances, exact under the same
    precondition that makes the fold itself exact.
    """
    keep = np.flatnonzero(code)
    n_keep = len(keep)
    # Prefix sums of the code-0 advances: the run pending before a kept
    # record is the difference between its prefix and the previous kept
    # record's; the trailing run is whatever follows the last one.
    prefix = np.where(code == 0, gw, 0.0)
    np.cumsum(prefix, out=prefix)
    last = int(keep[-1]) if n_keep else -1
    tail = last < len(code) - 1
    trailing = prefix[-1] - (prefix[last] if n_keep else 0.0) if tail else 0.0
    before = prefix[keep]
    del prefix
    before = np.diff(before, prepend=0.0)
    has_run = np.diff(keep, prepend=-1) > 1
    split = has_run & (code[keep] >> _EV_SHIFT != 0)
    merge = has_run & ~split

    # Kept record k lands after the flush records split off at or before it.
    at = np.cumsum(split)
    n_split = int(at[-1]) if n_keep else 0
    at += np.arange(n_keep)
    total = n_keep + n_split + int(tail)
    out_gw = np.zeros(total)
    out_lat = np.zeros(total, dtype=lat.dtype)
    out_code = np.zeros(total, dtype=code.dtype)
    out_gw[at] = gw[keep]
    out_gw[at[merge]] += before[merge]
    out_lat[at] = lat[keep]
    out_code[at] = code[keep]
    out_gw[at[split] - 1] = before[split]
    if tail:
        out_gw[-1] = trailing
    return out_gw, out_lat, out_code


class _EventColumns:
    """The plan's LLC-visible events, one typed column per field.

    Each event is a demand probe or an L2-victim writeback with every
    policy-independent derivation precomputed once for all cells: the
    LLC set index and the DRAM row/bank a demand miss would read.
    :meth:`stream` rebuilds a range as the tuples the replay unpacks,
    with a fresh :class:`~repro.policies.base.PolicyAccess` per event.
    """

    __slots__ = (
        "demand", "block", "set_index", "row", "bank",
        "isdata", "is_store", "kind", "pc",
    )

    def __init__(
        self, machine: _PlanMachine, set_mask: int, block_bits: int,
        row_bytes: int, nbanks: int,
    ) -> None:
        block = np.asarray(machine.ev_block)
        kind = np.asarray(machine.ev_kind)
        row = (block << block_bits) // row_bytes
        self.demand = np.asarray(machine.ev_demand)
        self.block = block
        self.set_index = (block & set_mask).astype(np.int32)
        self.row = row
        self.bank = (row % nbanks).astype(np.int32)
        self.isdata = np.asarray(machine.ev_isdata)
        self.is_store = kind == 1
        self.kind = kind
        self.pc = np.asarray(machine.ev_pc)

    def __len__(self) -> int:
        return len(self.block)

    def stream(self, lo: int, hi: int) -> Callable[[], tuple]:
        """A ``next`` over events ``[lo, hi)`` as ``(demand, block, set,
        row, bank, isdata, is_store, kind, access)`` tuples.

        Columns are converted :data:`_CHUNK` events at a time, and rows
        are streamed, not stored: ``zip`` recycles its result tuple once
        the caller has unpacked it, so each event allocates only its
        ``PolicyAccess``, which dies with the event unless the policy
        keeps it.
        """
        return chain.from_iterable(
            self._rows(start, min(start + _CHUNK, hi))
            for start in range(lo, hi, _CHUNK)
        ).__next__

    def _rows(self, lo: int, hi: int) -> Iterator[tuple]:
        block = self.block[lo:hi].tolist()
        kind = self.kind[lo:hi].tolist()
        # tuple.__new__ builds each NamedTuple in C; calling PolicyAccess
        # would run its generated Python __new__, several times slower.
        access = map(
            tuple.__new__, repeat(PolicyAccess),
            zip(block, self.pc[lo:hi].tolist(), kind),
        )
        return zip(
            self.demand[lo:hi].tolist(), block, self.set_index[lo:hi].tolist(),
            self.row[lo:hi].tolist(), self.bank[lo:hi].tolist(),
            self.isdata[lo:hi].tolist(), self.is_store[lo:hi].tolist(), kind,
            access,
        )


class BatchPlan:
    """Policy-independent precomputation shared by every cell of a trace.

    Building the plan costs roughly one fast-engine pass; each
    :meth:`replay` afterwards costs only the inlined core arithmetic
    plus the LLC/DRAM events, so a P-policy matrix approaches the cost
    of the matrix's irreducible LLC work as P grows.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        warmup_fraction: float,
        collect_prefixes: bool,
    ) -> None:
        self.trace = trace
        self.config = config
        self.warmup_fraction = warmup_fraction
        n = len(trace)
        self.n = n
        self.warmup_end = int(n * warmup_fraction)

        core_cfg = config.core
        if core_cfg.max_outstanding_misses > _ROB_MASK:
            raise ConfigurationError(
                "batch engine supports at most "
                f"{_ROB_MASK} outstanding misses, got "
                f"{core_cfg.max_outstanding_misses}"
            )
        scratch = build_hierarchy(config, "lru")
        if not batch_eligible(scratch, trace):
            raise ConfigurationError(
                f"{trace.name}: trace/config combination is not batch-eligible"
            )
        machine = _PlanMachine(scratch)
        self.block_bits = machine.block_bits
        # Events precompute LLC set indices and DRAM rows/banks for this
        # geometry; run_cell() guards that each hierarchy matches it.
        self.set_mask = scratch.llc._set_mask
        self.row_bytes = scratch.dram.config.row_bytes
        self.nbanks = len(scratch.dram._banks)
        del scratch  # the machine holds flat copies of what the scan needs

        gws = array("d")
        lats = array("i")
        codes = array("i")
        _, _, _, w_alive = machine.scan(
            trace, 0, self.warmup_end, core_cfg, gws, lats, codes, None
        )
        machine.reset_counters()
        prefixes = array("q") if collect_prefixes else None
        m_loads, m_load_lat, m_instr, m_alive = machine.scan(
            trace, self.warmup_end, n, core_cfg, gws, lats, codes, prefixes
        )

        # The scan's block -> slot lookups die with it; publishing the
        # final state reads only the tag/dirty/stamp rows.
        for lvl in (machine.l1i, machine.l1d, machine.l2):
            lvl.index.clear()

        self.warmup_alive = w_alive
        self.measured_alive = m_alive
        self.measured_loads = m_loads
        self.measured_load_lat = m_load_lat
        self.measured_instructions = m_instr
        # Zero-copy numpy views of the scan's buffers.
        gw = np.asarray(gws)
        lat = np.asarray(lats)
        code = np.asarray(codes)
        self.measured_ec = int((code[: self.warmup_end] >> _EV_SHIFT).sum())
        self.events = _EventColumns(
            machine, self.set_mask, self.block_bits, self.row_bytes, self.nbanks
        )

        # Per-phase record columns for whole-phase replays, folded when
        # the cycle arithmetic is provably exact (power-of-two width,
        # magnitudes far below 2**53: bounded by instructions plus a
        # generous per-record latency allowance); otherwise views of the
        # unfolded columns. The chunked telemetry replay slices the
        # unfolded columns (``recs``) at interval boundaries, which fold
        # boundaries would not respect; without a collector they are
        # dropped once folded.
        width = core_cfg.dispatch_width
        cycle_bound = (int(trace.records["gap"].sum()) + n * 4096) if n else 0
        w = self.warmup_end
        self.recs: _Records | None = (gw, lat, code) if collect_prefixes else None
        self.warmup_recs: _Records
        self.measured_recs: _Records
        if width & (width - 1) == 0 and cycle_bound < _EXACT_CYCLE_BOUND:
            self.warmup_recs = _fold_records(gw[:w], lat[:w], code[:w])
            self.measured_recs = _fold_records(gw[w:], lat[w:], code[w:])
        else:
            self.warmup_recs = (gw[:w], lat[:w], code[:w])
            self.measured_recs = (gw[w:], lat[w:], code[w:])

        self.levels = (machine.l1i, machine.l1d, machine.l2)
        self.final_clock = machine.clock
        self.measured_l1d_misses = machine.l1d_misses
        self.measured_served_l1 = machine.served_l1
        self.measured_served_l2 = machine.served_l2
        # Upper-level demand counters after each measured record, one
        # column per counter: (L1D accesses, hits, L1I accesses, hits,
        # L2 accesses, hits).
        self.prefixes: np.ndarray | None = (
            np.asarray(prefixes).reshape(-1, 6) if prefixes is not None else None
        )
        self.measured_cum: np.ndarray | None = (
            np.cumsum(trace.records["gap"][self.warmup_end:n], dtype=np.int64)
            if collect_prefixes
            else None
        )
        self.ring_size = max(1, core_cfg.max_outstanding_misses)

    # -- per-cell replay -------------------------------------------------------

    def replay(
        self,
        cell: _CellState,
        hierarchy: CacheHierarchy,
        recs: _Records,
        ec: int,
    ) -> int:
        """Drive one cell's LLC/DRAM/core over precomputed record columns.

        ``ec`` indexes the first LLC event the records consume; returns
        the index after the last one. Records and events stream from
        the plan's columns in chunks (:func:`_stream`,
        :meth:`_EventColumns.stream`). The hot loop dispatches on the
        precomputed opcode: the three event-free shapes (load+MSHR-pop,
        load with a free slot, store) are inlined; everything else — ROB
        retirements, LLC events — takes the general path. The LLC's
        generic bookkeeping (probe order, statistics, dirty bits, victim
        mechanics) and the DRAM bank timing are inlined around the real
        policy-hook calls, operating on the live tag/dirty rows;
        counters accumulate in locals and flush into the model objects
        on exit. With an LLC telemetry tap attached the events route
        through :meth:`~repro.mem.cache.Cache.access`/``fill`` instead
        (:meth:`_replay_tapped`) so the tap observes every operation.
        Float operations (``cycle += gap/width``, stall bumps to a
        completion cycle) execute in exactly the reference order, so
        cycle counts match to the last bit.
        """
        llc = hierarchy.llc
        if llc._telemetry is not None:
            return self._replay_tapped(cell, hierarchy, recs, ec)
        dram = hierarchy.dram
        bbits = self.block_bits
        next_ec = ec + int((recs[2] >> _EV_SHIFT).sum())
        next_event = self.events.stream(ec, next_ec)

        # LLC checkout: the policy hooks receive the same live row lists
        # Cache.access/fill would hand them. Two derived structures make
        # the per-event probes O(1): a block → way dict (a block lives
        # in exactly one set, so keys are unique) replaces the
        # `blk in tags` + `tags.index(blk)` scans, and per-set free-way
        # counts turn the fill path's `-1 in tags` scan — a guaranteed
        # full miss scan once the sets fill up — into one integer test.
        # Free ways only disappear: evictions replace in place.
        llc_tags = llc._tags
        llc_dirty = llc._dirty
        free_ways = [row.count(-1) for row in llc_tags]
        resident: dict[int, int] = {
            tag: way
            for row in llc_tags
            for way, tag in enumerate(row)
            if tag != -1
        }
        resident_get = resident.get
        policy = llc.policy
        specialized = _specialized_hooks(policy)
        if specialized is None:
            on_hit = policy.on_hit
            on_fill = policy.on_fill
            on_eviction = policy.on_eviction
            find_victim = policy.find_victim
            check_in = None
        else:
            on_hit, on_fill, on_eviction, find_victim, check_in = specialized
        s_dacc = s_dhits = s_wbacc = s_wbhits = 0
        s_evict = s_devict = s_bypass = 0
        s_pkm = [0, 0, 0, 0, 0]

        # DRAM checkout: banks flatten to two parallel lists, stats to
        # locals; written back on exit so chunked calls and the rebase
        # at the warm-up boundary observe the state the model holds.
        dram_cfg = dram.config
        row_bytes = dram_cfg.row_bytes
        lat_rowhit = dram_cfg.row_hit_latency
        lat_rowclosed = dram_cfg.row_closed_latency
        lat_rowconf = dram_cfg.row_conflict_latency
        banks = dram._banks
        nbanks = len(banks)
        bank_row = [b.open_row for b in banks]
        bank_next = [b.next_free for b in banks]
        s_reads = s_writes = s_rowhit = s_rowconf = s_rowclosed = s_rdlat = 0

        ring = cell.ring
        ring_n = len(ring)
        rh = cell.rh
        rt = cell.rt
        cycle = cell.cycle
        rob_stall = cell.rob_stall
        mshr_stall = cell.mshr_stall
        lat_extra = cell.load_lat_extra
        served_llc = cell.served_llc
        served_dram = cell.served_dram
        l1d_md = cell.l1d_misses_to_dram

        for gw, lat, code in _stream(recs, 0, len(recs[2])):
            if code == 3:
                # Load, one MSHR pop, no ROB pops, no LLC events — the
                # steady state once the window is full.
                cycle += gw
                done = ring[rh]
                rh += 1
                if rh == ring_n:
                    rh = 0
                if done > cycle:
                    mshr_stall += done - cycle
                    cycle = done
                ring[rt] = cycle + lat
                rt += 1
                if rt == ring_n:
                    rt = 0
            elif code == 1:
                # Load into a free MSHR slot, nothing retires.
                cycle += gw
                ring[rt] = cycle + lat
                rt += 1
                if rt == ring_n:
                    rt = 0
            elif code == 0:
                # Store (write-buffered): only the front end advances.
                cycle += gw
            else:
                ne = code >> _EV_SHIFT
                if ne:
                    # LLC-visible events issue against the pre-step cycle,
                    # exactly as FastMachine passes int(cycle) to _miss.
                    icycle = int(cycle)
                    base = lat
                    stop_ec = ec + ne
                    while ec < stop_ec:
                        (demand, blk, set_index, row, b,
                         isdata, is_store, kind, acc) = next_event()
                        ec += 1
                        if demand:
                            way = resident_get(blk)
                            if way is not None:
                                # Cache.access hit: count, notify, dirty.
                                s_dacc += 1
                                s_dhits += 1
                                on_hit(set_index, way, acc)
                                if is_store:
                                    llc_dirty[set_index][way] = True
                                served_llc += 1
                            else:
                                tags = llc_tags[set_index]
                                s_dacc += 1
                                s_pkm[kind] += 1
                                # dram.read at the post-probe latency;
                                # row/bank precomputed in the plan.
                                arrival = icycle + lat
                                nf = bank_next[b]
                                begin = nf if nf > arrival else arrival
                                orow = bank_row[b]
                                if orow == row:
                                    s_rowhit += 1
                                    svc = lat_rowhit
                                elif orow == -1:
                                    s_rowclosed += 1
                                    svc = lat_rowclosed
                                else:
                                    s_rowconf += 1
                                    svc = lat_rowconf
                                bank_row[b] = row
                                bank_next[b] = begin + svc
                                dlat = begin - arrival + svc
                                s_reads += 1
                                s_rdlat += dlat
                                lat += dlat
                                if isdata:
                                    l1d_md += 1
                                # Cache.fill, then the dirty victim's
                                # writeback — the reference call order.
                                if free_ways[set_index]:
                                    free_ways[set_index] -= 1
                                    way = tags.index(-1)
                                    tags[way] = blk
                                    resident[blk] = way
                                    llc_dirty[set_index][way] = is_store
                                    on_fill(set_index, way, acc)
                                else:
                                    way = find_victim(set_index, acc, tags)
                                    if way == BYPASS:
                                        s_bypass += 1
                                    else:
                                        victim = tags[way]
                                        vdirty = llc_dirty[set_index][way]
                                        s_evict += 1
                                        if vdirty:
                                            s_devict += 1
                                        on_eviction(set_index, way, victim)
                                        tags[way] = blk
                                        del resident[victim]
                                        resident[blk] = way
                                        llc_dirty[set_index][way] = is_store
                                        on_fill(set_index, way, acc)
                                        if vdirty:
                                            row = (victim << bbits) // row_bytes
                                            b = row % nbanks
                                            nf = bank_next[b]
                                            begin = nf if nf > icycle else icycle
                                            orow = bank_row[b]
                                            if orow == row:
                                                s_rowhit += 1
                                                svc = lat_rowhit
                                            elif orow == -1:
                                                s_rowclosed += 1
                                                svc = lat_rowclosed
                                            else:
                                                s_rowconf += 1
                                                svc = lat_rowconf
                                            bank_row[b] = row
                                            bank_next[b] = begin + svc
                                            s_writes += 1
                                served_dram += 1
                        else:
                            way = resident_get(blk)
                            if way is not None:
                                # Writeback hit: refresh and mark dirty.
                                s_wbacc += 1
                                s_wbhits += 1
                                on_hit(set_index, way, acc)
                                llc_dirty[set_index][way] = True
                                continue
                            tags = llc_tags[set_index]
                            s_wbacc += 1
                            s_pkm[4] += 1
                            victim = -1
                            if free_ways[set_index]:
                                free_ways[set_index] -= 1
                                way = tags.index(-1)
                                tags[way] = blk
                                resident[blk] = way
                                llc_dirty[set_index][way] = True
                                on_fill(set_index, way, acc)
                            else:
                                way = find_victim(set_index, acc, tags)
                                if way == BYPASS:
                                    s_bypass += 1
                                    victim = blk  # bypassed WB goes to DRAM
                                else:
                                    cand = tags[way]
                                    vdirty = llc_dirty[set_index][way]
                                    s_evict += 1
                                    if vdirty:
                                        s_devict += 1
                                        victim = cand
                                    on_eviction(set_index, way, cand)
                                    tags[way] = blk
                                    del resident[cand]
                                    resident[blk] = way
                                    llc_dirty[set_index][way] = True
                                    on_fill(set_index, way, acc)
                            if victim >= 0:
                                row = (victim << bbits) // row_bytes
                                b = row % nbanks
                                nf = bank_next[b]
                                begin = nf if nf > icycle else icycle
                                orow = bank_row[b]
                                if orow == row:
                                    s_rowhit += 1
                                    svc = lat_rowhit
                                elif orow == -1:
                                    s_rowclosed += 1
                                    svc = lat_rowclosed
                                else:
                                    s_rowconf += 1
                                    svc = lat_rowconf
                                bank_row[b] = row
                                bank_next[b] = begin + svc
                                s_writes += 1
                    if code & 1:
                        lat_extra += lat - base
                cycle += gw
                nrob = (code >> _ROB_SHIFT) & _ROB_MASK
                while nrob:
                    done = ring[rh]
                    rh += 1
                    if rh == ring_n:
                        rh = 0
                    if done > cycle:
                        rob_stall += done - cycle
                        cycle = done
                    nrob -= 1
                if code & 2:
                    done = ring[rh]
                    rh += 1
                    if rh == ring_n:
                        rh = 0
                    if done > cycle:
                        mshr_stall += done - cycle
                        cycle = done
                if code & 1:
                    ring[rt] = cycle + lat
                    rt += 1
                    if rt == ring_n:
                        rt = 0

        if check_in is not None:
            check_in()
        cell.cycle = cycle
        cell.rh = rh
        cell.rt = rt
        cell.rob_stall = rob_stall
        cell.mshr_stall = mshr_stall
        cell.load_lat_extra = lat_extra
        cell.served_llc = served_llc
        cell.served_dram = served_dram
        cell.l1d_misses_to_dram = l1d_md

        stats = llc.stats
        stats.demand_accesses += s_dacc
        stats.demand_hits += s_dhits
        stats.writeback_accesses += s_wbacc
        stats.writeback_hits += s_wbhits
        stats.evictions += s_evict
        stats.dirty_evictions += s_devict
        stats.bypasses += s_bypass
        pkm = stats.per_kind_misses
        for kind, count in enumerate(s_pkm):
            if count:
                pkm[kind] = pkm.get(kind, 0) + count
        for b in range(nbanks):
            bank = banks[b]
            bank.open_row = bank_row[b]
            bank.next_free = bank_next[b]
        dstats = dram.stats
        dstats.reads += s_reads
        dstats.writes += s_writes
        dstats.row_hits += s_rowhit
        dstats.row_conflicts += s_rowconf
        dstats.row_closed += s_rowclosed
        dstats.total_read_latency += s_rdlat
        return next_ec

    def _replay_tapped(
        self,
        cell: _CellState,
        hierarchy: CacheHierarchy,
        recs: _Records,
        ec: int,
    ) -> int:
        """Replay with LLC events through the regular cache methods.

        Used when a telemetry tap is armed on the LLC: the tap's
        ``on_access``/``on_eviction`` callbacks must fire per event, so
        the inlined bookkeeping would blind it. Cycle arithmetic and
        event order are identical to :meth:`replay`.
        """
        llc = hierarchy.llc
        dram = hierarchy.dram
        llc_access = llc.access
        llc_fill = llc.fill
        dram_read = dram.read
        dram_write = dram.write
        bbits = self.block_bits
        next_ec = ec + int((recs[2] >> _EV_SHIFT).sum())
        next_event = self.events.stream(ec, next_ec)
        ring = cell.ring
        ring_n = len(ring)
        rh = cell.rh
        rt = cell.rt
        cycle = cell.cycle
        rob_stall = cell.rob_stall
        mshr_stall = cell.mshr_stall
        lat_extra = cell.load_lat_extra
        served_llc = cell.served_llc
        served_dram = cell.served_dram
        l1d_md = cell.l1d_misses_to_dram

        for gw, lat, code in _stream(recs, 0, len(recs[2])):
            if code == 3:
                cycle += gw
                done = ring[rh]
                rh += 1
                if rh == ring_n:
                    rh = 0
                if done > cycle:
                    mshr_stall += done - cycle
                    cycle = done
                ring[rt] = cycle + lat
                rt += 1
                if rt == ring_n:
                    rt = 0
            elif code == 1:
                cycle += gw
                ring[rt] = cycle + lat
                rt += 1
                if rt == ring_n:
                    rt = 0
            elif code == 0:
                cycle += gw
            else:
                ne = code >> _EV_SHIFT
                if ne:
                    icycle = int(cycle)
                    base = lat
                    stop_ec = ec + ne
                    while ec < stop_ec:
                        demand, blk, _, _, _, isdata, _, kind, acc = next_event()
                        ec += 1
                        if demand:
                            if llc_access(blk, acc.pc, kind).hit:
                                served_llc += 1
                            else:
                                lat += dram_read(blk << bbits, icycle + lat)
                                if isdata:
                                    l1d_md += 1
                                fr = llc_fill(blk, acc.pc, kind)
                                victim = fr.victim_block
                                if victim is not None and fr.victim_dirty:
                                    dram_write(victim << bbits, icycle)
                                served_dram += 1
                        elif not llc_access(blk, 0, 4).hit:
                            fr = llc_fill(blk, 0, 4)
                            if fr.bypassed or (
                                fr.victim_dirty and fr.victim_block is not None
                            ):
                                victim = blk if fr.bypassed else fr.victim_block
                                dram_write(victim << bbits, icycle)
                    if code & 1:
                        lat_extra += lat - base
                cycle += gw
                nrob = (code >> _ROB_SHIFT) & _ROB_MASK
                while nrob:
                    done = ring[rh]
                    rh += 1
                    if rh == ring_n:
                        rh = 0
                    if done > cycle:
                        rob_stall += done - cycle
                        cycle = done
                    nrob -= 1
                if code & 2:
                    done = ring[rh]
                    rh += 1
                    if rh == ring_n:
                        rh = 0
                    if done > cycle:
                        mshr_stall += done - cycle
                        cycle = done
                if code & 1:
                    ring[rt] = cycle + lat
                    rt += 1
                    if rt == ring_n:
                        rt = 0

        cell.cycle = cycle
        cell.rh = rh
        cell.rt = rt
        cell.rob_stall = rob_stall
        cell.mshr_stall = mshr_stall
        cell.load_lat_extra = lat_extra
        cell.served_llc = served_llc
        cell.served_dram = served_dram
        cell.l1d_misses_to_dram = l1d_md
        return next_ec

    def drain(self, cell: _CellState, alive: int) -> float:
        """Replay :meth:`CoreModel.drain`: wait for ``alive`` loads."""
        cycle = cell.cycle
        ring = cell.ring
        ring_n = len(ring)
        rh = cell.rh
        for _ in range(alive):
            done = ring[rh]
            rh += 1
            if rh == ring_n:
                rh = 0
            if done > cycle:
                cycle = done
        return cycle


class BatchSimulator:
    """Shared-plan multi-cell driver for one trace.

    Build once per (trace, config, warmup, telemetry) combination, then
    call :meth:`run_cell` once per LLC policy. Each cell's result is
    bit-identical to ``simulate(trace, ..., engine="reference")``.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig | None = None,
        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
        telemetry: TelemetryConfig | None = None,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if config is None:
            config = cascade_lake()
        self.trace = trace
        self.config = config
        self.warmup_fraction = warmup_fraction
        self.telemetry = telemetry
        self.plan = BatchPlan(trace, config, warmup_fraction, telemetry is not None)

    def run_cell(
        self,
        llc_policy: ReplacementPolicy | str,
        hierarchy: CacheHierarchy | None = None,
    ) -> SimulationResult:
        """Simulate one (trace, policy) cell against the shared plan."""
        plan = self.plan
        trace = self.trace
        config = self.config
        if hierarchy is None:
            hierarchy = build_hierarchy(config, llc_policy)
        if not batch_eligible(hierarchy, trace):
            raise ConfigurationError(
                f"{trace.name}/{hierarchy.llc.policy.name}: cell is not "
                "batch-eligible; use simulate() instead"
            )
        if (
            hierarchy.llc._set_mask != plan.set_mask
            or hierarchy.dram.config.row_bytes != plan.row_bytes
            or len(hierarchy.dram._banks) != plan.nbanks
        ):
            # The plan precomputes per-event set indices and DRAM
            # rows/banks for its config's geometry; a hierarchy built
            # from a different one would replay silently wrong.
            raise ConfigurationError(
                f"{trace.name}/{hierarchy.llc.policy.name}: hierarchy "
                "geometry does not match the plan's machine config"
            )
        policy_name = hierarchy.llc.policy.name

        # Warm-up: the LLC and DRAM evolve per policy; statistics are
        # then discarded at the boundary exactly as the driver does.
        cell = _CellState(plan.ring_size)
        plan.replay(cell, hierarchy, plan.warmup_recs, 0)
        _reset_statistics(hierarchy, int(plan.drain(cell, plan.warmup_alive)))

        cell = _CellState(plan.ring_size)
        collector: TelemetryCollector | None = None
        core: CoreModel | None = None
        if self.telemetry is not None:
            from ..telemetry.collector import TelemetryCollector

            collector = TelemetryCollector(self.telemetry, hierarchy)
            collector.attach()
            core = CoreModel(config.core)
            self._replay_with_telemetry(cell, hierarchy, core, collector)
        else:
            plan.replay(cell, hierarchy, plan.measured_recs, plan.measured_ec)

        cycles = plan.drain(cell, plan.measured_alive)
        core_stats = CoreStats(
            instructions=plan.measured_instructions,
            cycles=cycles,
            load_accesses=plan.measured_loads,
            total_load_latency=plan.measured_load_lat + cell.load_lat_extra,
            rob_stall_cycles=cell.rob_stall,
            mshr_stall_cycles=cell.mshr_stall,
        )
        # Publish shared upper-level outcomes and per-cell counters
        # before the collector closes its final interval — it reads the
        # same live stats objects the reference driver maintains.
        self._publish(hierarchy, cell)
        if collector is not None and core is not None:
            core._instr = plan.measured_instructions
            core._cycle = cycles
            collector.finalize(core)

        info = {
            "warmup_accesses": plan.warmup_end,
            "measured_accesses": plan.n - plan.warmup_end,
            **trace.info,
        }
        if collector is not None:
            info["telemetry"] = collector.profile(
                trace.name, policy_name
            ).to_json_dict()
        return snapshot_result(
            workload=trace.name,
            policy=policy_name,
            hierarchy=hierarchy,
            core_stats=core_stats,
            info=info,
        )

    def _publish(self, hierarchy: CacheHierarchy, cell: _CellState) -> None:
        plan = self.plan
        clock = plan.final_clock
        for lvl, cache in zip(
            plan.levels, (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
        ):
            lvl.publish_into(cache, clock)
        stats = hierarchy.stats
        stats.l1d_misses = plan.measured_l1d_misses
        stats.l1d_misses_to_dram = cell.l1d_misses_to_dram
        served = stats.served_by
        served[ServiceLevel.L1] = plan.measured_served_l1
        served[ServiceLevel.L2] = plan.measured_served_l2
        served[ServiceLevel.LLC] = cell.served_llc
        served[ServiceLevel.DRAM] = cell.served_dram

    def _replay_with_telemetry(
        self,
        cell: _CellState,
        hierarchy: CacheHierarchy,
        core: CoreModel,
        collector: TelemetryCollector,
    ) -> None:
        """Chunked replay mirroring ``FastMachine.run_with_telemetry``.

        Same searchsorted chunking over the measured gap prefix sums, so
        interval boundaries land on identical records; the upper levels'
        demand counters at each boundary come from the plan's prefix
        columns (the only upper-level values the collector reads).
        Intervals slice the unfolded record columns — fold boundaries and
        interval boundaries would otherwise disagree — and each replay
        call reads its interval in :data:`_CHUNK`-record chunks.
        """
        plan = self.plan
        boundary = collector.begin(core)
        start = plan.warmup_end
        n = plan.n - start
        if n <= 0:
            return
        cum = plan.measured_cum
        prefixes = plan.prefixes
        assert cum is not None and prefixes is not None and plan.recs is not None
        gw, lat, code = plan.recs
        l1i_stats = hierarchy.l1i.stats
        l1d_stats = hierarchy.l1d.stats
        l2_stats = hierarchy.l2.stats
        ec = plan.measured_ec
        pos = 0
        while pos < n:
            crossing = int(np.searchsorted(cum, boundary, side="left"))
            chunk_end = crossing + 1 if crossing < n else n
            lo = start + pos
            hi = start + chunk_end
            ec = plan.replay(
                cell, hierarchy, (gw[lo:hi], lat[lo:hi], code[lo:hi]), ec
            )
            pos = chunk_end
            instr = int(cum[pos - 1])
            core._instr = instr
            core._cycle = cell.cycle
            if instr >= boundary:
                d_acc, d_hits, i_acc, i_hits, l2_acc, l2_hits = (
                    prefixes[pos - 1].tolist()
                )
                l1d_stats.demand_accesses = d_acc
                l1d_stats.demand_hits = d_hits
                l1i_stats.demand_accesses = i_acc
                l1i_stats.demand_hits = i_hits
                l2_stats.demand_accesses = l2_acc
                l2_stats.demand_hits = l2_hits
                boundary = collector.on_boundary(core)


def simulate_batched(
    trace: Trace,
    policies: Sequence[ReplacementPolicy | str] | Iterable[ReplacementPolicy | str],
    config: MachineConfig | None = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    telemetry: TelemetryConfig | None = None,
) -> dict[str, SimulationResult]:
    """Run every policy over ``trace`` through one shared plan.

    The conservative contract of the engine flag: cells whose (policy,
    config, trace) combination is not batch-eligible fall back to
    :func:`~repro.core.simulator.simulate` (which itself falls back from
    fast to reference as needed), so callers always get a full result
    dict — batching is purely an optimization.
    """
    if config is None:
        config = cascade_lake()
    sim: BatchSimulator | None = None
    results: dict[str, SimulationResult] = {}
    for policy in policies:
        hierarchy = build_hierarchy(config, policy)
        name = hierarchy.llc.policy.name
        if batch_eligible(hierarchy, trace):
            if sim is None:
                sim = BatchSimulator(trace, config, warmup_fraction, telemetry)
            results[name] = sim.run_cell(policy, hierarchy)
        else:
            results[name] = simulate(
                trace,
                config=config,
                llc_policy=policy,
                warmup_fraction=warmup_fraction,
                telemetry=telemetry,
            )
    return results


def batch_eligible(hierarchy: CacheHierarchy, trace: Trace) -> bool:
    """Whether the batched engine models this machine/trace combination.

    Exactly as conservative as
    :func:`~repro.mem.fastpath.fastpath_eligible`: prefetching, inclusive
    mode, attached sanitizers, telemetry taps on upper levels, non-LRU
    upper-level policies, or trace records beyond LOAD/STORE/IFETCH all
    select the per-cell engines instead. The LLC policy is never
    constrained (each cell's LLC stays a real :class:`Cache`).
    """
    if hierarchy.l2_prefetcher is not None or hierarchy.inclusive:
        return False
    if hierarchy._sanitizer is not None or hierarchy.llc._sanitizer is not None:
        return False
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        if type(cache.policy) is not LRUPolicy:
            return False
        if cache._sanitizer is not None or cache._telemetry is not None:
            return False
    if len(trace) and int(trace.kinds.max()) > 2:  # beyond IFETCH
        return False
    return True
