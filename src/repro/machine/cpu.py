"""The reference-stream execution engine.

This is the simulated hardware's fast path.  A workload presents whole
*chunks* of virtual addresses (numpy arrays); the CPU translates them,
consults the trap state (ECC granule bits, page valid bits, breakpoints)
vectorized, and enters the kernel only for the references that actually
trap — the exact analogue of the paper's claim that "Tapeworm uses the
underlying hardware to filter out hits in the simulated cache structure."

A chunk runs as fully mapped *segments*: page faults are taken in
reference order at each page's first unmapped occurrence, found through
a heap of first occurrences, so a chunk costs O(chunk + faults) however
many pages it faults in.

Each segment's traps are delivered in one of two lanes, picked per
segment by :func:`select_lane`, which returns its reasons the way kernel
selection does:

* **batch** — when ECC is the only active mechanism and nothing
  observes delivery trap by trap (no per-trap trace, no replaced or
  wrapped handler, no evaporating stores, no true errors, and a
  physically indexed single cache whose policy the kernel replays), the
  whole segment goes to the batch handler Tapeworm installs beside its
  per-trap handler: one composed-kernel replay of the trap-domain
  references, with misses, cycles and trap bits derived from counts
  (``Tapeworm._miss_batch``; "Trap delivery lanes" in docs/INTERNALS.md);
* **per-trap** — the reference lane, for everything else.

Per-trap delivery must be in order: a miss handler *sets* a trap on the
displaced line, and if that line is referenced again later in the same
chunk the hardware must trap there too.  The engine therefore keeps a
heap of candidate chunk positions, chained by next occurrence: it
starts with the first trapped occurrence of each ECC granule and
page-trapped VPN (and every breakpoint hit); after each popped position
it queues the next occurrence of that position's own granule or VPN if
it is still trapped, and of every granule or VPN the handler newly
trapped (drained from the ECC controller's / page table's recent-set
log).  Every candidate is re-checked against live trap state before
dispatch, so stale candidates (cleared by an earlier handler) are
skipped.  After position ``p`` is processed the heap holds the first
later occurrence of everything trapped at that moment, so the result is
bit-identical to a reference-at-a-time simulation (``tests/property/
test_delivery_equivalence.py`` checks exactly that), at numpy chunk
speed, with one heap entry per trap rather than one per trapped
reference.  ``tests/property/test_batch_lane_equivalence.py`` checks
the batch lane against this one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._types import Component, TrapMechanism
from repro.caches.pipeline import compile_kernel, scan_request
from repro.machine.chunkindex import PositionIndex
from repro.machine.mmu import PAGE_SHIFT, PageTable
from repro.machine.traps import TrapFrame, TrapKind
from repro.telemetry.profile import phase
from repro.telemetry.session import active as _telemetry

#: log2 of the ECC check granule (16 bytes).
GRANULE_SHIFT = 4

#: the granule size/mask derived from it — used wherever a physical
#: address must be aligned to one ECC check granule
GRANULE_BYTES = 1 << GRANULE_SHIFT

#: Cycles charged for a VM page fault (kernel fault path + map).  Faults
#: occur in instrumented and uninstrumented runs alike, so this is *base*
#: cost, never simulation overhead.
PAGE_FAULT_CYCLES = 300


@dataclass(frozen=True)
class ExecContext:
    """Who is executing: task, workload component, and its base CPI."""

    tid: int
    component: Component
    cpi: float = 1.0


@dataclass
class ChunkResult:
    """Cycle and trap accounting for one executed chunk."""

    n_refs: int = 0
    base_cycles: int = 0
    sim_cycles: int = 0
    traps: int = 0
    page_faults: int = 0
    masked_traps: int = 0
    #: traps erased by writes on a no-allocate-on-write machine — the
    #: misses a data-cache simulation would silently lose (section 4.4)
    silent_clears: int = 0
    ticks: int = 0

    def merge(self, other: "ChunkResult") -> None:
        self.n_refs += other.n_refs
        self.base_cycles += other.base_cycles
        self.sim_cycles += other.sim_cycles
        self.traps += other.traps
        self.page_faults += other.page_faults
        self.masked_traps += other.masked_traps
        self.silent_clears += other.silent_clears
        self.ticks += other.ticks


@dataclass(frozen=True)
class LaneReport:
    """Which delivery lane serves a segment's ECC traps, and why."""

    selected: str
    reasons: tuple[str, ...] = ()


BATCH_LANE = LaneReport("batch")


def select_lane(machine, writes: np.ndarray | None = None) -> LaneReport:
    """Pick the delivery lane for one segment with ECC traps.

    The batch lane hands the whole segment to the batch handler
    installed beside the ECC per-trap handler.  It needs ECC to be the
    only active mechanism and nothing to observe delivery trap by
    trap; otherwise the per-trap lane runs, with these reasons:

    * ``observer:trace`` — the telemetry session records per-trap
      events;
    * ``observer:handler`` — the ECC handler or a trap primitive was
      replaced or wrapped (or no batch handler is installed);
    * ``mechanism:pages`` / ``mechanism:breakpoints`` — another trap
      mechanism shares the segment;
    * ``writes:evaporate`` — stores erase traps on a machine without
      allocate-on-write;
    * ``ecc:true-error`` — an injected true error must be classified;
    * the batch handler's own: ``indexing:virtual`` (a shared frame
      puts one physical trap under several virtual keys),
      ``structure:two_level``, ``policy:<name>`` (a policy the grouped
      replay cannot reproduce).
    """
    reasons = []
    session = _telemetry()
    if session is not None and session.trace_machine:
        reasons.append("observer:trace")
    batch = machine.dispatcher.batch_handler(TrapKind.ECC_ERROR)
    if batch is None or batch.observed():
        reasons.append("observer:handler")
    mechanisms = machine.active_mechanisms
    if TrapMechanism.PAGE_VALID in mechanisms:
        reasons.append("mechanism:pages")
    if (
        TrapMechanism.BREAKPOINT in mechanisms
        and machine.breakpoints.n_active() > 0
    ):
        reasons.append("mechanism:breakpoints")
    if (
        writes is not None
        and not machine.config.allocate_on_write
        and writes.any()
    ):
        reasons.append("writes:evaporate")
    if machine.ecc.has_true_errors:
        reasons.append("ecc:true-error")
    if batch is not None:
        reasons.extend(batch.reasons)
    if not reasons:
        return BATCH_LANE
    return LaneReport("per_trap", tuple(reasons))


class CPU:
    """Executes reference chunks against a :class:`~repro.machine.machine.Machine`."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self._in_tick = False
        #: compiled scan programs, memoized per active-mechanism tuple —
        #: a plain dict probe per segment, composed once per process
        self._scan_programs: dict[tuple[bool, bool, bool], Any] = {}
        #: per-component totals, for the Monster-style monitor
        self.refs_by_component: dict[Component, int] = {c: 0 for c in Component}
        self.cycles_by_component: dict[Component, int] = {c: 0 for c in Component}
        #: segments with ECC traps per delivery lane: LaneReport -> count
        self.segments_by_lane: dict[LaneReport, int] = {}

    # ------------------------------------------------------------------
    # the chunk engine
    # ------------------------------------------------------------------

    def run_chunk(
        self,
        ctx: ExecContext,
        vas: np.ndarray,
        writes: np.ndarray | None = None,
    ) -> ChunkResult:
        """Execute one chunk of virtual addresses in ``ctx``.

        Page faults are taken *in reference order*: execution proceeds
        up to the first unmapped reference, the kernel faults the page
        in (possibly evicting another — which later references in this
        very chunk may then re-fault, exactly as on real hardware under
        memory pressure), and execution continues.  First-touch order is
        what exposes run-to-run page-allocation variance (Table 9).

        ``writes`` optionally marks store references.  On a machine
        without allocate-on-write, a store to a trapped location
        *overwrites* it, regenerating correct ECC: the trap evaporates
        without any kernel entry — the mechanism that blocks data-cache
        simulation on the DECstation (section 4.4).

        Returns the cycle/trap accounting; the machine's clock advances
        and pending clock interrupts are delivered at chunk end.
        """
        machine = self.machine
        result = ChunkResult(n_refs=len(vas))
        if len(vas) == 0:
            return result
        vas = np.ascontiguousarray(vas, dtype=np.int64)
        if writes is not None:
            writes = np.ascontiguousarray(writes, dtype=bool)
        table = machine.mmu.table(ctx.tid)
        vpns = vas >> PAGE_SHIFT
        unmapped = table.v2p[vpns] < 0
        if not unmapped.any():
            self._execute_segment(ctx, table, vas, vpns, result, writes)
        else:
            self._run_faulting(ctx, table, vas, vpns, unmapped, result, writes)

        result.base_cycles += int(round(len(vas) * ctx.cpi))
        self.refs_by_component[ctx.component] += len(vas)
        self.cycles_by_component[ctx.component] += result.base_cycles

        ticks = machine.clock.advance(result.base_cycles + result.sim_cycles)
        if ticks:
            session = _telemetry()
            if session is not None and session.trace_machine:
                session.trace.clock_ticks(machine.clock.now, ticks)
        if ticks and not self._in_tick and machine.tick_handler is not None:
            self._in_tick = True
            try:
                tick_result = machine.tick_handler(ticks)
            finally:
                self._in_tick = False
            if tick_result is not None:
                result.merge(tick_result)
        result.ticks += ticks
        return result

    def _run_faulting(
        self,
        ctx: ExecContext,
        table: PageTable,
        vas: np.ndarray,
        vpns: np.ndarray,
        unmapped: np.ndarray,
        result: ChunkResult,
        writes: np.ndarray | None,
    ) -> None:
        """Execute a chunk that touches unmapped pages, faulting each in
        at its first reference, in O(chunk + faults).

        A heap holds the first unmapped occurrence of every VPN still
        unmapped.  The chunk runs segment by segment up to the next such
        position, which takes the fault.  A fault that evicts a page of
        this task (memory pressure) queues the evicted VPN's next
        occurrence, found through a position index built on first use;
        a popped position whose page has been mapped since is skipped.
        """
        machine = self.machine
        v2p = table.v2p
        values, first = np.unique(vpns[unmapped], return_index=True)
        positions = np.flatnonzero(unmapped)[first]
        heap = sorted(zip(positions.tolist(), values.tolist()))
        pending = set(values.tolist())
        index = None
        start = 0
        while heap:
            position, vpn = heapq.heappop(heap)
            pending.discard(vpn)
            if v2p[vpn] >= 0:
                continue
            if position > start:
                self._execute_segment(
                    ctx, table, vas[start:position], vpns[start:position],
                    result, None if writes is None else writes[start:position],
                )
                start = position
            unmaps = table.unmaps
            machine.deliver_page_fault(ctx, vpn)
            result.page_faults += 1
            result.base_cycles += PAGE_FAULT_CYCLES
            if table.unmaps != unmaps:
                if index is None:
                    index = PositionIndex(vpns)
                    chunk_vpns = np.unique(vpns)
                for evicted in chunk_vpns[v2p[chunk_vpns] < 0].tolist():
                    if evicted in pending:
                        continue
                    nxt = index.first_after(evicted, position)
                    if nxt >= 0:
                        heapq.heappush(heap, (nxt, evicted))
                        pending.add(evicted)
        if start < len(vas):
            self._execute_segment(
                ctx, table, vas[start:], vpns[start:], result,
                None if writes is None else writes[start:],
            )

    def _execute_segment(
        self,
        ctx: ExecContext,
        table: PageTable,
        vas: np.ndarray,
        vpns: np.ndarray,
        result: ChunkResult,
        writes: np.ndarray | None = None,
    ) -> None:
        """Run one fully-mapped run of references: translate, scan for
        trap candidates, deliver them in a lane."""
        machine = self.machine
        pas = table.translate(vas)

        mechanisms = machine.active_mechanisms
        key = (
            TrapMechanism.ECC in mechanisms,
            TrapMechanism.PAGE_VALID in mechanisms,
            TrapMechanism.BREAKPOINT in mechanisms
            and machine.breakpoints.n_active() > 0,
        )
        program = self._scan_programs.get(key)
        if program is None:
            program = compile_kernel(
                scan_request(*key, granule_shift=GRANULE_SHIFT)
            )
            self._scan_programs[key] = program
        if program.collect is None:
            return  # no trap mechanism active: no candidates exist

        granules = program.granules_of(pas)
        candidate_mask = program.collect(machine, table, vas, vpns, granules)
        if not candidate_mask.any():
            return
        if program.use_ecc:
            lane = select_lane(machine, writes)
            self.segments_by_lane[lane] = self.segments_by_lane.get(lane, 0) + 1
            if lane is BATCH_LANE:
                self._deliver_batch(ctx, pas, granules, candidate_mask, result)
                return
        self._process_candidates(
            ctx, table, vas, vpns, pas, granules, candidate_mask,
            result, program, writes,
        )

    def _deliver_batch(
        self,
        ctx: ExecContext,
        pas: np.ndarray,
        granules: np.ndarray,
        trapped: np.ndarray,
        result: ChunkResult,
    ) -> None:
        """The batch lane: one call delivers every ECC trap of a segment.

        With interrupts masked each reference to a trapped granule is a
        lost (masked) trap and nothing changes, exactly as per-trap
        delivery would count it.
        """
        machine = self.machine
        if machine.interrupts_masked:
            result.masked_traps += int(np.count_nonzero(trapped))
            return
        with phase("machine.trap_batch"):
            traps, cycles = machine.dispatcher.dispatch_batch(
                TrapKind.ECC_ERROR, ctx, pas, granules, trapped
            )
        result.traps += traps
        result.sim_cycles += cycles

    def _process_candidates(
        self,
        ctx: ExecContext,
        table: PageTable,
        vas: np.ndarray,
        vpns: np.ndarray,
        pas: np.ndarray,
        granules: np.ndarray | None,
        candidate_mask: np.ndarray,
        result: ChunkResult,
        program,
        writes: np.ndarray | None = None,
    ) -> None:
        """In-order trap delivery by next-occurrence chaining.

        The heap holds chunk positions still to be checked.  It starts
        with the *first* trapped occurrence of every ECC granule and of
        every page-trapped VPN in the segment, plus every breakpoint hit
        (a breakpoint fires on each reference, so those positions are
        all queued).  Each popped position is re-checked against live
        trap state, then chained:

        * if its own granule (or VPN) is still trapped afterwards —
          interrupts were masked, or the handler left or re-set the
          trap — the next occurrence of that granule (VPN) is queued;
        * every granule (VPN) a handler trapped, drained from the
          controller's (page table's) recent-set log, has its next
          occurrence after this position queued.

        Invariant: after position ``p`` is processed, the heap holds the
        first later occurrence of every granule and VPN trapped at that
        moment.  Trap state only changes inside handlers, and every new
        trap is logged; a trap that is cleared leaves at most a stale
        entry, which the re-check skips.  So no trapped position is ever
        skipped and none is delivered twice — the delivery sequence is
        exactly that of executing one reference per call.  (Breakpoint
        ranges are scanned once per segment: one a handler arms
        mid-segment first fires in the next segment.)

        ``program`` is the compiled scan kernel for this segment's
        active mechanisms; the per-kind delivery branches below are trap
        *semantics* (priority, masking, write-evaporation), not kernel
        dispatch — they stay here.
        """
        machine = self.machine
        use_ecc = program.use_ecc
        use_pages = program.use_pages
        use_breakpoints = program.use_breakpoints
        ecc = machine.ecc
        # Stale logs from outside this chunk are irrelevant.
        if use_ecc:
            ecc.drain_recent_sets()
        if use_pages:
            table.drain_recent_invalidations()

        candidates = np.flatnonzero(candidate_mask)
        seeds = []
        if use_ecc:
            values = granules[candidates]
            trapped = ecc.granule_trapped[values]
            seeds.append(_first_trapped(candidates, values, trapped))
        if use_pages:
            values = vpns[candidates]
            trapped = table.resident[values] & ~table.valid[values]
            seeds.append(_first_trapped(candidates, values, trapped))
        if use_breakpoints:
            seeds.append(
                candidates[machine.breakpoints.check_chunk(vas[candidates])]
            )
        # a sorted list is already a heap; a position seeded by two
        # mechanisms is popped twice in a row and skipped the second time
        heap = np.sort(np.concatenate(seeds)).tolist()
        # Rescan bindings from the composed scan kernel: the
        # PositionIndex is built lazily on the first chained lookup, and
        # "next occurrence of this granule/VPN after position i" is then
        # three bisects, not an O(chunk) scan.
        granule_rescan, vpn_rescan = program.bind_rescans(granules, vpns)
        granule_trapped = ecc.granule_trapped
        dispatch = machine.dispatcher.dispatch
        stores_evaporate = (
            writes is not None and not machine.config.allocate_on_write
        )
        tid = ctx.tid
        component = ctx.component
        heappop = heapq.heappop
        heappush = heapq.heappush
        previous = -1
        while heap:
            i = heappop(heap)
            if i == previous:
                continue  # duplicate candidate for the same reference
            previous = i
            delivered = False

            # Page-invalid traps fire at translation time, before the
            # memory access, so they take priority over ECC traps.
            if use_pages:
                vpn = int(vpns[i])
                if table.is_page_trapped(vpn):
                    result.sim_cycles += dispatch(TrapFrame(
                        TrapKind.PAGE_INVALID, tid, component,
                        int(vas[i]), int(pas[i]), machine.clock.now,
                    ))
                    result.traps += 1
                    delivered = True

            if use_ecc:
                granule = int(granules[i])
                if granule_trapped[granule]:
                    if stores_evaporate and writes[i]:
                        # the store overwrites the word, regenerating
                        # correct ECC: the trap evaporates with no kernel
                        # entry — the no-allocate-on-write mechanism that
                        # defeats D-cache simulation on this machine
                        # (section 4.4)
                        ecc.clear_trap(granule << GRANULE_SHIFT, GRANULE_BYTES)
                        result.silent_clears += 1
                    elif machine.interrupts_masked:
                        # ECC errors raise a hardware *interrupt* on this
                        # machine; with interrupts masked the trap is lost
                        # and the miss goes uncounted (paper, "Sources of
                        # Measurement Bias").
                        result.masked_traps += 1
                    else:
                        result.sim_cycles += dispatch(TrapFrame(
                            TrapKind.ECC_ERROR, tid, component,
                            int(vas[i]), int(pas[i]), machine.clock.now,
                        ))
                        result.traps += 1
                        delivered = True

            if use_breakpoints and machine.breakpoints.hits(int(vas[i])):
                result.sim_cycles += dispatch(TrapFrame(
                    TrapKind.BREAKPOINT, tid, component,
                    int(vas[i]), int(pas[i]), machine.clock.now,
                ))
                result.traps += 1
                delivered = True

            # Chain this reference's own granule / VPN while it stays
            # trapped, then queue whatever the handlers newly trapped.
            if use_ecc:
                if granule_trapped[granule]:
                    nxt = granule_rescan.first_after(granule, i)
                    if nxt >= 0:
                        heappush(heap, nxt)
                if delivered:
                    for trapped_granule in ecc.drain_recent_sets():
                        nxt = granule_rescan.first_after(trapped_granule, i)
                        if nxt >= 0:
                            heappush(heap, nxt)
            if use_pages:
                if table.is_page_trapped(vpn):
                    nxt = vpn_rescan.first_after(vpn, i)
                    if nxt >= 0:
                        heappush(heap, nxt)
                if delivered:
                    for trapped_vpn in table.drain_recent_invalidations():
                        nxt = vpn_rescan.first_after(trapped_vpn, i)
                        if nxt >= 0:
                            heappush(heap, nxt)

    # ------------------------------------------------------------------

    def reset_counters(self) -> None:
        self.refs_by_component = {c: 0 for c in Component}
        self.cycles_by_component = {c: 0 for c in Component}
        self.segments_by_lane = {}

    def publish_metrics(self, metrics) -> None:
        """Copy the per-component totals into a metrics registry
        (``machine.cpu.refs{component=...}`` / ``machine.cpu.cycles``)
        and the delivery-lane segment counts
        (``machine.cpu.segments{lane=...,reason=...}``, the reasons of
        a per-trap segment joined by ``+``)."""
        for lane, count in self.segments_by_lane.items():
            labels = {"lane": lane.selected}
            if lane.reasons:
                labels["reason"] = "+".join(lane.reasons)
            metrics.counter("machine.cpu.segments", **labels).inc(count)
        for component in Component:
            refs = self.refs_by_component[component]
            if refs:
                metrics.counter(
                    "machine.cpu.refs", component=component.value
                ).inc(refs)
            cycles = self.cycles_by_component[component]
            if cycles:
                metrics.counter(
                    "machine.cpu.cycles", component=component.value
                ).inc(cycles)


def _first_trapped(
    positions: np.ndarray, values: np.ndarray, trapped: np.ndarray
) -> np.ndarray:
    """The first of ``positions`` (ascending) holding each distinct
    ``values`` entry that is ``trapped``."""
    _, first = np.unique(values[trapped], return_index=True)
    return positions[trapped][first]
