"""The reference-stream execution engine.

This is the simulated hardware's fast path.  A workload presents whole
*chunks* of virtual addresses (numpy arrays); the CPU translates them,
consults the trap state (ECC granule bits, page valid bits, breakpoints)
vectorized, and enters the kernel only for the references that actually
trap — the exact analogue of the paper's claim that "Tapeworm uses the
underlying hardware to filter out hits in the simulated cache structure."

Correct in-order delivery matters: a miss handler *sets* a trap on the
displaced line, and if that line is referenced again later in the same
chunk the hardware must trap there too.  The engine therefore keeps a heap
of candidate chunk positions, chained by next occurrence: it starts with
the first trapped occurrence of each ECC granule and page-trapped VPN
(and every breakpoint hit); after each popped position it queues the
next occurrence of that position's own granule or VPN if it is still
trapped, and of every granule or VPN the handler newly trapped (drained
from the ECC controller's / page table's recent-set log).  Every
candidate is re-checked against live trap state before dispatch, so
stale candidates (cleared by an earlier handler) are skipped.  After
position ``p`` is processed the heap holds the first later occurrence of
everything trapped at that moment, so the result is bit-identical to a
reference-at-a-time simulation (``tests/property/
test_delivery_equivalence.py`` checks exactly that), at numpy chunk
speed, with one heap entry per trap rather than one per trapped
reference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._types import Component, TrapMechanism
from repro.caches.pipeline import compile_kernel, scan_request
from repro.machine.mmu import PAGE_SHIFT, PageTable
from repro.machine.traps import TrapFrame, TrapKind
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

        start = 0
        while start < len(vas):
            vpns = vas[start:] >> PAGE_SHIFT
            unmapped = np.nonzero(table.v2p[vpns] < 0)[0]
            if len(unmapped) == 0:
                end = len(vas)
            elif unmapped[0] == 0:
                machine.deliver_page_fault(ctx, int(vpns[0]))
                result.page_faults += 1
                result.base_cycles += PAGE_FAULT_CYCLES
                continue
            else:
                end = start + int(unmapped[0])
            self._execute_segment(
                ctx,
                table,
                vas[start:end],
                result,
                None if writes is None else writes[start:end],
            )
            start = end

        result.base_cycles += int(round(len(vas) * ctx.cpi))
        self.refs_by_component[ctx.component] += len(vas)
        self.cycles_by_component[ctx.component] += result.base_cycles

        ticks = machine.clock.advance(result.base_cycles + result.sim_cycles)
        if ticks:
            session = _telemetry()
            if session is not None:
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

    def _execute_segment(
        self,
        ctx: ExecContext,
        table: PageTable,
        vas: np.ndarray,
        result: ChunkResult,
        writes: np.ndarray | None = None,
    ) -> None:
        """Run one fully-mapped run of references: translate, scan for
        trap candidates, deliver in order."""
        machine = self.machine
        vpns = vas >> PAGE_SHIFT
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
        if candidate_mask.any():
            self._process_candidates(
                ctx, table, vas, vpns, pas, granules, candidate_mask,
                result, program, writes,
            )

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

    def publish_metrics(self, metrics) -> None:
        """Copy the per-component totals into a metrics registry
        (``machine.cpu.refs{component=...}`` / ``machine.cpu.cycles``)."""
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
