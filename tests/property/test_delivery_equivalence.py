"""Delivery oracle: a whole chunk behaves exactly like one reference per call.

The chunk engine scans a chunk for trap candidates with numpy and then
delivers traps in reference order, re-queueing positions whose granule
or page a handler trapped mid-chunk.  Executing the same references one
per ``run_chunk`` call needs none of that machinery: every call scans a
single reference against live trap state.  The two must agree on every
handler call ``(kind, va, pa)`` and on the trap accounting, whatever the
handlers do to the trap state — clear their own line or not, re-trap
random lines (including ones referenced later in the chunk), clear
others, mask or unmask interrupts — and whether or not stores evaporate
traps on a machine without allocate-on-write.

``base_cycles`` is left out: CPI rounding happens per call.  Clock ticks
are kept out of range so that no tick handler runs in either mode.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import PAGE_SIZE, Component, TrapMechanism
from repro.machine.cpu import GRANULE_BYTES, ExecContext
from repro.machine.machine import Machine, MachineConfig
from repro.machine.traps import TrapKind

N_PAGES = 4
#: ECC granules per page the chunk draws its words from: few enough that
#: granules and pages repeat many times within one chunk
GRANULES_PER_PAGE = 8
FRAME_OFFSET = 8

MECHANISMS = (
    frozenset({TrapMechanism.ECC}),
    frozenset({TrapMechanism.PAGE_VALID}),
    frozenset({TrapMechanism.ECC, TrapMechanism.PAGE_VALID}),
)


def _word_pool(seed):
    """Every word of a few random granules on each of the pages."""
    rng = random.Random(seed)
    return [
        vpn * PAGE_SIZE + granule * GRANULE_BYTES + word
        for vpn in range(N_PAGES)
        for granule in rng.sample(
            range(PAGE_SIZE // GRANULE_BYTES), GRANULES_PER_PAGE
        )
        for word in range(0, GRANULE_BYTES, 4)
    ]


class Twin:
    """One machine plus handlers whose choices come from a seeded RNG.

    Both twins draw the same choices as long as they see the same
    handler calls, so any difference in delivery shows up in ``calls``.
    """

    def __init__(self, seed, mechanisms, breakpoint_va, allocate_on_write):
        self.machine = machine = Machine(
            MachineConfig(
                memory_bytes=1024 * 1024,
                n_vpages=64,
                tick_cycles=1 << 60,
                allocate_on_write=allocate_on_write,
            )
        )
        machine.mmu.create_table(1)
        self.table = machine.mmu.table(1)
        machine.install_page_fault_handler(
            lambda ctx, vpn: self.table.map(vpn, vpn + FRAME_OFFSET)
        )
        self.rng = random.Random(seed)
        self.pool = _word_pool(seed)
        self.calls = []
        for kind in (TrapKind.ECC_ERROR, TrapKind.PAGE_INVALID,
                     TrapKind.BREAKPOINT):
            machine.dispatcher.install(kind, self._handler)
        for mechanism in mechanisms:
            machine.enable_mechanism(mechanism)
        if breakpoint_va is not None:
            machine.enable_mechanism(TrapMechanism.BREAKPOINT)
            machine.breakpoints.set_breakpoint(breakpoint_va, 64)

        # identical starting state: some pages mapped, some traps set
        rng = random.Random(seed ^ 0x5EED)
        for vpn in range(N_PAGES):
            if rng.random() < 0.5:
                self.table.map(vpn, vpn + FRAME_OFFSET)
        for va in self.pool[::4]:
            if rng.random() < 0.5:
                self._trap_granule(va)
        for vpn in range(N_PAGES):
            if self.table.resident[vpn] and rng.random() < 0.4:
                self.table.set_page_trap(vpn)
        if rng.random() < 0.15:
            machine.mask_interrupts()

    def _pa_of(self, va):
        pfn = int(self.table.v2p[va // PAGE_SIZE])
        return None if pfn < 0 else pfn * PAGE_SIZE + va % PAGE_SIZE

    def _trap_granule(self, va):
        pa = self._pa_of(va)
        if pa is not None:
            self.machine.ecc.set_trap(pa & ~(GRANULE_BYTES - 1), GRANULE_BYTES)

    def _clear_granule(self, va):
        pa = self._pa_of(va)
        if pa is not None:
            self.machine.ecc.clear_trap(
                pa & ~(GRANULE_BYTES - 1), GRANULE_BYTES
            )

    def _handler(self, frame):
        self.calls.append((frame.kind, frame.va, frame.pa))
        rng, machine, table = self.rng, self.machine, self.table
        if frame.kind is TrapKind.ECC_ERROR:
            if rng.random() < 0.8:
                self._clear_granule(frame.va)
            for _ in range(rng.randrange(4)):
                self._trap_granule(rng.choice(self.pool))
            if rng.random() < 0.3:
                self._clear_granule(rng.choice(self.pool))
        elif frame.kind is TrapKind.PAGE_INVALID:
            vpn = frame.va // PAGE_SIZE
            if rng.random() < 0.8:
                table.clear_page_trap(vpn)
            for _ in range(rng.randrange(3)):
                other = rng.randrange(N_PAGES)
                if table.resident[other] and table.valid[other]:
                    table.set_page_trap(other)
            if rng.random() < 0.5:
                self._trap_granule(rng.choice(self.pool))
        else:
            if rng.random() < 0.2:
                machine.breakpoints.clear_covering(frame.va)
        if machine.interrupts_masked:
            if rng.random() < 0.5:
                machine.unmask_interrupts()
        elif rng.random() < 0.02:
            machine.mask_interrupts()
        return rng.randrange(1, 300)


def _totals(results):
    return tuple(
        sum(getattr(r, name) for r in results)
        for name in (
            "traps", "masked_traps", "silent_clears", "page_faults",
            "sim_cycles",
        )
    )


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mechanisms=st.sampled_from(MECHANISMS),
    with_breakpoint=st.booleans(),
    with_writes=st.booleans(),
    allocate_on_write=st.booleans(),
    length=st.integers(min_value=1, max_value=400),
)
def test_whole_chunk_equals_one_reference_per_call(
    seed, mechanisms, with_breakpoint, with_writes, allocate_on_write, length
):
    rng = np.random.default_rng(seed)
    pool = _word_pool(seed)
    vas = np.array(
        [pool[i] for i in rng.integers(0, len(pool), size=length)],
        dtype=np.int64,
    )
    writes = rng.random(length) < 0.25 if with_writes else None
    breakpoint_va = int(vas[0]) & ~63 if with_breakpoint else None
    ctx = ExecContext(tid=1, component=Component.USER, cpi=1.5)

    whole = Twin(seed, mechanisms, breakpoint_va, allocate_on_write)
    single = Twin(seed, mechanisms, breakpoint_va, allocate_on_write)
    whole_result = whole.machine.cpu.run_chunk(ctx, vas, writes)
    single_results = [
        single.machine.cpu.run_chunk(
            ctx, vas[k : k + 1], None if writes is None else writes[k : k + 1]
        )
        for k in range(length)
    ]

    assert whole.calls == single.calls
    assert _totals([whole_result]) == _totals(single_results)
    assert whole_result.ticks == 0
    assert np.array_equal(
        whole.machine.ecc.granule_trapped, single.machine.ecc.granule_trapped
    )
    assert np.array_equal(whole.table.valid, single.table.valid)
