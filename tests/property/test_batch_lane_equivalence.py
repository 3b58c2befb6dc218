"""Batch-lane oracle: whole-segment trap delivery ≡ the per-trap handler.

The CPU hands a segment whose only active mechanism is ECC, and which
nothing observes trap by trap, to Tapeworm's batch handler: one kernel
replay of the trap-domain references instead of one handler call per
miss.  The per-trap handler stays the reference.  Each configuration
here runs twice on identical kernels and reference streams — once as
is, once with the ECC miss handler wrapped the way any observer (a
logger, an armed fault injector) wraps it, which forces the per-trap
lane — and the two runs must agree on every statistic and on the final
trap and cache state.

The streams cover all four workload components with reads and writes
(on an allocate-on-write machine, so stores do not evaporate traps),
clock ticks whose handler prologue runs with interrupts masked, and
physical memory small enough that paging evicts registered pages.
Half-way through, every other page leaves the Tapeworm domain while
its task keeps using it.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro._types import (
    KERNEL_TID,
    PAGE_SIZE,
    Component,
    Indexing,
    TrapMechanism,
)
from repro.caches.config import CacheConfig
from repro.core.flexibility import StructureKind
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.harness.runner import RunOptions, run_trap_driven
from repro.kernel.kernel import Kernel
from repro.machine.cpu import BATCH_LANE, select_lane
from repro.machine.machine import Machine, MachineConfig
from repro.machine.traps import TrapKind
from repro.telemetry.session import enabled
from repro.workloads import get_workload

PAGES_PER_TASK = 12
ROUNDS = 6
CHUNK_REFS = 600


def _observe(tapeworm):
    """Wrap the ECC miss handler as an observer would."""
    inner = tapeworm._cache_miss
    tapeworm._cache_miss = lambda frame: inner(frame)


def _boot(cache, replacement, sampling, seed, observed):
    machine = Machine(MachineConfig(
        memory_bytes=512 * 1024,
        n_vpages=256,
        tick_cycles=40_000,
        allocate_on_write=True,
    ))
    kernel = Kernel(machine, trial_seed=seed, reserved_frames=64)
    tapeworm = Tapeworm(kernel, TapewormConfig(
        cache=cache,
        replacement=replacement,
        sampling=sampling,
        sampling_seed=seed,
        kind=StructureKind.UNIFIED_CACHE,
    ))
    tapeworm.install()
    if observed:
        _observe(tapeworm)
    user = kernel.spawn("user", Component.USER)
    tasks = [
        kernel.tasks.get(KERNEL_TID), kernel.bsd_server, kernel.x_server,
        user,
    ]
    for task in tasks:
        tapeworm.tw_attributes(task.tid, simulate=1, inherit=1)
    return machine, kernel, tapeworm, tasks


def _streams(seed, n_tasks):
    """Per round and task: addresses with loops, strides and jumps over
    a few pages, plus a store mask."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(ROUNDS):
        chunks = []
        for task in range(n_tasks):
            pages = 16 + 32 * task + rng.choice(
                PAGES_PER_TASK * 2, PAGES_PER_TASK, replace=False
            )
            words = rng.integers(0, PAGE_SIZE // 4, CHUNK_REFS)
            page = pages[rng.integers(0, len(pages), CHUNK_REFS)]
            # runs of sequential words model loops over a few lines
            runs = np.repeat(rng.integers(0, 4096, CHUNK_REFS // 8), 8)
            seq = (runs + np.tile(np.arange(8) * 4, CHUNK_REFS // 8)) % PAGE_SIZE
            vas = np.where(
                rng.random(CHUNK_REFS) < 0.5,
                page * PAGE_SIZE + words * 4,
                page * PAGE_SIZE + seq,
            ).astype(np.int64)
            chunks.append((vas, rng.random(CHUNK_REFS) < 0.3))
        rounds.append(chunks)
    return rounds


def _unregister_every_other_page(machine, tapeworm, tasks):
    """Take every other mapped page out of the Tapeworm domain while the
    tasks keep using it: its lines are neither trapped nor resident, and
    they share segments and sets with registered lines."""
    for task in tasks:
        table = machine.mmu.table(task.tid)
        for vpn in table.mapped_vpns()[::2].tolist():
            va = vpn * PAGE_SIZE
            if tapeworm.registry.is_registered_mapping(task.tid, va):
                pa = int(table.translate(np.array([va]))[0])
                tapeworm.tw_remove_page(task.tid, pa, va)


def _run(cache, replacement, sampling, seed, observed):
    machine, kernel, tapeworm, tasks = _boot(
        cache, replacement, sampling, seed, observed
    )
    totals = np.zeros(6, dtype=np.int64)
    for round_index, chunks in enumerate(_streams(seed, len(tasks))):
        if round_index == ROUNDS // 2:
            _unregister_every_other_page(machine, tapeworm, tasks)
        for task, (vas, writes) in zip(tasks, chunks):
            result = kernel.run_chunk(task, vas, writes)
            totals += (
                result.traps, result.sim_cycles, result.masked_traps,
                result.page_faults, result.ticks, result.silent_clears,
            )
    ecc = machine.ecc
    return {
        "misses": dict(tapeworm.stats.misses),
        "refs": dict(tapeworm.stats.refs),
        "masked_misses": tapeworm.stats.masked_misses,
        "dispatched": dict(machine.dispatcher.counts),
        "overhead_cycles": tapeworm.overhead_cycles,
        "chunk_totals": totals.tolist(),
        "tick_masked_traps": kernel.tick_results.masked_traps,
        "clock": machine.clock.now,
        "granule_trapped": np.flatnonzero(ecc.granule_trapped).tolist(),
        "tapeworm_bits": ecc.tapeworm_granules().tolist(),
        "resident": sorted(tapeworm.structure.resident_keys()),
        "lanes": {
            lane.selected: count
            for lane, count in machine.cpu.segments_by_lane.items()
        },
        "recent_sets": list(ecc._recent_sets),
        "evictions": kernel.vm.evictions,
        "set_calls": (tapeworm.primitives.set_calls, ecc.stats_sets),
        "clear_calls": (tapeworm.primitives.clear_calls, ecc.stats_clears),
    }


MATRIX = list(itertools.product(
    (1, 2, 4),            # associativity
    ("lru", "fifo"),      # configured policy
    (16, 32, 64),         # line bytes
    (1, 8),               # sampling denominator
))


@pytest.mark.parametrize(
    "associativity,replacement,line_bytes,sampling", MATRIX,
    ids=[f"{a}way-{p}-{b}B-1of{s}" for a, p, b, s in MATRIX],
)
def test_batch_lane_matches_per_trap_lane(
    associativity, replacement, line_bytes, sampling
):
    cache = CacheConfig(
        size_bytes=4096, line_bytes=line_bytes, associativity=associativity
    )
    seed = associativity * 100 + line_bytes + sampling
    batch = _run(cache, replacement, sampling, seed, observed=False)
    per_trap = _run(cache, replacement, sampling, seed, observed=True)

    # the lanes really differ: one run batched, the other never did
    assert batch["lanes"].get("batch", 0) > 0
    assert "batch" not in per_trap["lanes"]
    # the streams exercise what they claim to
    assert sum(batch["misses"].values()) > 0
    assert all(batch["misses"][c] > 0 for c in Component)
    if sampling == 1:  # the masked prologue may miss every sampled set
        assert batch["tick_masked_traps"] > 0
    assert batch["evictions"] > 0

    for field in (
        "misses", "refs", "masked_misses", "dispatched", "overhead_cycles",
        "chunk_totals", "tick_masked_traps", "clock", "granule_trapped",
        "tapeworm_bits", "resident", "evictions", "set_calls",
    ):
        assert batch[field] == per_trap[field], field
    # the per-trap lane clears once per miss; the batch lane clears only
    # the lines still trapped at the segment's end, never more
    assert all(
        b <= p for b, p in zip(batch["clear_calls"], per_trap["clear_calls"])
    )


def test_batch_only_run_leaves_the_recent_set_log_empty():
    cache = CacheConfig(size_bytes=4096, line_bytes=16)
    run = _run(cache, "lru", 1, seed=5, observed=False)
    assert set(run["lanes"]) == {"batch"}
    assert run["recent_sets"] == []


@pytest.mark.parametrize("workload,cache,replacement,sampling", [
    # Table 7's configuration
    ("espresso", CacheConfig(size_bytes=16 * 1024), "lru", 8),
    ("mpeg_play", CacheConfig(size_bytes=8192, associativity=4), "fifo", 1),
])
def test_trap_run_report_is_lane_independent(
    monkeypatch, workload, cache, replacement, sampling
):
    """A whole harness run — kernel, servers, clock ticks, paging —
    reports the same numbers in either lane."""
    spec = get_workload(workload)
    config = TapewormConfig(
        cache=cache, replacement=replacement, sampling=sampling,
        sampling_seed=2,
    )
    options = RunOptions(total_refs=30_000, trial_seed=3)
    batch = run_trap_driven(spec, config, options)

    install = Tapeworm.install

    def install_observed(self):
        install(self)
        _observe(self)

    monkeypatch.setattr(Tapeworm, "install", install_observed)
    per_trap = run_trap_driven(spec, config, options)
    assert batch.stats.total_misses > 0
    assert dataclasses.asdict(batch) == dataclasses.asdict(per_trap)


# ---------------------------------------------------------------------------
# lane selection
# ---------------------------------------------------------------------------

def _lane_machine(
    cache=None, structure="cache", replacement="lru", allocate_on_write=True
):
    machine = Machine(MachineConfig(
        memory_bytes=512 * 1024,
        n_vpages=64,
        allocate_on_write=allocate_on_write,
    ))
    kernel = Kernel(machine, reserved_frames=64)
    cache = cache or CacheConfig(size_bytes=1024, line_bytes=16)
    tapeworm = Tapeworm(kernel, TapewormConfig(
        structure=structure,
        cache=cache,
        l2=CacheConfig(size_bytes=4096, line_bytes=16, associativity=4)
        if structure == "two_level" else None,
        replacement=replacement,
    ))
    tapeworm.install()
    return machine, tapeworm


def _wrap_clear(machine, tapeworm):
    inner = tapeworm.primitives.tw_clear_trap
    tapeworm.primitives.tw_clear_trap = lambda pa, size: inner(pa, size)


def _replace_handler(machine, tapeworm):
    machine.dispatcher.replace(TrapKind.ECC_ERROR, lambda frame: 0)


def _pages(machine, tapeworm):
    machine.enable_mechanism(TrapMechanism.PAGE_VALID)


def _breakpoint(machine, tapeworm):
    machine.enable_mechanism(TrapMechanism.BREAKPOINT)
    machine.breakpoints.set_breakpoint(0x1000, 16)


def _true_error(machine, tapeworm):
    machine.ecc.inject_true_error(0x2000, bit=3)


SELECTION = [
    # (id, machine kwargs, setup, writes, expected reasons)
    ("dm-physical", {}, None, None, ()),
    ("dm-random", {"replacement": "random"}, None, None, ()),
    ("2way-fifo", {"cache": CacheConfig(1024, 16, 2)}, None, None, ()),
    ("stores-with-allocate", {}, None, True, ()),
    ("wrapped-handler", {}, lambda m, t: _observe(t), None,
     ("observer:handler",)),
    ("wrapped-primitive", {}, _wrap_clear, None, ("observer:handler",)),
    ("replaced-handler", {}, _replace_handler, None, ("observer:handler",)),
    ("pages", {}, _pages, None, ("mechanism:pages",)),
    ("breakpoints", {}, _breakpoint, None, ("mechanism:breakpoints",)),
    ("stores-evaporate", {"allocate_on_write": False}, None, True,
     ("writes:evaporate",)),
    ("true-error", {}, _true_error, None, ("ecc:true-error",)),
    ("virtual", {"cache": CacheConfig(1024, 16, indexing=Indexing.VIRTUAL)},
     None, None, ("indexing:virtual",)),
    ("two-level", {"structure": "two_level"}, None, None,
     ("structure:two_level",)),
    ("2way-random", {"cache": CacheConfig(1024, 16, 2),
                     "replacement": "random"}, None, None,
     ("policy:random",)),
    ("pages-and-virtual", {"cache": CacheConfig(
        1024, 16, indexing=Indexing.VIRTUAL)}, _pages, None,
     ("mechanism:pages", "indexing:virtual")),
]


@pytest.mark.parametrize(
    "kwargs,setup,writes,reasons",
    [case[1:] for case in SELECTION],
    ids=[case[0] for case in SELECTION],
)
def test_lane_selection_table(kwargs, setup, writes, reasons):
    machine, tapeworm = _lane_machine(**kwargs)
    if setup is not None:
        setup(machine, tapeworm)
    store_mask = None if writes is None else np.ones(4, dtype=bool)
    report = select_lane(machine, store_mask)
    assert report.reasons == reasons
    assert report.selected == ("per_trap" if reasons else "batch")
    assert (report is BATCH_LANE) == (not reasons)


def test_trace_observer_forces_the_per_trap_lane():
    machine, _ = _lane_machine()
    with enabled():
        assert select_lane(machine).reasons == ("observer:trace",)
    with enabled(trace_machine=False):
        assert select_lane(machine) is BATCH_LANE
