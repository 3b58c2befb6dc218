"""Kernel selection and composition: one specialized chunk kernel per config.

:func:`select_kernel` is the *single* place the fast-path/general-path
decision is made; it maps a request to a kernel path and records why:

* **direct-mapped caches** always take ``dm``: the victim is forced and
  the replacement policy is never consulted, so even seeded-random
  configs ride the pure-numpy ``dm_grouped_pass``;
* **LRU/FIFO** take ``grouped`` (``tlb_grouped``) at any associativity —
  per-set state independence makes the stable-sorted set-by-set replay
  exact (the Mattson congruence-class argument);
* a **non-groupable policy** (seeded random draws its RNG in global
  miss order, which grouping would permute) takes ``general``
  (``tlb_general``) with reason ``policy:<name>``;
* **force_general** pins the per-reference path for differential
  testing, with reason ``forced:request``;
* **grid** requests (all-associativity sweeps) take the one-pass
  stack-distance kernel and are exact for LRU only — any other policy
  is rejected.

Each ``compose_*`` factory then returns the program *fields* — plain
closures with every configuration constant bound in cells at compose
time:

* the line shift, set mask and key packing are literals in the closure,
  not attribute lookups on a config object;
* the virtual/physical space mapping is selected once (physical kernels
  never add a space term at all);
* power-of-two modulo is strength-reduced to a bit-and;
* ``phase_name`` names the profiling phase the registry wraps around
  ``run`` *only* when the request asked for it, so the hot loop pays no
  session lookup per chunk.

The closures call the shared :func:`~repro.caches.kernels.
dm_grouped_pass` / :func:`~repro.caches.kernels.grouped_stack_pass`
primitives, the general paths loop the very same per-reference
``access`` methods, and ``tests/property/test_kernel_equivalence.py``
sweeps the whole grid to prove them bit-identical.

Programs are stateless and shared: mutable simulation state is created
per simulator by ``make_state`` and threaded through ``run`` — so one
composed program can serve any number of concurrently-live simulators
of the same configuration.

Physically indexed ``dm``/``grouped`` programs also carry the
trap-driven closures over that same state — ``resident``, ``insert``,
``flush_lines`` and ``trap_pass`` — through which Tapeworm's per-trap
handler, its page flushes and the CPU's batch lane all drive one cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from repro._types import Indexing
from repro.caches.cache import SetAssociativeCache
from repro.caches.kernels import (
    GROUPABLE_POLICIES,
    MAX_SPACES,
    collapse_consecutive,
    dm_grouped_pass,
    dm_trap_pass,
    first_touch_mask,
    grouped_distance_pass,
    grouped_stack_pass,
)
from repro.caches.pipeline.request import KernelRequest
from repro.caches.replacement import make_policy
from repro.errors import ConfigError


@dataclass(frozen=True)
class CapabilityReport:
    """Which kernel path serves a request, and why."""

    selected: str
    reasons: tuple[str, ...] = ()

    @property
    def general(self) -> bool:
        """True when the exact per-reference path was selected."""
        return self.selected in ("general", "tlb_general")


@dataclass(frozen=True)
class KernelProgram:
    """One composed, memoizable kernel.

    Stateless by construction: mutable simulation state comes from
    ``make_state`` and is threaded through ``run`` by the caller, so a
    single program serves every simulator of its configuration.
    """

    request: KernelRequest
    capabilities: CapabilityReport
    #: chunk kernels: (state, addresses/vpns, tid) -> misses
    run: Callable | None = None
    make_state: Callable | None = None
    resident_keys: Callable | None = None
    occupancy: Callable | None = None
    #: trap-driven closures over the same state (physical dm/grouped
    #: only), in physical line numbers: ``resident(state, lines)`` ->
    #: bool mask; ``insert(state, line)`` -> displaced line or -1;
    #: ``flush_lines(state, lines)`` -> the removed lines;
    #: ``trap_pass(state, lines, trapped)`` -> ``(misses, evicted,
    #: resident)``, an insertion-order replay of one segment's trap
    #: domain (references trapped, or resident, at its start)
    resident: Callable | None = None
    insert: Callable | None = None
    flush_lines: Callable | None = None
    trap_pass: Callable | None = None
    #: grid kernels: (state) -> exact per-cell misses + histograms
    extract: Callable | None = None
    #: scan kernels: candidate-mask collection + rescan binding
    collect: Callable | None = None
    granules_of: Callable | None = None
    bind_rescans: Callable | None = None
    use_ecc: bool = False
    use_pages: bool = False
    use_breakpoints: bool = False

    @property
    def is_fast(self) -> bool:
        return not self.capabilities.general

    def __deepcopy__(self, memo) -> "KernelProgram":
        return self  # stateless and shared: a forked simulator keeps it


def select_kernel(request: KernelRequest) -> CapabilityReport:
    """Validate ``request`` and map it to its kernel path."""
    kind = request.kind
    if kind not in ("cache", "tlb", "grid", "scan"):
        raise ConfigError(
            f"unknown kernel kind {kind!r}; choose from cache, tlb, grid, scan"
        )
    if kind != "scan" and getattr(request, kind) is None:
        raise ConfigError(f"{kind} kernel request carries no {kind} config")
    if request.policy is not None:
        make_policy(request.policy)  # raises on unknown names
    if kind == "scan":
        return CapabilityReport("scan")
    if kind == "grid":
        if request.policy not in (None, "lru"):
            raise ConfigError(
                f"grid sweeps are exact for LRU only (stack inclusion); "
                f"got {request.policy!r} — run those configurations "
                f"per-config instead"
            )
        return CapabilityReport("grid", ("lru-stack-inclusion",))
    prefix = "tlb_" if kind == "tlb" else ""
    if not request.force_general:
        if kind == "cache" and request.cache.associativity == 1:
            return CapabilityReport("dm")
        if request.policy in GROUPABLE_POLICIES:
            return CapabilityReport(prefix + "grouped")
    reasons = []
    if request.force_general:
        reasons.append("forced:request")
    if request.policy is not None and request.policy not in GROUPABLE_POLICIES:
        reasons.append(f"policy:{request.policy}")
    return CapabilityReport(prefix + "general", tuple(reasons))


def _space_fn(indexing: Indexing):
    """The tid -> tag-space mapping, specialized per indexing mode."""
    if indexing is Indexing.VIRTUAL:
        def space_of(tid: int) -> int:
            if not 0 <= tid < MAX_SPACES:
                raise ConfigError(
                    f"tid {tid} outside the fast path's space range"
                )
            return tid
    else:
        def space_of(tid: int) -> int:
            if not 0 <= tid < MAX_SPACES:
                raise ConfigError(
                    f"tid {tid} outside the fast path's space range"
                )
            return 0
    return space_of


def _decode(key: int, line_shift: int) -> tuple[int, int]:
    space, line = key % MAX_SPACES, key // MAX_SPACES
    return space, line << line_shift


# ---------------------------------------------------------------------------
# cache kernels
# ---------------------------------------------------------------------------

def compose_cache_dm(request: KernelRequest) -> dict:
    """Direct-mapped chunk kernel: pure numpy, any policy."""
    config = request.cache
    line_shift = config.line_shift
    set_mask = config.n_sets - 1
    n_sets = config.n_sets
    virtual = config.indexing is Indexing.VIRTUAL
    space_of = _space_fn(config.indexing)

    def make_state(policy=None) -> np.ndarray:
        return np.full(n_sets, -1, dtype=np.int64)

    if virtual:
        def run(state, addresses, tid: int = 0) -> int:
            addresses = np.asarray(addresses, dtype=np.int64)
            if len(addresses) == 0:
                return 0
            space = space_of(tid)
            lines = addresses >> line_shift
            return dm_grouped_pass(
                state, lines & set_mask, lines * MAX_SPACES + space
            )

        def resident_keys(state) -> set[tuple[int, int]]:
            return {
                _decode(int(key), line_shift) for key in state if key >= 0
            }
    else:
        # physical keys carry no space term, so the lines themselves are
        # the keys: the packing multiply is compiled out entirely (the
        # line <-> packed-key mapping is injective, so miss counts and
        # state transitions are unchanged — only the encoding differs)
        def run(state, addresses, tid: int = 0) -> int:
            addresses = np.asarray(addresses, dtype=np.int64)
            if len(addresses) == 0:
                return 0
            space_of(tid)  # range check only; physical space is always 0
            lines = addresses >> line_shift
            return dm_grouped_pass(state, lines & set_mask, lines)

        def resident_keys(state) -> set[tuple[int, int]]:
            return {
                (0, int(line) << line_shift) for line in state if line >= 0
            }

        def resident(state, lines):
            return state[lines & set_mask] == lines

        def insert(state, line: int) -> int:
            index = line & set_mask
            displaced = int(state[index])
            state[index] = line
            return displaced

        def flush_lines(state, lines):
            sets = lines & set_mask
            hit = state[sets] == lines
            state[sets[hit]] = -1
            return lines[hit]

        def trap_pass(state, lines, trapped):
            sets = lines & set_mask
            domain = trapped | (state[sets] == lines)
            return dm_trap_pass(state, sets[domain], lines[domain])

    def occupancy(state) -> int:
        return int(np.count_nonzero(state >= 0))

    fields = {
        "run": run,
        "make_state": make_state,
        "resident_keys": resident_keys,
        "occupancy": occupancy,
        "phase_name": "kernels.dm_pass",
    }
    if not virtual:
        fields.update(
            resident=resident,
            insert=insert,
            flush_lines=flush_lines,
            trap_pass=trap_pass,
        )
    return fields


def compose_cache_grouped(request: KernelRequest) -> dict:
    """Grouped-set stack replay: exact for LRU/FIFO, any associativity."""
    config = request.cache
    line_shift = config.line_shift
    set_mask = config.n_sets - 1
    n_sets = config.n_sets
    associativity = config.associativity
    lru = request.policy == "lru"
    space_of = _space_fn(config.indexing)

    def make_state(policy=None) -> list[list[int]]:
        return [[] for _ in range(n_sets)]

    def run(state, addresses, tid: int = 0) -> int:
        addresses = np.asarray(addresses, dtype=np.int64)
        if len(addresses) == 0:
            return 0
        space = space_of(tid)
        lines = addresses >> line_shift
        sets = lines & set_mask
        keys = lines * MAX_SPACES + space
        order = np.argsort(sets, kind="stable")
        sets_sorted = sets[order]
        keys_sorted = keys[order]
        keep = collapse_consecutive(sets_sorted, keys_sorted)
        return grouped_stack_pass(
            state,
            associativity,
            lru,
            sets_sorted[keep].tolist(),
            keys_sorted[keep].tolist(),
        )

    def resident_keys(state) -> set[tuple[int, int]]:
        return {
            _decode(key, line_shift)
            for entries in state
            for key in entries
        }

    def occupancy(state) -> int:
        return sum(len(entries) for entries in state)

    fields = {
        "run": run,
        "make_state": make_state,
        "resident_keys": resident_keys,
        "occupancy": occupancy,
        "phase_name": "kernels.grouped_set",
    }
    if config.indexing is Indexing.VIRTUAL:
        return fields

    # Trap-driven closures.  Physical keys are ``line * MAX_SPACES``
    # (space 0).  A trap handler never sees hits, so ``touch`` never
    # runs: trap-driven LRU is insertion order, and the replay runs with
    # ``lru=False`` whatever the configured policy.
    def resident(state, lines):
        return np.array(
            [
                line * MAX_SPACES in state[line & set_mask]
                for line in lines.tolist()
            ],
            dtype=bool,
        )

    def insert(state, line: int) -> int:
        entries = state[line & set_mask]
        displaced = -1
        if len(entries) >= associativity:
            displaced = entries.pop() // MAX_SPACES
        entries.insert(0, line * MAX_SPACES)
        return displaced

    def flush_lines(state, lines):
        removed = []
        for line in lines.tolist():
            entries = state[line & set_mask]
            key = line * MAX_SPACES
            if key in entries:
                entries.remove(key)
                removed.append(line)
        return np.array(removed, dtype=np.int64)

    def trap_pass(state, lines, trapped):
        # Only a set with a trapped reference can change: in any other
        # set every domain reference hits, and an insertion-order hit
        # is a no-op.  So the Python loop sees those sets alone.
        sets = lines & set_mask
        active = np.zeros(n_sets, dtype=bool)
        active[sets[trapped]] = True
        keep = active[sets]
        sets, keys, trapped = sets[keep], lines[keep] * MAX_SPACES, trapped[keep]
        order = np.argsort(sets, kind="stable")
        sets_sorted = sets[order]
        keys_sorted = keys[order]
        keep = collapse_consecutive(sets_sorted, keys_sorted)
        misses = 0
        evicted: list[int] = []
        current = -1
        for index, key, trap in zip(
            sets_sorted[keep].tolist(),
            keys_sorted[keep].tolist(),
            trapped[order][keep].tolist(),
        ):
            if index != current:
                current = index
                entries = state[index]
                at_start = tuple(entries)
            if key in entries:
                continue  # a hit
            if trap or key in at_start:
                # a trapped line, or one this segment displaced (its
                # trap is set by now): a miss, replayed with lru=False
                misses += 1
                if len(entries) >= associativity:
                    evicted.append(entries.pop())
                entries.insert(0, key)
            # else: an unregistered line, outside the trap domain
        resident_now = np.fromiter(
            chain.from_iterable(
                state[index] for index in np.flatnonzero(active).tolist()
            ),
            dtype=np.int64,
        )
        return (
            misses,
            np.array(evicted, dtype=np.int64) // MAX_SPACES,
            resident_now // MAX_SPACES,
        )

    fields.update(
        resident=resident,
        insert=insert,
        flush_lines=flush_lines,
        trap_pass=trap_pass,
    )
    return fields


def compose_cache_general(request: KernelRequest) -> dict:
    """The exact per-reference path over ``SetAssociativeCache``.

    ``make_state`` accepts the *caller's* policy instance so a seeded
    random policy keeps drawing from its own RNG stream in global miss
    order — the property grouping cannot preserve.
    """
    config = request.cache

    def make_state(policy=None) -> SetAssociativeCache:
        return SetAssociativeCache(config, policy)

    def run(cache, addresses, tid: int = 0) -> int:
        misses = 0
        access = cache.access
        for addr in np.asarray(addresses, dtype=np.int64).tolist():
            hit, _ = access(tid, addr)
            if not hit:
                misses += 1
        return misses

    return {
        "run": run,
        "make_state": make_state,
        "resident_keys": lambda cache: cache.resident_keys(),
        "occupancy": lambda cache: cache.occupancy(),
        "phase_name": None,  # the reference path is never shimmed
    }


# ---------------------------------------------------------------------------
# TLB kernels (state lives on the SimulatedTLB instance passed to run)
# ---------------------------------------------------------------------------

def compose_tlb_grouped(request: KernelRequest) -> dict:
    """The grouped TLB chunk path, counters included.

    Bit-identical to calling ``SimulatedTLB.access`` per reference —
    including the ``searches``/``insertions`` totals (one search per
    reference, one insertion per miss) and the final entry state shared
    with the trap-driven ``miss_insert`` path.
    """
    config = request.tlb
    page_shift = config.pages_per_entry.bit_length() - 1
    set_mask = config.n_sets - 1
    associativity = config.effective_associativity
    lru = request.policy == "lru"

    def run(tlb, tid: int, vpns) -> int:
        vpns = np.asarray(vpns, dtype=np.int64)
        n = len(vpns)
        if n == 0:
            return 0
        superpages = vpns >> page_shift
        sets = superpages & set_mask
        order = np.argsort(sets, kind="stable")
        sets_sorted = sets[order]
        superpages_sorted = superpages[order]
        keep = collapse_consecutive(sets_sorted, superpages_sorted)
        misses = grouped_stack_pass(
            tlb._sets,
            associativity,
            lru,
            sets_sorted[keep].tolist(),
            [(tid, sp) for sp in superpages_sorted[keep].tolist()],
        )
        tlb.searches += n
        tlb.insertions += misses
        return misses

    return {"run": run, "phase_name": "kernels.tlb_chunk"}


def compose_tlb_general(request: KernelRequest) -> dict:
    """The per-reference TLB loop, for non-groupable policies."""

    def run(tlb, tid: int, vpns) -> int:
        vpns = np.asarray(vpns, dtype=np.int64)
        misses = 0
        access = tlb.access
        for vpn in vpns.tolist():
            hit, _ = access(tid, int(vpn))
            misses += not hit
        return misses

    return {"run": run, "phase_name": None}


# ---------------------------------------------------------------------------
# the all-associativity (sets × ways) grid sweep
# ---------------------------------------------------------------------------

class GridState:
    """Mutable grid-sweep state, one per simulator.

    ``stacks`` holds one structure per set count: bounded
    most-recent-first key stacks for the distance pass, or resident-key
    arrays in the direct-mapped (``max_ways == 1``) specialization.
    ``hists``/``overflow``/``cold`` are the three-part capped distance
    histogram the extractor prices every associativity from; ``seen``
    is the cross-chunk first-touch key set shared by all set counts.
    """

    __slots__ = (
        "stacks",
        "hists",
        "overflow",
        "cold",
        "refs",
        "seen",
        "passes",
        "distance_secs",
    )

    def __init__(
        self, set_counts: tuple[int, ...], max_ways: int, dm: bool
    ) -> None:
        if dm:
            self.stacks = [
                np.full(n_sets, -1, dtype=np.int64) for n_sets in set_counts
            ]
        else:
            self.stacks = [
                [[] for _ in range(n_sets)] for n_sets in set_counts
            ]
        self.hists = [
            np.zeros(max_ways, dtype=np.int64) for _ in set_counts
        ]
        self.overflow = [0] * len(set_counts)
        self.cold = 0
        self.refs = 0
        self.seen: set[int] = set()
        self.passes = 0
        self.distance_secs = 0.0


def compose_grid(request: KernelRequest) -> dict:
    """One stack-distance pass per set count prices every ways column.

    For each requested set count the chunk is stable-sorted by set and
    replayed through :func:`grouped_distance_pass` with per-set stacks
    bounded at the grid's largest associativity: a recorded depth ``d``
    means a hit at every ``A > d`` (LRU stack inclusion), so the capped
    histogram plus its cold/overflow split yields the *exact* miss
    count of every ways column from that one pass.  Compulsory
    (first-touch) misses are geometry-independent and computed once per
    chunk, shared across set counts.  A ``max_ways == 1`` grid — the
    ``sweep_request`` adapter's shape — drops to the pure-numpy
    :func:`dm_grouped_pass` per set count, keeping the old dm_sweep
    kernel's speed.
    """
    grid = request.grid
    line_shift = grid.line_shift
    set_counts = grid.set_counts
    ways = grid.ways
    max_ways = grid.max_ways
    virtual = grid.indexing is Indexing.VIRTUAL
    space_of = _space_fn(grid.indexing)
    dm_only = max_ways == 1

    def make_state(policy=None) -> GridState:
        return GridState(set_counts, max_ways, dm_only)

    if dm_only:
        def run(state: GridState, addresses, tid: int = 0) -> int:
            addresses = np.asarray(addresses, dtype=np.int64)
            n = len(addresses)
            if n == 0:
                return 0
            start = time.perf_counter()
            space = space_of(tid)
            lines = addresses >> line_shift
            keys = lines * MAX_SPACES + space if virtual else lines
            cold = int(np.count_nonzero(first_touch_mask(keys, state.seen)))
            state.cold += cold
            for index, n_sets in enumerate(set_counts):
                misses = dm_grouped_pass(
                    state.stacks[index], lines & (n_sets - 1), keys
                )
                # a DM hit is exactly a distance-0 reference; the
                # misses beyond the (set-count independent) compulsory
                # ones are conflict overflow
                state.hists[index][0] += n - misses
                state.overflow[index] += misses - cold
                state.passes += 1
            state.refs += n
            state.distance_secs += time.perf_counter() - start
            return n
    else:
        def run(state: GridState, addresses, tid: int = 0) -> int:
            addresses = np.asarray(addresses, dtype=np.int64)
            n = len(addresses)
            if n == 0:
                return 0
            start = time.perf_counter()
            space = space_of(tid)
            lines = addresses >> line_shift
            keys = lines * MAX_SPACES + space if virtual else lines
            cold_mask = first_touch_mask(keys, state.seen)
            state.cold += int(np.count_nonzero(cold_mask))
            for index, n_sets in enumerate(set_counts):
                sets = lines & (n_sets - 1)
                order = np.argsort(sets, kind="stable")
                sets_sorted = sets[order]
                keys_sorted = keys[order]
                keep = collapse_consecutive(sets_sorted, keys_sorted)
                kept = int(np.count_nonzero(keep))
                distances: list[int] = []
                _, overflow = grouped_distance_pass(
                    state.stacks[index],
                    max_ways,
                    sets_sorted[keep].tolist(),
                    keys_sorted[keep].tolist(),
                    cold_mask[order][keep].tolist(),
                    distances,
                )
                hist = state.hists[index]
                # collapsed consecutive duplicates are guaranteed
                # distance-0 hits that do not disturb LRU state
                hist[0] += n - kept
                if distances:
                    hist += np.bincount(
                        np.asarray(distances, dtype=np.int64),
                        minlength=max_ways,
                    )
                state.overflow[index] += overflow
                state.passes += 1
            state.refs += n
            state.distance_secs += time.perf_counter() - start
            return n

    def extract(state: GridState) -> dict:
        """Exact per-cell miss counts + per-set-count histograms."""
        miss_counts: dict[tuple[int, int], int] = {}
        hists: dict[int, dict] = {}
        for index, n_sets in enumerate(set_counts):
            counts = state.hists[index]
            hists[n_sets] = {
                "counts": [int(c) for c in counts],
                "overflow": int(state.overflow[index]),
                "cold": int(state.cold),
            }
            cumulative = np.cumsum(counts)
            for a in ways:
                miss_counts[(n_sets, a)] = state.refs - int(
                    cumulative[a - 1]
                )
        return {
            "refs": state.refs,
            "cold": state.cold,
            "passes": state.passes,
            "distance_secs": state.distance_secs,
            "miss_counts": miss_counts,
            "hists": hists,
        }

    def occupancy(state: GridState) -> int:
        """Resident lines at the largest set count (diagnostics)."""
        last = state.stacks[-1]
        if dm_only:
            return int(np.count_nonzero(last >= 0))
        return sum(len(entries) for entries in last)

    return {
        "run": run,
        "make_state": make_state,
        "extract": extract,
        "occupancy": occupancy,
        "phase_name": "kernels.grid_pass",
    }


# ---------------------------------------------------------------------------
# the chunk engine's trap scan
# ---------------------------------------------------------------------------

def compose_scan(request: KernelRequest) -> dict:
    """Candidate-mask collection for the CPU's chunk engine.

    Composes one mask contributor per active trap mechanism; the
    per-segment hot path is a single ``collect`` call with no mechanism
    branching.  ``collect`` is None when no mechanism is active — the
    segment has no candidates by construction.
    """
    mechanisms = request.mechanisms
    use_ecc = "ecc" in mechanisms
    use_pages = "pages" in mechanisms
    use_breakpoints = "breakpoints" in mechanisms
    granule_shift = request.granule_shift

    parts = []
    if use_ecc:
        parts.append(
            lambda machine, table, vas, vpns, granules:
                machine.ecc.granule_trapped[granules]
        )
    if use_pages:
        parts.append(
            lambda machine, table, vas, vpns, granules:
                table.resident[vpns] & ~table.valid[vpns]
        )
    if use_breakpoints:
        parts.append(
            lambda machine, table, vas, vpns, granules:
                machine.breakpoints.check_chunk(vas)
        )

    if not parts:
        collect = None
    elif len(parts) == 1:
        collect = parts[0]
    else:
        def collect(machine, table, vas, vpns, granules):
            # each contributor returns a fresh bool array (fancy
            # indexing / elementwise ops), so |= mutates no shared state
            mask = parts[0](machine, table, vas, vpns, granules)
            for part in parts[1:]:
                mask |= part(machine, table, vas, vpns, granules)
            return mask

    if use_ecc:
        def granules_of(pas):
            return pas >> granule_shift
    else:
        def granules_of(pas):
            return None

    def bind_rescans(granules, vpns):
        """Lazy next-occurrence indexes for the chained trap lookups."""
        from repro.machine.chunkindex import RescanBinding

        return (
            RescanBinding(granules, "granule") if use_ecc else None,
            RescanBinding(vpns, "vpn") if use_pages else None,
        )

    return {
        "collect": collect,
        "granules_of": granules_of,
        "bind_rescans": bind_rescans,
        "use_ecc": use_ecc,
        "use_pages": use_pages,
        "use_breakpoints": use_breakpoints,
        "phase_name": None,
    }


#: selected kernel path -> composer factory
COMPOSERS = {
    "dm": compose_cache_dm,
    "grouped": compose_cache_grouped,
    "general": compose_cache_general,
    "tlb_grouped": compose_tlb_grouped,
    "tlb_general": compose_tlb_general,
    "grid": compose_grid,
    "scan": compose_scan,
}
