"""The Tapeworm II simulator.

The trap-driven core loop (Figure 1, right)::

    kernel traps invoke tw_miss(address):

    tw_miss(address){
        miss++;
        tw_clear_trap(address);
        displaced_address = tw_replace(address);
        tw_set_trap(displaced_address);
    }

A :class:`Tapeworm` installs itself into a booted kernel: it hooks the VM
system's page registration protocol, installs its miss handler on the
trap vector for its mechanism (ECC errors for cache simulation, invalid-
page traps for TLB simulation), and manages per-task ``(simulate,
inherit)`` attributes.  From then on the workload just runs; the hardware
filters hits and only simulated misses reach the handler.

Beside the per-trap miss handler, a cache simulation installs a batch
handler that takes a whole segment's misses in one composed-kernel
replay; the CPU picks between them per segment (``select_lane`` in
:mod:`repro.machine.cpu`).  Because the handler never sees hits, a
trap-driven "LRU" cache replaces in insertion order in both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._types import PAGE_SIZE, Indexing, TrapMechanism
from repro.caches.cache import KernelCache, SetAssociativeCache
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.multilevel import TwoLevelCache
from repro.caches.pipeline import cache_request, compile_kernel
from repro.caches.replacement import make_policy
from repro.caches.stats import CacheStats
from repro.caches.tlb import SimulatedTLB
from repro.core.costs import HandlerCostModel
from repro.core.flexibility import StructureKind, assert_trap_simulable
from repro.core.primitives import TrapPrimitives
from repro.core.registration import PageRegistry
from repro.core.replace import Replacer
from repro.core.sampling import SetSampler
from repro.errors import ConfigError, DoubleBitError, TapewormError
from repro.kernel.kernel import Kernel
from repro.machine.ecc import ECCDiagnostic, TrapClass
from repro.machine.memory import GRANULE_BYTES
from repro.machine.mmu import PAGE_SHIFT
from repro.machine.traps import BatchHandler, TrapFrame, TrapKind

#: cycles the handler spends logging/scrubbing a *true* ECC error before
#: resuming (rare: about one per year of operation in the paper)
TRUE_ERROR_HANDLING_CYCLES = 500


@dataclass(frozen=True)
class TapewormConfig:
    """What to simulate, and how.

    ``structure`` selects among:

    * ``"cache"``     — one cache (``cache`` config), ECC-bit traps;
    * ``"two_level"`` — inclusive hierarchy (``cache`` = L1, ``l2``), ECC;
    * ``"tlb"``       — a TLB (``tlb`` config), page-valid-bit traps.

    ``sampling`` is the set-sampling denominator (1 = no sampling), with
    ``sampling_seed`` choosing which sets, per trial.
    """

    structure: str = "cache"
    cache: CacheConfig | None = None
    l2: CacheConfig | None = None
    tlb: TLBConfig | None = None
    replacement: str = "lru"
    sampling: int = 1
    sampling_seed: int = 0
    handler_variant: str = "optimized"
    policy_seed: int = 0
    #: what the cache models; data/unified caches need a write-allocate
    #: host machine, write buffers are rejected outright (section 4.4)
    kind: StructureKind = StructureKind.INSTRUCTION_CACHE

    def __post_init__(self) -> None:
        if self.structure not in ("cache", "two_level", "tlb"):
            raise ConfigError(f"unknown structure {self.structure!r}")
        if self.structure in ("cache", "two_level") and self.cache is None:
            raise ConfigError(f"structure {self.structure!r} needs a cache config")
        if self.structure == "two_level" and self.l2 is None:
            raise ConfigError("two_level structure needs an l2 config")
        if self.structure == "tlb" and self.tlb is None:
            raise ConfigError("tlb structure needs a tlb config")


class Tapeworm:
    """The in-kernel trap-driven simulator."""

    def __init__(self, kernel: Kernel, config: TapewormConfig) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.config = config
        self.cost_model = HandlerCostModel(config.handler_variant)
        # TLB simulations index registrations by (tid, superpage) so the
        # miss handler can enumerate an entry's pages without scanning
        # the whole task (cache simulations never query that index).
        self.registry = PageRegistry(
            pages_per_superpage=(
                config.tlb.pages_per_entry
                if config.structure == "tlb"
                else 1
            )
        )
        self.stats = CacheStats()
        self.overhead_cycles = 0
        self.true_errors_detected = 0
        self._installed = False

        if config.structure == "tlb":
            mechanism = TrapMechanism.PAGE_VALID
            self.tlb = SimulatedTLB(
                config.tlb, make_policy(config.replacement, config.policy_seed)
            )
            self.replacer = None
            n_sets = config.tlb.n_sets
            self._miss_cycles = self.cost_model.cycles_per_tlb_miss(config.tlb)
        else:
            mechanism = TrapMechanism.ECC
            self.tlb = None
            policy = make_policy(config.replacement, config.policy_seed)
            program = compile_kernel(
                cache_request(config.cache, policy, profile=False)
            )
            #: why the CPU's batch lane cannot serve this configuration
            #: (empty: it can, and the cache lives in kernel state)
            self.batch_reasons = (
                ("indexing:virtual",)
                if config.cache.indexing is Indexing.VIRTUAL
                else ()
            ) + (
                ("structure:two_level",)
                if config.structure == "two_level"
                else ()
            ) + program.capabilities.reasons
            if config.structure == "two_level":
                structure = TwoLevelCache(
                    config.cache,
                    config.l2,
                    policy,
                    make_policy(config.replacement, config.policy_seed + 1),
                )
            elif not self.batch_reasons:
                structure = KernelCache(config.cache, program)
            else:
                structure = SetAssociativeCache(config.cache, policy)
            self.structure = structure
            #: a physically indexed single cache in composed-kernel
            #: state; everything else goes through ``tw_replace``
            self._composed = isinstance(structure, KernelCache)
            self.replacer = (
                None if self._composed else Replacer(structure, self.registry)
            )
            #: the miss handler's direct insertion target for the other
            #: single caches (None for a hierarchy)
            self._single_cache = (
                structure
                if isinstance(structure, SetAssociativeCache)
                else None
            )
            self.line_bytes = config.cache.line_bytes
            self._line_shift = config.cache.line_shift
            #: line offsets within one page, for sampled registration
            self._page_line_offsets = np.arange(
                0, PAGE_SIZE, config.cache.line_bytes, dtype=np.int64
            )
            n_sets = config.cache.n_sets
            self._miss_cycles = self.cost_model.cycles_per_cache_miss(
                config.cache
            )
        self.primitives = TrapPrimitives(self.machine, mechanism)
        self.sampler = SetSampler(
            n_sets, config.sampling, seed=config.sampling_seed
        )

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Hook the kernel: VM protocol, trap vector, mechanism enable."""
        if self._installed:
            raise TapewormError("Tapeworm is already installed")
        if self.kernel.tapeworm is not None:
            raise TapewormError("another Tapeworm is installed in this kernel")
        kind = (
            StructureKind.TLB
            if self.config.structure == "tlb"
            else self.config.kind
        )
        assert_trap_simulable(kind, self.machine)
        vm = self.kernel.vm
        if vm.on_register_page is not None or vm.on_remove_page is not None:
            raise TapewormError("the VM hooks are already claimed")
        vm.on_register_page = self._vm_registered
        vm.on_remove_page = self._vm_removed
        kind = (
            TrapKind.PAGE_INVALID
            if self.config.structure == "tlb"
            else TrapKind.ECC_ERROR
        )
        dispatcher = self.machine.dispatcher
        # one bound method: the batch handler is keyed to its identity
        per_trap = self._miss_trap
        dispatcher.install(kind, per_trap)
        if kind is TrapKind.ECC_ERROR:
            dispatcher.install_batch(kind, BatchHandler(
                per_trap, self._miss_batch, self._handler_observed,
                self.batch_reasons,
            ))
        self.primitives.activate()
        self.kernel.tapeworm = self
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            raise TapewormError("Tapeworm is not installed")
        vm = self.kernel.vm
        vm.on_register_page = None
        vm.on_remove_page = None
        kind = (
            TrapKind.PAGE_INVALID
            if self.config.structure == "tlb"
            else TrapKind.ECC_ERROR
        )
        self.machine.dispatcher.uninstall(kind)
        self.machine.dispatcher.uninstall_batch(kind)
        self.primitives.deactivate()
        self.kernel.tapeworm = None
        self._installed = False

    # ------------------------------------------------------------------
    # attributes (Table 1: tw_attributes)
    # ------------------------------------------------------------------

    def tw_attributes(self, tid: int, simulate: int, inherit: int) -> None:
        """Assign (simulate, inherit); register/remove live pages on a
        simulate transition so attributes can change mid-run."""
        task = self.kernel.tasks.get(tid)
        was_simulated = bool(task.simulate)
        task.simulate = simulate
        task.inherit = inherit
        now_simulated = bool(simulate)
        if now_simulated and not was_simulated:
            self._register_existing_pages(tid)
        elif was_simulated and not now_simulated:
            self._remove_all_pages(tid)

    def _register_existing_pages(self, tid: int) -> None:
        table = self.machine.mmu.table(tid)
        for vpn in table.mapped_vpns():
            pa = table.frame_of(int(vpn)) * PAGE_SIZE
            self.tw_register_page(tid, pa, int(vpn) * PAGE_SIZE)

    def _remove_all_pages(self, tid: int) -> None:
        for vpn, pfn in self.registry.mappings_of_task(tid):
            self.tw_remove_page(tid, pfn * PAGE_SIZE, vpn * PAGE_SIZE)

    # ------------------------------------------------------------------
    # VM protocol (Table 1: tw_register_page / tw_remove_page)
    # ------------------------------------------------------------------

    def _vm_registered(self, tid: int, pa: int, va: int) -> None:
        """VM hook: called on *every* page mapped; Tapeworm screens by
        the owning task's simulate attribute."""
        if self.kernel.tasks.get(tid).simulate:
            self.tw_register_page(tid, pa, va)

    def _vm_removed(self, tid: int, pa: int, va: int) -> None:
        if self.registry.is_registered_mapping(tid, va):
            self.tw_remove_page(tid, pa, va)

    def tw_register_page(self, tid: int, pa: int, va: int) -> None:
        """Add a page to the Tapeworm domain.

        First mapping of the frame: set traps on all of its (sampled)
        memory locations.  Further mappings only bump the reference count
        — "this enables a new task to benefit from shared entries brought
        into the cache by another task."
        """
        first = self.registry.register(tid, pa, va)
        if self.config.structure == "tlb":
            self._register_page_tlb(tid, va)
        elif first:
            self._set_page_traps(pa, va)

    def _set_page_traps(self, pa: int, va: int) -> None:
        """Trap every sampled line of one freshly registered page.

        The sampled lines are found with one vectorized set-membership
        mask over the page's line offsets and trapped in one vectorized
        call (one trap range per line, as the per-line rule would set).
        """
        config = self._cache_config()
        if not self.sampler.is_sampling:
            self.primitives.tw_set_traps(np.array([pa], np.int64), PAGE_SIZE)
            return
        index_base = va if config.indexing is Indexing.VIRTUAL else pa
        offsets = self._page_line_offsets
        sets = config.set_of(index_base + offsets)
        self.primitives.tw_set_traps(
            pa + offsets[self.sampler.mask_for_sets(sets)], self.line_bytes
        )

    def _cache_config(self) -> CacheConfig:
        return self.config.cache

    def _register_page_tlb(self, tid: int, va: int) -> None:
        """Page-granularity registration: trap unless the covering
        (super)page entry is already simulated-TLB resident."""
        vpn = va >> PAGE_SHIFT
        superpage = self.tlb.superpage_of(vpn)
        if not self.sampler.covers_set(superpage % self.config.tlb.n_sets):
            return
        if self.tlb.contains(tid, vpn):
            return
        self.primitives.tw_set_page_trap(tid, vpn)

    def tw_remove_page(self, tid: int, pa: int, va: int) -> None:
        """Remove a page from the Tapeworm domain.

        The last mapping flushes the page from the simulated structure
        and clears its traps, mimicking what the VM system does to the
        host's real cache on an unmap.
        """
        if self.config.structure == "tlb":
            self._remove_page_tlb(tid, pa, va)
            return
        mappings = self.registry.mappings_of_frame(pa)
        last = self.registry.remove(tid, pa, va)
        structure = self.structure
        caches = (
            (structure.l1, structure.l2)
            if isinstance(structure, TwoLevelCache)
            else (structure,)
        )
        if self._cache_config().indexing is Indexing.VIRTUAL:
            victims = mappings if last else {(tid, va >> PAGE_SHIFT)}
            for cache in caches:
                for mtid, mvpn in victims:
                    cache.flush_page(mtid, mvpn * PAGE_SIZE, PAGE_SIZE)
        elif last:
            for cache in caches:
                cache.flush_page(tid, pa & ~(PAGE_SIZE - 1), PAGE_SIZE)
        if last:
            self.primitives.tw_clear_trap(pa & ~(PAGE_SIZE - 1), PAGE_SIZE)

    def _remove_page_tlb(self, tid: int, pa: int, va: int) -> None:
        vpn = va >> PAGE_SHIFT
        self.registry.remove(tid, pa, va)
        table = self.machine.mmu.table(tid)
        if table.is_page_trapped(vpn):
            self.primitives.tw_clear_page_trap(vpn=vpn, tid=tid)
        if self.tlb.contains(tid, vpn):
            remaining = self.registry.vpns_under(
                tid, self.tlb.superpage_of(vpn)
            )
            if not remaining:
                self.tlb.evict(tid, vpn)
            # pages still registered under the entry keep running free;
            # the entry stays until displaced or its last page leaves.

    # ------------------------------------------------------------------
    # DMA cooperation (the 5000/240 port hazard, section 4.3)
    # ------------------------------------------------------------------

    def tw_dma_transfer(self, pa: int, size: int) -> None:
        """Driver notification: a DMA write landed on ``[pa, pa+size)``.

        DMA regenerates correct ECC, silently erasing traps.  A
        cooperating driver calls this afterward so Tapeworm can flush
        the buffer from the simulated cache (real DMA invalidates it in
        the host cache too) and re-arm the traps its simulation needs.
        Without this hook — the paper's un-ported 5000/240 situation —
        misses on DMA'd pages silently vanish.
        """
        if self.config.structure == "tlb":
            return  # valid bits are unaffected by DMA data writes
        first_page = pa & ~(PAGE_SIZE - 1)
        last_page = (pa + size - 1) & ~(PAGE_SIZE - 1)
        for page in range(first_page, last_page + PAGE_SIZE, PAGE_SIZE):
            if not self.registry.is_registered_frame(page):
                continue
            mappings = self.registry.mappings_of_frame(page)
            structure = self.structure
            caches = (
                (structure.l1, structure.l2)
                if isinstance(structure, TwoLevelCache)
                else (structure,)
            )
            if self._cache_config().indexing is Indexing.VIRTUAL:
                for cache in caches:
                    for mtid, mvpn in mappings:
                        cache.flush_page(mtid, mvpn * PAGE_SIZE, PAGE_SIZE)
            else:
                for cache in caches:
                    cache.flush_page(0, page, PAGE_SIZE)
            # re-arm: clear any residue, then trap the page afresh using
            # a recorded mapping for the indexing address
            self.primitives.tw_clear_trap(page, PAGE_SIZE)
            mtid, mvpn = min(mappings)
            self._set_page_traps(page, mvpn * PAGE_SIZE)

    # ------------------------------------------------------------------
    # the miss handler (Figure 1, right)
    # ------------------------------------------------------------------

    def _miss_trap(self, frame: TrapFrame) -> int:
        if frame.kind is TrapKind.PAGE_INVALID:
            return self._tlb_miss(frame)
        return self._cache_miss(frame)

    def _cache_miss(self, frame: TrapFrame) -> int:
        ecc = self.machine.ecc
        # Classify first: Tapeworm must not swallow true memory errors.
        # Only a granule carrying an injected error can classify as
        # anything but our own trap, so the word-level decode runs only
        # there.
        if ecc.has_true_error(frame.pa):
            diagnostic = ecc.diagnose(frame.pa)
            if diagnostic.trap_class is not TrapClass.TAPEWORM:
                return self._true_error(frame, diagnostic)

        line_bytes = self.line_bytes
        pa_line = frame.pa & ~(line_bytes - 1)
        va_line = frame.va & ~(line_bytes - 1)

        self.stats.count_miss(frame.component)
        primitives = self.primitives
        primitives.tw_clear_trap(pa_line, line_bytes)
        if self._composed:
            kernel = self.structure
            shift = self._line_shift
            displaced = kernel.program.insert(kernel.state, pa_line >> shift)
            if displaced >= 0 and self.registry.is_registered_frame(
                displaced << shift
            ):
                primitives.tw_set_trap(displaced << shift, line_bytes)
        elif self._single_cache is not None:
            displaced = self._single_cache.insert_missing(
                frame.tid, self.replacer.index_address(va_line, pa_line)
            )
            if displaced is not None:
                target = self.replacer.trap_target(displaced)
                if target is not None:
                    primitives.tw_set_trap(target, line_bytes)
        else:
            outcome = self.replacer.tw_replace(frame.tid, pa_line, va_line)
            if outcome.l2_missed:
                self.stats.l2_misses += 1
            for target in outcome.trap_targets:
                primitives.tw_set_trap(target, line_bytes)
        self.overhead_cycles += self._miss_cycles
        return self._miss_cycles

    def _miss_batch(
        self,
        ctx,
        pas: np.ndarray,
        granules: np.ndarray,
        trapped: np.ndarray,
    ) -> tuple[int, int]:
        """Every miss of one segment at once (the CPU's batch lane).

        Under the trap-domain invariant — a registered, sampled line is
        trapped exactly when it is not resident, and every resident
        line is registered — the references in the domain (trapped, or
        resident) replayed in order through the kernel in insertion
        order are exactly the per-trap handler's calls: a trapped
        reference misses, inserts its line and displaces a victim; a
        resident one hits and changes nothing.  The trap bits then
        settle to the end state in two vectorized steps: trap every
        displaced line, then clear every final resident of a touched
        set that is trapped (a line the segment inserted, whether or
        not it was displaced on the way).
        """
        cache = self.structure
        shift = self._line_shift
        misses, evicted, resident = cache.program.trap_pass(
            cache.state, pas >> shift, trapped
        )
        if not misses:
            return 0, 0
        line_bytes = self.line_bytes
        primitives = self.primitives
        if len(evicted):
            primitives.tw_set_traps(evicted << shift, line_bytes)
        resident <<= shift
        granule_trapped = self.machine.ecc.granule_trapped
        primitives.tw_clear_traps(
            resident[granule_trapped[resident // GRANULE_BYTES]], line_bytes
        )
        self.stats.count_miss(ctx.component, misses)
        cycles = misses * self._miss_cycles
        self.overhead_cycles += cycles
        return misses, cycles

    def _handler_observed(self) -> bool:
        """Whether a step of the miss handler was replaced or wrapped on
        this instance (Figure 1's logger, an armed fault injector):
        such an observer must see every trap, so the batch lane stays
        off."""
        primitives = vars(self.primitives)
        return (
            "_cache_miss" in vars(self)
            or "tw_clear_trap" in primitives
            or "tw_set_trap" in primitives
        )

    def _true_error(self, frame: TrapFrame, diagnostic: ECCDiagnostic) -> int:
        """Log (or refuse) a true memory error found under a trap."""
        self.true_errors_detected += 1
        if not diagnostic.recoverable:
            # Two or more corrupted data bits: an uncorrectable pattern
            # even after software undoes its own check-bit flip.  The
            # real machine would panic; we surface the structured
            # diagnostic instead of silently scrubbing.
            raise DoubleBitError(
                "uncorrectable ECC error in task "
                f"{frame.tid} at cycle {frame.cycle}: "
                f"{diagnostic.describe()}",
                diagnostic=diagnostic,
            )
        ecc = self.machine.ecc
        ecc.scrub(frame.pa)
        if ecc.is_tapeworm_trapped(frame.pa):
            # restore our own trap that scrubbing removed
            granule_bytes = self.primitives.trap_granule_bytes()
            ecc.set_trap(frame.pa & ~(granule_bytes - 1), granule_bytes)
        self.overhead_cycles += TRUE_ERROR_HANDLING_CYCLES
        return TRUE_ERROR_HANDLING_CYCLES

    def _tlb_miss(self, frame: TrapFrame) -> int:
        tid = frame.tid
        vpn = frame.va >> PAGE_SHIFT
        self.stats.count_miss(frame.component)
        displaced = self.tlb.miss_insert(tid, vpn)
        # The new entry covers its whole superpage: clear traps on every
        # registered machine page under it.
        for covered in self._registered_pages_of_entry(tid, self.tlb.superpage_of(vpn)):
            table = self.machine.mmu.table(tid)
            if table.is_page_trapped(covered):
                self.primitives.tw_clear_page_trap(tid, covered)
        if displaced is not None:
            dtid, dspn = displaced
            for covered in self._registered_pages_of_entry(dtid, dspn):
                table = self.machine.mmu.table(dtid)
                if table.resident[covered] and not table.is_page_trapped(covered):
                    self.primitives.tw_set_page_trap(dtid, covered)
        self.overhead_cycles += self._miss_cycles
        return self._miss_cycles

    def _registered_pages_of_entry(self, tid: int, superpage: int) -> list[int]:
        """The machine pages one simulated entry covers — served by the
        registry's (tid, superpage) index, not a scan of the task."""
        return self.registry.vpns_under(tid, superpage)

    # ------------------------------------------------------------------
    # results (read through the syscall interface)
    # ------------------------------------------------------------------

    def snapshot_stats(self) -> CacheStats:
        copy = CacheStats()
        copy.merge(self.stats)
        return copy

    def publish_metrics(self, metrics) -> None:
        """Publish simulation totals into a metrics registry under the
        ``tapeworm.*`` namespace.

        ``tapeworm.traps{kind=...}`` reports the trap kind backing this
        simulation (ECC errors for caches, page-invalid for TLBs) as
        counted by the kernel's dispatcher — i.e. the traps that
        actually vectored into the miss handler.
        """
        kind = (
            TrapKind.PAGE_INVALID
            if self.config.structure == "tlb"
            else TrapKind.ECC_ERROR
        )
        dispatched = self.machine.dispatcher.counts[kind]
        if dispatched:
            metrics.counter("tapeworm.traps", kind=kind.value).inc(dispatched)
        for component, misses in self.stats.misses.items():
            if misses:
                metrics.counter(
                    "tapeworm.misses", component=component.value
                ).inc(misses)
        if self.stats.l2_misses:
            metrics.counter("tapeworm.l2_misses").inc(self.stats.l2_misses)
        if self.overhead_cycles:
            metrics.counter("tapeworm.overhead_cycles").inc(
                self.overhead_cycles
            )
        if self.true_errors_detected:
            metrics.counter("tapeworm.true_errors").inc(
                self.true_errors_detected
            )
        metrics.gauge("tapeworm.estimated_misses").set(
            self.estimated_total_misses()
        )

    def reset_stats(self) -> None:
        self.stats = CacheStats()
        self.overhead_cycles = 0

    def estimated_total_misses(self) -> float:
        """Sampled miss counts scaled to a full-structure estimate."""
        return self.sampler.estimate(self.stats.total_misses)
