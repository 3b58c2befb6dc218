"""The trap-invariant auditor.

Tapeworm's whole correctness story is one invariant (section 3.1): for
every page in the Tapeworm domain, *a sampled memory location carries a
trap exactly when the simulated structure does not hold it*.  Every
fault the machine plane can inject — a DMA write erasing a trap, a
spurious trap on a cached line, a dropped ``tw_clear_trap`` — is
precisely a violation of that biconditional, which is what makes the
invariant auditable: cross-check the ECC/page-valid trap state against
the simulated cache/TLB contents and any divergence names a corruption
that would otherwise silently skew miss counts.

The auditor is read-only (``contains`` probes never touch replacement
state; the ECC bitmap reads never change it) and is meant to run at a
configurable cadence from the chunk tap, plus once at end of run.  The
final sweep additionally reports injected true errors that were never
referenced — a latent double-bit error must not vanish just because the
workload happened not to touch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._types import PAGE_SIZE, Indexing
from repro.caches.multilevel import TwoLevelCache
from repro.machine.memory import GRANULE_BYTES


@dataclass(frozen=True)
class Divergence:
    """One spot where trap state and simulated state disagree."""

    #: missing_trap | unexpected_trap | orphan_trap | duplicate_entry |
    #: missing_page_trap | unexpected_page_trap | stale_true_error |
    #: latent_double_bit
    kind: str
    detail: str
    pa: int | None = None
    granule: int | None = None
    tid: int | None = None
    vpn: int | None = None

    def describe(self) -> str:
        where = []
        if self.pa is not None:
            where.append(f"pa={self.pa:#x}")
        if self.granule is not None:
            where.append(f"granule={self.granule}")
        if self.tid is not None:
            where.append(f"tid={self.tid}")
        if self.vpn is not None:
            where.append(f"vpn={self.vpn}")
        location = " ".join(where) or "global"
        return f"{self.kind} at {location}: {self.detail}"


@dataclass
class AuditReport:
    """Everything one audit pass found."""

    chunk_index: int
    final: bool = False
    #: invariant comparisons performed (lines + pages + orphan granules)
    checks: int = 0
    #: frames skipped because the invariant is ambiguous there (shared
    #: frames under virtual indexing + set sampling)
    skipped_frames: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    truncated: bool = False

    @property
    def clean(self) -> bool:
        return not self.divergences

    @property
    def first(self) -> Divergence | None:
        return self.divergences[0] if self.divergences else None

    def describe(self) -> str:
        tag = "final" if self.final else f"chunk {self.chunk_index}"
        if self.clean:
            return f"audit[{tag}]: clean ({self.checks} checks)"
        lines = [
            f"audit[{tag}]: {len(self.divergences)} divergence(s) "
            f"in {self.checks} checks"
            + (" (truncated)" if self.truncated else "")
        ]
        lines.extend("  " + d.describe() for d in self.divergences)
        return "\n".join(lines)


class TrapInvariantAuditor:
    """Cross-checks trap state against the simulated structure.

    Works for all three structures: ``cache`` and ``two_level`` compare
    the ECC Tapeworm bitmap against (L1) cache contents line by line;
    ``tlb`` compares page valid bits against simulated-TLB residence
    page by page.  ``audit()`` may be called any time the machine is
    between chunks; it never mutates simulation state.
    """

    def __init__(self, tapeworm, max_divergences: int = 32) -> None:
        self.tapeworm = tapeworm
        self.machine = tapeworm.machine
        self.max_divergences = max_divergences
        self.reports: list[AuditReport] = []

    # ------------------------------------------------------------------

    def audit(self, chunk_index: int = -1, final: bool = False) -> AuditReport:
        report = AuditReport(chunk_index=chunk_index, final=final)
        if self.tapeworm.config.structure == "tlb":
            self._audit_tlb(report)
        else:
            self._audit_cache(report)
            self._audit_orphan_traps(report)
        if final:
            self._sweep_true_errors(report)
        self.reports.append(report)
        return report

    @property
    def first_divergence(self) -> Divergence | None:
        for report in self.reports:
            if report.divergences:
                return report.divergences[0]
        return None

    def _add(self, report: AuditReport, divergence: Divergence) -> bool:
        """Record a divergence; False once the report is full."""
        if len(report.divergences) >= self.max_divergences:
            report.truncated = True
            return False
        report.divergences.append(divergence)
        return True

    # ------------------------------------------------------------------
    # ECC-trap structures (cache, two_level)
    # ------------------------------------------------------------------

    def _presence_caches(self):
        """The cache level whose absence is the trap condition (L1), and
        every level for duplicate checks."""
        structure = self.tapeworm.structure
        if isinstance(structure, TwoLevelCache):
            return (structure.l1,), (structure.l1, structure.l2)
        return (structure,), (structure,)

    def _audit_cache(self, report: AuditReport) -> None:
        tapeworm = self.tapeworm
        ecc = self.machine.ecc
        registry = tapeworm.registry
        config = tapeworm.config.cache
        line_bytes = tapeworm.line_bytes
        virtual = config.indexing is Indexing.VIRTUAL
        sampler = tapeworm.sampler
        trap_levels, all_levels = self._presence_caches()

        for level, cache in enumerate(all_levels):
            report.checks += 1
            # a key always maps to one set, so a global count mismatch
            # is exactly a within-set duplicate
            extra = cache.occupancy() - len(cache.resident_keys())
            if extra:
                if not self._add(report, Divergence(
                    kind="duplicate_entry",
                    detail=f"L{level + 1} holds {extra} duplicate line(s)",
                )):
                    return

        for pfn in sorted(registry.registered_frames()):
            pa_page = pfn * PAGE_SIZE
            mappings = sorted(registry.mappings_of_frame(pa_page))
            if virtual and sampler.is_sampling and len(mappings) > 1:
                # a shared frame under virtual indexing can straddle the
                # sampled-set boundary differently per mapping; the
                # invariant is ambiguous there, so don't guess
                report.skipped_frames += 1
                continue
            mtid, mvpn = mappings[0]
            index_base = mvpn * PAGE_SIZE if virtual else pa_page
            for offset in range(0, PAGE_SIZE, line_bytes):
                if not sampler.covers_set(config.set_of(index_base + offset)):
                    continue
                if virtual:
                    cached = any(
                        cache.contains(t, v * PAGE_SIZE + offset)
                        for cache in trap_levels
                        for t, v in mappings
                    )
                else:
                    cached = any(
                        cache.contains(0, pa_page + offset)
                        for cache in trap_levels
                    )
                report.checks += 1
                for pa in range(
                    pa_page + offset, pa_page + offset + line_bytes,
                    GRANULE_BYTES,
                ):
                    trapped = ecc.is_tapeworm_trapped(pa)
                    if trapped == (not cached):
                        continue
                    kind = "unexpected_trap" if trapped else "missing_trap"
                    state = "cached" if cached else "not cached"
                    if not self._add(report, Divergence(
                        kind=kind,
                        pa=pa,
                        granule=pa // GRANULE_BYTES,
                        tid=mtid,
                        detail=(
                            f"line {pa_page + offset:#x} (+{line_bytes}) is "
                            f"{state} in the simulated structure but its "
                            f"granule is {'trapped' if trapped else 'untrapped'}"
                        ),
                    )):
                        return
                    break  # one divergence per line is enough context

    def _audit_orphan_traps(self, report: AuditReport) -> None:
        """Every Tapeworm-trapped granule must lie in a registered frame
        — a dropped clear during page removal leaves orphans behind."""
        registry = self.tapeworm.registry
        for granule in self.machine.ecc.tapeworm_granules():
            pa = int(granule) * GRANULE_BYTES
            report.checks += 1
            if registry.is_registered_frame(pa):
                continue
            if not self._add(report, Divergence(
                kind="orphan_trap",
                pa=pa,
                granule=int(granule),
                detail="Tapeworm trap set on a frame outside the "
                       "registered domain",
            )):
                return

    # ------------------------------------------------------------------
    # page-valid-trap structures (tlb)
    # ------------------------------------------------------------------

    def _audit_tlb(self, report: AuditReport) -> None:
        tapeworm = self.tapeworm
        tlb = tapeworm.tlb
        registry = tapeworm.registry
        sampler = tapeworm.sampler
        n_sets = tapeworm.config.tlb.n_sets

        report.checks += 1
        extra = tlb.occupancy() - len(tlb.resident_keys())
        if extra:
            if not self._add(report, Divergence(
                kind="duplicate_entry",
                detail=f"simulated TLB holds {extra} duplicate entrie(s)",
            )):
                return

        pairs = sorted(
            pair
            for pfn in registry.registered_frames()
            for pair in registry.mappings_of_frame(pfn * PAGE_SIZE)
        )
        for tid, vpn in pairs:
            superpage = tlb.superpage_of(vpn)
            if not sampler.covers_set(superpage % n_sets):
                continue
            if not self.machine.mmu.has_table(tid):
                continue
            table = self.machine.mmu.table(tid)
            if not table.resident[vpn]:
                continue
            report.checks += 1
            trapped = table.is_page_trapped(vpn)
            resident = tlb.contains(tid, vpn)
            if trapped == (not resident):
                continue
            kind = (
                "unexpected_page_trap" if trapped else "missing_page_trap"
            )
            state = "resident" if resident else "absent"
            if not self._add(report, Divergence(
                kind=kind,
                tid=tid,
                vpn=vpn,
                detail=(
                    f"entry for superpage {superpage} is {state} in the "
                    f"simulated TLB but the page valid bit says "
                    f"{'trapped' if trapped else 'untrapped'}"
                ),
            )):
                return

    # ------------------------------------------------------------------
    # end-of-run sweep for latent injected errors
    # ------------------------------------------------------------------

    def _sweep_true_errors(self, report: AuditReport) -> None:
        for granule, n_bits in sorted(
            self.machine.ecc.true_error_granules().items()
        ):
            report.checks += 1
            kind = "latent_double_bit" if n_bits >= 2 else "stale_true_error"
            if not self._add(report, Divergence(
                kind=kind,
                pa=granule * GRANULE_BYTES,
                granule=granule,
                detail=(
                    f"{n_bits} injected data-bit error(s) never referenced "
                    "during the run (unscrubbed at exit)"
                ),
            )):
                return
