"""The chaos runner's contract: every fault detected or absorbed."""

import json

import pytest

from repro.faults.chaos import ChaosReport, FaultOutcome, run_chaos
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, default_plan

#: a smaller budget than the CLI default — every machine spec in the
#: plans below fires within the first few chunks
_REFS = 16_000


def _machine_plan(*kinds_and_starts) -> FaultPlan:
    return FaultPlan(
        seed=0xFA017,
        audit_every=1,
        specs=tuple(
            FaultSpec(kind, start=start) for kind, start in kinds_and_starts
        ),
    )


class TestMachinePlane:
    def test_dma_and_spurious_trap_are_detected_by_the_auditor(self):
        report = run_chaos(
            _machine_plan(
                (FaultKind.DMA_TRAP_CLEAR, 1),
                (FaultKind.SPURIOUS_TRAP, 2),
            ),
            refs=_REFS,
        )
        assert report.ok
        resolutions = {o.kind: o.resolution for o in report.outcomes}
        assert resolutions["dma_trap_clear"] == "detected:auditor"
        assert resolutions["spurious_trap"] == "detected:auditor"
        assert report.audits > 0
        assert report.audit_checks > 0

    def test_ecc_faults_are_detected_or_scrubbed(self):
        report = run_chaos(
            _machine_plan(
                (FaultKind.ECC_SINGLE, 1),
                (FaultKind.ECC_DOUBLE, 2),
            ),
            refs=_REFS,
        )
        assert report.ok
        resolutions = {o.kind: o.resolution for o in report.outcomes}
        assert resolutions["ecc_single"] in (
            "absorbed:scrub", "detected:auditor"
        )
        assert resolutions["ecc_double"] in (
            "detected:exception", "detected:auditor"
        )

    def test_trap_clear_drop_is_attributed(self):
        report = run_chaos(
            _machine_plan((FaultKind.TRAP_CLEAR_DROP, 1)), refs=_REFS
        )
        assert report.ok
        (outcome,) = report.outcomes
        assert outcome.resolution in (
            "detected:auditor", "absorbed:refire", "skipped:not_triggered"
        )


class TestInfraPlane:
    def test_worker_and_cache_faults_are_absorbed(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(FaultKind.WORKER_KILL, start=0),
                FaultSpec(FaultKind.CACHE_GARBLE, start=0),
            ),
        )
        report = run_chaos(plan, refs=_REFS)
        resolutions = {o.kind: o.resolution for o in report.outcomes}
        assert resolutions["worker_kill"] in (
            "absorbed:retry", "skipped:pool_unavailable"
        )
        assert resolutions["cache_garble"] == "absorbed:quarantine"
        assert report.ok


class TestServicePlane:
    def test_sigkill_mid_batch_is_absorbed_by_resume(self):
        plan = FaultPlan(
            seed=2,
            specs=(FaultSpec(FaultKind.SERVICE_CRASH, start=2),),
        )
        report = run_chaos(plan, refs=_REFS)
        (outcome,) = report.outcomes
        assert outcome.resolution == "absorbed:resume"
        assert outcome.plane == "service"
        assert report.ok

    def test_poison_storm_is_quarantined(self):
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(FaultKind.POISON_STORM, start=0, count=2, every=1),
            ),
        )
        report = run_chaos(plan, refs=_REFS)
        (outcome,) = report.outcomes
        assert outcome.resolution in (
            "absorbed:quarantine", "skipped:pool_unavailable"
        )
        if outcome.resolution == "absorbed:quarantine":
            assert outcome.applied == 2
        assert report.ok

    def test_gc_reader_race_resolves_to_a_clean_miss(self):
        plan = FaultPlan(
            seed=4,
            specs=(FaultSpec(FaultKind.GC_READER_RACE, start=0),),
        )
        report = run_chaos(plan, refs=_REFS)
        (outcome,) = report.outcomes
        assert outcome.resolution == "absorbed:miss"
        assert report.ok


class TestFullDefaultPlan:
    @pytest.mark.slow
    def test_default_plan_has_no_silent_faults(self):
        report = run_chaos(default_plan(), refs=24_000)
        assert report.ok, report.render()
        exercised = {o.kind for o in report.outcomes}
        assert exercised == {kind.value for kind in FaultKind}
        # the JSON report ``repro chaos run --report-out`` writes
        payload = json.loads(report.dumps())
        assert payload["ok"], "silent fault(s) in the chaos report"
        silent = [o for o in payload["outcomes"] if o["silent"]]
        assert not silent, silent
        assert {o["kind"] for o in payload["outcomes"]} == {
            "ecc_single", "ecc_double", "dma_trap_clear",
            "spurious_trap", "trap_clear_drop",
            "worker_kill", "worker_hang", "cache_garble",
            "service_crash", "poison_storm", "gc_reader_race",
        }
        assert payload["audit_checks"] > 0, "auditor never ran"


class TestReport:
    def test_report_serializes_and_renders(self):
        report = ChaosReport(
            workload="mpeg_play", refs=1, seed=0, plan={"seed": 0},
            outcomes=[
                FaultOutcome("ecc_single", "machine", "absorbed:scrub"),
                FaultOutcome("worker_kill", "infra", "SILENT", detail="bad"),
            ],
        )
        assert not report.ok
        assert [o.kind for o in report.silent_faults] == ["worker_kill"]
        payload = json.loads(report.dumps())
        assert payload["ok"] is False
        assert payload["outcomes"][1]["silent"] is True
        rendered = report.render()
        assert "VIOLATED" in rendered
        assert "worker_kill" in rendered

    def test_clean_report_renders_ok(self):
        report = ChaosReport(
            workload="mpeg_play", refs=1, seed=0, plan={"seed": 0},
            outcomes=[
                FaultOutcome("ecc_single", "machine", "detected:auditor"),
            ],
        )
        assert report.ok
        assert "contract  : OK" in report.render()
