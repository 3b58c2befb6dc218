"""The kernel pass pipeline: requests, capabilities, registry, ledger.

The pipeline's contract has three parts.  *Selection*: every request is
routed to exactly one kernel path, with machine-readable reasons when
the general path wins.  *Caching*: the registry compiles a given
request once per process and serves every later construction from a
dict probe, with counters and delta-published metrics that stay
per-run.  *Persistence*: when a ledger is attached, each compile
appends one crash-consistent JSONL record that ``repro kernels
stats|clear`` reads back in any process.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro._types import Indexing
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.pipeline import (
    KERNEL_CODE_VERSION,
    KernelRegistry,
    PIPELINE_PASSES,
    analyze,
    cache_request,
    clear_ledger,
    compile_kernel,
    fingerprint_request,
    read_ledger,
    run_pipeline,
    scan_request,
    sweep_request,
    tlb_request,
)
from repro.caches.replacement import make_policy
from repro.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry

CFG = CacheConfig(size_bytes=1024, line_bytes=16, associativity=2)
DM = CacheConfig(size_bytes=1024, line_bytes=16)


# ---------------------------------------------------------------------------
# capability analysis
# ---------------------------------------------------------------------------

class TestCapabilities:
    def test_direct_mapped_selects_dm(self):
        report = analyze(cache_request(DM))
        assert report.selected == "dm" and not report.general

    @pytest.mark.parametrize("policy", ("lru", "fifo"))
    def test_groupable_policies_select_grouped(self, policy):
        report = analyze(cache_request(CFG, make_policy(policy)))
        assert report.selected == "grouped"

    def test_random_policy_selects_general_with_reason(self):
        report = analyze(cache_request(CFG, make_policy("random")))
        assert report.selected == "general"
        assert report.reasons == ("policy:random",)

    def test_forced_general_records_both_reasons(self):
        report = analyze(
            cache_request(CFG, make_policy("random"), force_general=True)
        )
        assert report.general
        assert "forced:request" in report.reasons
        assert "policy:random" in report.reasons

    def test_tlb_routes_mirror_cache_routes(self):
        config = TLBConfig(n_entries=16)
        assert analyze(tlb_request(config)).selected == "tlb_grouped"
        assert (
            analyze(tlb_request(config, make_policy("random"))).selected
            == "tlb_general"
        )

    def test_scan_and_sweep_have_single_paths(self):
        assert analyze(sweep_request((DM,))).selected == "grid"
        assert (
            analyze(scan_request(True, False, False, 4)).selected == "scan"
        )


# ---------------------------------------------------------------------------
# requests and fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_equal_requests_share_a_fingerprint(self):
        a = cache_request(CacheConfig(size_bytes=1024, line_bytes=16))
        b = cache_request(CacheConfig(size_bytes=1024, line_bytes=16))
        assert a == b
        assert fingerprint_request(a) == fingerprint_request(b)

    def test_every_knob_perturbs_the_fingerprint(self):
        base = cache_request(CFG)
        variants = [
            cache_request(CacheConfig(size_bytes=2048, line_bytes=16,
                                      associativity=2)),
            cache_request(CacheConfig(size_bytes=1024, line_bytes=16,
                                      associativity=2,
                                      indexing=Indexing.VIRTUAL)),
            cache_request(CFG, make_policy("fifo")),
            cache_request(CFG, force_general=True),
            cache_request(CFG, profile=True),
        ]
        prints = {fingerprint_request(r) for r in [base, *variants]}
        assert len(prints) == len(variants) + 1

    def test_fingerprint_is_salted_with_the_code_version(self):
        # the salt is baked into the hash: same request, same print,
        # and the version constant is pinned so a bump is a loud diff
        assert KERNEL_CODE_VERSION == "repro-kernels-pipeline-v2"

    def test_dm_sweep_rejects_associative_members(self):
        with pytest.raises(ConfigError):
            run_pipeline(sweep_request((CFG,)))

    def test_grid_rejects_non_lru_policies(self):
        from repro.caches.config import GridConfig
        from repro.caches.pipeline import grid_request

        grid = GridConfig((16, 32), (1, 2))
        with pytest.raises(ConfigError):
            run_pipeline(grid_request(grid, make_policy("fifo")))
        with pytest.raises(ConfigError):
            run_pipeline(grid_request(grid, make_policy("random")))
        assert run_pipeline(grid_request(grid)).extract is not None

    def test_unknown_policy_is_rejected_at_normalize(self):
        import dataclasses

        bad = dataclasses.replace(cache_request(CFG), policy="clairvoyant")
        with pytest.raises(ConfigError):
            run_pipeline(bad)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_compile_once_then_dict_probe(self):
        registry = KernelRegistry()
        request = cache_request(CFG)
        first = registry.get(request)
        second = registry.get(cache_request(CFG))
        assert first is second
        assert registry.compiles == 1
        assert registry.hits == 1 and registry.misses == 1
        assert len(registry) == 1

    def test_distinct_requests_compile_distinct_programs(self):
        registry = KernelRegistry()
        registry.get(cache_request(CFG))
        registry.get(cache_request(DM))
        registry.get(tlb_request(TLBConfig(n_entries=8)))
        assert registry.compiles == 3 and len(registry) == 3

    def test_counters_view(self):
        registry = KernelRegistry()
        registry.get(cache_request(CFG))
        registry.get(cache_request(CFG))
        counters = registry.counters()
        assert counters["programs"] == 1
        assert counters["compiles"] == 1
        assert counters["lookup_hits"] == 1
        assert counters["lookup_misses"] == 1
        assert counters["compile_secs"] >= 0.0

    def test_pass_timings_cover_the_whole_pipeline(self):
        registry = KernelRegistry()
        program = registry.get(cache_request(CFG))
        assert set(program.pass_secs) == {p.name for p in PIPELINE_PASSES}

    def test_publish_metrics_is_delta_based(self):
        registry = KernelRegistry()
        registry.get(cache_request(CFG))
        registry.get(cache_request(CFG))

        first = MetricsRegistry()
        registry.publish_metrics(first)
        snapshot = first.snapshot()
        assert snapshot["kernels.pipeline.compiles"] == 1
        assert snapshot["kernels.pipeline.lookups{hit=true}"] == 1
        assert snapshot["kernels.pipeline.lookups{hit=false}"] == 1

        # nothing new happened: a second session sees nothing
        second = MetricsRegistry()
        registry.publish_metrics(second)
        assert len(second) == 0

        # one more hit: only the delta shows up
        registry.get(cache_request(CFG))
        third = MetricsRegistry()
        registry.publish_metrics(third)
        assert third.snapshot() == {"kernels.pipeline.lookups{hit=true}": 1}

    def test_publish_metrics_includes_per_pass_histograms(self):
        registry = KernelRegistry()
        registry.get(cache_request(CFG))
        metrics = MetricsRegistry()
        registry.publish_metrics(metrics)
        key = "kernels.pipeline.compose_secs{pass_name=compose}"
        assert key in metrics
        from repro.telemetry.profile import PROFILE_BUCKET_SECS

        assert metrics.histogram(
            "kernels.pipeline.compose_secs",
            bounds=PROFILE_BUCKET_SECS,
            pass_name="compose",
        ).count == 1

    def test_clear_drops_programs_but_keeps_history(self):
        registry = KernelRegistry()
        registry.get(cache_request(CFG))
        assert registry.clear() == 1
        assert len(registry) == 0
        assert registry.compiles == 1  # lifetime counter survives


# ---------------------------------------------------------------------------
# the compile ledger
# ---------------------------------------------------------------------------

class TestLedger:
    def test_attached_ledger_records_each_compile(self, tmp_path):
        registry = KernelRegistry()
        registry.attach_ledger(tmp_path)
        program = registry.get(cache_request(CFG))
        registry.get(cache_request(CFG))  # hit: no new record
        records = read_ledger(tmp_path)
        assert len(records) == 1
        (record,) = records
        assert record["fingerprint"] == program.fingerprint
        assert record["kind"] == "cache"
        assert record["selected"] == "grouped"
        assert record["policy"] == "lru"

    def test_unattached_registry_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        registry = KernelRegistry()
        registry.get(cache_request(CFG))
        assert list(tmp_path.iterdir()) == []

    def test_read_ledger_skips_torn_tail(self, tmp_path):
        registry = KernelRegistry()
        registry.attach_ledger(tmp_path)
        registry.get(cache_request(CFG))
        with open(registry.ledger_path, "a") as handle:
            handle.write('{"kind": "cach')  # a torn write
        assert len(read_ledger(tmp_path)) == 1

    def test_clear_ledger_reports_and_removes(self, tmp_path):
        registry = KernelRegistry()
        registry.attach_ledger(tmp_path)
        registry.get(cache_request(CFG))
        registry.get(cache_request(DM))
        assert clear_ledger(tmp_path) == 2
        assert read_ledger(tmp_path) == []
        assert clear_ledger(tmp_path) == 0


# ---------------------------------------------------------------------------
# compiled programs behave like kernels
# ---------------------------------------------------------------------------

class TestPrograms:
    def test_cache_program_runs_standalone(self):
        program = compile_kernel(cache_request(DM), KernelRegistry())
        state = program.make_state(make_policy("lru"))
        addrs = np.asarray([0x00, 0x40, 0x00, 0x40], dtype=np.int64)
        assert program.run(state, addrs, 0) == 2
        assert program.occupancy(state) == 2

    def test_scan_program_with_no_mechanisms_is_a_no_op(self):
        program = compile_kernel(
            scan_request(False, False, False, 4), KernelRegistry()
        )
        assert program.collect is None

    def test_scan_program_flags_match_the_request(self):
        program = compile_kernel(
            scan_request(True, True, False, 4), KernelRegistry()
        )
        assert program.use_ecc and program.use_pages
        assert not program.use_breakpoints
        granules = program.granules_of(
            np.asarray([0x10, 0x20], dtype=np.int64)
        )
        assert granules.tolist() == [1, 2]


# ---------------------------------------------------------------------------
# the CLI round-trip
# ---------------------------------------------------------------------------

class TestCLI:
    def test_kernels_stats_json_reads_the_ledger(self, tmp_path, capsys):
        from repro.cli import main

        registry = KernelRegistry()
        registry.attach_ledger(tmp_path / "ledger")
        registry.get(cache_request(CFG))
        registry.get(cache_request(CFG, force_general=True))
        code = main(
            ["kernels", "stats", "--ledger-dir", str(tmp_path / "ledger"),
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger_compiles"] == 2
        assert payload["per_kind"] == {"cache": 2}
        assert payload["per_path"] == {"grouped": 1, "general": 1}
        assert payload["forced_general"] == 1

    def test_kernels_clear_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        registry = KernelRegistry()
        registry.attach_ledger(tmp_path / "ledger")
        registry.get(cache_request(CFG))
        assert main(
            ["kernels", "clear", "--ledger-dir", str(tmp_path / "ledger")]
        ) == 0
        assert "dropped 1 compile record(s)" in capsys.readouterr().out
        assert read_ledger(tmp_path / "ledger") == []
