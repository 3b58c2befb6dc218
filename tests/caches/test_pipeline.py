"""Kernel selection, the per-process memo and the composed programs.

The contract has two parts.  *Selection*: every request is routed to
exactly one kernel path, with machine-readable reasons when the general
path wins.  *Memoization*: a given request is composed once per process
and every later construction is served from a dict probe.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.caches.pipeline import (
    cache_request,
    compile_kernel,
    grid_request,
    reset_default_registry,
    run_pipeline,
    scan_request,
    select_kernel,
    sweep_request,
    tlb_request,
)
from repro.caches.replacement import make_policy
from repro.errors import ConfigError

CFG = CacheConfig(size_bytes=1024, line_bytes=16, associativity=2)
DM = CacheConfig(size_bytes=1024, line_bytes=16)


# ---------------------------------------------------------------------------
# kernel selection
# ---------------------------------------------------------------------------

#: (kind, associativity, policy, force_general) -> (selected, reasons)
SELECTION_TABLE = [
    ("cache", 1, "lru", False, "dm", ()),
    ("cache", 1, "fifo", False, "dm", ()),
    ("cache", 1, "random", False, "dm", ()),
    ("cache", 1, "lru", True, "general", ("forced:request",)),
    ("cache", 1, "random", True, "general",
     ("forced:request", "policy:random")),
    ("cache", 4, "lru", False, "grouped", ()),
    ("cache", 4, "fifo", False, "grouped", ()),
    ("cache", 4, "random", False, "general", ("policy:random",)),
    ("cache", 4, "fifo", True, "general", ("forced:request",)),
    ("cache", 4, "random", True, "general",
     ("forced:request", "policy:random")),
    ("tlb", 1, "lru", False, "tlb_grouped", ()),
    ("tlb", 4, "fifo", False, "tlb_grouped", ()),
    ("tlb", 1, "random", False, "tlb_general", ("policy:random",)),
    ("tlb", 4, "lru", True, "tlb_general", ("forced:request",)),
    ("tlb", 4, "random", True, "tlb_general",
     ("forced:request", "policy:random")),
]


@pytest.mark.parametrize(
    "kind,associativity,policy,force_general,selected,reasons",
    SELECTION_TABLE,
    ids=lambda value: str(value),
)
def test_selection_table(
    kind, associativity, policy, force_general, selected, reasons
):
    if kind == "cache":
        config = CacheConfig(
            size_bytes=1024, line_bytes=16, associativity=associativity
        )
        request = cache_request(
            config, make_policy(policy, seed=1), force_general=force_general
        )
    else:
        config = TLBConfig(n_entries=16, associativity=associativity)
        request = tlb_request(
            config, make_policy(policy, seed=1), force_general=force_general
        )
    report = select_kernel(request)
    assert report.selected == selected
    assert report.reasons == reasons
    assert report.general == (selected in ("general", "tlb_general"))
    program = compile_kernel(request)
    assert program.capabilities == report
    assert program.is_fast == (not report.general)


class TestCapabilities:
    def test_direct_mapped_selects_dm(self):
        report = select_kernel(cache_request(DM))
        assert report.selected == "dm" and not report.general

    @pytest.mark.parametrize("policy", ("lru", "fifo"))
    def test_groupable_policies_select_grouped(self, policy):
        report = select_kernel(cache_request(CFG, make_policy(policy)))
        assert report.selected == "grouped"

    def test_random_policy_selects_general_with_reason(self):
        report = select_kernel(cache_request(CFG, make_policy("random")))
        assert report.selected == "general"
        assert report.reasons == ("policy:random",)

    def test_forced_general_records_both_reasons(self):
        report = select_kernel(
            cache_request(CFG, make_policy("random"), force_general=True)
        )
        assert report.general
        assert "forced:request" in report.reasons
        assert "policy:random" in report.reasons

    def test_tlb_routes_mirror_cache_routes(self):
        config = TLBConfig(n_entries=16)
        assert select_kernel(tlb_request(config)).selected == "tlb_grouped"
        assert (
            select_kernel(tlb_request(config, make_policy("random"))).selected
            == "tlb_general"
        )

    def test_scan_and_sweep_have_single_paths(self):
        assert select_kernel(sweep_request((DM,))).selected == "grid"
        assert (
            select_kernel(scan_request(True, False, False, 4)).selected
            == "scan"
        )


class TestRequests:
    def test_dm_sweep_rejects_associative_members(self):
        with pytest.raises(ConfigError):
            run_pipeline(sweep_request((CFG,)))

    def test_grid_rejects_non_lru_policies(self):
        grid = GridConfig((16, 32), (1, 2))
        with pytest.raises(ConfigError):
            run_pipeline(grid_request(grid, make_policy("fifo")))
        with pytest.raises(ConfigError):
            run_pipeline(grid_request(grid, make_policy("random")))
        assert run_pipeline(grid_request(grid)).extract is not None

    def test_unknown_policy_is_rejected(self):
        bad = dataclasses.replace(cache_request(CFG), policy="clairvoyant")
        with pytest.raises(ConfigError):
            run_pipeline(bad)

    def test_unknown_kind_and_missing_geometry_are_rejected(self):
        with pytest.raises(ConfigError):
            select_kernel(dataclasses.replace(cache_request(CFG), kind="l3"))
        with pytest.raises(ConfigError):
            select_kernel(dataclasses.replace(cache_request(CFG), cache=None))


# ---------------------------------------------------------------------------
# the per-process memo
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_compile_once_then_dict_probe(self, monkeypatch):
        import repro.caches.pipeline.registry as registry

        reset_default_registry()
        composed = []
        real = registry.run_pipeline

        def counting(request):
            composed.append(request)
            return real(request)

        # the memo calls run_pipeline through its module global, so a
        # profiler wrapping that name counts every compose
        monkeypatch.setattr(registry, "run_pipeline", counting)
        first = compile_kernel(cache_request(CFG))
        second = compile_kernel(cache_request(CFG))
        assert first is second
        assert composed == [cache_request(CFG)]

    def test_distinct_requests_compile_distinct_programs(self):
        programs = {
            id(compile_kernel(request))
            for request in (
                cache_request(CFG),
                cache_request(DM),
                tlb_request(TLBConfig(n_entries=8)),
            )
        }
        assert len(programs) == 3

    def test_reset_drops_every_program(self):
        first = compile_kernel(cache_request(CFG))
        reset_default_registry()
        assert compile_kernel(cache_request(CFG)) is not first

    def test_profile_shim_only_when_requested(self):
        shim = "run_pipeline.<locals>.run"
        bare = run_pipeline(cache_request(CFG, profile=False))
        timed = run_pipeline(cache_request(CFG, profile=True))
        assert bare.run.__qualname__ != shim
        assert timed.run.__qualname__ == shim
        # the reference path is never shimmed
        general = run_pipeline(
            cache_request(CFG, force_general=True, profile=True)
        )
        assert general.run.__qualname__ != shim

    def test_composing_writes_nothing_to_the_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        reset_default_registry()
        compile_kernel(cache_request(CFG))
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# composed programs behave like kernels
# ---------------------------------------------------------------------------

class TestPrograms:
    def test_cache_program_runs_standalone(self):
        program = compile_kernel(cache_request(DM))
        state = program.make_state(make_policy("lru"))
        addrs = np.asarray([0x00, 0x40, 0x00, 0x40], dtype=np.int64)
        assert program.run(state, addrs, 0) == 2
        assert program.occupancy(state) == 2

    def test_scan_program_with_no_mechanisms_is_a_no_op(self):
        program = compile_kernel(scan_request(False, False, False, 4))
        assert program.collect is None

    def test_scan_program_flags_match_the_request(self):
        program = compile_kernel(scan_request(True, True, False, 4))
        assert program.use_ecc and program.use_pages
        assert not program.use_breakpoints
        granules = program.granules_of(
            np.asarray([0x10, 0x20], dtype=np.int64)
        )
        assert granules.tolist() == [1, 2]
        granule_rescan, vpn_rescan = program.bind_rescans(
            granules, np.asarray([3, 4], dtype=np.int64)
        )
        assert granule_rescan is not None and vpn_rescan is not None
