"""Sampled trial runner: interval measurement, estimates, guard rails."""

import statistics

import pytest

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.session import enabled as faults_enabled
from repro.harness.runner import RunOptions
from repro.sampling import build_plan, profile_workload, run_sampled_trials
from repro.sampling.runner import interval_trial_seed, measure_interval
from repro.streams.session import enabled as streams_enabled
from repro.streams.session import StreamSession
from repro.streams.store import StreamStore
from repro.workloads.registry import get_workload

TOTAL_REFS = 81_920  # 10 intervals, so plans genuinely skip refs
INTERVAL_REFS = 8_192
SEED = 100


def _config(seed=SEED):
    return TapewormConfig(
        cache=CacheConfig(size_bytes=16 * 1024), sampling=8, sampling_seed=seed
    )


def _setup(workload="espresso"):
    spec = get_workload(workload)
    options = RunOptions(total_refs=TOTAL_REFS, trial_seed=SEED)
    profile = profile_workload(spec, TOTAL_REFS, INTERVAL_REFS)
    plan = build_plan(profile, max_phases=2, per_phase=2, seed=SEED)
    return spec, options, plan


class TestSeeds:
    def test_interval_seeds_never_collide_across_nearby_trials(self):
        seeds = {
            interval_trial_seed(trial, interval)
            for trial in range(64)
            for interval in range(64)
        }
        assert len(seeds) == 64 * 64


class TestMeasureInterval:
    def test_counters_are_interval_deltas(self):
        spec, options, plan = _setup()
        m = measure_interval(
            spec, _config(), options, plan, plan.samples[0].interval,
            trial_seed=SEED, warm_seed=SEED,
        )
        assert m["refs"] >= INTERVAL_REFS  # chunk boundaries overshoot
        assert m["refs"] < TOTAL_REFS
        assert m["misses"] >= 0 and m["traps"] >= 0
        assert m["phase"] == plan.labels[plan.samples[0].interval]

    def test_last_interval_owns_the_tail(self):
        spec, options, plan = _setup()
        last = plan.n_intervals - 1
        m = measure_interval(
            spec, _config(), options, plan, last,
            trial_seed=SEED, warm_seed=SEED,
        )
        # without a stream session the warm prefix is replayed fresh, so
        # warm_refs is the exact position measurement began at; the last
        # interval must carry the run through total_refs
        assert m["warm_refs"] + m["refs"] >= TOTAL_REFS

    def test_out_of_range_interval_rejected(self):
        spec, options, plan = _setup()
        with pytest.raises(ConfigError):
            measure_interval(
                spec, _config(), options, plan, plan.n_intervals,
                trial_seed=SEED,
            )

    def test_deterministic_given_seeds(self):
        spec, options, plan = _setup()
        interval = plan.samples[0].interval
        a = measure_interval(
            spec, _config(), options, plan, interval,
            trial_seed=SEED, warm_seed=SEED,
        )
        b = measure_interval(
            spec, _config(), options, plan, interval,
            trial_seed=SEED, warm_seed=SEED,
        )
        assert a == b


class TestRunSampledTrials:
    def test_produces_bracketing_estimates_and_reduction(self):
        spec, options, plan = _setup()
        result = run_sampled_trials(
            spec, _config(), options, plan,
            n_trials=3, base_seed=SEED, warm_seed=SEED,
        )
        assert set(result.estimates) >= {
            "misses", "misses.bootstrap", "traps", "overhead_cycles",
            "slowdown",
        }
        for estimate in result.estimates.values():
            assert not estimate.exact
            assert estimate.brackets(estimate.value)
        assert result.refs_simulated < result.exact_refs
        assert len(result.measurements) == 3 * len(plan.samples)
        manifest = result.estimates_manifest()
        assert manifest["misses"]["exact"] is False

    def test_ci_brackets_the_exhaustive_exact_value(self, tmp_path):
        """At tiny budget on the default interval geometry and plan, the
        misses estimate's CI covers the mean of exhaustively measuring
        every interval of the same trials."""
        from repro.experiments import budget_refs
        from repro.experiments.table7 import default_interval_refs

        n_trials = 3
        total_refs = budget_refs("tiny")
        spec = get_workload("espresso")
        config = _config()
        options = RunOptions(total_refs=total_refs, trial_seed=SEED)
        interval_refs = default_interval_refs(total_refs, options.chunk_refs)
        store = StreamStore(tmp_path / "streams")
        with streams_enabled(StreamSession(store=store)):
            profile = profile_workload(spec, total_refs, interval_refs)
            plan = build_plan(profile, seed=SEED)
            result = run_sampled_trials(
                spec, config, options, plan,
                n_trials=n_trials, base_seed=SEED, warm_seed=SEED,
            )
            exact = statistics.mean(
                sum(
                    measure_interval(
                        spec, config, options, plan, interval,
                        trial_seed=SEED + trial, warm_seed=SEED,
                    )["misses"]
                    for interval in range(plan.n_intervals)
                )
                for trial in range(n_trials)
            )
        estimate = result.estimates["misses"]
        assert estimate.brackets(exact), (
            f"exact {exact:.1f} outside "
            f"[{estimate.ci_low:.1f}, {estimate.ci_high:.1f}]"
        )
        assert result.refs_simulated < result.exact_refs

    def test_snapshots_amortize_warm_refs(self, tmp_path):
        spec, options, plan = _setup()
        with streams_enabled(
            StreamSession(store=StreamStore(tmp_path / "streams"))
        ):
            warmed = run_sampled_trials(
                spec, _config(), options, plan,
                n_trials=3, base_seed=SEED, warm_seed=SEED,
            )
        cold = run_sampled_trials(
            spec, _config(), options, plan,
            n_trials=3, base_seed=SEED, warm_seed=SEED,
        )
        # identical estimates either way; snapshots only cut warm cost
        assert warmed.estimates["misses"].value == pytest.approx(
            cold.estimates["misses"].value
        )
        assert warmed.warm_refs < cold.warm_refs

    def test_fault_session_is_an_error(self):
        spec, options, plan = _setup()
        with faults_enabled(FaultPlan()):
            with pytest.raises(ConfigError, match="fault-injection"):
                run_sampled_trials(
                    spec, _config(), options, plan, n_trials=1
                )

    def test_mismatched_plan_rejected(self):
        spec, options, plan = _setup()
        other = get_workload("xlisp")
        with pytest.raises(ConfigError, match="workload"):
            run_sampled_trials(other, _config(), options, plan, n_trials=1)
        short = RunOptions(total_refs=TOTAL_REFS // 2, trial_seed=SEED)
        with pytest.raises(ConfigError, match="refs"):
            run_sampled_trials(spec, _config(), short, plan, n_trials=1)
        with pytest.raises(ConfigError, match="n_trials"):
            run_sampled_trials(spec, _config(), options, plan, n_trials=0)
