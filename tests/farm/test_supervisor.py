"""Worker supervision: strikes, poison quarantine, flap, cool-down."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.farm import SupervisorConfig, WorkerSupervisor
from repro.farm.supervisor import (
    POISON_FILE,
    STRIKE_DEADLINE,
    STRIKE_WORKER_CRASH,
)
from repro.telemetry.registry import MetricsRegistry


class TestPoisoning:
    def test_strikes_in_one_generation_do_not_poison(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        assert (
            supervisor.record_strike("k", STRIKE_WORKER_CRASH, "died", 0)
            is None
        )
        # same pool generation again: could still be a flaky worker
        assert (
            supervisor.record_strike("k", STRIKE_WORKER_CRASH, "died", 0)
            is None
        )
        assert supervisor.poisoned == {}

    def test_two_distinct_generations_poison_the_job(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "died", 0)
        reason = supervisor.record_strike("k", STRIKE_DEADLINE, "hung", 1)
        assert reason is not None
        assert reason["code"] == "poisoned"
        assert reason["workers_killed"] == 2
        assert len(reason["strikes"]) == 2
        assert "2 distinct worker generations" in reason["verdict"]
        assert supervisor.poisoned["k"] is reason

    def test_strikes_are_attributed_per_job(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        supervisor.record_strike("a", STRIKE_WORKER_CRASH, "", 0)
        supervisor.record_strike("b", STRIKE_WORKER_CRASH, "", 1)
        assert supervisor.poisoned == {}
        assert len(supervisor.strikes_for("a")) == 1
        assert len(supervisor.strikes_for("b")) == 1

    def test_poison_is_ledgered_as_jsonl(self, tmp_path):
        supervisor = WorkerSupervisor(
            SupervisorConfig(poison_strikes=2), poison_dir=tmp_path
        )
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 0)
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 1)
        lines = (tmp_path / POISON_FILE).read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["code"] == "poisoned"
        assert record["job_key"] == "k"
        assert "ts" in record

    def test_poison_ledger_rotates_under_its_budget(self, tmp_path):
        supervisor = WorkerSupervisor(
            SupervisorConfig(poison_strikes=1, poison_ledger_bytes=400),
            poison_dir=tmp_path,
        )
        for i in range(8):
            supervisor.record_strike(f"job-{i}", STRIKE_WORKER_CRASH, "", i)
        ledger = tmp_path / POISON_FILE
        assert ledger.stat().st_size <= 800  # budget + one generation
        assert (tmp_path / f"{POISON_FILE}.1").exists()


class TestFlapAndCooldown:
    def test_flap_needs_consecutive_no_progress_rounds(self):
        supervisor = WorkerSupervisor(SupervisorConfig(flap_threshold=2))
        supervisor.record_round(progressed=False)
        assert not supervisor.flapping
        supervisor.record_round(progressed=False)
        assert supervisor.flapping

    def test_progress_resets_the_flap_count(self):
        supervisor = WorkerSupervisor(SupervisorConfig(flap_threshold=3))
        supervisor.record_round(progressed=False)
        supervisor.record_round(progressed=False)
        # a failed round that still retired jobs restarts the streak at 1
        supervisor.record_round(progressed=True)
        assert supervisor.consecutive_failures == 1
        supervisor.record_round(progressed=False)
        assert not supervisor.flapping
        supervisor.record_progress()
        assert supervisor.consecutive_failures == 0

    def test_cooldown_grows_exponentially_to_the_cap(self):
        config = SupervisorConfig(cooldown_base=0.1, cooldown_max=0.5)
        assert config.cooldown(1) == pytest.approx(0.1)
        assert config.cooldown(2) == pytest.approx(0.2)
        assert config.cooldown(3) == pytest.approx(0.4)
        assert config.cooldown(4) == pytest.approx(0.5)  # capped

    def test_zero_base_means_no_cooldown(self):
        supervisor = WorkerSupervisor(SupervisorConfig(cooldown_base=0.0))
        assert supervisor.record_round(progressed=False) == 0.0
        assert supervisor.cooldown_secs_total == 0.0


class TestHeartbeats:
    def test_envelopes_feed_liveness(self):
        supervisor = WorkerSupervisor()
        supervisor.observe_heartbeat({"worker_pid": 101})
        supervisor.observe_heartbeat({"worker_pid": 102})
        supervisor.observe_heartbeat({"worker_pid": 101})
        assert supervisor.heartbeats == 3
        assert supervisor.workers_seen == 2
        assert supervisor.stale_workers() == []

    def test_stale_workers_age_out(self):
        supervisor = WorkerSupervisor(
            SupervisorConfig(heartbeat_stale_secs=10.0)
        )
        supervisor.observe_heartbeat({"worker_pid": 7})
        import time

        assert supervisor.stale_workers(now=time.monotonic() + 11) == [7]

    def test_garbage_envelopes_are_ignored(self):
        supervisor = WorkerSupervisor()
        supervisor.observe_heartbeat(None)
        supervisor.observe_heartbeat({"no_pid": True})
        supervisor.observe_heartbeat({"worker_pid": "not-an-int"})
        assert supervisor.heartbeats == 0


class TestConfigAndReporting:
    def test_deadline_prefers_the_farm_timeout(self):
        supervisor = WorkerSupervisor(SupervisorConfig(deadline_secs=5.0))
        assert supervisor.effective_deadline(2.0) == 2.0
        assert supervisor.effective_deadline(None) == 5.0
        assert WorkerSupervisor().effective_deadline(None) is None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(poison_strikes=0)
        with pytest.raises(ConfigError):
            SupervisorConfig(flap_threshold=0)
        with pytest.raises(ConfigError):
            SupervisorConfig(cooldown_base=1.0, cooldown_max=0.5)
        with pytest.raises(ConfigError):
            SupervisorConfig(deadline_secs=0)

    def test_publish_and_summary(self):
        supervisor = WorkerSupervisor(SupervisorConfig(poison_strikes=2))
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 0)
        supervisor.record_strike("k", STRIKE_WORKER_CRASH, "", 1)
        supervisor.record_round(progressed=False)
        supervisor.observe_heartbeat({"worker_pid": 9})
        summary = supervisor.summary()
        assert summary["poisoned"] == 1
        assert summary["strikes"] == 2
        assert summary["restarts"] == 1
        registry = MetricsRegistry()
        supervisor.publish(registry)
        snap = registry.snapshot()
        assert snap["farm.supervisor.poisoned"] == 1
        assert snap["farm.supervisor.strikes"] == 2
        assert snap["farm.supervisor.restarts"] == 1
        assert snap["farm.supervisor.heartbeats"] == 1
        assert snap["farm.supervisor.workers_seen"] == 1
