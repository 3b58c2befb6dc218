"""The command-line interface."""

import json

import pytest

from repro.cli import _parse_size, build_parser, main
from repro.telemetry import (
    DEFAULT_MANIFEST_PATH,
    read_manifests,
    validate_record,
)


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Commands write their manifest log (and farm cache) relative to
    the cwd; keep test runs out of the repository checkout."""
    monkeypatch.chdir(tmp_path)


class TestParsing:
    def test_sizes(self):
        assert _parse_size("4096") == 4096
        assert _parse_size("4K") == 4096
        assert _parse_size("1M") == 1024 * 1024
        assert _parse_size("16k") == 16384

    def test_bad_size(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size("lots")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_workloads_lists_all_eight(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("xlisp", "sdet", "kenbus", "mpeg_play"):
            assert name in out

    def test_run_cache(self, capsys):
        code = main(
            [
                "run", "--workload", "espresso", "--cache-size", "2K",
                "--refs", "30000", "--simulate", "user",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "2K 1-way" in out

    def test_run_tlb(self, capsys):
        code = main(
            [
                "run", "--workload", "xlisp", "--structure", "tlb",
                "--tlb-entries", "32", "--refs", "30000",
            ]
        )
        assert code == 0
        assert "32-entry" in capsys.readouterr().out

    def test_run_sampling(self, capsys):
        code = main(
            [
                "run", "--workload", "espresso", "--sampling", "8",
                "--refs", "30000",
            ]
        )
        assert code == 0
        assert "estimated" in capsys.readouterr().out

    def test_trace(self, capsys):
        code = main(
            ["trace", "--workload", "mpeg_play", "--refs", "30000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out

    def test_reproduce_static(self, capsys):
        assert main(["reproduce", "table12"]) == 0
        assert "PowerPC" in capsys.readouterr().out

    def test_reproduce_dynamic_smoke(self, capsys):
        assert main(["reproduce", "table5", "--budget", "smoke"]) == 0
        assert "246" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert main(["profile", "espresso", "--refs", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Footprint" in out
        assert "espresso" in out and "bsd_server" in out

    def test_assess_port(self, capsys):
        assert main(["assess-port", "MIPS R3000"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_assess_port_unknown(self, capsys):
        assert main(["assess-port", "Z80"]) == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "figure99"])


class TestSweepCommand:
    SWEEP = [
        "sweep", "grid", "--workload", "espresso", "--refs", "20000",
        "--sets", "32,64", "--ways", "1,2",
    ]

    def test_grid_table(self, capsys):
        assert main(self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "sets" in out and "ways" in out
        assert "passes" in out

    #: (extra argv, set counts, ways, refs): this class's grid, and the
    #: perf-smoke CI grid whose JSON CI keeps as an artifact
    GRIDS = [
        (["--refs", "20000", "--sets", "32,64", "--ways", "1,2"],
         (32, 64), (1, 2), 20000),
        (["--budget", "tiny", "--sets", "64,128", "--ways", "1,4",
          "--no-manifest"],
         (64, 128), (1, 4), None),
    ]

    def test_grid_json_matches_per_config_runs(self, capsys):
        from repro.caches.config import GridConfig
        from repro.experiments import budget_refs
        from repro.tracing.cache2000 import Cache2000
        from repro.tracing.pixie import PixieTracer
        from repro.workloads import get_workload

        for argv, sets, ways, refs in self.GRIDS:
            assert main(
                ["sweep", "grid", "--workload", "espresso", *argv, "--json"]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert set(payload["miss_counts"]) == {
                f"{n_sets}x{a}" for n_sets in sets for a in ways
            }
            assert set(payload["stack_distance_hist"]) == {
                str(n_sets) for n_sets in sets
            }
            for hist in payload["stack_distance_hist"].values():
                assert (
                    sum(hist["counts"]) + hist["overflow"] + hist["cold"]
                    == payload["refs"]
                )

            # bit-equality: every cell re-simulated per-config
            grid = GridConfig(sets, ways)
            for n_sets in sets:
                for a in ways:
                    reference = Cache2000(grid.config_for(n_sets, a))
                    tracer = PixieTracer(get_workload("espresso"))
                    for chunk in tracer.trace_chunks(
                        refs or budget_refs("tiny")
                    ):
                        reference.simulate_chunk(
                            chunk.addresses, tid=chunk.tid
                        )
                    assert (
                        payload["miss_counts"][f"{n_sets}x{a}"]
                        == reference.stats.total_misses
                    ), (argv, n_sets, a)

    def test_grid_writes_schema_valid_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifests.jsonl"
        assert main(
            self.SWEEP + ["--manifest-out", str(manifest_path)]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ]
        (record,) = records
        assert validate_record(record) == []
        assert record["kind"] == "sweep"
        assert record["name"] == "grid"
        assert "stack_distance_hist" in record["results"]
        assert len(record["results"]["rows"]) == 4

    def test_grid_bad_axis_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "grid", "--sets", "64,banana"])


class TestTelemetryOutputs:
    RUN = [
        "run", "--workload", "espresso", "--cache-size", "2K",
        "--refs", "20000", "--simulate", "user",
    ]

    def test_run_writes_trace_metrics_and_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "out" / "trace.json"
        metrics_path = tmp_path / "out" / "metrics.json"
        manifest_path = tmp_path / "out" / "manifests.jsonl"
        code = main(
            self.RUN
            + [
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        assert "slowdown" in capsys.readouterr().out

        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "i"}
        assert trace["otherData"]["dropped"] == 0

        metrics = json.loads(metrics_path.read_text())
        assert any(key.startswith("tapeworm.") for key in metrics)
        assert any(key.startswith("machine.cpu.refs") for key in metrics)

        (line,) = manifest_path.read_text().splitlines()
        record = json.loads(line)
        assert validate_record(record) == []
        assert record["kind"] == "run"
        assert record["name"] == "espresso"
        assert record["results"]["misses"] > 0

    def test_run_default_manifest_location(self, tmp_path):
        assert main(self.RUN) == 0
        log = tmp_path / ".farm-cache" / "manifests.jsonl"
        assert log.exists()
        (record,) = [json.loads(l) for l in log.read_text().splitlines()]
        assert validate_record(record) == []

    def test_no_manifest_suppresses_record(self, tmp_path):
        assert main(self.RUN + ["--no-manifest"]) == 0
        assert not (tmp_path / ".farm-cache" / "manifests.jsonl").exists()

    def test_metrics_out_stdout(self, capsys):
        assert main(self.RUN + ["--metrics-out", "-", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        metrics = json.loads(payload)
        assert "tapeworm.overhead_cycles" in metrics

    def test_trace_capacity_bounds_the_ring(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(
            self.RUN
            + [
                "--trace-out", str(trace_path),
                "--trace-capacity", "8",
                "--no-manifest",
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["otherData"]["capacity"] == 8
        assert trace["otherData"]["dropped"] > 0
        real = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert len(real) == 8

    def test_reproduce_table7_exports_artifacts(self, tmp_path, capsys):
        """The acceptance path: a Table 7 run exports a Chrome trace and
        a schema-valid JSONL manifest."""
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        manifest_path = tmp_path / "manifests.jsonl"
        code = main(
            [
                "reproduce", "table7", "--budget", "tiny",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        assert "Table 7" in capsys.readouterr().out

        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"], "empty trace"
        assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "i"}
        assert any(e.get("cat") == "trap" for e in trace["traceEvents"])
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "simulated machine" in names

        metrics = json.loads(metrics_path.read_text())
        assert any(key.startswith("tapeworm.") for key in metrics)
        assert any(key.startswith("tapeworm.traps") for key in metrics)

        (record,) = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ]
        assert validate_record(record) == []
        assert record["kind"] == "experiment"
        assert record["name"] == "table7"
        assert record["results"]["budget"] == "tiny"

    def test_manifest_out_stdout(self, capsys):
        assert main(self.RUN + ["--manifest-out", "-"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("{")][-1]
        assert validate_record(json.loads(line)) == []


class TestTelemetryCommand:
    def _seed_log(self):
        assert main(
            [
                "run", "--workload", "espresso", "--cache-size", "2K",
                "--refs", "20000", "--simulate", "user",
            ]
        ) == 0

    def test_manifests_table(self, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "manifests"]) == 0
        out = capsys.readouterr().out
        assert "Run manifests" in out
        assert "espresso" in out

    def test_manifests_json(self, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "manifests", "--json"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert validate_record(json.loads(line)) == []

    def test_manifests_empty_log(self, capsys):
        assert main(["telemetry", "manifests"]) == 0
        assert "no manifest records" in capsys.readouterr().out

    def test_manifests_last_n(self, capsys):
        for _ in range(3):
            self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "manifests", "--json", "--last", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_validate_clean_log(self, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "validate"]) == 0
        assert "1 valid, 0 invalid" in capsys.readouterr().out

    def test_validate_flags_bad_records(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"kind": "run"}\n')
        code = main(["telemetry", "validate", "--manifest-path", str(log)])
        assert code == 1
        captured = capsys.readouterr()
        assert "0 valid, 1 invalid" in captured.out
        assert "missing field" in captured.err

    def test_clear(self, tmp_path, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "clear"]) == 0
        assert "dropped 1 manifest record(s)" in capsys.readouterr().out
        assert not (tmp_path / ".farm-cache" / "manifests.jsonl").exists()
        assert main(["telemetry", "clear"]) == 0  # idempotent


class TestChaosCommands:
    def test_chaos_plan_prints_the_default_plan(self, capsys):
        assert main(["chaos", "plan"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = {entry["kind"] for entry in payload["faults"]}
        assert "ecc_double" in kinds
        assert "worker_kill" in kinds

    def test_chaos_run_enforces_the_contract(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 7,
            "audit_every": 1,
            "faults": [
                {"kind": "dma_trap_clear", "start": 1},
                {"kind": "cache_garble", "start": 0},
            ],
        }))
        report_path = tmp_path / "report.json"
        code = main([
            "chaos", "run", "--plan", str(plan_path),
            "--refs", "12000", "--report-out", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "contract  : OK" in out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        resolutions = {
            o["kind"]: o["resolution"] for o in report["outcomes"]
        }
        assert resolutions["dma_trap_clear"] == "detected:auditor"
        assert resolutions["cache_garble"] == "absorbed:quarantine"

    def test_run_accepts_a_fault_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 7,
            "audit_every": 1,
            "faults": [{"kind": "spurious_trap", "start": 1}],
        }))
        code = main([
            "run", "--workload", "espresso", "--cache-size", "2K",
            "--refs", "20000", "--simulate", "user",
            "--fault-plan", str(plan_path), "--no-manifest",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "unexpected_trap" in out

    def test_bad_fault_plan_is_a_clean_error(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"faults": [{"kind": "gamma_ray"}]}')
        code = main([
            "run", "--refs", "1000", "--fault-plan", str(plan_path),
            "--no-manifest",
        ])
        assert code == 1
        assert "unknown fault kind" in capsys.readouterr().err


class TestObservabilityCommands:
    """The PR 7 surfaces: farm stats --json, trace merge, telemetry
    top, --profile, and the merged distributed trace."""

    RUN = [
        "run", "--workload", "espresso", "--cache-size", "2K",
        "--refs", "20000", "--simulate", "user",
    ]

    def test_farm_stats_json_on_empty_cache(self, capsys):
        assert main(["farm", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored_results"] == 0
        assert payload["per_measure"] == {}
        for key in ("runs", "jobs", "cache_hits", "executed"):
            assert key in payload

    def test_farm_stats_json_counts_stored_results(self, capsys):
        assert main(
            [
                "reproduce", "table7", "--budget", "tiny", "--jobs", "2",
                "--no-manifest",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["farm", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored_results"] > 0
        assert "table7.measure" in payload["per_measure"]

    def test_profile_flag_emits_profile_series(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            self.RUN + ["--profile", "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        assert any(key.startswith("profile.") for key in snapshot)

    def test_no_profile_flag_emits_no_profile_series(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert not any(key.startswith("profile.") for key in snapshot)

    def test_trace_out_carries_span_metadata(self, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(self.RUN + ["--trace-out", str(trace_path)]) == 0
        other = json.loads(trace_path.read_text())["otherData"]
        for key in ("run_id", "spans", "spans_dropped", "worker_lanes"):
            assert key in other

    def test_trace_merge_remaps_pids(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.RUN + ["--trace-out", str(first)]) == 0
        assert main(self.RUN + ["--trace-out", str(second)]) == 0
        merged_path = tmp_path / "merged.json"
        capsys.readouterr()
        code = main(
            ["trace", "merge", str(first), str(second),
             "--out", str(merged_path)]
        )
        assert code == 0
        merged = json.loads(merged_path.read_text())
        assert merged["otherData"]["inputs"] == 2
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert any(pid >= 100 for pid in pids)  # input 1's block
        assert len(merged["otherData"]["merged"]) == 2

    def test_trace_merge_to_stdout(self, tmp_path, capsys):
        trace_path = tmp_path / "a.json"
        assert main(self.RUN + ["--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "merge", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["otherData"]["inputs"] == 1

    def test_trace_merge_missing_input_exits_two(self, capsys):
        assert main(["trace", "merge", "no-such-trace.json"]) == 2
        assert "no-such-trace.json" in capsys.readouterr().err

    def test_trace_without_subcommand_still_runs_a_trace(self, capsys):
        assert main(["trace", "--workload", "espresso", "--refs", "20000"]) == 0
        assert "miss ratio" in capsys.readouterr().out

    def test_telemetry_top_from_metrics_file(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "top", "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "Top metric series" in out
        assert "machine.cpu.refs" in out

    def test_telemetry_top_prefix_and_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        code = main(
            ["telemetry", "top", "--metrics", str(metrics_path),
             "--prefix", "machine.", "--json", "-n", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert len(payload) <= 3
        assert all(key.startswith("machine.") for key in payload)

    def test_telemetry_top_from_latest_manifest(self, capsys):
        assert main(self.RUN) == 0
        capsys.readouterr()
        assert main(["telemetry", "top"]) == 0
        assert "Top metric series" in capsys.readouterr().out

    def test_telemetry_top_missing_snapshot_exits_two(self, capsys):
        assert main(["telemetry", "top", "--metrics", "nope.json"]) == 2

    def test_distributed_run_merges_worker_lanes(self, tmp_path, capsys):
        """The PR acceptance path: a farmed, profiled reproduction
        exports ONE Chrome trace holding the master's lanes plus one
        lane per worker, and the master's metrics hold the workers'."""
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "reproduce", "table7", "--budget", "tiny", "--jobs", "2",
                "--profile", "--no-manifest",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0, capsys.readouterr().err
        trace = json.loads(trace_path.read_text())
        other = trace["otherData"]
        assert other["worker_lanes"] >= 2
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        worker_jobs = [
            e for e in events
            if e.get("name") == "worker.job" and e.get("ph") == "X"
        ]
        assert worker_jobs
        for event in worker_jobs:
            assert event["args"]["run_id"] == other["run_id"]
            assert event["args"]["job_key"], "span lost its job key"
        assert any(e.get("name") == "farm.batch" for e in events)
        metrics = json.loads(metrics_path.read_text())
        assert any(k.startswith("farm.worker.") for k in metrics)
        assert any(
            k.startswith(("profile.", "farm.worker.profile."))
            for k in metrics
        )
        assert metrics["farm.telemetry.envelopes"] > 0


class TestSampleCommands:
    """``sample profile|plan|stats``, in text and ``--json``."""

    GEOMETRY = [
        "--workload", "espresso", "--refs", "20000",
        "--interval-refs", "2000", "--no-stream-cache",
    ]

    def test_profile_text(self, capsys):
        assert main(["sample", "profile", *self.GEOMETRY]) == 0
        out = capsys.readouterr().out
        assert "espresso: 10 intervals of 2,000 refs" in out
        assert "Interval" in out

    def test_profile_json(self, capsys):
        assert main(["sample", "profile", *self.GEOMETRY, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "espresso"
        assert payload["total_refs"] == 20000
        assert payload["interval_refs"] == 2000
        assert payload["n_intervals"] == len(payload["features"]) == 10

    def test_plan_text(self, capsys):
        code = main([
            "sample", "plan", *self.GEOMETRY, "--max-phases", "2",
            "--per-phase", "2", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "intervals selected" in out
        assert "Phase size" in out

    def test_plan_json_and_out(self, tmp_path, capsys):
        out_path = tmp_path / "plan.json"
        code = main([
            "sample", "plan", *self.GEOMETRY, "--json",
            "--out", str(out_path),
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out_path.read_text()) == printed
        assert printed["samples"]

    def test_plan_out_to_stdout_prints_once(self, capsys):
        code = main([
            "sample", "plan", *self.GEOMETRY, "--json", "--out", "-",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["samples"]

    def test_stats_without_sampled_runs(self, capsys):
        assert main(["sample", "stats"]) == 0
        assert "no sampled-run estimates" in capsys.readouterr().out
        assert main(["sample", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_sampled_run_records_labelled_estimates(self, capsys):
        assert main([
            "reproduce", "table7", "--budget", "tiny",
            "--sample-mode", "sampled", "--no-stream-cache",
        ]) == 0
        capsys.readouterr()
        records = read_manifests(DEFAULT_MANIFEST_PATH)
        assert records, "empty manifest log"
        sampled = [r for r in records if r.get("estimates")]
        assert sampled, "no record carries an estimates block"
        for record in sampled:
            assert validate_record(record) == []
            for name, entry in record["estimates"].items():
                assert entry["exact"] is False, f"{name} claims exactness"
                assert entry["ci_low"] <= entry["value"] <= entry["ci_high"]
        assert main(["sample", "stats"]) == 0
        out = capsys.readouterr().out
        assert "Sampled-run estimates" in out and "table7" in out
        assert main(["sample", "stats", "--json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["name"] == "table7"
        assert record["estimates"]


class TestServiceCommands:
    """``jobs retry`` and ``serve --params`` validation."""

    def test_jobs_retry_reruns_a_failed_job(self, tmp_path, capsys):
        from repro.farm import JobJournal
        from repro.farm.jobs import Job

        journal = JobJournal(tmp_path / "cache")
        job = Job(measure="chaos.probe", params={"scale": 1.0}, seed=2)
        key = job.key()
        journal.queue([(job, key)], batch="b", client="c")
        journal.fail(key, journal.lease(key), {"code": "test"})
        argv = ["jobs", "retry", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "retry         : 1 requeued" in out
        assert "1 re-executed" in out
        assert JobJournal(tmp_path / "cache").get(key).state == "done"
        assert main([*argv, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requeued"] == 0

    @pytest.mark.parametrize(
        "params, message",
        [("{not json", "not valid JSON"), ("[1, 2]", "must be a JSON object")],
    )
    def test_serve_rejects_bad_params(self, params, message, capsys):
        assert main(["serve", "--seeds", "1", "--params", params]) == 2
        assert message in capsys.readouterr().err


def _exit_code(argv) -> int:
    """``main``'s return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSessionScope:
    """A failed command must not leave a process-wide session active."""

    @staticmethod
    def _assert_no_session():
        from repro import streams, telemetry

        assert telemetry.active() is None
        assert streams.active() is None

    def test_failed_command_leaks_no_session(self, capsys):
        assert _exit_code(
            ["reproduce", "table12", "--jobs", "0", "--no-manifest"]
        ) != 0
        self._assert_no_session()
        assert main(["reproduce", "table12", "--no-manifest"]) == 0
        self._assert_no_session()

    def test_failure_inside_the_scope_closes_every_session(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import faults
        from repro.errors import ConfigError

        def fail(*args, **kwargs):
            assert faults.active() is not None
            raise ConfigError("injected failure")

        monkeypatch.setattr("repro.cli.run_trap_driven", fail)
        plan = tmp_path / "plan.json"
        assert main(["chaos", "plan"]) == 0
        plan.write_text(capsys.readouterr().out)
        assert main([
            "run", "--refs", "1000", "--fault-plan", str(plan), "--profile",
        ]) == 1
        assert "injected failure" in capsys.readouterr().err
        self._assert_no_session()
        assert faults.active() is None


@pytest.mark.parametrize(
    "argv",
    [
        ["jobs", "gc", "--cache-budget", "-5"],
        ["streams", "warm", "--refs", "-1"],
        ["serve", "--seeds", "-1"],
        ["sweep", "grid", "--jobs", "0"],
        ["trace", "--refs", "0"],
        ["trace", "--refs", "-3"],
    ],
)
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err
