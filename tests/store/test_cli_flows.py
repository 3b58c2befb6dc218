"""The stores end to end through the CLI, as CI's smoke jobs drive them.

CI's ``stream store reuse`` and ``supervised farm service`` jobs run
these tests, so CI and the tier-1 suite check the same things:

- a warm stream store serves a Table 7 re-run (store hits) that the
  cold run had to compile (misses), with byte-identical output;
- a service SIGKILLed mid-batch resumes to a clean journal;
- ``repro jobs gc --cache-budget 1`` evicts from a farm-backed Table 7
  run's result cache, and the re-run's table is byte-identical.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.farm import JobJournal

SRC = str(Path(repro.__file__).resolve().parents[1])


def _repro(cwd: Path, *args: str, check: bool = True):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _table(output: str) -> str:
    """The rendered table, without the trailing ``farm (`` summary."""
    return output.split("\nfarm (")[0]


def test_stream_store_reuse(tmp_path):
    runs = {}
    for run in ("cold", "warm"):
        metrics = tmp_path / f"metrics-{run}.json"
        proc = _repro(
            tmp_path, "reproduce", "table7", "--budget", "tiny",
            "--stream-dir", "stream-cache", "--no-manifest",
            "--metrics-out", str(metrics),
        )
        runs[run] = (proc.stdout, json.loads(metrics.read_text()))
    assert runs["cold"][0] == runs["warm"][0]
    warm = runs["warm"][1]
    hits = sum(
        value for name, value in warm.items()
        if name.startswith("streams.hits") and "store" in name
    )
    assert hits > 0, f"warm run never hit the store: {warm}"
    cold = runs["cold"][1]
    compiled = cold.get("streams.misses", 0)
    assert compiled > 0, f"cold run compiled nothing: {cold}"


def test_killed_service_resumes_to_a_clean_journal(tmp_path):
    sentinel = tmp_path / "kill-sentinel"
    sentinel.touch()
    serve = (
        "serve", "--seeds", "6", "--jobs", "1", "--cache-dir", "service-cache",
        "--measure", "chaos.kill_probe",
        "--params", json.dumps({"sentinel": str(sentinel), "kill_seed": 3}),
    )
    killed = _repro(tmp_path, *serve, check=False)
    assert killed.returncode == -signal.SIGKILL
    listed = _repro(tmp_path, "jobs", "list", "--cache-dir", "service-cache")
    assert "leased" in listed.stdout
    sentinel.unlink()

    _repro(tmp_path, *serve, "--resume")
    counts = JobJournal(tmp_path / "service-cache").counts()
    assert counts["queued"] == counts["leased"] == 0, counts
    assert counts["done"] == 6, counts


def test_gc_under_a_tiny_budget_keeps_tables_identical(tmp_path):
    table7 = ("reproduce", "table7", "--budget", "tiny", "--jobs", "2",
              "--no-manifest")
    before = _repro(tmp_path, *table7).stdout
    gc = _repro(tmp_path, "jobs", "gc", "--cache-budget", "1", "--json")
    summary = json.loads(gc.stdout)
    assert summary["evicted"] > 0, summary
    after = _repro(tmp_path, *table7).stdout
    assert _table(before) == _table(after)
    assert "\nfarm (" in before and "cache hits" in after
