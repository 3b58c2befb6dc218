"""The benchmark driver: set-up, verification pass, timed passes, metrics.

One run measures one workload, closed loop with a single client:

1. **Set-up**, repeated :data:`SETUP_REPS` times: a fresh interpreter
   importing the benchmark and the program (timed in a child process,
   since this process imports only once), then, in this process, a new
   stream session over an empty store directory, every stream the batch
   replays compiled into it, and every pipeline kernel it uses compiled
   into a fresh registry.  ``setup_s`` is the median set-up.
2. **Verification pass**: the batch runs once, untimed.  Its statistics
   are the reference for every later pass, and at the default seed their
   digest must equal the one recorded in ``perfbench/spec.json``.
3. **Timed passes** repeat the batch until ``--seconds`` have passed
   (whole passes only, at least one).  Every pass must reproduce the
   reference exactly and pass the workload's own oracles.

Every host time the end-to-end metrics report is *calibrated*: a shared
host changes speed by tens of percent within seconds, so a fixed probe
loop of the benchmark's own (:class:`Calibration`)
runs between operations, and each operation's time is scaled by
``PROBE_REFERENCE_S / probe time`` interpolated at that operation — host
seconds on a host where the probe takes :data:`PROBE_REFERENCE_S`.  The
probe calls no program code, so a slower program still reads slower.

With ``--trace 1`` the first half of the timed phase runs untraced and
the second half with the layer wrappers of :mod:`perfbench.layers`
installed; set-up is traced too.  The last line of output is one JSON
object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import heapq
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.caches.pipeline.registry import reset_default_registry
from repro.streams import session as stream_session
from repro.streams.store import StreamStore

from perfbench.layers import LAYERS, UNATTRIBUTED_LAYERS, LayerTracer
from perfbench.workloads import WORKLOADS, OpResult, Workload, session_counters

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"

#: set-ups per run; setup_s reports their median
SETUP_REPS = 3

#: run state (stores, farm caches, traces) lives here, under the checkout
STATE_DIR = ".perfbench"

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

INSEPARABLE = (
    "scan versus in-order delivery inside CPU.run_chunk stays one number "
    "(machine.cpu.self_s), as does the dispatcher's bookkeeping around "
    "the handler; splitting them needs spans inside the program. On "
    "farm_store the wrappers record only the benchmark process: spans "
    "taken in forked workers stay there, so all worker-side simulation "
    "is one number, farm.self_s (inside farm.run_jobs)"
)


#: the probe's time on the reference host; calibrated seconds are host
#: seconds scaled to a host where one probe takes this long
PROBE_REFERENCE_S = 0.003

#: probes taken per calibration point (their median is the point)
PROBE_REPEATS = 3

#: a new calibration point is taken before an operation once this many
#: seconds have passed since the last one
PROBE_INTERVAL_S = 0.05


def probe_once() -> None:
    """A fixed slice of interpreter and numpy work, shaped like the
    simulator's trap loop: heap pushes and pops, dict stores, and small
    vector operations.  Deliberately independent of the program."""
    heap: list[int] = []
    table: dict[int, int] = {}
    x = 1
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, x & 4095)
        table[x & 511] = i
    while heap:
        heapq.heappop(heap)
    vector = np.arange(2048, dtype=np.int64)
    for _ in range(20):
        vector = (vector * 3 + 1) & 0xFFFF
        np.nonzero(vector & 1)


def timed_probe() -> float:
    """Median seconds of :data:`PROBE_REPEATS` probe runs in this process."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        probe_once()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _probe_server(conn, parent_end) -> None:
    """Helper-process loop: time the probe on request until told to stop,
    or until the benchmark process is gone."""
    # the forked copy of the benchmark's end would keep the pipe open
    parent_end.close()
    try:
        while conn.recv():
            conn.send(timed_probe())
    except EOFError:
        pass


class ParallelProbe:
    """The probe timed in ``n`` helper processes at once, reporting the
    slowest: the calibration for operations that keep ``n`` cores busy
    (farm batches), whose speed a probe on one core does not track."""

    def __init__(self, n: int) -> None:
        # fork, not spawn: spawn starts a resource-tracker process that
        # nothing joins, so it would outlive the benchmark
        context = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(n):
            parent, child = context.Pipe()
            process = context.Process(
                target=_probe_server, args=(child, parent), daemon=True
            )
            process.start()
            child.close()
            self._helpers.append((process, parent))

    def __call__(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        return max(conn.recv() for _, conn in self._helpers)

    def close(self) -> None:
        for _, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass  # the helper is already gone
            conn.close()
        for process, _ in self._helpers:
            process.join(timeout=10)


class Calibration:
    """Probe timings over the run, for scaling host seconds."""

    def __init__(self, probe=timed_probe) -> None:
        self._probe = probe
        self.times: list[float] = []
        self.values: list[float] = []

    def probe(self) -> float:
        value = self._probe()
        self.times.append(time.perf_counter())
        self.values.append(value)
        return value

    def probe_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Calibration factor for an interval: the reference probe time
        over the mean of the probes taken just before and just after."""
        before = max(0, bisect.bisect_right(self.times, start) - 1)
        after = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        probe = (self.values[before] + self.values[after]) / 2
        return PROBE_REFERENCE_S / probe

    def calibrated(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)


@dataclass
class PassResult:
    #: calibrated seconds of the pass's operations, and each operation's
    wall: float
    latencies: list[float]
    #: uncalibrated host seconds of the operations (the traced split's base)
    raw_wall: float
    results: dict[str, OpResult | None]
    failed: dict[str, str]
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def refs(self) -> int:
        return sum(r.refs for r in self.results.values() if r is not None)

    @property
    def traps(self) -> int:
        return sum(r.traps for r in self.results.values() if r is not None)


def digest_of(results: dict[str, OpResult | None]) -> str:
    """SHA-256 over every operation's simulated statistics, by key."""
    payload = {
        key: None if r is None else r.stats for key, r in results.items()
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def tail(samples: list[float], pct: float) -> tuple[float, float]:
    """The workload's tail percentile of ``samples`` and its value.

    Each workload fixes its percentile so that a run of the benchmark's
    length leaves at least ten samples beyond it; a fixed percentile
    keeps the statistic from hopping between operation types as the
    number of passes varies.  A run too short for that falls back to
    the highest percentile with ten samples beyond it (the maximum when
    there are too few samples).
    """
    ordered = sorted(samples)
    n = len(ordered)
    value = float(np.percentile(ordered, pct))
    if sum(1 for x in ordered if x > value) >= TAIL_BEYOND:
        return pct, value
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _add(into: dict[str, float], more: dict[str, float]) -> None:
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


class Runner:
    """Runs one workload's phases and collects what the metrics need."""

    def __init__(
        self, workload: Workload, scratch: Path, calibration: Calibration
    ) -> None:
        self.workload = workload
        self.scratch = scratch
        self.calibration = calibration
        #: set-up (a child import, then compiles here) keeps one core
        #: busy, so it is calibrated by the single-core probe even where
        #: the passes use a parallel one
        self.setup_calibration = Calibration(timed_probe)
        self.ops = None
        self.reference: dict[str, OpResult | None] = {}
        self.attempted = 0
        #: failed operation runs, and the last reason per operation key
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.session = None

    # -- set-up

    def time_imports(self, root: Path) -> float:
        """Calibrated seconds for a fresh interpreter to import the
        benchmark and, through it, the program."""
        code = "import sys; sys.path[:0] = sys.argv[1:]; import perfbench.bench"
        self.setup_calibration.probe()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(root / "src"), str(root)],
            check=True,
            timeout=120,
        )
        end = time.perf_counter()
        self.setup_calibration.probe()
        return self.setup_calibration.calibrated(start, end)

    def set_up(self, rep: int, tracer: LayerTracer | None) -> tuple[float, dict]:
        """One set-up on a fresh store; returns its seconds and counters.

        Each step is calibrated on its own, like an operation: a set-up
        takes seconds, long enough for the host's speed to change within
        it.
        """
        if self.session is not None:
            stream_session.deactivate()
            shutil.rmtree(self.session.store.directory, ignore_errors=True)
        gc.collect()
        calibration = self.setup_calibration
        spans = []

        def step(fn):
            calibration.probe_if_due()
            began = time.perf_counter()
            value = fn()
            spans.append((began, time.perf_counter()))
            return value

        def new_session() -> stream_session.StreamSession:
            reset_default_registry()
            session = stream_session.StreamSession(
                store=StreamStore(self.scratch / f"setup-{rep}")
            )
            stream_session.activate(session)
            return session

        calibration.probe()
        with tracer.span("bench.setup") if tracer else nullcontext():
            session = step(new_session)
            for fn in step(lambda: self.workload.setup_steps(session)):
                step(fn)
        calibration.probe()
        elapsed = sum(calibration.calibrated(*span) for span in spans)
        self.session = session
        return elapsed, session_counters(session)

    def release_setup_session(self) -> None:
        """Drop the set-up's session for workloads that bring their own."""
        if self.session is not None and self.workload.owns_sessions:
            stream_session.deactivate()
            shutil.rmtree(self.session.store.directory, ignore_errors=True)
            self.session = None

    # -- passes

    def run_pass(self, index: int, tracer: LayerTracer | None) -> PassResult:
        if self.ops is None:
            self.ops = self.workload.ops()
        gc.collect()
        before = session_counters(self.session) if self.session else {}
        self.workload.begin_pass(index)
        results: dict[str, OpResult | None] = {}
        spans = []
        failed: dict[str, str] = {}
        calibration = self.calibration
        calibration.probe()
        with tracer.span("bench.pass") if tracer else nullcontext():
            for op in self.ops:
                calibration.probe_if_due()
                began = time.perf_counter()
                try:
                    results[op.key] = op.run()
                except Exception as exc:  # every failure is counted
                    results[op.key] = None
                    failed[op.key] = f"{type(exc).__name__}: {exc}"
                spans.append((began, time.perf_counter()))
        calibration.probe()
        latencies = [calibration.calibrated(*span) for span in spans]
        raw_wall = sum(end - began for began, end in spans)
        counters = self.workload.end_pass()
        if self.session is not None:
            _add(counters, _delta(session_counters(self.session), before))
        if not failed:
            failed.update(self.workload.cross_check(results))
        return PassResult(
            sum(latencies), latencies, raw_wall, results, failed, counters
        )

    def verify(self, result: PassResult, expected_digest: str | None) -> str:
        """Adopt the verification pass as reference; returns its digest."""
        self.reference = result.results
        digest = digest_of(result.results)
        self.attempted += len(result.results)
        failed = dict(result.failed)
        if expected_digest is not None and digest != expected_digest:
            for key in result.results:
                failed.setdefault(
                    key, f"digest {digest} != recorded {expected_digest}"
                )
        self.failed += len(failed)
        self.failures.update(failed)
        return digest

    def check(self, result: PassResult) -> None:
        """Count one timed pass's operations and its mismatches."""
        self.attempted += len(result.results)
        for key, got in result.results.items():
            why = result.failed.get(key)
            want = self.reference.get(key)
            if why is None and (want is None or got.stats != want.stats):
                why = "statistics differ from the verification pass"
            if why is not None:
                self.failed += 1
                self.failures[key] = why

    def timed(
        self, seconds: float, tracer: LayerTracer | None, first_index: int
    ) -> list[PassResult]:
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            result = self.run_pass(first_index + len(passes), tracer)
            self.check(result)
            passes.append(result)
        return passes


def peak_rss_mb(workload: Workload) -> tuple[float, float]:
    """Peak resident set, in MiB, of this process and of the workload's
    median farm worker (0 without workers).

    The two are not added: a forked worker's peak already counts the
    pages it shares with this process.  The import-timing interpreters
    are not part of the workload and are not read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own / 1024.0, workload.worker_peak_rss_kb() / 1024.0


def end_to_end(
    passes: list[PassResult], setup_s: float, workload: Workload
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    walls = [p.wall for p in passes]
    latencies = [x for p in passes for x in p.latencies]
    tail_pct, tail_value = tail(latencies, workload.tail_pct)
    own_rss, worker_rss = peak_rss_mb(workload)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "refs_per_s": (sum(p.refs for p in passes) / sum(walls), "1/s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(own_rss, worker_rss), "MB"),
    }
    notes = {
        "tail_pct": tail_pct,
        "ops": len(latencies),
        "op_p50_s": statistics.median(latencies),
        "rss_mb": (own_rss, worker_rss),
    }
    return metrics, notes


#: per-layer metrics read straight off one span name's aggregates:
#: (metric, span, field) with field 0 = calls, 1 = seconds, 2 = self seconds
SPAN_METRICS: tuple[tuple[str, str, int], ...] = (
    ("streams.stream_for.calls", "streams.stream_for", 0),
    ("streams.stream_for.s", "streams.stream_for", 1),
    ("streams.next_chunk.s", "streams.next_chunk", 1),
    ("streams.compile.calls", "streams.compile", 0),
    ("streams.compile.s", "streams.compile", 1),
    ("streams.store.get.s", "streams.store.get", 1),
    ("streams.store.put.s", "streams.store.put", 1),
    ("kernel.run_chunk.calls", "kernel.run_chunk", 0),
    ("kernel.run_chunk.self_s", "kernel.run_chunk", 2),
    ("kernel.vm.fault.calls", "kernel.vm.fault", 0),
    ("kernel.vm.fault.self_s", "kernel.vm.fault", 2),
    ("kernel.scheduler.next_round.s", "kernel.scheduler.next_round", 1),
    ("machine.cpu.run_chunk.calls", "machine.cpu.run_chunk", 0),
    ("machine.cpu.self_s", "machine.cpu.run_chunk", 2),
    ("machine.ecc.diagnose.calls", "machine.ecc.diagnose", 0),
    ("machine.ecc.diagnose.s", "machine.ecc.diagnose", 1),
    ("core.handler.self_s", "core.handler", 2),
    ("core.tw_replace.s", "core.tw_replace", 1),
    ("core.tw_set_trap.calls", "core.tw_set_trap", 0),
    ("core.tw_set_trap.s", "core.tw_set_trap", 1),
    ("core.tw_clear_trap.calls", "core.tw_clear_trap", 0),
    ("core.tw_clear_trap.s", "core.tw_clear_trap", 1),
    ("core.tw_register_page.calls", "core.tw_register_page", 0),
    ("core.tw_register_page.s", "core.tw_register_page", 1),
    ("core.tw_remove_page.calls", "core.tw_remove_page", 0),
    ("core.tw_remove_page.s", "core.tw_remove_page", 1),
    ("core.tw_set_page_trap.s", "core.tw_set_page_trap", 1),
    ("core.tw_clear_page_trap.s", "core.tw_clear_page_trap", 1),
    ("caches.cache2000.simulate_chunk.s", "caches.cache2000.simulate_chunk", 1),
    ("caches.grid.simulate_chunk.s", "caches.grid.simulate_chunk", 1),
    ("caches.compile_kernel.calls", "caches.compile_kernel", 0),
    ("caches.compile_kernel.s", "caches.compile_kernel", 1),
    ("harness.run_trap_driven.calls", "harness.run_trap_driven", 0),
    ("farm.run_jobs.s", "farm.run_jobs", 1),
    ("farm.cache.get.s", "farm.cache.get", 1),
    ("farm.cache.put.s", "farm.cache.put", 1),
)


def per_layer(
    tracer: LayerTracer,
    setup_counters: dict[str, float],
    traced: list[PassResult],
    untraced: list[PassResult],
) -> dict[str, tuple[float, str]]:
    """Per-layer values for one set-up plus one batch pass: set-up spans
    and counters are averaged over the set-ups, pass spans and counters
    over the traced passes."""
    n_passes = len(traced)
    setup = tracer.totals.get("setup", {})
    timed = tracer.totals.get("timed", {})
    counters: dict[str, float] = {}
    for p in traced:
        _add(counters, p.counters)

    def per_unit(in_setup: float, in_passes: float) -> float:
        return in_setup / SETUP_REPS + in_passes / n_passes

    def counter(name: str) -> float:
        return per_unit(setup_counters.get(name, 0), counters.get(name, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    zero = (0, 0.0, 0.0)
    out: dict[str, tuple[float, str]] = {}
    for metric, name, field_index in SPAN_METRICS:
        value = per_unit(
            setup.get(name, zero)[field_index], timed.get(name, zero)[field_index]
        )
        out[metric] = (value, "count" if field_index == 0 else "s")

    traps, refs = traced[0].traps, traced[0].refs
    lookups, warm_jobs = counter("streams.lookups"), counter("farm.jobs")
    out["streams.store.put_bytes"] = (counter("streams.store.put_bytes"), "bytes")
    out["streams.lookups"] = (lookups, "count")
    out["streams.lookup_hit_ratio"] = (
        ratio(counter("streams.lookup_hits"), lookups), "ratio"
    )
    out["machine.traps"] = (traps, "count")
    out["machine.traps_per_kref"] = (ratio(1000.0 * traps, refs), "ratio")
    out["core.handler.us_per_trap"] = (
        ratio(1e6 * out["core.handler.self_s"][0], traps), "us"
    )
    out["farm.jobs"] = (warm_jobs, "count")
    out["farm.cache_hit_ratio"] = (
        ratio(counter("farm.cache_hits"), warm_jobs), "ratio"
    )
    for name in ("farm.jobs.executed", "farm.jobs.retried", "farm.jobs.failed"):
        out[name] = (counter(name), "count")

    setup_layers = tracer.layer_self("setup")
    timed_layers = tracer.layer_self("timed")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            per_unit(setup_layers.get(layer, 0.0), timed_layers.get(layer, 0.0)),
            "s",
        )
    # attribution is over the traced passes' operations, uncalibrated,
    # the same clock the spans use
    walls = sum(p.raw_wall for p in traced)
    attributed = sum(
        s for layer, s in timed_layers.items() if layer not in UNATTRIBUTED_LAYERS
    )
    out["unattributed_s"] = ((walls - attributed) / n_passes, "s")
    out["attributed_ratio"] = (attributed / walls, "ratio")
    out["trace_overhead_ratio"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced),
        "ratio",
    )
    return out


def _fmt(value: float) -> str:
    if value == 0 or (1e-3 <= abs(value) < 1e6):
        return f"{value:.6g}"
    return f"{value:.4e}"


def _load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def parse_args(argv: list[str], spec: dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="layer-attributed end-to-end benchmark",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _exit_on_sigterm(signum, frame) -> None:
    sys.exit(128 + signum)


def _default_sigterm() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _stop_children() -> None:
    """Kill and reap every child process still alive: probe helpers that
    did not stop, and farm workers of a batch that was interrupted, which
    would otherwise go on writing into the run's state directory."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def main(argv: list[str], root: Path) -> int:
    spec = _load_spec()
    args = parse_args(argv, spec)
    # a terminated run still stops its children and removes its state;
    # forked children (probe helpers, farm workers) keep the default
    # action, since a pool worker would catch the SystemExit as a job error
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    os.register_at_fork(after_in_child=_default_sigterm)
    state = root / STATE_DIR
    scratch = state / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    helpers = ParallelProbe(workload.workers) if workload.workers > 1 else None
    try:
        return _measure(
            args, spec, root, state, workload,
            Calibration(helpers or timed_probe),
        )
    finally:
        if helpers is not None:
            helpers.close()
        _stop_children()
        if stream_session.active() is not None:
            stream_session.deactivate()
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(
    args: argparse.Namespace,
    spec: dict[str, Any],
    root: Path,
    state: Path,
    workload: Workload,
    calibration: Calibration,
) -> int:
    scratch = workload.scratch
    runner = Runner(workload, scratch, calibration)
    tracer = LayerTracer() if args.trace else None

    # 1. set-up, repeated on fresh stores
    if tracer is not None:
        tracer.install()
    setup_times = []
    setup_counters: dict[str, float] = {}
    try:
        for rep in range(SETUP_REPS):
            imports = runner.time_imports(root)
            elapsed, counters = runner.set_up(rep, tracer)
            setup_times.append(imports + elapsed)
            _add(setup_counters, counters)
    finally:
        if tracer is not None:
            tracer.uninstall()
    runner.release_setup_session()
    setup_s = statistics.median(setup_times)

    # 2. the verification pass
    at_default = args.seed == spec["default_seed"]
    # at the default seed a missing record fails the check like a mismatch
    expected = spec["digests"].get(args.workload, "none") if at_default else None
    digest = runner.verify(runner.run_pass(0, None), expected)

    # 3. timed passes (traced runs split the time: untraced, then traced)
    if tracer is None:
        passes = runner.timed(args.seconds, None, 1)
        traced: list[PassResult] = []
    else:
        passes = runner.timed(args.seconds / 2, None, 1)
        tracer.set_phase("timed")
        tracer.install()
        try:
            traced = runner.timed(args.seconds / 2, tracer, 1 + len(passes))
        finally:
            tracer.uninstall()

    failed = runner.failed
    attempted = runner.attempted
    correct = failed == 0
    metrics, notes = end_to_end(passes, setup_s, workload)
    n_ops = len(runner.ops)

    print(
        f"perfbench {args.workload}: seed {args.seed}, closed loop, one "
        f"client; batch of {n_ops} operations, {len(passes)} timed "
        f"pass(es){' + ' + str(len(traced)) + ' traced' if traced else ''}"
    )
    descriptions = {
        "wall_s": "median calibrated seconds per batch pass",
        "refs_per_s": "simulated refs per calibrated second",
        "op_tail_s": f"p{notes['tail_pct']:.1f} op latency over ops={notes['ops']}",
        "setup_s": f"median of {SETUP_REPS} set-ups, imports included",
        "peak_rss_mb": (
            "peak resident memory, the larger of benchmark {:.1f} MB and "
            "median farm worker {:.1f} MB".format(*notes["rss_mb"])
            if workload.workers
            else "peak resident memory"
        ),
    }
    lines = [(name, value, unit, descriptions[name])
             for name, (value, unit) in metrics.items()]
    # printed, not gated: see perfbench/README.md
    lines.insert(2, ("op_p50_s", notes["op_p50_s"], "s",
                     f"median op latency over ops={notes['ops']}"))
    lines.append(("fail_ratio", failed / attempted, "ratio",
                  f"{failed} failed of {attempted} attempted"))
    for name, value, unit, description in lines:
        print(f"  {name:<12} {_fmt(value):>14} {unit:<5} {description}")
    if expected is None:
        print(
            f"  digest {digest} (seed {args.seed} is not the default seed "
            f"{spec['default_seed']}; seed-independent oracles only)"
        )
    else:
        verdict = "matches" if digest == expected else "DOES NOT MATCH"
        print(f"  digest {digest} {verdict} the recorded {expected}")
    if all(v is not None for v in runner.reference.values()):
        print(
            "  accuracy (informational, ungated): "
            + workload.accuracy(runner.reference)
        )
    by_reason: dict[str, list[str]] = {}
    for key, why in sorted(runner.failures.items()):
        by_reason.setdefault(why, []).append(key)
    for why, keys in by_reason.items():
        more = f" and {len(keys) - 3} more" if len(keys) > 3 else ""
        print(f"  FAILED {', '.join(keys[:3])}{more}: {why}")

    if tracer is None:
        out_metrics = metrics
    else:
        out_metrics = per_layer(tracer, setup_counters, traced, passes)
        _report_attribution(args, tracer, out_metrics, state)

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in out_metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _report_attribution(
    args: argparse.Namespace,
    tracer: LayerTracer,
    layer_metrics: dict[str, tuple[float, str]],
    state: Path,
) -> None:
    setup = tracer.layer_self("setup")
    timed = tracer.layer_self("timed")
    traced_passes = tracer.totals["timed"]["bench.pass"][0]
    print(
        "  layer self seconds (outside-in spans): per set-up | per traced pass"
    )
    for layer in LAYERS:
        print(
            f"    {layer:<10} {_fmt(setup.get(layer, 0.0) / SETUP_REPS):>12}"
            f" | {_fmt(timed.get(layer, 0.0) / traced_passes):>12}"
        )
    print(
        f"    unattributed_s {_fmt(layer_metrics['unattributed_s'][0])} s "
        "(benchmark loop + harness self time); attributed_ratio "
        f"{layer_metrics['attributed_ratio'][0]:.4f}; trace_overhead_ratio "
        f"{layer_metrics['trace_overhead_ratio'][0]:.4f}"
    )
    print(f"    not separable outside-in: {INSEPARABLE}")
    path = state / "traces" / f"{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            tracer.chrome_trace(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "traced_passes": traced_passes,
                    "inseparable": INSEPARABLE,
                }
            )
        )
    )
    print(
        f"    spans: {len(tracer.records)} kept, {tracer.dropped} dropped "
        f"-> {path} (Chrome trace_event; readable by `repro trace merge`)"
    )
