"""The four benchmark workloads: batches of operations, their oracles,
and their accuracy lines.

A workload is a fixed *batch* of operations derived from the benchmark
seed.  An operation is one public entry-point call — ``run_trap_driven``,
``run_trace_driven``, ``run_grid_sweep`` or one farm batch — and returns
the simulated statistics it produced.  The driver (:mod:`perfbench.bench`)
runs the batch once to verify it, then repeats it for the timed phase;
every repetition must reproduce the verified statistics exactly.

Why these four: ``perfbench/README.md`` (``BENCHMARK.json`` has one line each).

The simulated caches start empty in every operation (each trial boots a
fresh machine, as the paper's trials do); nothing is warmed across
operations except the host-side stream store and kernel registry.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro._types import Component
from repro.caches import gridsweep
from repro.caches.config import CacheConfig, GridConfig, TLBConfig
from repro.caches.pipeline import compile_kernel, scan_request
from repro.caches.replacement import make_policy
from repro.caches.tlb import SimulatedTLB
from repro.core.tapeworm import TapewormConfig
from repro.experiments import budget_refs, figure2, table7, tlb_extension
from repro.farm import Farm, FarmConfig, Job, register
from repro.harness import runner
from repro.harness.experiment import stats_of
from repro.machine.cpu import GRANULE_SHIFT
from repro.streams import session as stream_session
from repro.streams.session import StreamSession
from repro.streams.store import StreamStore
from repro.tracing.cache2000 import Cache2000
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: the canonical Table 7 configuration: 16 KB direct-mapped, 4-word
#: lines, physically indexed, 1/8 set sampling, all components
TABLE7_CACHE = CacheConfig(size_bytes=16 * 1024)
TABLE7_SAMPLING = 8


@dataclass
class OpResult:
    """What one operation simulated.

    ``stats`` holds only integer simulated statistics (the digest input);
    ``info`` holds derived values for the accuracy lines.
    """

    stats: dict[str, Any]
    refs: int
    traps: int = 0
    info: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One operation of a batch: a unique key and the call to make."""

    key: str
    run: Callable[[], OpResult]


def _components(counts: dict[Component, int]) -> dict[str, int]:
    return {c.value: int(counts.get(c, 0)) for c in Component}


def trap_result(report) -> OpResult:
    """The simulated statistics of one trap-driven run."""
    stats = {
        "misses": _components(report.stats.misses),
        "refs": _components(report.refs),
        "traps": int(report.traps),
        "masked_traps": int(report.masked_traps),
        "page_faults": int(report.page_faults),
        "overhead_cycles": int(report.overhead_cycles),
    }
    return OpResult(
        stats=stats,
        refs=int(report.total_refs),
        traps=int(report.traps),
        info={
            "estimated_misses": float(report.estimated_misses),
            "user_miss_ratio": report.local_miss_ratio(Component.USER),
        },
    )


def table7_trial(spec, seed: int, total_refs: int) -> OpResult:
    """One Table 7 trial, configured as ``table7.measure_once`` does."""
    config = TapewormConfig(
        cache=TABLE7_CACHE, sampling=TABLE7_SAMPLING, sampling_seed=seed
    )
    options = runner.RunOptions(total_refs=total_refs, trial_seed=seed)
    return trap_result(runner.run_trap_driven(spec, config, options))


def session_counters(session: StreamSession) -> dict[str, float]:
    """A stream session's store traffic and lookup outcomes so far."""
    hits = session.memo_hits + session.shm_hits + session.store.hits
    return {
        "streams.store.put_bytes": session.store.bytes_written,
        "streams.lookups": hits + session.compiles,
        "streams.lookup_hits": hits,
    }


def _seed_stream(workload: str, seed: int) -> random.Random:
    # string seeds hash through SHA-512, so this is the same in every
    # process regardless of PYTHONHASHSEED
    return random.Random(f"perfbench/{workload}/{seed}")


def _trial_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _mean_abs(pairs: list[tuple[float, float]]) -> float:
    return sum(abs(a - b) for a, b in pairs) / len(pairs)


class Workload:
    """Base class: a named batch with set-up, oracles and accuracy."""

    name = ""
    #: op_tail_s percentile: a run of the benchmark's length leaves at
    #: least ten operation samples beyond it
    tail_pct = 90.0
    #: farm worker processes the workload may start
    workers = 0
    #: the workload activates its own stream sessions per pass, so the
    #: set-up's session is released before the first pass
    owns_sessions = False

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.specs = {}

    def spec(self, name: str):
        spec = self.specs.get(name)
        if spec is None:
            spec = self.specs[name] = get_workload(name)
        return spec

    # -- set-up: what must exist before the first operation

    def setup_steps(self, session: StreamSession) -> list[Callable[[], Any]]:
        """The set-up, split into steps: compile every stream the batch
        replays into ``session``, then every pipeline kernel it uses.  The
        benchmark calibrates each step on its own, as it does operations."""
        return []

    # -- the batch

    def begin_pass(self, index: int) -> None:
        """Hook run before each pass of the batch."""

    def end_pass(self) -> dict[str, float]:
        """Hook run after each pass; returns per-pass layer counters."""
        return {}

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def cross_check(self, results: dict[str, OpResult]) -> dict[str, str]:
        """Seed-independent oracles over one pass: failing op key -> why."""
        return {}

    def accuracy(self, results: dict[str, OpResult]) -> str:
        raise NotImplementedError

    def worker_peak_rss_kb(self) -> float:
        """Median over the workload's farm worker processes of each one's
        peak resident set, in KiB (0 when the workload runs none)."""
        return 0


# ---------------------------------------------------------------------------
# trap_ecc
# ---------------------------------------------------------------------------


class TrapEcc(Workload):
    """Table 7 trials over all eight workloads + Figure 2's size sweep."""

    name = "trap_ecc"
    refs = budget_refs("smoke")
    trials = 3
    figure2_sizes_kb = (4, 8, 16, 32, 64)
    figure2_workload = "mpeg_play"

    def setup_steps(self, session: StreamSession) -> list[Callable[[], Any]]:
        return [
            *(
                lambda name=name: session.precompile(self.spec(name), self.refs)
                for name in WORKLOAD_NAMES
            ),
            lambda: compile_kernel(
                scan_request(True, False, False, GRANULE_SHIFT)
            ),
        ]

    def ops(self) -> list[Op]:
        rng = _seed_stream(self.name, self.seed)
        ops = []
        for name in WORKLOAD_NAMES:
            for trial in range(self.trials):
                seed = _trial_seed(rng)
                ops.append(
                    Op(f"table7/{name}/{trial}", self._table7(name, seed))
                )
        seed = _trial_seed(rng)
        for size_kb in self.figure2_sizes_kb:
            ops.append(
                Op(f"figure2/{size_kb}K", self._figure2(size_kb, seed))
            )
        return ops

    def _table7(self, name: str, seed: int) -> Callable[[], OpResult]:
        spec = self.spec(name)
        return lambda: table7_trial(spec, seed, self.refs)

    def _figure2(self, size_kb: int, seed: int) -> Callable[[], OpResult]:
        # the configuration of repro.experiments.figure2.run_figure2
        spec = self.spec(self.figure2_workload)
        config = TapewormConfig(cache=CacheConfig(size_bytes=size_kb * 1024))
        options = runner.RunOptions(
            total_refs=self.refs,
            trial_seed=seed,
            simulate=frozenset({Component.USER}),
        )
        return lambda: trap_result(
            runner.run_trap_driven(spec, config, options)
        )

    def accuracy(self, results: dict[str, OpResult]) -> str:
        return "; ".join(
            [
                table7_accuracy(
                    {
                        name: [
                            results[f"table7/{name}/{t}"].info[
                                "estimated_misses"
                            ]
                            for t in range(self.trials)
                        ]
                        for name in WORKLOAD_NAMES
                    }
                ),
                figure2_accuracy(
                    {
                        kb: results[f"figure2/{kb}K"].info["user_miss_ratio"]
                        for kb in self.figure2_sizes_kb
                    }
                ),
            ]
        )


def table7_accuracy(trials: dict[str, list[float]]) -> str:
    """Mean deviation of the trial spread from Table 7's s% column."""
    pairs = [
        (stats_of(values).stdev_pct, table7.PAPER_STDEV_PCT[name])
        for name, values in trials.items()
    ]
    n = len(next(iter(trials.values())))
    return (
        f"Table 7 s% vs paper: mean |dev| {_mean_abs(pairs):.1f} points "
        f"over {len(pairs)} workloads ({n} trials each)"
    )


def figure2_accuracy(miss_ratios: dict[int, float]) -> str:
    """Mean deviation of user miss ratios from Figure 2's rows."""
    pairs = [
        (ratio, figure2.PAPER_ROWS[kb][0]) for kb, ratio in miss_ratios.items()
    ]
    return (
        f"Figure 2 miss ratio vs paper: mean |dev| {_mean_abs(pairs):.4f} "
        f"over {len(pairs)} sizes"
    )


# ---------------------------------------------------------------------------
# trap_tlb
# ---------------------------------------------------------------------------


class TrapTlb(Workload):
    """The TLB extension: workloads x TLB sizes x page sizes."""

    name = "trap_tlb"
    # the extension's own rule: TLB runs take half the budget's refs
    refs = budget_refs("smoke") // 2

    def setup_steps(self, session: StreamSession) -> list[Callable[[], Any]]:
        return [
            *(
                lambda name=name: session.precompile(
                    self.spec(name), self.refs, True
                )
                for name in tlb_extension.WORKLOADS
            ),
            lambda: compile_kernel(
                scan_request(False, True, False, GRANULE_SHIFT)
            ),
            *(
                lambda config=config: SimulatedTLB(config, make_policy("lru"))
                for config in self._configs()
            ),
        ]

    def _configs(self) -> list[TLBConfig]:
        return [
            TLBConfig(n_entries=entries, page_bytes=page_kb * 1024)
            for entries in tlb_extension.TLB_SIZES
            for page_kb in tlb_extension.PAGE_KB
        ]

    def ops(self) -> list[Op]:
        rng = _seed_stream(self.name, self.seed)
        ops = []
        for name in tlb_extension.WORKLOADS:
            spec = self.spec(name)
            options = runner.RunOptions(
                total_refs=self.refs,
                trial_seed=_trial_seed(rng),
                include_data_refs=True,
            )
            for tlb in self._configs():
                config = TapewormConfig(structure="tlb", tlb=tlb)
                ops.append(
                    Op(
                        f"tlb/{name}/{tlb.n_entries}x{tlb.page_bytes // 1024}K",
                        lambda spec=spec, config=config, options=options: (
                            trap_result(
                                runner.run_trap_driven(spec, config, options)
                            )
                        ),
                    )
                )
        return ops

    def accuracy(self, results: dict[str, OpResult]) -> str:
        return (
            "model unvalidated: the repository carries no paper reference "
            "values for the TLB extension"
        )


# ---------------------------------------------------------------------------
# trace_sweep
# ---------------------------------------------------------------------------


class TraceSweep(Workload):
    """Per-config Pixie+Cache2000 runs plus one-pass LRU grid sweeps."""

    name = "trace_sweep"
    tail_pct = 95.0
    user_refs = budget_refs("quick")
    #: (associativity, replacement) x sizes, per workload
    shapes = ((1, "lru"), (2, "lru"), (4, "fifo"))
    sizes_kb = (4, 16, 64)
    figure2_workload = "mpeg_play"

    def _grid(self) -> GridConfig:
        # every LRU per-config cache is a cell of the grid, which is what
        # lets the grid-equals-per-config oracle run on every pass
        lru = [
            CacheConfig(size_bytes=kb * 1024, associativity=ways)
            for ways, policy in self.shapes
            if policy == "lru"
            for kb in self.sizes_kb
        ]
        # both default to 4-word lines
        return GridConfig(
            set_counts=tuple(sorted({c.n_sets for c in lru})),
            ways=(1, 2, 4, 8),
        )

    def _configs(self) -> list[tuple[CacheConfig, str]]:
        return [
            (CacheConfig(size_bytes=kb * 1024, associativity=ways), policy)
            for ways, policy in self.shapes
            for kb in self.sizes_kb
        ]

    @staticmethod
    def _trace_key(name: str, config: CacheConfig, policy: str) -> str:
        return (
            f"trace/{name}/{config.size_bytes // 1024}K"
            f"/{config.associativity}way/{policy}"
        )

    def setup_steps(self, session: StreamSession) -> list[Callable[[], Any]]:
        return [
            *(
                lambda name=name: session.stream_for(
                    self.spec(name), self.spec(name).primary_task,
                    self.user_refs,
                )
                for name in WORKLOAD_NAMES
            ),
            *(
                lambda config=config, policy=policy: Cache2000(
                    config, policy=make_policy(policy)
                )
                for config, policy in self._configs()
            ),
            lambda: gridsweep.GridSweepSimulator(self._grid()),
        ]

    def ops(self) -> list[Op]:
        # trace-driven runs are deterministic per workload, so the seed
        # only orders the batch
        grid = self._grid()
        ops = []
        for name in WORKLOAD_NAMES:
            spec = self.spec(name)
            for config, policy in self._configs():
                ops.append(
                    Op(
                        self._trace_key(name, config, policy),
                        lambda spec=spec, config=config, policy=policy: (
                            self._trace(spec, config, policy)
                        ),
                    )
                )
            ops.append(
                Op(
                    f"grid/{name}",
                    lambda spec=spec: self._grid_sweep(spec, grid),
                )
            )
        _seed_stream(self.name, self.seed).shuffle(ops)
        return ops

    def _trace(self, spec, config: CacheConfig, policy: str) -> OpResult:
        report = runner.run_trace_driven(
            spec, config, self.user_refs, replacement=policy
        )
        return OpResult(
            stats={
                "misses": int(report.misses),
                "refs": int(report.refs_simulated),
                "refs_traced": int(report.refs_traced),
                "overhead_cycles": int(report.overhead_cycles),
            },
            refs=int(report.refs_simulated),
            info={
                "miss_ratio": report.miss_ratio,
                "slowdown": report.slowdown,
            },
        )

    def _grid_sweep(self, spec, grid: GridConfig) -> OpResult:
        report = gridsweep.run_grid_sweep(spec, self.user_refs, grid)
        return OpResult(
            stats={
                "misses": {
                    f"{sets}x{ways}": int(misses)
                    for (sets, ways), misses in sorted(
                        report.miss_counts.items()
                    )
                },
                "refs": int(report.refs),
                "passes": int(report.passes),
                "overhead_cycles": int(report.overhead_cycles),
            },
            refs=int(report.refs),
        )

    def cross_check(self, results: dict[str, OpResult]) -> dict[str, str]:
        failed = {}
        for name in WORKLOAD_NAMES:
            key = f"grid/{name}"
            cells = results[key].stats["misses"]
            for config, policy in self._configs():
                if policy != "lru":
                    continue
                trace = results[self._trace_key(name, config, policy)]
                cell = f"{config.n_sets}x{config.associativity}"
                if cells[cell] != trace.stats["misses"]:
                    failed[key] = (
                        f"grid cell {cell} = {cells[cell]} misses but the "
                        f"per-config run gave {trace.stats['misses']}"
                    )
        return failed

    def accuracy(self, results: dict[str, OpResult]) -> str:
        rows = {
            kb: results[
                self._trace_key(
                    self.figure2_workload, CacheConfig(size_bytes=kb * 1024),
                    "lru",
                )
            ]
            for kb in self.sizes_kb
        }
        ratio = [
            (r.info["miss_ratio"], figure2.PAPER_ROWS[kb][0])
            for kb, r in rows.items()
        ]
        slowdown = [
            (r.info["slowdown"], figure2.PAPER_ROWS[kb][1])
            for kb, r in rows.items()
        ]
        return (
            "Figure 2 (mpeg_play DM) vs paper: miss ratio mean |dev| "
            f"{_mean_abs(ratio):.4f}, Cache2000 slowdown mean |dev| "
            f"{_mean_abs(slowdown):.1f}x over {len(rows)} sizes"
        )


# ---------------------------------------------------------------------------
# farm_store
# ---------------------------------------------------------------------------


def farm_trial(seed: int, workload: str, total_refs: int) -> dict[str, Any]:
    """Farm measure: one Table 7 trial, returning its simulated statistics
    and the process that ran it with that process's peak resident set.

    Registered as ``perfbench.trial``; module-level so forked workers
    resolve it by import path.
    """
    result = table7_trial(get_workload(workload), seed, total_refs)
    return {
        "stats": result.stats,
        "info": result.info,
        "pid": os.getpid(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


FARM_MEASURE = "perfbench.trial"


class FarmStore(Workload):
    """A multi-trial experiment through a farm, cold then warm."""

    name = "farm_store"
    # five operations a pass, so a run holds only a few dozen samples
    tail_pct = 75.0
    refs = budget_refs("smoke")
    #: ousterhout compiles 17 task streams per pass, enough to exercise
    #: the store without letting fsync latency dominate the pass; one
    #: workload keeps the cold batches alike in cost
    experiment = "ousterhout"
    trials = 16
    workers = min(2, os.cpu_count() or 1)
    owns_sessions = True

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        register(FARM_MEASURE, farm_trial)
        self._session: StreamSession | None = None
        self._farms: list[Farm] = []
        self._pass_dir: Path | None = None
        self._cold: list[Any] = []
        self._failed_jobs = 0
        #: one peak per worker process of every cold batch
        self._worker_peaks_kb: list[int] = []

    def worker_peak_rss_kb(self) -> float:
        # the median, not the maximum: which jobs land on which worker
        # varies: over ten seeds the largest worker peak of a run spread
        # by ~10% (IQR/median), the median by 1-4%
        if not self._worker_peaks_kb:
            return 0
        return statistics.median(self._worker_peaks_kb)

    def setup_steps(self, session: StreamSession) -> list[Callable[[], Any]]:
        # the kernel is compiled before the pool forks, so workers inherit
        # the program; streams are compiled per pass, into each pass's store
        return [
            lambda: compile_kernel(
                scan_request(True, False, False, GRANULE_SHIFT)
            )
        ]

    def _batches(self) -> list[list[Job]]:
        """The experiment's jobs, one batch per worker-sized group."""
        rng = _seed_stream(self.name, self.seed)
        jobs = [
            Job(
                FARM_MEASURE,
                {"workload": self.experiment, "total_refs": self.refs},
                seed=_trial_seed(rng),
            )
            for _ in range(self.trials)
        ]
        # two jobs per worker, so a batch is more simulation than pool
        # start-up and shutdown
        size = 2 * max(2, self.workers)
        return [jobs[i : i + size] for i in range(0, len(jobs), size)]

    def begin_pass(self, index: int) -> None:
        self._pass_dir = self.scratch / f"farm-pass-{index}"
        self._session = StreamSession(
            store=StreamStore(self._pass_dir / "streams")
        )
        stream_session.activate(self._session)
        self._farms = []
        self._cold = []
        self._failed_jobs = 0

    def end_pass(self) -> dict[str, float]:
        counters = session_counters(stream_session.deactivate())
        counters.update({
            "farm.jobs.executed": sum(f.metrics.executed for f in self._farms),
            "farm.jobs.retried": sum(f.metrics.retries for f in self._farms),
            "farm.jobs.failed": self._failed_jobs,
        })
        if len(self._farms) > 1:
            counters["farm.jobs"] = self._farms[-1].metrics.jobs
            counters["farm.cache_hits"] = self._farms[-1].metrics.cache_hits
        shutil.rmtree(self._pass_dir, ignore_errors=True)
        return counters

    def _farm(self) -> Farm:
        farm = Farm(
            FarmConfig(
                max_workers=self.workers,
                cache_dir=self._pass_dir / "farm-cache",
                stream_transport=self._session.transport(),
            )
        )
        self._farms.append(farm)
        return farm

    def ops(self) -> list[Op]:
        batches = self._batches()
        ops = [
            Op(f"cold/{i}", lambda batch=batch: self._run_cold(batch))
            for i, batch in enumerate(batches)
        ]
        ops.append(
            Op("warm", lambda: self._run_warm([j for b in batches for j in b]))
        )
        return ops

    def _run_jobs(self, farm: Farm, jobs: list[Job]) -> list[Any]:
        """One farm batch; a batch that raises (a job failed or was
        poisoned) counts all its jobs as failed."""
        try:
            return farm.run_jobs(jobs)
        except Exception:
            self._failed_jobs += len(jobs)
            raise

    def _run_cold(self, batch: list[Job]) -> OpResult:
        if not self._farms:
            # as run_trials_farm does: compile the experiment's streams
            # into the store first, so workers map blobs instead of
            # regenerating them
            self._session.precompile(self.spec(self.experiment), self.refs)
            self._farm()
        values = self._run_jobs(self._farms[0], batch)
        self._cold.extend(values)
        # each batch has a pool of its own; a worker's last report is its peak
        peaks: dict[int, int] = {}
        for v in values:
            peaks[v["pid"]] = max(peaks.get(v["pid"], 0), v["rss_kb"])
        self._worker_peaks_kb.extend(peaks.values())
        return OpResult(
            stats={"trials": [v["stats"] for v in values]},
            refs=sum(sum(v["stats"]["refs"].values()) for v in values),
            traps=sum(v["stats"]["traps"] for v in values),
            info={
                "estimated_misses": [
                    v["info"]["estimated_misses"] for v in values
                ]
            },
        )

    def _run_warm(self, jobs: list[Job]) -> OpResult:
        # a fresh Farm object reads the result cache back from disk
        farm = self._farm()
        values = self._run_jobs(farm, jobs)
        if farm.last_run.cache_hits != len(jobs):
            raise RuntimeError(
                f"warm pass hit the cache for {farm.last_run.cache_hits} "
                f"of {len(jobs)} jobs"
            )
        if values != self._cold:
            raise RuntimeError("warm-pass values differ from the cold pass")
        return OpResult(stats={"jobs": len(values)}, refs=0)

    def accuracy(self, results: dict[str, OpResult]) -> str:
        estimates = [
            m
            for key, r in sorted(results.items())
            if key.startswith("cold/")
            for m in r.info["estimated_misses"]
        ]
        return table7_accuracy({self.experiment: estimates})


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TrapEcc, TrapTlb, TraceSweep, FarmStore)
}
