"""Command-line interface: ``python -m repro <command>``.

Every (sub)command is one :class:`Command` entry of :data:`COMMANDS`:
its help text, its handler and the arguments it takes.
:func:`build_parser` walks that table, so ``repro --help`` is the one
list of commands.  A flag that several commands take is defined once,
with its type and bounds, in :data:`FLAGS`, and a command names it
there (overriding only its help or default); the flag groups
:data:`STREAM_FLAGS` and :data:`TELEMETRY_FLAGS` are shared the same
way.  The on-disk stores' ``clear`` commands come from one row per
store in :data:`STORES`.

Simulation commands run inside :func:`_sessions`, the one scope that
activates the stream session (the compiled reference-stream store,
``.stream-cache/`` unless ``--no-stream-cache``), the telemetry
session (when any telemetry output is wanted) and the fault session
(with ``--fault-plan``), and deactivates all three however the command
ends.  None of them changes a simulated result.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from repro import telemetry
from repro._types import Component, Indexing
from repro.caches.config import CacheConfig, TLBConfig
from repro.core.tapeworm import TapewormConfig
from repro.errors import ConfigError, ReproError
from repro.experiments import BUDGET_REFS
from repro.farm import ResultCache
from repro.farm.pool import DEFAULT_CACHE_DIR
from repro.harness.runner import RunOptions, run_trace_driven, run_trap_driven
from repro.harness.tables import format_table
from repro.store import RecordLog
from repro.streams import StreamSession
from repro.streams.store import DEFAULT_STORE_DIR, StreamStore
from repro.workloads.registry import WORKLOAD_NAMES, all_workloads, get_workload

if TYPE_CHECKING:
    from repro.faults.session import FaultSession

#: experiment name -> module under repro.experiments.  The module's
#: ``run_<module>`` says what it takes: no ``budget`` (a static table),
#: a ``farm`` (parallel, cached trials); a ``run_<module>_sampled``
#: variant serves ``--sample-mode sampled``.
EXPERIMENTS = {
    "figure1": "figure1",
    "table3_4": "table34",
    "figure2": "figure2",
    "table5": "table5",
    "figure3": "figure3",
    "table6": "table6",
    "table7": "table7",
    "table8": "table8",
    "table9": "table9",
    "table10": "table10",
    "figure4": "figure4",
    "table11": "table11",
    "table12": "table12",
    "tlb_extension": "tlb_extension",
}


# ---------------------------------------------------------------------------
# argument types
# ---------------------------------------------------------------------------


def _parse_size(text: str) -> int:
    """'4K' / '64K' / '1M' / plain bytes -> bytes."""
    text = text.strip().upper()
    multiplier = 1
    if text.endswith("K"):
        multiplier, text = 1024, text[:-1]
    elif text.endswith("M"):
        multiplier, text = 1024 * 1024, text[:-1]
    try:
        return int(text) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size: {text!r}") from None


def _at_least(low: int) -> Callable[[str], int]:
    """An argument type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    return parse


def _int_list(text: str) -> tuple[int, ...]:
    """'64,128,256' -> (64, 128, 256)."""
    try:
        values = tuple(
            int(part) for part in text.split(",") if part.strip()
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad integer list: {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return values


def _components(names: str) -> frozenset[Component]:
    if names == "all":
        return frozenset(Component)
    mapping = {
        "user": Component.USER,
        "kernel": Component.KERNEL,
        "bsd": Component.BSD_SERVER,
        "x": Component.X_SERVER,
    }
    try:
        return frozenset(mapping[n] for n in names.split(","))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(
            f"unknown component {exc.args[0]!r}; use user,kernel,bsd,x or all"
        ) from None


# ---------------------------------------------------------------------------
# the flag registry
# ---------------------------------------------------------------------------


class Arg:
    """One argparse argument: its option strings and keywords."""

    def __init__(self, *names: str, **kwargs: Any) -> None:
        self.names = names
        self.kwargs = kwargs

    @property
    def dest(self) -> str:
        return self.names[-1].lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Group:
    """Arguments shown under one heading in ``--help``."""

    title: str
    args: tuple[Arg, ...]


#: every flag more than one command takes, with its type and bounds
FLAGS: dict[str, Arg] = {
    "json": Arg("--json", action="store_true", help="emit JSON"),
    "refs": Arg(
        "--refs", type=_at_least(1), default=None, metavar="N",
        help="explicit reference budget (overrides --budget)",
    ),
    "budget": Arg("--budget", choices=tuple(sorted(BUDGET_REFS)),
                  default="quick"),
    "workload": Arg("--workload", choices=WORKLOAD_NAMES,
                    default="mpeg_play"),
    "seed": Arg("--seed", type=_at_least(0), default=0),
    "jobs": Arg("--jobs", type=_at_least(1), default=None, metavar="N"),
    "no-cache": Arg("--no-cache", action="store_true"),
    "fault-plan": Arg("--fault-plan", metavar="PLAN.json", default=None),
    "sampling": Arg("--sampling", type=_at_least(1), default=1),
    "cache-size": Arg("--cache-size", type=_parse_size, default=4096),
    "line-bytes": Arg("--line-bytes", type=int, default=16),
    "associativity": Arg("--associativity", type=int, default=1),
    "indexing": Arg("--indexing", choices=("physical", "virtual"),
                    default="physical"),
    "interval-refs": Arg(
        "--interval-refs", type=_at_least(1), default=None, metavar="N",
    ),
    "max-phases": Arg(
        "--max-phases", type=_at_least(1), default=4, metavar="K",
        help="phase-count ceiling for the BIC model selection",
    ),
    "cache-budget": Arg(
        "--cache-budget", type=_at_least(0), default=None, metavar="BYTES",
    ),
    "shard": Arg("--shard", action="store_true"),
    # store directories
    "cache-dir": Arg("--cache-dir", default=None, metavar="DIR",
                     help="cache directory (default .farm-cache/)"),
    "stream-dir": Arg("--stream-dir", default=None, metavar="DIR",
                      help="stream store directory (default .stream-cache/)"),
    "manifest-path": Arg(
        "--manifest-path", default=None, metavar="PATH",
        help=f"manifest log (default {telemetry.DEFAULT_MANIFEST_PATH})",
    ),
}


def use(key: str, **overrides: Any) -> Arg:
    """The registry flag ``key``, with some keywords overridden."""
    flag = FLAGS[key]
    return Arg(*flag.names, **{**flag.kwargs, **overrides})


STREAM_FLAGS = Group("stream store", (
    Arg(
        "--no-stream-cache", action="store_true",
        help="do not persist compiled reference streams to disk "
             "(results are identical; streams recompile per process)",
    ),
    FLAGS["stream-dir"],
))

TELEMETRY_FLAGS = Group("telemetry", (
    Arg(
        "--trace-out", metavar="PATH", default=None,
        help="write the trap-level event trace as Chrome trace_event JSON "
             "(open in Perfetto; '-' for stdout)",
    ),
    Arg(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics-registry snapshot as JSON ('-' for stdout)",
    ),
    Arg(
        "--manifest-out", metavar="PATH", default=None,
        help="run-manifest JSONL log (default: "
             f"{telemetry.DEFAULT_MANIFEST_PATH}; '-' for stdout)",
    ),
    Arg(
        "--no-manifest", action="store_true",
        help="do not append a run-manifest record",
    ),
    Arg(
        "--trace-capacity", type=int, default=telemetry.DEFAULT_TRACE_CAPACITY,
        metavar="N", help="event ring-buffer capacity (oldest dropped beyond it)",
    ),
    Arg(
        "--profile", action="store_true",
        help="time the simulator's hot-path phases into profile.* "
             "histograms and span events (results stay bit-identical; "
             "implies an active telemetry session)",
    ),
))


# ---------------------------------------------------------------------------
# one session scope for every simulation command
# ---------------------------------------------------------------------------


@dataclass
class _Scope:
    """The sessions active over one command (telemetry and faults may
    be off)."""

    streams: StreamSession
    telemetry: telemetry.TelemetrySession | None
    faults: FaultSession | None

    def snapshot(self) -> dict[str, Any]:
        """Publish the stream counters into the telemetry metrics and
        return the metrics snapshot ({} with telemetry off)."""
        if self.telemetry is None:
            return {}
        self.streams.publish_metrics(self.telemetry.metrics)
        return self.telemetry.metrics.snapshot()


def _telemetry_wanted(args: argparse.Namespace) -> bool:
    if "no_manifest" not in args:  # the command takes no telemetry flags
        return False
    return bool(
        args.trace_out
        or args.metrics_out
        or args.manifest_out
        or args.profile
        or not args.no_manifest
    )


@contextmanager
def _sessions(args: argparse.Namespace, fault_plan=None) -> Iterator[_Scope]:
    """Activate the stream session, the telemetry session when any
    telemetry output is wanted, and the fault session when a plan is
    given; deactivate them all on the way out, also on failure.

    On success the stream counters are published into the telemetry
    metrics before the telemetry session closes; :func:`_export` then
    finalizes and writes it.
    """
    from repro import faults, streams

    store = StreamStore(
        STORES["streams"].path(args), enabled=not args.no_stream_cache
    )
    with ExitStack() as stack:
        scope = _Scope(
            streams=stack.enter_context(
                streams.enabled(StreamSession(store=store))
            ),
            telemetry=(
                stack.enter_context(
                    telemetry.enabled(
                        args.trace_capacity,
                        profile=args.profile,
                        trace_machine=bool(args.trace_out),
                    )
                )
                if _telemetry_wanted(args)
                else None
            ),
            faults=(
                stack.enter_context(faults.enabled(fault_plan))
                if fault_plan is not None
                else None
            ),
        )
        yield scope
        scope.snapshot()


def _write_or_print(target: str, payload: str) -> None:
    if target == "-":
        print(payload)
    else:
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload + "\n")


def _export(
    args: argparse.Namespace,
    session: telemetry.TelemetrySession | None,
    manifests: Sequence[telemetry.RunManifest],
) -> None:
    """Finalize a closed telemetry session and export it: metrics
    snapshot, trace, manifest records."""
    if session is None:
        return
    session.finalize()
    if args.metrics_out:
        _write_or_print(
            args.metrics_out,
            json.dumps(session.metrics.snapshot(), indent=2, sort_keys=True),
        )
    if args.trace_out:
        # events + master span lane + one lane per farm worker
        _write_or_print(
            args.trace_out, json.dumps(telemetry.merged_chrome_trace(session))
        )
    if args.no_manifest:
        return
    for manifest in manifests:
        if args.manifest_out == "-":
            print(json.dumps(manifest.record(), sort_keys=True))
        else:
            telemetry.write_manifest(manifest, args.manifest_out)


def _load_fault_plan(args: argparse.Namespace):
    """The plan named by ``--fault-plan``, or None when faults are off."""
    if args.fault_plan is None:
        return None
    from repro.faults import load_plan

    return load_plan(args.fault_plan)


def _farm(args: argparse.Namespace, scope: _Scope, fault_plan=None):
    """A farm of ``--jobs`` workers that ships streams to its workers."""
    from repro.farm import Farm, FarmConfig

    worker_faults = None
    if fault_plan is not None:
        from repro.faults.infra import WorkerFaults

        worker_faults = WorkerFaults.from_plan(fault_plan)
    return Farm(
        FarmConfig(
            max_workers=args.jobs,
            use_cache=not args.no_cache,
            worker_faults=worker_faults,
            stream_transport=scope.streams.transport(),
        )
    )


def _budget_refs(args: argparse.Namespace) -> int:
    """``--refs`` when given, else the ``--budget`` reference count."""
    return args.refs if args.refs is not None else BUDGET_REFS[args.budget]


# ---------------------------------------------------------------------------
# simulation commands
# ---------------------------------------------------------------------------


def _print_fault_summary(session) -> None:
    """One line per run: what landed, what the auditor saw."""
    for record in session.runs:
        applied = record.injector.injections_applied()
        divergences = record.divergences()
        # a persistent divergence re-reports every audit; show each once
        unique: dict[tuple, Any] = {}
        for divergence in divergences:
            key = (divergence.kind, divergence.granule, divergence.tid,
                   divergence.vpn)
            unique.setdefault(key, divergence)
        print(
            f"faults        : {applied} injected, "
            f"{len(record.reports)} audit(s), "
            f"{len(divergences)} divergence(s) "
            f"({len(unique)} distinct)"
        )
        for divergence in unique.values():
            print(f"  divergence  : {divergence.describe()}")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_workload(args.workload)
    if args.structure == "tlb":
        structure = {
            "structure": "tlb",
            "tlb": TLBConfig(
                n_entries=args.tlb_entries, page_bytes=args.page_bytes
            ),
        }
    else:
        structure = {
            "cache": CacheConfig(
                size_bytes=args.cache_size,
                line_bytes=args.line_bytes,
                associativity=args.associativity,
                indexing=Indexing(args.indexing),
            ),
        }
    config = TapewormConfig(
        **structure,
        replacement=args.replacement,
        sampling=args.sampling,
        sampling_seed=args.seed,
    )
    options = RunOptions(
        total_refs=args.refs,
        trial_seed=args.seed,
        simulate=args.simulate,
        include_data_refs=args.structure == "tlb",
    )
    fault_plan = _load_fault_plan(args)
    started = time.perf_counter()
    with _sessions(args, fault_plan) as scope:
        report = run_trap_driven(spec, config, options)
    manifest = telemetry.RunManifest(
        kind="run",
        name=report.workload,
        configuration=report.configuration,
        config_hash=telemetry.config_hash(config),
        seed=args.seed,
        wall_clock_secs=time.perf_counter() - started,
        metrics=scope.snapshot(),
        results={
            "misses": report.stats.total_misses,
            "estimated_misses": report.estimated_misses,
            "slowdown": report.slowdown,
            "overhead_cycles": report.overhead_cycles,
            "traps": report.traps,
            "page_faults": report.page_faults,
            "ticks": report.ticks,
        },
    )
    print(f"workload      : {report.workload}")
    print(f"configuration : {report.configuration}")
    print(f"references    : {report.total_refs:,}")
    print(f"misses        : {report.stats.total_misses:,}")
    if report.sampling > 1:
        print(f"estimated     : {report.estimated_misses:,.0f} (x{report.sampling})")
    for component in Component:
        print(
            f"  {component.value:<12}: {report.stats.misses[component]:>8,} "
            f"(local ratio {report.local_miss_ratio(component):.4f})"
        )
    print(f"slowdown      : {report.slowdown:.2f}x")
    print(f"paper scale   : {report.misses_paper_scale() / 1e6:.2f}M misses")
    if scope.faults is not None:
        _print_fault_summary(scope.faults)
    _export(args, scope.telemetry, [manifest])
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = get_workload(args.workload)
    config = CacheConfig(
        size_bytes=args.cache_size,
        line_bytes=args.line_bytes,
        associativity=args.associativity,
    )
    with _sessions(args):
        report = run_trace_driven(
            spec, config, args.refs, sampling=args.sampling
        )
    print(f"workload      : {report.workload}")
    print(f"configuration : {report.configuration}")
    print(f"refs traced   : {report.refs_traced:,}")
    print(f"misses        : {report.misses:,}")
    print(f"miss ratio    : {report.miss_ratio:.4f}")
    print(f"slowdown      : {report.slowdown:.2f}x")
    return 0


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    """Merge several Chrome trace files into one Perfetto-ready view."""
    payloads = []
    for name in args.inputs:
        try:
            payloads.append(json.loads(Path(name).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {name}: {exc}", file=sys.stderr)
            return 2
    merged = telemetry.merge_chrome_traces(payloads)
    _write_or_print(args.out, json.dumps(merged))
    if args.out != "-":
        print(
            f"merged {len(payloads)} trace(s), "
            f"{len(merged['traceEvents'])} event(s) -> {args.out}"
        )
    return 0


def _reproduce_one(
    name: str, budget: str, farm=None, sample: Mapping[str, Any] | None = None
) -> dict[str, dict] | None:
    """Run and print one experiment; returns its ``estimates`` block
    (manifest schema v2) for sampled runs, None for exact ones.
    ``sample`` holds the sampled runner's keyword arguments."""
    module_name = EXPERIMENTS[name]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    sampled_runner = getattr(module, f"run_{module_name}_sampled", None)
    if sample is not None and sampled_runner is not None:
        result = sampled_runner(budget, farm=farm, **sample)
        print(module.render_sampled(result))
        return {
            f"{workload}.{metric}": estimate.to_manifest()
            for workload, sampled in sorted(result.results.items())
            for metric, estimate in sorted(sampled.estimates.items())
        }
    runner = getattr(module, f"run_{module_name}")
    takes = inspect.signature(runner).parameters
    if "budget" not in takes:
        result = runner()
    elif farm is not None and "farm" in takes:
        result = runner(budget, farm=farm)
    else:
        result = runner(budget)
    print(module.render(result))
    return None


def _cmd_reproduce(args: argparse.Namespace) -> int:
    fault_plan = _load_fault_plan(args)
    sample = None
    if args.sample_mode == "sampled":
        if fault_plan is not None:
            raise ConfigError(
                "--sample-mode sampled is incompatible with --fault-plan: "
                "fault experiments must simulate every reference "
                "(injected faults mutate shared warm state)"
            )
        sample = {
            "interval_refs": args.interval_refs,
            "max_phases": args.max_phases,
        }
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    manifests = []
    with _sessions(args, fault_plan) as scope:
        farm = _farm(args, scope, fault_plan) if args.jobs is not None else None
        for name in names:
            started = time.perf_counter()
            estimates = _reproduce_one(name, args.budget, farm, sample)
            if args.experiment == "all":
                print()
            results: dict[str, Any] = {
                "experiment": name,
                "budget": args.budget,
                "budget_refs": BUDGET_REFS.get(args.budget, 0),
            }
            if estimates is not None:
                results["sample_mode"] = "sampled"
            if farm is not None and farm.last_run is not None:
                results["farm"] = farm.last_run.summary()
            manifests.append(
                telemetry.RunManifest(
                    kind="experiment",
                    name=name,
                    configuration=f"budget={args.budget}"
                    + (", interval-sampled" if estimates is not None else ""),
                    config_hash=telemetry.config_hash(
                        {"experiment": name, "budget": args.budget}
                    ),
                    seed=0,
                    wall_clock_secs=time.perf_counter() - started,
                    metrics=scope.snapshot(),
                    results=results,
                    estimates=estimates,
                )
            )
    if farm is not None and farm.metrics.jobs:
        print(f"farm ({farm.config.max_workers} workers)")
        print(farm.metrics.render())
    if scope.faults is not None and scope.faults.runs:
        _print_fault_summary(scope.faults)
    _export(args, scope.telemetry, manifests)
    return 0


def _cmd_sweep_grid(args: argparse.Namespace) -> int:
    """One-pass grid sweep: one cached farm job, every cell's misses."""
    from repro.caches.config import GridConfig
    from repro.caches.gridsweep import grid_job, grid_rows

    grid = GridConfig(
        set_counts=tuple(args.sets),
        ways=tuple(args.ways),
        line_bytes=args.line,
        indexing=Indexing(args.indexing),
    )
    total_refs = _budget_refs(args)
    started = time.perf_counter()
    with _sessions(args) as scope:
        farm = _farm(args, scope)
        job = grid_job(args.workload, total_refs, grid, seed=args.seed)
        payload = farm.run_jobs([job])[0]
        elapsed = time.perf_counter() - started

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        miss_counts = payload["miss_counts"]
        rows = []
        for n_sets in grid.set_counts:
            row: list[Any] = [n_sets]
            for ways in grid.ways:
                row.append(f"{miss_counts[f'{n_sets}x{ways}']:,}")
            rows.append(row)
        print(format_table(
            ["sets \\ ways", *[str(w) for w in grid.ways]],
            rows,
            title=(
                f"{args.workload}: exact misses over {payload['refs']:,} "
                f"refs ({grid.describe()})"
            ),
        ))
        hist = payload["stack_distance_hist"]
        largest = str(grid.set_counts[-1])
        print(
            f"passes        : {payload['passes']} distance passes for "
            f"{grid.n_cells} configurations"
        )
        print(
            f"cold misses   : {hist[largest]['cold']:,} "
            f"(compulsory, geometry-independent)"
        )
        print(f"wall clock    : {elapsed:.2f}s")
        if farm.last_run is not None:
            print(f"farm ({farm.config.max_workers} worker(s))")
            print(farm.last_run.render())

    manifest = telemetry.RunManifest(
        kind="sweep",
        name="grid",
        configuration=(
            f"{args.workload}, {grid.describe()}, refs={total_refs}"
        ),
        config_hash=telemetry.config_hash(
            {
                "workload": args.workload,
                "total_refs": total_refs,
                "set_counts": list(grid.set_counts),
                "ways": list(grid.ways),
                "line_bytes": grid.line_bytes,
                "indexing": grid.indexing.value,
            }
        ),
        seed=args.seed,
        wall_clock_secs=elapsed,
        metrics=scope.snapshot(),
        results={
            "workload": args.workload,
            "refs": payload["refs"],
            "cells": grid.n_cells,
            "passes": payload["passes"],
            "miss_counts": payload["miss_counts"],
            "stack_distance_hist": payload["stack_distance_hist"],
            "rows": grid_rows(payload),
            "farm": (
                farm.last_run.summary() if farm.last_run is not None else {}
            ),
        },
    )
    _export(args, scope.telemetry, [manifest])
    return 0


def _sample_profile(args: argparse.Namespace):
    """The workload spec and its interval profile, per the sample flags."""
    from repro.experiments.table7 import default_interval_refs
    from repro.sampling import profile_workload

    total_refs = _budget_refs(args)
    interval_refs = (
        args.interval_refs
        if args.interval_refs is not None
        else default_interval_refs(total_refs)
    )
    spec = get_workload(args.workload)
    with _sessions(args):
        return spec, profile_workload(spec, total_refs, interval_refs)


def _cmd_sample_profile(args: argparse.Namespace) -> int:
    from repro.sampling import FEATURE_NAMES

    spec, profile = _sample_profile(args)
    if args.json:
        print(json.dumps(
            {
                "workload": profile.workload,
                "task": profile.task,
                "total_refs": profile.total_refs,
                "interval_refs": profile.interval_refs,
                "n_intervals": profile.n_intervals,
                "features": profile.rows(),
            },
            indent=2, sort_keys=True,
        ))
        return 0
    rows = [
        [i] + [f"{row[name]:.4f}" for name in FEATURE_NAMES]
        for i, row in enumerate(profile.rows())
    ]
    print(format_table(
        ["Interval", *FEATURE_NAMES],
        rows,
        title=(
            f"{spec.name}: {profile.n_intervals} intervals of "
            f"{profile.interval_refs:,} refs"
        ),
    ))
    return 0


def _cmd_sample_plan(args: argparse.Namespace) -> int:
    from repro.sampling import build_plan

    spec, profile = _sample_profile(args)
    plan = build_plan(
        profile,
        max_phases=args.max_phases,
        per_phase=args.per_phase,
        seed=args.seed,
    )
    if args.out:
        _write_or_print(args.out, plan.dumps())
    if args.json:
        if args.out != "-":
            print(plan.dumps())
        return 0
    sizes = plan.phase_sizes()
    rows = [
        [
            s.interval,
            s.phase,
            s.role,
            sizes[s.phase],
            f"{plan.start_of(s.interval):,}",
        ]
        for s in plan.samples
    ]
    print(format_table(
        ["Interval", "Phase", "Role", "Phase size", "Start ref"],
        rows,
        title=(
            f"{spec.name}: {plan.n_phases} phase(s), "
            f"{len(plan.samples)}/{plan.n_intervals} intervals selected "
            f"({plan.selection_fraction:.0%} of the stream)"
        ),
    ))
    return 0


def _cmd_sample_stats(args: argparse.Namespace) -> int:
    """Summarize every sampled-run estimate recorded in the manifest log."""
    path = STORES["telemetry"].path(args)
    records = telemetry.read_manifests(path)
    sampled = [r for r in records if isinstance(r.get("estimates"), dict)]
    if args.json:
        print(json.dumps(
            [
                {
                    "name": r.get("name"),
                    "configuration": r.get("configuration"),
                    "created_unix": r.get("created_unix"),
                    "estimates": r["estimates"],
                }
                for r in sampled
            ],
            indent=2, sort_keys=True,
        ))
        return 0
    if not sampled:
        print(f"no sampled-run estimates in {path}")
        return 0
    rows = []
    for record in sampled:
        created = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.get("created_unix", 0))
        )
        for metric, entry in sorted(record["estimates"].items()):
            value = entry.get("value", 0.0)
            half = (entry.get("ci_high", 0.0) - entry.get("ci_low", 0.0)) / 2
            half_pct = 100.0 * half / abs(value) if value else 0.0
            rows.append(
                [
                    created,
                    record.get("name", "?"),
                    metric,
                    f"{value:,.1f}",
                    f"±{half_pct:.1f}%",
                    entry.get("method", "?"),
                    "yes" if entry.get("exact") else "no",
                ]
            )
    print(format_table(
        ["When", "Run", "Metric", "Value", "95% CI", "Method", "Exact"],
        rows,
        title=f"Sampled-run estimates ({path}, {len(sampled)} record(s))",
    ))
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.faults import default_plan, load_plan
    from repro.faults.chaos import DEFAULT_CHAOS_REFS, run_chaos

    plan = load_plan(args.plan) if args.plan else default_plan()
    report = run_chaos(
        plan,
        workload=args.workload,
        refs=args.refs if args.refs is not None else DEFAULT_CHAOS_REFS,
        seed=args.seed,
    )
    if args.json:
        print(report.dumps())
    else:
        print(report.render())
    if args.report_out:
        _write_or_print(args.report_out, report.dumps())
    return 0 if report.ok else 1


def _cmd_chaos_plan(args: argparse.Namespace) -> int:
    from repro.faults import default_plan

    print(default_plan().dumps())
    return 0


# ---------------------------------------------------------------------------
# the on-disk stores: one clear shape, per-store stats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Store:
    """One on-disk store's admin row: the flag naming its directory,
    the directory used without the flag, the call that clears it
    (returning how many items it dropped) and the noun for those items.
    A ``log_file`` store is one file, not a directory."""

    flag: str
    default: Path
    clear: Callable[[Path], int]
    noun: str
    log_file: bool = False

    def path(self, args: argparse.Namespace):
        """The store's directory (or log file) for this command."""
        return getattr(args, FLAGS[self.flag].dest) or self.default


def _clear_log(path: Path) -> int:
    log = RecordLog(path)
    count = len(list(log.records()))
    log.clear()
    return count


STORES = {
    "farm": Store("cache-dir", DEFAULT_CACHE_DIR,
                  lambda directory: ResultCache(directory).clear(),
                  "cached result(s)"),
    "streams": Store("stream-dir", DEFAULT_STORE_DIR,
                     lambda directory: StreamStore(directory).clear(),
                     "compiled stream(s)"),
    "telemetry": Store("manifest-path", telemetry.DEFAULT_MANIFEST_PATH,
                       _clear_log, "manifest record(s)", log_file=True),
}


def _cmd_clear(store: Store, args: argparse.Namespace) -> int:
    path = Path(store.path(args))
    dropped = store.clear(path)
    shown = path if store.log_file else f"{path}/"
    print(f"dropped {dropped} {store.noun} from {shown}")
    return 0


def _cmd_farm_stats(args: argparse.Namespace) -> int:
    cache = ResultCache(STORES["farm"].path(args))
    stats = cache.read_stats()
    per_measure = Counter(
        entry.get("measure") or "?" for entry in cache.entries()
    )
    if args.json:
        print(
            json.dumps(
                {
                    "cache_dir": str(cache.directory),
                    "stored_results": len(cache),
                    "per_measure": per_measure,
                    **stats,
                },
                indent=2, sort_keys=True,
            )
        )
        return 0
    print(f"cache dir     : {cache.directory}/")
    print(f"stored results: {len(cache)}")
    for measure in sorted(per_measure):
        print(f"  {measure:<16}: {per_measure[measure]}")
    print(f"farm runs     : {stats['runs']}")
    print(f"jobs seen     : {stats['jobs']}")
    print(f"cache hits    : {stats['cache_hits']}")
    print(f"executed      : {stats['executed']}")
    print(f"retries       : {stats['retries']}")
    print(f"corrupt       : {stats['cache_corrupt']}")
    print(f"wall clock    : {stats['wall_clock_secs']:.3f}s")
    return 0


def _cmd_streams_stats(args: argparse.Namespace) -> int:
    stats = StreamStore(STORES["streams"].path(args)).stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"store dir     : {stats['directory']}/")
    print(f"blobs         : {stats['blobs']}")
    print(f"blob bytes    : {stats['blob_bytes']:,}")
    print(f"compiled refs : {stats['compiled_refs']:,}")
    print(f"quarantined   : {stats['quarantined']}")
    return 0


def _cmd_streams_warm(args: argparse.Namespace) -> int:
    store = StreamStore(STORES["streams"].path(args))
    refs = _budget_refs(args)
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    session = StreamSession(store=store)
    compiled = 0
    for name in names:
        spec = get_workload(name)
        compiled += session.precompile(spec, refs)
        if args.data:
            compiled += session.precompile(
                spec, refs, include_data_refs=True
            )
    stats = store.stats()
    print(
        f"warmed {len(names)} workload(s) at {refs:,} refs: "
        f"{compiled} stream(s) compiled, "
        f"{session.memo_hits + store.hits} reused"
    )
    print(
        f"store now holds {stats['blobs']} blob(s), "
        f"{stats['blob_bytes'] / 1e6:.1f} MB"
    )
    return 0


def _cmd_manifests(args: argparse.Namespace) -> int:
    """The durable perf trajectory, newest last."""
    path = STORES["telemetry"].path(args)
    records = telemetry.read_manifests(path)
    records = records[-args.last :] if args.last > 0 else records
    if args.json:
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    if not records:
        print(f"no manifest records in {path}")
        return 0
    rows = []
    for record in records:
        created = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.get("created_unix", 0))
        )
        results: Mapping[str, Any] = record.get("results", {})
        slowdown = results.get("slowdown")
        rows.append(
            [
                created,
                record.get("kind", "?"),
                record.get("name", "?"),
                record.get("config_hash", "?")[:8],
                record.get("seed", 0),
                f"{record.get('wall_clock_secs', 0.0):.2f}s",
                f"{slowdown:.2f}x" if isinstance(slowdown, (int, float)) else "-",
                record.get("git_version", "?"),
            ]
        )
    print(
        format_table(
            ["When", "Kind", "Name", "Config", "Seed", "Wall", "Slowdown", "Git"],
            rows,
            title=f"Run manifests ({path})",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    records = telemetry.read_manifests(STORES["telemetry"].path(args))
    bad = 0
    for i, record in enumerate(records):
        problems = telemetry.validate_record(record)
        if problems:
            bad += 1
            print(f"record {i}: {'; '.join(problems)}", file=sys.stderr)
    print(f"{len(records)} record(s), {len(records) - bad} valid, {bad} invalid")
    return 1 if bad else 0


def _metric_weight(value: Any) -> float:
    """The ranking weight of one snapshot entry: histogram total (time
    spent), else the scalar counter/gauge value."""
    if isinstance(value, Mapping):
        total = value.get("sum", 0.0)
        return float(total) if isinstance(total, (int, float)) else 0.0
    return float(value) if isinstance(value, (int, float)) else 0.0


def _cmd_top(args: argparse.Namespace) -> int:
    """Rank the heaviest metric series — where the run's time/volume went."""
    if args.metrics:
        try:
            snapshot = json.loads(Path(args.metrics).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.metrics}: {exc}", file=sys.stderr)
            return 2
        source = args.metrics
    else:
        path = STORES["telemetry"].path(args)
        records = telemetry.read_manifests(path)
        if not records:
            print(f"no manifest records in {path}", file=sys.stderr)
            return 2
        snapshot = records[-1].get("metrics", {})
        source = f"{path} (latest record: {records[-1].get('name', '?')})"
    if not isinstance(snapshot, Mapping):
        print(f"error: {source} holds no metrics object", file=sys.stderr)
        return 2
    selected = sorted(
        (
            (key, value)
            for key, value in snapshot.items()
            if key.startswith(args.prefix)
        ),
        key=lambda item: _metric_weight(item[1]),
        reverse=True,
    )[: max(args.limit, 0) or None]
    if args.json:
        print(json.dumps(dict(selected), indent=2, sort_keys=True))
        return 0
    if not selected:
        print(f"no series matching prefix {args.prefix!r} in {source}")
        return 0
    rows = []
    for key, value in selected:
        if isinstance(value, Mapping):
            rows.append(
                [
                    key, "histogram", value.get("count", 0),
                    f"{value.get('sum', 0.0):,.6g}",
                    f"{value.get('mean', 0.0):,.6g}",
                    f"{value.get('p90', 0.0):,.6g}",
                ]
            )
        else:
            rows.append([key, "scalar", "", f"{value:,.6g}", "", ""])
    print(
        format_table(
            ["Series", "Kind", "Count", "Total", "Mean", "P90"],
            rows,
            title=f"Top metric series ({source})",
        )
    )
    return 0


# ---------------------------------------------------------------------------
# the farm service and its journal
# ---------------------------------------------------------------------------


def _print_gc_summary(summary: dict[str, Any]) -> None:
    budget = summary["budget_bytes"]
    print(
        f"gc            : budget="
        + ("unbounded" if budget is None else f"{budget:,}B")
        + f" pins={summary['pins']} evicted={summary['evicted']} "
        f"freed={summary['bytes_freed']:,}B "
        f"pinned_skips={summary['pinned_skips']}"
    )
    for tier in summary["tiers"]:
        print(
            f"  {tier['tier']:<8}: {tier['bytes_before']:,}B -> "
            f"{tier['bytes_after']:,}B "
            f"(evicted {tier['evicted']}, orphans {tier['orphans_swept']}, "
            f"migrated {tier['migrated']}, pinned {tier['pinned_skips']})"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.farm import FarmConfig, FarmService, ServiceConfig
    from repro.farm.jobs import Job

    params: dict[str, Any] = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("error: --params must be a JSON object", file=sys.stderr)
            return 2
    service = FarmService(
        ServiceConfig(
            farm=FarmConfig(
                max_workers=args.jobs,
                cache_dir=STORES["farm"].path(args),
            ),
            cache_budget_bytes=args.cache_budget,
            stream_dir=args.stream_dir,
            shard=args.shard,
        )
    )
    report: dict[str, Any] = {}
    if args.resume:
        report["resume"] = service.resume()
    ticket = None
    if args.seeds > 0:
        batch = [
            Job(measure=args.measure, params=params, seed=seed)
            for seed in range(args.seeds)
        ]
        ticket = service.run(batch, client=args.client, batch=args.batch)
        report["ticket"] = ticket.summary()
        report["values"] = ticket.results
    if args.cache_budget is not None:
        report["gc"] = service.gc()
    if args.compact:
        report["compacted"] = service.journal.compact()
    report["status"] = service.status()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        if "resume" in report:
            resumed = report["resume"]
            print(
                f"resume        : {resumed['incomplete']} unfinished — "
                f"{resumed['reconciled']} reconciled from cache, "
                f"{resumed['executed']} re-executed, "
                f"{resumed['unreplayable']} unreplayable"
            )
        if ticket is not None:
            print(
                f"ticket        : #{ticket.ticket_id} {ticket.state}"
                + (" [degraded to serial]" if ticket.degraded else "")
            )
            if ticket.results is not None:
                print(f"values        : {ticket.results}")
            for key, reason in (ticket.reasons or {}).items():
                print(
                    f"  poisoned    : {key[:12]} "
                    f"{reason.get('verdict', reason)}"
                )
            if ticket.state == "failed":
                print(f"  error       : {ticket.error}")
        if "gc" in report:
            _print_gc_summary(report["gc"])
        if "compacted" in report:
            print(f"compacted     : {report['compacted']} retired job(s)")
        print(service.render_status())
    if ticket is not None and ticket.state != "done":
        return 1
    return 0


def _cmd_jobs_list(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.farm import JobJournal
    from repro.farm.service import journal_rows

    cache_dir = STORES["farm"].path(args)
    journal = JobJournal(cache_dir)
    entries = journal.entries()
    if args.state:
        entries = [e for e in entries if e.state == args.state]
    if args.json:
        print(
            json.dumps(
                [dataclasses.asdict(e) for e in entries],
                indent=2, sort_keys=True,
            )
        )
        return 0
    if not entries:
        print(f"journal is empty ({cache_dir}/)")
        return 0
    print(journal_rows(entries))
    counts = journal.counts()
    print(
        "totals: " + ", ".join(f"{k}={v}" for k, v in counts.items() if v)
    )
    return 0


def _cmd_jobs_retry(args: argparse.Namespace) -> int:
    from repro.farm import FarmConfig, FarmService, ServiceConfig

    service = FarmService(
        ServiceConfig(
            farm=FarmConfig(
                max_workers=1, cache_dir=STORES["farm"].path(args)
            )
        )
    )
    requeued = 0
    for entry in service.journal.entries():
        if entry.state in ("failed", "poisoned"):
            service.journal.requeue(entry.key)
            requeued += 1
    report = service.resume()
    report["requeued"] = requeued
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"retry         : {requeued} requeued — "
            f"{report['reconciled']} reconciled from cache, "
            f"{report['executed']} re-executed, "
            f"{report['unreplayable']} unreplayable"
        )
    return 0


def _cmd_jobs_gc(args: argparse.Namespace) -> int:
    from repro.farm.gc import CacheGC, journal_pins

    cache_dir = STORES["farm"].path(args)
    collector = CacheGC(args.cache_budget, pins=journal_pins(cache_dir))
    collector.collect(
        farm_dir=cache_dir,
        stream_dir=args.stream_dir,
        shard=args.shard,
    )
    summary = collector.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_gc_summary(summary)
    return 0


# ---------------------------------------------------------------------------
# metadata views
# ---------------------------------------------------------------------------


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            f"{spec.meta.instructions_millions:g}M",
            f"{spec.meta.run_time_secs:g}s",
            f"{spec.meta.frac_user:.0%}",
            spec.meta.user_task_count,
            spec.meta.description[:48],
        ]
        for spec in all_workloads()
    ]
    print(
        format_table(
            ["Workload", "Instr", "Time", "User", "Tasks", "Description"],
            rows,
            title="Workload models (Table 3/4)",
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Stack-distance locality profile per task stream — the calibration
    view used to fit the workloads to Table 6."""
    from repro.caches.stack import StackSimulator

    spec = get_workload(args.workload)
    sizes_kb = (1, 4, 16, 64)
    rows = []
    seen_binaries = set()
    for task_spec in spec.tasks.values():
        if task_spec.binary in seen_binaries:
            continue
        seen_binaries.add(task_spec.binary)
        stream = task_spec.build_stream(spec.name)
        simulator = StackSimulator(line_bytes=16)
        simulator.process(stream.next_chunk(args.refs))
        rows.append(
            [
                task_spec.name,
                f"{stream.footprint_bytes() // 1024}K",
            ]
            + [
                f"{simulator.miss_ratio(kb * 1024 // 16):.4f}"
                for kb in sizes_kb
            ]
        )
    print(
        format_table(
            ["Stream", "Footprint"] + [f"{kb}K" for kb in sizes_kb],
            rows,
            title=(
                f"{spec.name}: fully-associative LRU miss ratios "
                f"({args.refs:,} refs per stream)"
            ),
        )
    )
    return 0


def _cmd_assess_port(args: argparse.Namespace) -> int:
    from repro.machine.ops import assess_port

    try:
        assessment = assess_port(args.processor)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"processor          : {assessment.processor}")
    print(
        "mechanisms         : "
        + (", ".join(m.value for m in assessment.mechanisms) or "none")
    )
    print(f"cache simulation   : {'yes' if assessment.can_simulate_caches else 'no'}")
    print(f"TLB simulation     : {'yes' if assessment.can_simulate_tlbs else 'no'}")
    print(f"finest trap (bytes): {assessment.finest_granularity_bytes}")
    return 0


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One (sub)command: its help, its handler and its arguments, each
    a :data:`FLAGS` key, an :class:`Arg` or a :class:`Group`.  A
    command with children and no handler requires a subcommand."""

    help: str | None
    handler: Callable[[argparse.Namespace], int] | None = None
    args: tuple[str | Arg | Group, ...] = ()
    children: Mapping[str, Command] = field(default_factory=dict)


def _stats_command(name: str, help: str, handler) -> Command:
    """``<store> stats``: its directory flag and ``--json``."""
    return Command(help, handler, (
        STORES[name].flag,
        use("json",
            help="emit the counters as a JSON object (machine-readable)"),
    ))


def _clear_command(name: str, help: str) -> Command:
    """``<store> clear``, from the store's row."""
    store = STORES[name]
    return Command(
        help, functools.partial(_cmd_clear, store),
        (use(store.flag, help=None),),
    )


_SAMPLE_ARGS = (
    "workload", "budget", "refs",
    use("interval-refs",
        help="references per interval (default: budget/32, floored at "
             "one scheduler chunk)"),
    "json",
    STREAM_FLAGS,
)

_JOBS_CACHE_DIR = use("cache-dir", help=None)

COMMANDS: dict[str, Command] = {
    "run": Command("one trap-driven simulation", _cmd_run, (
        "workload",
        Arg("--structure", choices=("cache", "tlb"), default="cache"),
        "cache-size", "line-bytes", "associativity", "indexing",
        Arg("--tlb-entries", type=int, default=64),
        Arg("--page-bytes", type=_parse_size, default=4096),
        Arg("--replacement", default="lru"),
        use("sampling", metavar="K"),
        use("refs", default=300_000, metavar=None, help=None),
        "seed",
        Arg(
            "--simulate", type=_components, default=frozenset(Component),
            help="components to register: comma list of user,kernel,bsd,x "
                 "or 'all'",
        ),
        use("fault-plan",
            help="inject the machine-plane faults of this plan into the run "
                 "and audit the trap invariant at the plan's cadence"),
        STREAM_FLAGS,
        TELEMETRY_FLAGS,
    )),
    "trace": Command(
        "one Pixie+Cache2000 simulation, or 'trace merge' to "
        "combine Chrome trace files",
        _cmd_trace,
        (
            "workload", "cache-size", "line-bytes", "associativity",
            "sampling",
            use("refs", default=300_000, metavar=None, help=None),
            STREAM_FLAGS,
        ),
        {"merge": Command(
            "merge Chrome trace_event files (e.g. several runs' "
            "--trace-out) into one, lanes kept apart",
            _cmd_trace_merge,
            (
                Arg("inputs", nargs="+", metavar="TRACE.json",
                    help="Chrome trace files to merge"),
                Arg("--out", default="-", metavar="PATH",
                    help="merged trace destination (default: stdout)"),
            ),
        )},
    ),
    "reproduce": Command("regenerate a paper table/figure", _cmd_reproduce, (
        Arg("experiment", choices=sorted(EXPERIMENTS) + ["all"]),
        "budget",
        use("jobs",
            help="run multi-trial experiments on an N-worker farm "
                 "(with result caching; default: serial, no farm)"),
        use("no-cache",
            help="bypass the farm's result cache (only meaningful with "
                 "--jobs)"),
        use("fault-plan",
            help="inject the plan's machine-plane faults into every trial "
                 "and its worker faults into the farm (with --jobs)"),
        Group("interval sampling", (
            Arg(
                "--sample-mode", choices=("exact", "sampled"), default="exact",
                help="'sampled' runs supporting experiments (table7) through "
                     "repro.sampling: only representative intervals are "
                     "simulated and every result is an estimate with a 95%% "
                     "CI (incompatible with --fault-plan)",
            ),
            use("interval-refs",
                help="references per sampling interval "
                     "(default: budget/32, floored at one scheduler chunk)"),
            use("max-phases"),
        )),
        STREAM_FLAGS,
        TELEMETRY_FLAGS,
    )),
    "farm": Command("execution-farm cache utilities", children={
        "stats": _stats_command(
            "farm", "show cache contents and counters", _cmd_farm_stats
        ),
        "clear": _clear_command("farm", "drop every cached result"),
    }),
    "streams": Command("compiled reference-stream store utilities", children={
        "stats": _stats_command(
            "streams", "show stored blobs and byte totals", _cmd_streams_stats
        ),
        "clear": _clear_command("streams", "drop every compiled stream blob"),
        "warm": Command(
            "precompile workload streams into the store", _cmd_streams_warm, (
                use("workload", default="all",
                    choices=tuple(WORKLOAD_NAMES) + ("all",),
                    help="workload to compile (default: all registered "
                         "workloads)"),
                use("budget", help="reference budget the blobs are sized for"),
                "refs",
                Arg("--data", action="store_true",
                    help="also compile the data-interleaved (TLB) stream "
                         "variants"),
                use("stream-dir", help=None),
            ),
        ),
    }),
    "telemetry": Command(
        "run-manifest and telemetry utilities",
        children={
            "manifests": Command("list recorded run manifests", _cmd_manifests, (
                "manifest-path",
                Arg("--last", type=int, default=20, metavar="N",
                    help="show only the most recent N records"),
                use("json", help="emit raw JSONL records"),
            )),
            "validate": Command(
                "schema-check every record in the manifest log",
                _cmd_validate, (use("manifest-path", help=None),),
            ),
            "top": Command(
                "rank metric series by weight (histograms by total, "
                "counters by value) from a snapshot or the manifest log",
                _cmd_top,
                (
                    Arg("--metrics", default=None, metavar="SNAPSHOT.json",
                        help="metrics snapshot (a --metrics-out file); "
                             "default: the latest manifest record's metrics "
                             "block"),
                    "manifest-path",
                    Arg("--prefix", default="", metavar="NAME",
                        help="only series whose key starts with NAME "
                             "(e.g. 'profile.')"),
                    Arg("-n", "--limit", type=int, default=20, metavar="N",
                        help="show the top N series (default 20)"),
                    "json",
                ),
            ),
            "clear": _clear_command(
                "telemetry", "drop the run-manifest log"
            ),
        },
    ),
    "chaos": Command("fault-injection runs and plan utilities", children={
        "run": Command(
            "execute a fault plan; exit non-zero on any silent fault",
            _cmd_chaos_run,
            (
                Arg("--plan", metavar="PLAN.json", default=None,
                    help="fault plan to execute (default: the built-in "
                         "default plan)"),
                "workload",
                use("refs",
                    help="trap-driven budget per machine-plane fault class"),
                "seed",
                Arg("--report-out", metavar="PATH", default=None,
                    help="also write the full report as JSON ('-' for "
                         "stdout)"),
                use("json",
                    help="print the JSON report instead of the text "
                         "rendering"),
            ),
        ),
        "plan": Command(
            "print the default fault plan as editable JSON", _cmd_chaos_plan
        ),
    }),
    "serve": Command(
        "run a batch through the supervised, crash-recoverable farm "
        "service (journal + supervisor + admission + GC)",
        _cmd_serve,
        (
            Arg("--measure", default="chaos.probe", metavar="NAME",
                help="registered measure every job runs (default: the "
                     "chaos probe)"),
            Arg("--seeds", type=_at_least(0), default=8, metavar="N",
                help="submit one job per seed 0..N-1 (0 = no new batch, "
                     "e.g. a resume-only invocation)"),
            Arg("--params", default=None, metavar="JSON",
                help="JSON object of keyword params passed to every job's "
                     "measure"),
            use("jobs", default=2, metavar="W",
                help="pool worker processes (default 2)"),
            use("cache-dir",
                help="farm cache + journal directory (default .farm-cache/)"),
            Arg("--client", default="cli", metavar="ID",
                help="client id for fair-share admission"),
            Arg("--batch", default="", metavar="LABEL",
                help="batch label recorded in the journal"),
            Arg("--resume", action="store_true",
                help="first replay unfinished journaled work from a "
                     "previous (possibly SIGKILLed) service run, exactly "
                     "once"),
            use("cache-budget",
                help="after the batch, GC every cache tier down to BYTES "
                     "per tier (journal-leased entries are pinned)"),
            use("stream-dir", help="also GC this stream-store directory"),
            use("shard",
                help="migrate the stream tier into two-level shard dirs "
                     "during GC"),
            Arg("--compact", action="store_true",
                help="drop retired (done) journal entries after the run"),
            use("json", help="emit the full service report as JSON"),
        ),
    ),
    "jobs": Command("job-journal utilities (list, retry, gc)", children={
        "list": Command("show the journal's job table", _cmd_jobs_list, (
            _JOBS_CACHE_DIR,
            Arg("--state", default=None,
                choices=("queued", "leased", "done", "failed", "poisoned"),
                help="only jobs in this state"),
            use("json", help=None),
        )),
        "retry": Command(
            "requeue every failed/poisoned job and re-run it serially",
            _cmd_jobs_retry, (_JOBS_CACHE_DIR, use("json", help=None)),
        ),
        "gc": Command(
            "size-budgeted cache GC with journal pins held", _cmd_jobs_gc, (
                use("cache-budget", required=True,
                    help="per-tier byte budget (0 = evict everything "
                         "unpinned)"),
                _JOBS_CACHE_DIR,
                use("stream-dir", help=None),
                use("shard",
                    help="migrate the stream tier into two-level shard dirs"),
                use("json", help=None),
            ),
        ),
    }),
    "sample": Command(
        "interval-sampling utilities (profile, plan, stats)",
        children={
            "profile": Command(
                "per-interval feature vectors of one workload",
                _cmd_sample_profile, _SAMPLE_ARGS,
            ),
            "plan": Command(
                "cluster a profile into phases and select intervals",
                _cmd_sample_plan,
                (
                    *_SAMPLE_ARGS,
                    "max-phases",
                    Arg("--per-phase", type=int, default=3, metavar="M",
                        help="sampled intervals per phase (centroid + M-1 "
                             "random)"),
                    "seed",
                    Arg("--out", metavar="PATH", default=None,
                        help="also write the plan as JSON ('-' for stdout)"),
                ),
            ),
            "stats": Command(
                "summarize sampled-run estimates in the manifest log",
                _cmd_sample_stats,
                (
                    "manifest-path",
                    "json",
                ),
            ),
        },
    ),
    "sweep": Command("one-pass multi-configuration sweeps", children={
        "grid": Command(
            "all-associativity (sets × ways) LRU grid from one "
            "stack-distance pass per set count, bit-equal to running "
            "every configuration separately",
            _cmd_sweep_grid,
            (
                "workload",
                Arg("--sets", type=_int_list, default=(64, 128, 256, 512),
                    metavar="S1,S2,...",
                    help="power-of-two set counts (grid rows)"),
                Arg("--ways", type=_int_list, default=(1, 2, 4, 8),
                    metavar="A1,A2,...",
                    help="power-of-two associativities (grid columns)"),
                Arg("--line", type=_parse_size, default=16, metavar="BYTES",
                    help="line size (default 16)"),
                "indexing", "budget", "refs", "seed",
                use("jobs", default=1,
                    help="farm workers for the (single) sweep job; 1 runs "
                         "in-process"),
                use("no-cache", help="bypass the farm result cache"),
                "json",
                STREAM_FLAGS,
                TELEMETRY_FLAGS,
            ),
        ),
    }),
    "workloads": Command("list workload models", _cmd_workloads),
    "profile": Command(
        "locality profile of one workload's streams", _cmd_profile, (
            Arg("workload", choices=WORKLOAD_NAMES),
            use("refs", default=60_000, metavar=None, help=None),
        ),
    ),
    "assess-port": Command(
        "Table 12 feasibility for one processor", _cmd_assess_port,
        (Arg("processor"),),
    ),
}


def _add_args(parser, items: Sequence[str | Arg | Group]) -> None:
    for item in items:
        if isinstance(item, Group):
            _add_args(parser.add_argument_group(item.title), item.args)
        else:
            arg = FLAGS[item] if isinstance(item, str) else item
            parser.add_argument(*arg.names, **arg.kwargs)


def _add_command(
    parser: argparse.ArgumentParser, command: Command, dest: str
) -> None:
    _add_args(parser, command.args)
    if command.handler is not None:
        parser.set_defaults(handler=command.handler)
    if command.children:
        sub = parser.add_subparsers(
            dest=dest, required=command.handler is None
        )
        for name, child in command.children.items():
            _add_command(
                sub.add_parser(name, help=child.help), child, f"{name}_command"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tapeworm II (ASPLOS 1994) reproduction toolkit",
    )
    _add_command(parser, Command(None, children=COMMANDS), "command")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
