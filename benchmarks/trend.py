#!/usr/bin/env python
"""The perf-trend watchdog: keep the benchmark story from rotting.

``benchmarks/results/BENCH_*.json`` holds the perf envelopes committed
by past PRs (the PR 3 kernel speedups, the PR 5/6 stream and sampling
frontiers, the PR 8 pass-pipeline dispatch envelope, kept as history
after its benchmark was retired).  Those numbers back claims in the docs — and nothing until
now re-read them.  This script:

* loads every ``BENCH_*.json`` under the results directory (plus any
  extra files passed on the command line, e.g. a fresh CI run),
* normalizes each record to one flat schema —
  ``(suite, record, budget, metric) -> [snapshots...]`` — tolerating
  both the schema-1 envelope and bare record lists,
* renders a per-metric trajectory table (first, best, latest), and
* with ``--check-regressions`` exits non-zero if any *gated* metric's
  latest snapshot has regressed more than ``--threshold`` percent below
  the best value ever recorded for its group.

Gated metrics are the machine-relative ratios (``results.speedup`` and
friends, selected by ``--gate`` glob patterns): absolute throughputs
vary with the host, but a kernel that used to beat its baseline 30x and
now manages 10x has rotted no matter the machine.  Groups are keyed by
budget too, so a tiny-budget CI run is never compared against a
committed quick-budget record.

Run it::

    python benchmarks/trend.py                         # table
    python benchmarks/trend.py --check-regressions     # CI gate
    python benchmarks/trend.py --json                  # machine output

Stdlib-only on purpose — CI can invoke it before the package
under ``src/`` is importable.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

#: default location of the committed benchmark envelopes
DEFAULT_RESULTS_DIR = Path(__file__).parent / "results"

#: metric-name patterns gated by --check-regressions: machine-relative
#: ratios only, never absolute throughput
DEFAULT_GATES = ("results.speedup",)

#: allowed regression of a gated metric vs its best snapshot, percent
DEFAULT_THRESHOLD_PCT = 25.0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_envelope(path: Path) -> dict:
    """One BENCH file as ``{suite, budget, records}``, schema-checked
    loosely: unknown layouts raise ValueError with the reason."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path.name}: unreadable ({exc})") from exc
    if isinstance(payload, list):  # bare record list: normalize up
        payload = {"suite": path.stem, "budget": "unknown", "records": payload}
    if not isinstance(payload, dict):
        raise ValueError(f"{path.name}: not a JSON object")
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ValueError(f"{path.name}: no records array")
    for record in records:
        if not isinstance(record, dict) or "name" not in record:
            raise ValueError(f"{path.name}: malformed record {record!r}")
    return {
        "suite": str(payload.get("suite", path.stem)),
        "budget": str(payload.get("budget", "unknown")),
        "records": records,
    }


def flatten_record(record: dict) -> dict[str, float]:
    """Numeric leaves of one record as ``section.metric`` -> value."""
    flat: dict[str, float] = {}
    for section in ("results", "metrics"):
        values = record.get(section)
        if not isinstance(values, dict):
            continue
        for name, value in values.items():
            if _is_number(value):
                flat[f"{section}.{name}"] = float(value)
    if _is_number(record.get("wall_clock_secs")):
        flat["wall_clock_secs"] = float(record["wall_clock_secs"])
    return flat


def collect(paths: list[Path]) -> tuple[dict, list[str]]:
    """All snapshots, grouped: ``(suite, record, budget, metric) ->
    [{value, created_unix, source}, ...]`` plus any load problems."""
    groups: dict[tuple[str, str, str, str], list[dict]] = {}
    problems: list[str] = []
    for path in paths:
        try:
            envelope = load_envelope(path)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        for record in envelope["records"]:
            created = record.get("created_unix")
            created = float(created) if _is_number(created) else 0.0
            for metric, value in flatten_record(record).items():
                key = (
                    envelope["suite"],
                    str(record["name"]),
                    envelope["budget"],
                    metric,
                )
                groups.setdefault(key, []).append(
                    {
                        "value": value,
                        "created_unix": created,
                        "source": path.name,
                    }
                )
    for snapshots in groups.values():
        snapshots.sort(key=lambda s: (s["created_unix"], s["source"]))
    return groups, problems


def is_gated(metric: str, gates: tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatch(metric, pattern) for pattern in gates)


def check_regressions(
    groups: dict, gates: tuple[str, ...], threshold_pct: float
) -> list[dict]:
    """Gated groups whose latest snapshot sits more than
    ``threshold_pct`` percent below the group's best value."""
    failures = []
    for (suite, name, budget, metric), snapshots in sorted(groups.items()):
        if not is_gated(metric, gates):
            continue
        best = max(s["value"] for s in snapshots)
        latest = snapshots[-1]["value"]
        if best <= 0:
            continue
        regression_pct = (best - latest) / best * 100.0
        if regression_pct > threshold_pct:
            failures.append(
                {
                    "suite": suite,
                    "record": name,
                    "budget": budget,
                    "metric": metric,
                    "best": best,
                    "latest": latest,
                    "regression_pct": round(regression_pct, 2),
                    "source": snapshots[-1]["source"],
                }
            )
    return failures


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_table(
    groups: dict, gates: tuple[str, ...], only_gated: bool = False
) -> str:
    """The trajectory table, one row per (suite, record, budget, metric)."""
    header = ("suite", "record", "budget", "metric", "n", "first", "best",
              "latest", "gated")
    rows = [header]
    for (suite, name, budget, metric), snapshots in sorted(groups.items()):
        gated = is_gated(metric, gates)
        if only_gated and not gated:
            continue
        values = [s["value"] for s in snapshots]
        rows.append(
            (
                suite, name, budget, metric, str(len(values)),
                _format(values[0]), _format(max(values)),
                _format(values[-1]), "yes" if gated else "",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="perf-trend watchdog over benchmarks/results/BENCH_*.json"
    )
    parser.add_argument(
        "extra", nargs="*", type=Path,
        help="additional BENCH envelope files (e.g. a fresh CI run)",
    )
    parser.add_argument(
        "--results-dir", type=Path, default=DEFAULT_RESULTS_DIR,
        help="directory scanned for BENCH_*.json (default: %(default)s)",
    )
    parser.add_argument(
        "--check-regressions", action="store_true",
        help="exit 1 if any gated metric regressed past the threshold",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
        metavar="PCT",
        help="allowed regression vs the best snapshot, percent "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--gate", action="append", default=None, metavar="PATTERN",
        help="glob pattern of gated metric names "
        f"(repeatable; default: {', '.join(DEFAULT_GATES)})",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the normalized groups and verdict as JSON",
    )
    args = parser.parse_args(argv)

    paths = sorted(args.results_dir.glob("BENCH_*.json")) + list(args.extra)
    if not paths:
        print(f"no BENCH_*.json under {args.results_dir}", file=sys.stderr)
        return 2
    gates = tuple(args.gate) if args.gate else DEFAULT_GATES
    groups, problems = collect(paths)
    # a missing or partially-written envelope (e.g. CI killed mid-dump)
    # must not take the watchdog down with it: warn, skip the file, and
    # keep judging whatever did load
    for problem in problems:
        print(f"warning: {problem} — skipped", file=sys.stderr)
    if not groups:
        print(
            "error: no numeric metrics found in any readable file",
            file=sys.stderr,
        )
        return 2

    failures = check_regressions(groups, gates, args.threshold)

    if args.as_json:
        print(
            json.dumps(
                {
                    "files": [path.name for path in paths],
                    "groups": [
                        {
                            "suite": suite, "record": name,
                            "budget": budget, "metric": metric,
                            "gated": is_gated(metric, gates),
                            "snapshots": snapshots,
                        }
                        for (suite, name, budget, metric), snapshots
                        in sorted(groups.items())
                    ],
                    "threshold_pct": args.threshold,
                    "skipped": problems,
                    "failures": failures,
                },
                indent=2,
            )
        )
    else:
        print(render_table(groups, gates))
        print()
        gated_count = sum(1 for key in groups if is_gated(key[3], gates))
        print(
            f"{len(groups)} metric group(s) across {len(paths)} file(s); "
            f"{gated_count} gated (threshold {args.threshold:g}%)"
            + (f"; {len(problems)} file(s) skipped" if problems else "")
        )
        for failure in failures:
            print(
                f"REGRESSION: {failure['suite']}/{failure['record']} "
                f"[{failure['budget']}] {failure['metric']}: "
                f"best {_format(failure['best'])} -> latest "
                f"{_format(failure['latest'])} "
                f"({failure['regression_pct']:g}% worse, "
                f"from {failure['source']})"
            )
        if not failures:
            print("no gated regressions")

    if args.check_regressions and failures:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
