"""Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a checkout.

Benchmarks the checkout's own ``src/`` tree.  Exits 2 without printing a
result when that tree is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # import the package by name, from this checkout only
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(here)]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
