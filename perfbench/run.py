"""Run one workload of the serving-path benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gateway-live --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 when every correctness check passed, 1 when one failed, and 2 when
the run could not be made at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["rescore-batch", "gateway-live", "gateway-upload"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=["full", "tiny"], default="full",
        help="input sizes; 'tiny' is for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _json_number(value: float) -> float:
    """A finite JSON number; a miss (inf) or no sample (NaN) reads as 1e12."""
    return value if math.isfinite(value) else 1e12


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {ROOT}; run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.workloads import E2E_METRICS, run

        result = run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except Exception:  # the run could not be made: report, print no result
        traceback.print_exc()
        return 2

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}"
    )
    print(f"{'metric':<34} {'value':>14} {'unit':<9} {'samples':>8}  note")
    for metric in result.metrics:
        print(
            f"{metric.name:<34} {metric.value:>14.6g} {metric.unit:<9} "
            f"{metric.samples:>8}  {metric.note}"
        )
    if result.failures:
        for failure in result.failures:
            print(f"CHECK FAILED: {failure}")
    else:
        print("checks: all passed")
    print(json.dumps({"run": result.meta}, sort_keys=True))

    if args.trace:
        wanted = None  # every per-layer metric
    else:
        wanted = {name for name, _ in E2E_METRICS}
    metrics = {
        m.name: {"value": _json_number(m.value), "unit": m.unit}
        for m in result.metrics
        if wanted is None or m.name in wanted
    }
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": max(1, result.attempted),
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
