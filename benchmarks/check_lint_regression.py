"""Perf-regression gate for the warm lint path (run by CI).

Compares the freshly measured ``BENCH_lint.json`` against the committed
``BENCH_lint_baseline.json`` and fails (exit 1) when the warm
full-rule-set run got more than 2x slower than the baseline. The warm
path is the one developers pay on every pre-commit run, and it is
exactly where the engine could silently start re-parsing or re-linting
files the cache already answers.

Both measurements are tens of milliseconds, so the gate also applies an
absolute floor: a candidate under ``ABS_FLOOR_S`` passes regardless of
ratio, because doubling a 20 ms number on a noisy shared host is
scheduler jitter, not a regression. A real regression — the cache no
longer hitting — lands the warm run back in cold-run territory, far
above the floor.

Usage::

    python benchmarks/check_lint_regression.py [candidate] [baseline]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Maximum tolerated slow-down of the warm full run vs the baseline.
TOLERANCE_RATIO = 2.0
#: Candidates faster than this pass unconditionally (jitter guard).
ABS_FLOOR_S = 0.25

HERE = Path(__file__).parent


def warm_full_s(bench: dict, path: Path) -> float:
    """Wall time of the warm full-rule run (``mode == "parallel warm"``)."""
    try:
        [warm] = [r for r in bench["results"] if r["mode"] == "parallel warm"]
        return float(warm["wall_s"])
    except (KeyError, TypeError, ValueError):
        raise SystemExit(f"{path}: no 'parallel warm' entry in results")


def main(argv: list[str]) -> int:
    candidate_path = Path(argv[1]) if len(argv) > 1 else HERE / "BENCH_lint.json"
    baseline_path = (
        Path(argv[2]) if len(argv) > 2 else HERE / "BENCH_lint_baseline.json"
    )
    candidate = json.loads(candidate_path.read_text())
    baseline = json.loads(baseline_path.read_text())

    new = warm_full_s(candidate, candidate_path)
    old = warm_full_s(baseline, baseline_path)
    ceiling = max(TOLERANCE_RATIO * old, ABS_FLOOR_S)

    print(
        f"warm full-rule lint: candidate {new * 1e3:.0f} ms vs baseline "
        f"{old * 1e3:.0f} ms (ceiling {ceiling * 1e3:.0f} ms = "
        f"max({TOLERANCE_RATIO:.0f}x baseline, {ABS_FLOOR_S * 1e3:.0f} ms))"
    )
    if new > ceiling:
        print(
            "FAIL: the warm lint path regressed past the ceiling — check that "
            "the result cache still answers every unchanged file or, for a "
            "deliberate trade-off, refresh "
            "benchmarks/BENCH_lint_baseline.json in this PR and justify it."
        )
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
