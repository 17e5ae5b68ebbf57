"""reprolint speed — the cost of the lint gate on the real tree.

Not a paper figure: this benchmark sizes the lint gate itself. Every
rule is per-file, and the content-hash cache exists so the pre-commit /
warm-CI case re-analyses nothing. We time the full rule set — serial
cold, parallel cold, parallel warm (``--cache``, second run) — and
record everything, with the host's core count, in ``BENCH_lint.json``
so the perf trajectory survives across PRs.

Assertions are shape, not absolute wall time (CI hosts vary): the tree
must stay clean, the warm run must hit the cache for every file and
beat the cold run, and a cold full-tree lint must stay within an
interactive budget. ``check_lint_regression.py`` gates the warm run
against the committed baseline.
"""

import json
import os
import time
from pathlib import Path

import pytest

from conftest import print_block
from repro.eval.report import format_table
from repro.lint.cache import ResultCache
from repro.lint.engine import discover_files, lint_paths
from repro.lint.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = Path(__file__).parent / "BENCH_lint.json"
LINT_PATHS = [REPO_ROOT / "src", REPO_ROOT / "tests"]

#: Generous ceiling for a cold parallel full-tree run. A typical dev
#: host does this in well under a second; tripping 30 s means the
#: engine went accidentally quadratic, not that the host is slow.
COLD_BUDGET_S = 30.0


def timed_lint(jobs, cache=None, repeat=1):
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = lint_paths(LINT_PATHS, jobs=jobs, root=REPO_ROOT, cache=cache)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


@pytest.mark.slow
def test_lint_speed(tmp_path):
    n_files = len(discover_files(LINT_PATHS))

    serial, serial_s = timed_lint(jobs=1)
    parallel, parallel_s = timed_lint(jobs=None)

    cache_dir = tmp_path / "cache"
    timed_lint(jobs=None, cache=ResultCache(cache_dir))  # populate
    warm_cache = ResultCache(cache_dir)
    warm, warm_s = timed_lint(jobs=None, cache=warm_cache, repeat=3)

    results = [
        {"mode": "serial cold", "wall_s": serial_s, "files": serial.files},
        {"mode": "parallel cold", "wall_s": parallel_s, "files": parallel.files},
        {"mode": "parallel warm", "wall_s": warm_s, "files": warm.files},
    ]
    rows = [
        [r["mode"], r["files"], f"{r['wall_s'] * 1e3:.0f}", f"{r['files'] / r['wall_s']:.0f}"]
        for r in results
    ]
    print_block(
        format_table(
            "reprolint full-tree speed (src + tests)",
            ["mode", "files", "wall ms", "files/s"],
            rows,
        )
    )
    BENCH_PATH.write_text(
        json.dumps(
            {
                "nproc": os.cpu_count(),
                "rules": len(all_rules()),
                "files": n_files,
                "cache": {"hits": warm_cache.hits, "misses": warm_cache.misses},
                "results": results,
            },
            indent=2,
        )
    )

    # The benchmark doubles as a whole-tree gate: every rule runs here
    # with no baseline, so the tree itself must be clean.
    for result in (serial, parallel, warm):
        assert result.diagnostics == []
        assert result.files == n_files
    # The warm run must answer every file from the cache and win.
    assert (warm_cache.hits, warm_cache.misses) == (n_files * 3, 0)
    assert warm_s < parallel_s
    assert parallel_s < COLD_BUDGET_S
