"""reprolint speed — the cost of the dataflow engine on the real tree.

Not a paper figure: this benchmark sizes the lint gate itself. The
dataflow engine behind ``resource-leak`` (a CFG build and a fixpoint
solve per function) makes a cold run more expensive than the purely
lexical rules, and the content-hash cache exists to buy that back for
the pre-commit / warm-CI case. The interprocedural layer (call graph +
bottom-up summaries) adds a whole-tree analysis pass on top; its facts
store must keep the warm path cheap. We time the full rule set — serial
cold, parallel cold, parallel warm (``--cache``, second run) — plus a
warm run of the intra-procedural subset only, and record everything in
``BENCH_lint.json`` so the perf trajectory survives across PRs.

Assertions are shape, not absolute wall time (CI hosts vary): the tree
must stay clean, the warm run must hit the cache for every file and
beat the cold run, a cold full-tree lint must stay within an
interactive budget, and the warm *interprocedural* run must stay within
2x of the warm intra-procedural run (with a small absolute floor so
scheduler jitter on a sub-50 ms measurement cannot fail the gate).
"""

import json
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

#: The warm interprocedural run must cost at most this multiple of the
#: warm intra-procedural run: the summary store means a no-change rerun
#: pays one digest check, not a whole-tree re-analysis.
WARM_INTERPROC_RATIO = 2.0

#: Below this absolute wall time the ratio gate is moot — both warm
#: runs are inside scheduler-jitter territory and a 2x "regression"
#: of a 20 ms measurement is noise, not a perf change.
WARM_ABS_FLOOR_S = 0.25


def timed_lint(jobs, cache=None, rules=None, repeat=1):
    best = None
    result = None
    for _ in range(repeat):
        kwargs = {} if rules is None else {"rules": rules}
        start = time.perf_counter()
        result = lint_paths(
            LINT_PATHS, jobs=jobs, root=REPO_ROOT, cache=cache, **kwargs
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


@pytest.mark.slow
def test_lint_speed(tmp_path):
    n_files = len(discover_files(LINT_PATHS))
    intra_rules = tuple(r for r in all_rules() if not r.requires_project)
    assert len(intra_rules) < len(all_rules())  # the interproc family exists

    serial, serial_s = timed_lint(jobs=1)
    parallel, parallel_s = timed_lint(jobs=None)

    full_dir = tmp_path / "cache_full"
    timed_lint(jobs=None, cache=ResultCache(full_dir))  # populate
    warm_cache = ResultCache(full_dir)
    warm, warm_s = timed_lint(jobs=None, cache=warm_cache, repeat=3)

    intra_dir = tmp_path / "cache_intra"
    timed_lint(jobs=None, cache=ResultCache(intra_dir), rules=intra_rules)
    warm_intra, warm_intra_s = timed_lint(
        jobs=None, cache=ResultCache(intra_dir), rules=intra_rules, repeat=3
    )

    results = [
        {"mode": "serial cold", "wall_s": serial_s, "files": serial.files},
        {"mode": "parallel cold", "wall_s": parallel_s, "files": parallel.files},
        {"mode": "parallel warm", "wall_s": warm_s, "files": warm.files},
        {
            "mode": "parallel warm intra-only",
            "wall_s": warm_intra_s,
            "files": warm_intra.files,
        },
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
                "files": n_files,
                "cache": {"hits": warm_cache.hits, "misses": warm_cache.misses},
                "results": results,
                "interproc": {
                    "rules_total": len(all_rules()),
                    "rules_intra_only": len(intra_rules),
                    "warm_full_s": warm_s,
                    "warm_intra_s": warm_intra_s,
                    "warm_ratio": warm_s / warm_intra_s,
                },
            },
            indent=2,
        )
    )

    # The benchmark doubles as a whole-tree gate: the dataflow families
    # run here with no baseline, so the tree itself must be clean.
    for result in (serial, parallel, warm, warm_intra):
        assert result.diagnostics == []
        assert result.files == n_files
    # The warm run must answer every file from the cache and win.
    assert (warm_cache.hits, warm_cache.misses) == (n_files * 3, 0)
    assert warm_s < parallel_s
    assert parallel_s < COLD_BUDGET_S
    # Interprocedural analysis must stay cheap on the warm path.
    assert warm_s <= max(WARM_INTERPROC_RATIO * warm_intra_s, WARM_ABS_FLOOR_S)
