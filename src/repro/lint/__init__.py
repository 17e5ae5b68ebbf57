"""reprolint — AST-based invariant checker for this reproduction.

A dependency-free static-analysis framework enforcing the conventions
the codebase's correctness rests on:

- **determinism** (``wall-clock``, ``global-rng``) — the pure
  simulation packages must be bit-reproducible from a seed;
- **units** (``unit-suffix``, ``unit-mismatch``) — physical quantities
  carry their unit in the name, and values of one unit family are never
  bound to names of another;
- **lock discipline** (``guarded-by``) — state written under a lock is
  always accessed under it;
- **API hygiene** (``mutable-default``, ``except-hygiene``,
  ``or-default``) — no state shared through default arguments, no
  catch-all that swallows the errors recovery paths wait for, and no
  ``x or default`` on an ``Optional`` parameter;
- **resource lifecycle** (``resource-leak``) — service-layer resources
  are released on every path;
- **event-loop blocking** (``blocking-in-async``) — no coroutine
  reaches a blocking primitive, however many sync helpers away.

Run it with ``python -m repro lint [paths]``; see
``docs/static_analysis.md`` for the rule ledger, suppression pragmas
and the baseline workflow.
"""

from repro.lint.baseline import Baseline
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import check_file, discover_files, lint_paths
from repro.lint.reporters import LintResult, render_json, render_text
from repro.lint.rules import LintRule, all_rules, rules_by_name

__all__ = [
    "Baseline",
    "Diagnostic",
    "LintResult",
    "LintRule",
    "all_rules",
    "check_file",
    "discover_files",
    "lint_paths",
    "render_json",
    "render_text",
    "rules_by_name",
]
