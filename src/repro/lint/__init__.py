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
  ``x or default`` on an ``Optional`` parameter.

Every rule is per-file: no call graph, no whole-tree pass. The event
loop and OS-resource release are checked at run time instead, by the
tier-1 test suite (``tests/conftest.py``).

Run it with ``python -m repro lint [paths]``; see
``docs/static_analysis.md`` for the rule ledger, suppression pragmas,
the runtime checks and the baseline workflow.
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
