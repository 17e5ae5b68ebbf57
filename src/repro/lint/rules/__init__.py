"""Rule base class and the registry of every reprolint rule.

Rules are tiny stateless objects: a ``name`` (the id used in
``disable=`` pragmas and baseline entries), a one-line ``summary`` for
``--list-rules``, and a ``check`` method yielding
:class:`~repro.lint.diagnostics.Diagnostic` records. The registry is
assembled from explicit imports — no entry-point magic — so the full
rule catalogue is readable in one place.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic

__all__ = ["LintRule", "all_rules", "rules_by_name", "dotted_name"]


class LintRule:
    """Base class for every rule; subclasses set ``name`` and ``summary``."""

    name: str = ""
    summary: str = ""
    #: Bumped by the rule's author on any behaviour change; part of the
    #: result-cache fingerprint, so a re-tuned rule never serves stale
    #: cached findings (the names alone cannot express "same rule,
    #: different analysis").
    version: str = "1"
    #: True when the rule consumes the interprocedural project (call
    #: graph + summaries); the engine builds it only when some active
    #: rule needs it, keeping intra-procedural runs at their old cost.
    requires_project: bool = False

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        """Build a finding anchored at ``node``'s position."""
        return Diagnostic(
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule=self.name,
            message=message,
        )


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None.

    Shared by several rules that match calls and attribute accesses by
    their dotted spelling rather than by import resolution — the right
    weight for a repo-local linter with conventional import style
    (``import numpy as np``, ``import time``).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def all_rules() -> tuple[LintRule, ...]:
    """Every registered rule, in catalogue order."""
    from repro.lint.rules import (
        concurrency,
        determinism,
        hygiene,
        lifecycle,
        locks,
        units,
    )

    modules = (determinism, units, locks, hygiene, lifecycle, concurrency)
    out: list[LintRule] = []
    for module in modules:
        out.extend(module.RULES)
    return tuple(out)


def rules_by_name() -> dict[str, LintRule]:
    """Registry keyed by rule name."""
    registry: dict[str, LintRule] = {}
    for rule in all_rules():
        if rule.name in registry:
            raise RuntimeError(f"duplicate rule name {rule.name!r}")
        registry[rule.name] = rule
    return registry

