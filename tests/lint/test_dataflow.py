"""Def/use extraction and solver tests on small, hand-checkable CFGs."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.cfg import build_cfg, iter_functions
from repro.lint.dataflow import element_defs_uses, solve


def _cfg(source: str, name: str = "f"):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(dict(iter_functions(tree))[name], name)


def _element(source: str):
    """The single statement of a module, as an element."""
    return ast.parse(textwrap.dedent(source)).body[0]


class TestDefsUses:
    def test_simple_assign(self):
        defs, uses = element_defs_uses(_element("y = x + 1"))
        assert defs == {"y"} and uses == {"x"}

    def test_tuple_target_and_starred(self):
        defs, _ = element_defs_uses(_element("a, (b, *c) = v"))
        assert defs == {"a", "b", "c"}

    def test_augassign_uses_its_own_target(self):
        defs, uses = element_defs_uses(_element("total += x"))
        assert defs == {"total"} and uses == {"total", "x"}

    def test_walrus_inside_expression(self):
        defs, uses = element_defs_uses(_element("print((n := len(items)))"))
        assert "n" in defs and "items" in uses

    def test_attribute_target_binds_nothing(self):
        defs, uses = element_defs_uses(_element("obj.field = x"))
        assert defs == frozenset() and uses == {"obj", "x"}

    def test_import_binds_aliases(self):
        defs, _ = element_defs_uses(_element("import numpy as np"))
        assert defs == {"np"}
        defs, _ = element_defs_uses(_element("from a.b import c as d, e"))
        assert defs == {"d", "e"}

    def test_nested_scope_loads_count_as_uses(self):
        defs, uses = element_defs_uses(_element("h = lambda: x + 1"))
        assert defs == {"h"} and "x" in uses


class TestSolverBookkeeping:
    def test_converges_with_tight_cap_reported(self, bound_names):
        cfg = _cfg(
            """
            def f(n):
                i = 0
                while i < n:
                    i = i + 1
                return i
            """
        )
        full = solve(cfg, bound_names())
        assert full.converged and full.steps > 0
        assert full.inputs[cfg.exit] == {"n", "i"}
        starved = solve(cfg, bound_names(), max_steps=1)
        assert not starved.converged
