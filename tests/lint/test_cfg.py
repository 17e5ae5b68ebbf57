"""CFG builder tests: targeted shapes plus the whole-tree self-check.

The self-check is an acceptance criterion: every function in ``src/``
must build a CFG with no statement falling back to "unsupported", and
the solver must reach a fixpoint on it without tripping the iteration
cap. A new statement form entering the tree therefore fails tests
before it silently degrades ``resource-leak``.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.cfg import CFG, ArgsBind, build_cfg, iter_functions
from repro.lint.dataflow import solve


def _cfg_of(source: str, name: str = "f"):
    tree = ast.parse(textwrap.dedent(source))
    functions = dict(iter_functions(tree))
    return build_cfg(functions[name], name)


def _reachable(cfg: CFG) -> set[int]:
    """Block indices reachable from the entry along any edge kind."""
    seen = {cfg.entry}
    frontier = [cfg.entry]
    while frontier:
        for edge in cfg.blocks[frontier.pop()].succ:
            if edge.dst not in seen:
                seen.add(edge.dst)
                frontier.append(edge.dst)
    return seen


class TestShapes:
    def test_straight_line_is_one_block(self):
        cfg = _cfg_of(
            """
            def f(x):
                y = x + 1
                return y
            """
        )
        reachable = _reachable(cfg)
        assert cfg.entry in reachable and cfg.exit in reachable
        # entry args-bind element exists
        entry_elements = cfg.blocks[cfg.entry].elements
        assert any(isinstance(e, ArgsBind) for e in entry_elements)

    def test_if_else_joins(self):
        cfg = _cfg_of(
            """
            def f(x):
                if x > 0:
                    y = 1
                else:
                    y = 2
                return y
            """
        )
        # Both arms reach the return: the block holding `return y` has
        # two predecessors.
        ret_blocks = [
            b
            for b in cfg.blocks
            if any(isinstance(e, ast.Return) for e in b.elements)
        ]
        assert len(ret_blocks) == 1
        assert len(ret_blocks[0].pred) == 2

    def test_while_has_back_edge(self):
        cfg = _cfg_of(
            """
            def f(n):
                i = 0
                while i < n:
                    i = i + 1
                return i
            """
        )
        assert any(e.dst <= e.src for b in cfg.blocks for e in b.succ)

    def test_while_true_without_break_makes_after_unreachable(self):
        cfg = _cfg_of(
            """
            def f():
                while True:
                    pass
                return 1
            """
        )
        reachable = _reachable(cfg)
        dead = [
            b
            for b in cfg.blocks
            if b.index not in reachable
            and any(isinstance(e, ast.Return) for e in b.elements)
        ]
        assert dead, "return after while True should be unreachable"

    def test_break_escapes_the_loop(self):
        cfg = _cfg_of(
            """
            def f():
                while True:
                    break
                return 1
            """
        )
        reachable = _reachable(cfg)
        ret = [
            b
            for b in cfg.blocks
            if any(isinstance(e, ast.Return) for e in b.elements)
        ]
        assert ret and ret[0].index in reachable

    def test_code_after_return_is_unreachable(self):
        cfg = _cfg_of(
            """
            def f(x):
                return x
                x = 99
            """
        )
        reachable = _reachable(cfg)
        dead_assign = [
            b
            for b in cfg.blocks
            if b.index not in reachable
            and any(isinstance(e, ast.Assign) for e in b.elements)
        ]
        assert dead_assign

    def test_try_body_has_except_edge_to_handler(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    return 0
                return 1
            """
        )
        assert any(
            e.kind == "except" for b in cfg.blocks for e in b.succ
        ), "try body should carry an exceptional edge"

    def test_finally_runs_on_both_paths(self):
        # The `done = True` element must sit on every entry→exit path:
        # removing the finally block's predecessors would disconnect exit.
        cfg = _cfg_of(
            """
            def f(x):
                done = False
                try:
                    if x:
                        return 1
                finally:
                    done = True
                return 2
            """
        )
        finally_blocks = {
            b.index
            for b in cfg.blocks
            if any(
                isinstance(e, ast.Assign)
                and isinstance(e.targets[0], ast.Name)
                and e.targets[0].id == "done"
                and isinstance(e.value, ast.Constant)
                and e.value.value is True
                for e in b.elements
            )
        }
        assert finally_blocks
        # Both the early return and the fall-through route through it.
        preds = {
            e.src for i in finally_blocks for e in cfg.blocks[i].pred
        }
        assert len(preds) >= 2

    def test_match_statement_binds_captures(self):
        cfg = _cfg_of(
            """
            def f(cmd):
                match cmd:
                    case ("go", speed):
                        return speed
                    case _:
                        return 0
            """
        )
        assert cfg.unsupported == []
        assert _reachable(cfg)

    def test_with_statement_supported(self):
        cfg = _cfg_of(
            """
            def f(lock):
                with lock:
                    x = 1
                return x
            """
        )
        assert cfg.unsupported == []

    def test_nested_functions_get_own_cfgs(self):
        source = """
            def f(x):
                def g():
                    return x
                return g
        """
        tree = ast.parse(textwrap.dedent(source))
        names = [qualname for qualname, _ in iter_functions(tree)]
        assert names == ["f", "f.<locals>.g"]
        # g's body is opaque inside f's CFG: its return is not f's.
        returns = [
            e for b in _cfg_of(source, "f").blocks for e in b.elements
            if isinstance(e, ast.Return)
        ]
        assert [ast.unparse(r) for r in returns] == ["return g"]


class TestWholeTreeSelfCheck:
    def test_every_src_function_builds_and_converges(self, repo_root, bound_names):
        src = repo_root / "src"
        checked = 0
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for qualname, fn in iter_functions(tree):
                cfg = build_cfg(fn, qualname)
                assert cfg.unsupported == [], (
                    f"{path}:{qualname} hit unsupported statements: "
                    f"{[type(s).__name__ for s in cfg.unsupported]}"
                )
                solution = solve(cfg, bound_names())
                assert solution.converged, f"{path}:{qualname} solver cap"
                checked += 1
        # The tree is not trivial: hundreds of functions went through.
        assert checked > 400
