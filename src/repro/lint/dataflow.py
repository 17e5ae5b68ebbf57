"""Forward worklist dataflow solver over reprolint's CFGs.

An :class:`Analysis` supplies the lattice (``initial``/``boundary``/
``join``) and a per-element transfer function; :func:`solve` iterates
block states from entry to exit to a fixpoint over a
:class:`~repro.lint.cfg.CFG`. States are ordinary immutable-ish Python
values compared with ``==``; lattices are finite (sets of names or
sites), so termination is guaranteed — the iteration cap is a tripwire
for solver bugs, surfaced through ``Solution.converged`` and asserted
over the whole tree by the CFG self-check test. ``resource-leak`` is
the one analysis built on it.

Definition/use extraction (:func:`element_defs_uses`) handles every
element form the CFG emits, including walrus targets inside header
expressions. Loads inside nested scopes (lambdas, comprehensions, inner
functions) count as uses at the containing element.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.lint.cfg import (
    CFG,
    ArgsBind,
    Element,
    ExceptBind,
    FunctionLike,
    LoopTargetBind,
    MatchBind,
    WithBind,
)

__all__ = ["Analysis", "Solution", "element_defs_uses", "solve"]

S = TypeVar("S")


# ------------------------------------------------------------- defs and uses
def _loads(node: ast.AST | None) -> list[str]:
    if node is None:
        return []
    return [
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    ]


def _walrus_defs(node: ast.AST | None) -> list[str]:
    if node is None:
        return []
    return [
        n.target.id
        for n in ast.walk(node)
        if isinstance(n, ast.NamedExpr) and isinstance(n.target, ast.Name)
    ]


def _target_names(node: ast.expr) -> list[str]:
    """Plain names bound by an assignment/loop/with target."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in node.elts:
            out.extend(_target_names(elt))
        return out
    if isinstance(node, ast.Starred):
        return _target_names(node.value)
    return []  # attribute/subscript targets bind no local name


def _arg_names(fn: FunctionLike) -> list[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _pattern_captures(pattern: ast.pattern) -> list[str]:
    names: list[str] = []
    for node in ast.walk(pattern):
        if isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name is not None:
            names.append(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest is not None:
            names.append(node.rest)
    return names


def element_defs_uses(element: Element) -> tuple[frozenset[str], frozenset[str]]:
    """``(defined names, used names)`` of one CFG element."""
    defs: list[str] = []
    uses: list[str] = []
    if isinstance(element, ArgsBind):
        defs = _arg_names(element.fn)
    elif isinstance(element, LoopTargetBind):
        defs = _target_names(element.loop.target) + _walrus_defs(element.loop.target)
        uses = _loads(element.loop.target)
    elif isinstance(element, WithBind):
        if element.item.optional_vars is not None:
            defs = _target_names(element.item.optional_vars)
            uses = _loads(element.item.optional_vars)
    elif isinstance(element, ExceptBind):
        if element.handler.name is not None:
            defs = [element.handler.name]
        uses = _loads(element.handler.type)
    elif isinstance(element, MatchBind):
        defs = _pattern_captures(element.case.pattern)
        uses = [
            name
            for node in ast.walk(element.case.pattern)
            if isinstance(node, (ast.MatchValue, ast.MatchClass))
            for name in _loads(node.value if isinstance(node, ast.MatchValue) else node.cls)
        ]
    elif isinstance(element, ast.Assign):
        for target in element.targets:
            defs.extend(_target_names(target))
            uses.extend(_loads(target))
        defs.extend(_walrus_defs(element.value))
        uses.extend(_loads(element.value))
    elif isinstance(element, ast.AugAssign):
        if isinstance(element.target, ast.Name):
            defs = [element.target.id]
            uses.append(element.target.id)
        uses.extend(_loads(element.target))
        uses.extend(_loads(element.value))
        defs.extend(_walrus_defs(element.value))
    elif isinstance(element, ast.AnnAssign):
        if element.value is not None and isinstance(element.target, ast.Name):
            defs = [element.target.id]
        uses = _loads(element.value) + _loads(element.target) + _loads(element.annotation)
        defs.extend(_walrus_defs(element.value))
    elif isinstance(element, ast.Delete):
        for target in element.targets:
            defs.extend(_target_names(target))
            uses.extend(_loads(target))
    elif isinstance(element, ast.Import):
        defs = [alias.asname if alias.asname else alias.name.split(".")[0] for alias in element.names]
    elif isinstance(element, ast.ImportFrom):
        defs = [alias.asname if alias.asname else alias.name for alias in element.names]
    elif isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defs = [element.name]
        uses = _loads(element)
    elif isinstance(element, ast.Return):
        uses = _loads(element.value)
        defs = _walrus_defs(element.value)
    elif isinstance(element, ast.Raise):
        uses = _loads(element.exc) + _loads(element.cause)
    elif isinstance(element, ast.Assert):
        uses = _loads(element.test) + _loads(element.msg)
        defs = _walrus_defs(element.test)
    elif isinstance(element, ast.Expr):
        uses = _loads(element.value)
        defs = _walrus_defs(element.value)
    elif isinstance(element, ast.expr):
        uses = _loads(element)
        defs = _walrus_defs(element)
    elif isinstance(element, (ast.Global, ast.Nonlocal, ast.Pass, ast.Break, ast.Continue)):
        pass
    else:
        # Unknown statement forms (tracked in CFG.unsupported): loads only.
        uses = _loads(element)
    return frozenset(defs), frozenset(uses)


# ------------------------------------------------------------------- solver
class Analysis(Generic[S]):
    """A forward dataflow problem: lattice operations plus the transfer."""

    def boundary(self, cfg: CFG) -> S:
        """State at the entry block."""
        raise NotImplementedError

    def initial(self, cfg: CFG) -> S:
        """Bottom state every other block starts the iteration from."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        """Least upper bound of two states (confluence)."""
        raise NotImplementedError

    def transfer(self, element: Element, state: S) -> S:
        """State after ``element``."""
        raise NotImplementedError


@dataclass
class Solution(Generic[S]):
    """Fixpoint states per block, plus convergence bookkeeping."""

    cfg: CFG
    analysis: Analysis[S]
    #: Input state per block (after joining predecessors).
    inputs: list[S]
    #: Output state per block (after all transfers).
    outputs: list[S]
    #: Block transfers performed before the fixpoint (or the cap) was hit.
    steps: int
    #: False only if the iteration cap tripped — a solver bug, not a
    #: property of well-formed input (lattices here are finite).
    converged: bool


def _rpo(cfg: CFG) -> list[int]:
    """Reverse postorder from the entry block; unreachable blocks last."""
    seen: set[int] = set()
    post: list[int] = []

    def visit(root: int) -> None:
        stack: list[tuple[int, int]] = [(root, 0)]
        seen.add(root)
        while stack:
            block, cursor = stack[-1]
            succs = [e.dst for e in cfg.blocks[block].succ]
            if cursor < len(succs):
                stack[-1] = (block, cursor + 1)
                nxt = succs[cursor]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                post.append(block)
                stack.pop()

    visit(cfg.entry)
    order = list(reversed(post))
    order.extend(b.index for b in cfg.blocks if b.index not in seen)
    return order


def solve(cfg: CFG, analysis: Analysis[S], max_steps: int | None = None) -> Solution[S]:
    """Iterate ``analysis`` over ``cfg`` to a fixpoint."""
    n_blocks = len(cfg.blocks)
    cap = max_steps if max_steps is not None else 64 * n_blocks + 256
    inputs: list[S] = [analysis.initial(cfg) for _ in range(n_blocks)]
    outputs: list[S] = [analysis.initial(cfg) for _ in range(n_blocks)]
    worklist: deque[int] = deque(_rpo(cfg))
    queued = set(worklist)
    steps = 0
    converged = True
    while worklist:
        if steps >= cap:
            converged = False
            break
        block = worklist.popleft()
        queued.discard(block)
        steps += 1
        state = analysis.boundary(cfg) if block == cfg.entry else analysis.initial(cfg)
        for edge in cfg.blocks[block].pred:
            state = analysis.join(state, outputs[edge.src])
        inputs[block] = state
        for element in cfg.blocks[block].elements:
            state = analysis.transfer(element, state)
        if state != outputs[block]:
            outputs[block] = state
            for nxt in (e.dst for e in cfg.blocks[block].succ):
                if nxt not in queued:
                    worklist.append(nxt)
                    queued.add(nxt)
    return Solution(cfg, analysis, inputs, outputs, steps, converged)

