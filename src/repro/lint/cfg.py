"""Intra-procedural control-flow graphs for ``resource-leak``.

:func:`build_cfg` turns one function body into basic blocks connected by
``flow`` and ``except`` edges, covering every statement form in the
grammar: branches, loops (with ``else`` clauses and constant-condition
pruning), ``with``, ``match``, and the full ``try``/``except``/``else``/
``finally`` shape. Comprehensions and nested function bodies are opaque:
their loads count as uses at the statement that contains them, but their
internal control flow is not modelled (each nested function gets its own
CFG via :func:`iter_functions`).

Blocks carry *elements* rather than raw statements: simple statements
appear as themselves, control headers appear as their condition/iterator
expression, and implicit bindings (parameters, loop targets, ``with ...
as``, ``except ... as``, ``match`` captures) appear as small wrapper
records so the dataflow layer sees every definition site with a source
position.

Exception modelling is deliberately bounded: an ``except`` edge is added
from every block of a ``try`` body to each of its handlers (and to the
``finally`` block when there are no handlers), and explicit ``raise``
statements are routed through enclosing ``finally`` blocks to the
innermost enclosing handler set or the function exit. Code *outside* any
``try`` is not given implicit may-raise edges — a linter that assumed
every expression can raise would drown real findings in phantom paths.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Union, cast

__all__ = [
    "ArgsBind",
    "Block",
    "CFG",
    "Edge",
    "Element",
    "ExceptBind",
    "FunctionLike",
    "LoopTargetBind",
    "MatchBind",
    "WithBind",
    "build_cfg",
    "iter_functions",
]

FunctionLike = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Call names that make local-variable analysis unsound for a function.
_DYNAMIC_LOCALS = frozenset({"locals", "vars", "eval", "exec", "globals"})


# --------------------------------------------------------------- bind wrappers
@dataclass(frozen=True, eq=False)
class ArgsBind:
    """Parameter binding at function entry."""

    fn: FunctionLike

    @property
    def lineno(self) -> int:
        return self.fn.lineno

    @property
    def col_offset(self) -> int:
        return self.fn.col_offset


@dataclass(frozen=True, eq=False)
class LoopTargetBind:
    """Per-iteration binding of a ``for`` target."""

    loop: Union[ast.For, ast.AsyncFor]

    @property
    def lineno(self) -> int:
        return self.loop.target.lineno

    @property
    def col_offset(self) -> int:
        return self.loop.target.col_offset


@dataclass(frozen=True, eq=False)
class WithBind:
    """One ``with`` item: the context manager and its optional ``as`` name."""

    item: ast.withitem
    stmt: Union[ast.With, ast.AsyncWith]

    @property
    def lineno(self) -> int:
        return self.item.context_expr.lineno

    @property
    def col_offset(self) -> int:
        return self.item.context_expr.col_offset


@dataclass(frozen=True, eq=False)
class ExceptBind:
    """Handler-entry binding of ``except E as name``."""

    handler: ast.ExceptHandler

    @property
    def lineno(self) -> int:
        return self.handler.lineno

    @property
    def col_offset(self) -> int:
        return self.handler.col_offset


@dataclass(frozen=True, eq=False)
class MatchBind:
    """Names captured by one ``match`` case pattern."""

    case: ast.match_case
    subject: ast.expr

    @property
    def lineno(self) -> int:
        return self.case.pattern.lineno

    @property
    def col_offset(self) -> int:
        return self.case.pattern.col_offset


Element = Union[ast.stmt, ast.expr, ArgsBind, LoopTargetBind, WithBind, ExceptBind, MatchBind]


# --------------------------------------------------------------------- graph
@dataclass(frozen=True)
class Edge:
    """Directed edge between blocks; ``kind`` is ``flow`` or ``except``."""

    src: int
    dst: int
    kind: str = "flow"


class Block:
    """One basic block: a label, ordered elements, and edge lists."""

    def __init__(self, index: int, label: str) -> None:
        self.index = index
        self.label = label
        self.elements: list[Element] = []
        self.succ: list[Edge] = []
        self.pred: list[Edge] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.index}, {self.label!r}, {len(self.elements)} elements)"


@dataclass
class CFG:
    """Control-flow graph of one function."""

    fn: FunctionLike
    qualname: str
    blocks: list[Block]
    entry: int
    exit: int
    #: True when the function calls locals()/vars()/eval()/exec()/globals();
    #: name-level analyses are unsound then and rules should stand down.
    uses_dynamic_locals: bool
    #: Statement nodes the builder did not recognise (must stay empty; the
    #: self-check test asserts no statement form falls back here).
    unsupported: list[ast.stmt] = field(default_factory=list)


# ------------------------------------------------------------------- builder
@dataclass
class _LoopCtx:
    break_to: int
    continue_to: int


@dataclass
class _TryCtx:
    handler_entries: list[int]
    finally_entry: int | None
    finally_exit: int | None
    #: Continuation blocks the finally subgraph must feed into (exit,
    #: loop targets, the after-block...) — wired when the try completes.
    pending: set[int] = field(default_factory=set)


def _const_truth(test: ast.expr) -> bool | None:
    """Constant truth value of a test expression, or None when dynamic."""
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return None


def _irrefutable(pattern: ast.pattern) -> bool:
    """True for a bare capture/wildcard pattern (always matches)."""
    return isinstance(pattern, ast.MatchAs) and pattern.pattern is None


class _Builder:
    def __init__(self, fn: FunctionLike, qualname: str) -> None:
        self.fn = fn
        self.qualname = qualname
        self.blocks: list[Block] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.cur = self.entry
        self.stack: list[_LoopCtx | _TryCtx] = []
        self.unsupported: list[ast.stmt] = []

    # ---------------------------------------------------------- graph helpers
    def _new(self, label: str) -> int:
        block = Block(len(self.blocks), label)
        self.blocks.append(block)
        return block.index

    def _edge(self, src: int, dst: int, kind: str = "flow") -> None:
        edge = Edge(src, dst, kind)
        self.blocks[src].succ.append(edge)
        self.blocks[dst].pred.append(edge)

    def _emit(self, element: Element) -> None:
        self.blocks[self.cur].elements.append(element)

    # ------------------------------------------------------------ entry point
    def build(self) -> CFG:
        self._emit(ArgsBind(self.fn))
        self._stmts(self.fn.body)
        self._edge(self.cur, self.exit)
        return CFG(
            fn=self.fn,
            qualname=self.qualname,
            blocks=self.blocks,
            entry=self.entry,
            exit=self.exit,
            uses_dynamic_locals=_uses_dynamic_locals(self.fn),
            unsupported=self.unsupported,
        )

    # ------------------------------------------------------------- statements
    def _stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(
            node,
            (
                ast.Assign,
                ast.AugAssign,
                ast.AnnAssign,
                ast.Expr,
                ast.Pass,
                ast.Import,
                ast.ImportFrom,
                ast.Delete,
                ast.Assert,
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
                ast.Global,
                ast.Nonlocal,
            ),
        ):
            self._emit(node)
        elif isinstance(node, ast.Return):
            self._emit(node)
            self._abrupt_return()
        elif isinstance(node, ast.Raise):
            self._emit(node)
            self._abrupt_raise()
        elif isinstance(node, ast.Break):
            self._emit(node)
            self._abrupt_break()
        elif isinstance(node, ast.Continue):
            self._emit(node)
            self._abrupt_continue()
        elif isinstance(node, ast.If):
            self._if(node)
        elif isinstance(node, ast.While):
            self._while(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._for(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
        elif isinstance(node, ast.Try):
            self._try(node)
        elif node.__class__.__name__ == "TryStar":
            # 3.11+ except* groups share Try's field layout; approximate
            # them as plain except for flow purposes.
            self._try(cast(ast.Try, node))
        elif isinstance(node, ast.Match):
            self._match(node)
        else:  # pragma: no cover - tripped only by future grammar
            self.unsupported.append(node)
            self._emit(node)

    # ------------------------------------------------------------ control flow
    def _if(self, node: ast.If) -> None:
        self._emit(node.test)
        origin = self.cur
        truth = _const_truth(node.test)
        after = self._new("if.after")

        then_block = self._new("if.then")
        if truth is not False:
            self._edge(origin, then_block)
        self.cur = then_block
        self._stmts(node.body)
        self._edge(self.cur, after)

        if node.orelse:
            else_block = self._new("if.else")
            if truth is not True:
                self._edge(origin, else_block)
            self.cur = else_block
            self._stmts(node.orelse)
            self._edge(self.cur, after)
        elif truth is not True:
            self._edge(origin, after)
        self.cur = after

    def _while(self, node: ast.While) -> None:
        head = self._new("while.head")
        self._edge(self.cur, head)
        self.cur = head
        self._emit(node.test)
        truth = _const_truth(node.test)
        after = self._new("while.after")

        body = self._new("while.body")
        if truth is not False:
            self._edge(head, body)
        self.stack.append(_LoopCtx(break_to=after, continue_to=head))
        self.cur = body
        self._stmts(node.body)
        self._edge(self.cur, head)
        self.stack.pop()

        if truth is not True:
            if node.orelse:
                else_block = self._new("while.else")
                self._edge(head, else_block)
                self.cur = else_block
                self._stmts(node.orelse)
                self._edge(self.cur, after)
            else:
                self._edge(head, after)
        self.cur = after

    def _for(self, node: ast.For | ast.AsyncFor) -> None:
        self._emit(node.iter)
        head = self._new("for.head")
        self._edge(self.cur, head)
        after = self._new("for.after")

        body = self._new("for.body")
        self._edge(head, body)
        self.stack.append(_LoopCtx(break_to=after, continue_to=head))
        self.cur = body
        self._emit(LoopTargetBind(node))
        self._stmts(node.body)
        self._edge(self.cur, head)
        self.stack.pop()

        if node.orelse:
            else_block = self._new("for.else")
            self._edge(head, else_block)
            self.cur = else_block
            self._stmts(node.orelse)
            self._edge(self.cur, after)
        else:
            self._edge(head, after)
        self.cur = after

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            self._emit(item.context_expr)
            self._emit(WithBind(item, node))
        self._stmts(node.body)

    def _match(self, node: ast.Match) -> None:
        self._emit(node.subject)
        origin = self.cur
        after = self._new("match.after")
        exhaustive = False
        for case in node.cases:
            case_block = self._new("match.case")
            self._edge(origin, case_block)
            self.cur = case_block
            self._emit(MatchBind(case, node.subject))
            if case.guard is not None:
                self._emit(case.guard)
            self._stmts(case.body)
            self._edge(self.cur, after)
            if case.guard is None and _irrefutable(case.pattern):
                exhaustive = True
        if not exhaustive:
            self._edge(origin, after)
        self.cur = after

    def _try(self, node: ast.Try) -> None:
        after = self._new("try.after")

        # The finally subgraph is built first, under the *outer* context:
        # a break/return inside a finally binds to constructs outside the
        # try. It is shared by every path (no statement duplication); the
        # continuations collected in ``pending`` are wired at the end.
        finally_entry: int | None = None
        finally_exit: int | None = None
        if node.finalbody:
            finally_entry = self._new("finally")
            saved = self.cur
            self.cur = finally_entry
            self._stmts(node.finalbody)
            finally_exit = self.cur
            self.cur = saved

        handler_entries = [self._new("except") for _ in node.handlers]
        ctx = _TryCtx(
            handler_entries=list(handler_entries),
            finally_entry=finally_entry,
            finally_exit=finally_exit,
        )

        pre = self.cur  # an exception may occur before any body statement ran
        self.stack.append(ctx)
        first_new = len(self.blocks)
        body_entry = self._new("try.body")
        self._edge(pre, body_entry)
        self.cur = body_entry
        self._stmts(node.body)
        body_end = self.cur
        body_blocks = [pre, *range(first_new, len(self.blocks))]

        # Any statement in the body may raise: except edges to every
        # handler, or straight into the finally for a handler-less try.
        if handler_entries:
            for src in body_blocks:
                for dst in handler_entries:
                    self._edge(src, dst, kind="except")
        elif finally_entry is not None:
            for src in body_blocks:
                self._edge(src, finally_entry, kind="except")
            ctx.pending.add(self.exit)  # unhandled: finally, then propagate

        # Handlers stop applying: exceptions raised in the else clause or
        # inside a handler body are not caught by this try (the finally
        # still runs — ctx stays on the stack for that routing).
        ctx.handler_entries.clear()

        self.cur = body_end
        if node.orelse:
            self._stmts(node.orelse)
        normal_ends = [self.cur]

        for handler, entry in zip(node.handlers, handler_entries):
            self.cur = entry
            self._emit(ExceptBind(handler))
            self._stmts(handler.body)
            normal_ends.append(self.cur)
        self.stack.pop()

        if finally_entry is not None and finally_exit is not None:
            for end in normal_ends:
                self._edge(end, finally_entry)
            ctx.pending.add(after)
            for continuation in sorted(ctx.pending):
                self._edge(finally_exit, continuation)
        else:
            for end in normal_ends:
                self._edge(end, after)
        self.cur = after

    # ------------------------------------------------------------ abrupt exits
    def _abrupt_return(self) -> None:
        finallys = [
            item
            for item in reversed(self.stack)
            if isinstance(item, _TryCtx) and item.finally_entry is not None
        ]
        self._chain(finallys, [self.exit], kind="flow")

    def _abrupt_raise(self) -> None:
        finallys: list[_TryCtx] = []
        targets = [self.exit]
        kind = "except"
        for item in reversed(self.stack):
            if isinstance(item, _TryCtx):
                if item.handler_entries:
                    targets = list(item.handler_entries)
                    break
                if item.finally_entry is not None:
                    finallys.append(item)
        self._chain(finallys, targets, kind=kind)

    def _abrupt_break(self) -> None:
        self._abrupt_loop(lambda loop: loop.break_to)

    def _abrupt_continue(self) -> None:
        self._abrupt_loop(lambda loop: loop.continue_to)

    def _abrupt_loop(self, target_of: Callable[[_LoopCtx], int]) -> None:
        finallys: list[_TryCtx] = []
        targets = [self.exit]  # malformed break outside a loop: treat as exit
        for item in reversed(self.stack):
            if isinstance(item, _LoopCtx):
                targets = [target_of(item)]
                break
            if item.finally_entry is not None:
                finallys.append(item)
        self._chain(finallys, targets, kind="flow")

    def _chain(self, finallys: list[_TryCtx], targets: list[int], kind: str) -> None:
        """Route control from ``cur`` through ``finallys`` to ``targets``."""
        if not finallys:
            for target in targets:
                self._edge(self.cur, target, kind)
        else:
            first = finallys[0].finally_entry
            if first is not None:
                self._edge(self.cur, first, kind)
            for inner, outer in zip(finallys, finallys[1:]):
                if outer.finally_entry is not None:
                    inner.pending.add(outer.finally_entry)
            finallys[-1].pending.update(targets)
        self.cur = self._new("dead")


def _uses_dynamic_locals(fn: FunctionLike) -> bool:
    """True when the function calls locals()/vars()/eval()/exec()/globals()."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _DYNAMIC_LOCALS
        for node in ast.walk(fn)
    )


def build_cfg(fn: FunctionLike, qualname: str | None = None) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(fn, qualname if qualname is not None else fn.name).build()


def iter_functions(tree: ast.AST) -> Iterator[tuple[str, FunctionLike]]:
    """Yield ``(qualname, node)`` for every function in ``tree``, nested too."""
    stack: list[tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                stack.append((f"{qualname}.<locals>.", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((f"{prefix}{child.name}.", child))
            else:
                stack.append((prefix, child))
