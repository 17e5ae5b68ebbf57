"""Lock-discipline rule: a lightweight guarded-by race checker.

The fleet subsystem shares per-session state between a pump thread and
a worker pool, protected by ``threading.Lock``/``Condition`` objects.
The compiler cannot check that discipline; this rule approximates the
classic *guarded-by* analysis at the AST level:

1. A class's **locks** are attributes assigned ``threading.Lock()``,
   ``RLock()`` or ``Condition()``.
2. An attribute ``self._x`` becomes **guarded** when any method writes
   it inside ``with self.<lock>:`` — or when its ``__init__``
   assignment carries ``# reprolint: guarded-by(<lock>)`` to declare
   the intent outright.
3. Every other access (read *or* write) to a guarded attribute outside
   ``__init__`` must hold one of its guarding locks, be inside a method
   whose ``def`` line carries ``guarded-by(<lock>)`` (callers hold the
   lock), or carry an explicit ``# reprolint: unguarded-ok`` pragma.

``__init__``/``__post_init__`` are exempt: construction happens before
the object is shared. A class also inherits the locks and the
constructor declarations of its base classes defined in the same file,
so a subclass method that touches its base's guarded state is checked
too. The analysis is intentionally syntactic — it checks the
*convention*, catching the accidental unguarded access that code review
misses, not aliasing through local variables.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import LintRule, dotted_name

__all__ = ["GuardedByRule", "RULES"]

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


@dataclass
class _Access:
    """One ``self._x`` touch inside a method body."""

    node: ast.Attribute
    attr: str
    method: str
    is_write: bool
    held: frozenset[str]
    line: int
    unguarded_ok: bool


@dataclass
class _ClassFacts:
    locks: set[str] = field(default_factory=set)
    accesses: list[_Access] = field(default_factory=list)
    declared_guards: dict[str, set[str]] = field(default_factory=dict)
    declared_unguarded: set[str] = field(default_factory=set)


def _iter_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _same_file_bases(cls: ast.ClassDef, classes: dict[str, ast.ClassDef]) -> list[ast.ClassDef]:
    """Every ancestor of ``cls`` that is a class defined in the same file."""
    found: list[ast.ClassDef] = []
    pending = [cls]
    while pending:
        for base in pending.pop().bases:
            defined = classes.get(base.id) if isinstance(base, ast.Name) else None
            if defined is not None and defined is not cls and defined not in found:
                found.append(defined)
                pending.append(defined)
    return found


def _find_locks(cls: ast.ClassDef) -> set[str]:
    locks: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        dotted = dotted_name(node.value.func)
        if dotted is None or dotted.split(".")[-1] not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


class GuardedByRule(LintRule):
    """self._* state written under a lock must always be accessed under it."""

    name = "guarded-by"
    summary = (
        "attributes written under `with self._lock:` in one method must not "
        "be accessed without the lock elsewhere in the class"
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        classes = {cls.name: cls for cls in _iter_classes(ctx.tree)}
        for cls in classes.values():
            yield from self._check_class(ctx, cls, _same_file_bases(cls, classes))

    # ------------------------------------------------------------- collection
    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef, bases: list[ast.ClassDef]
    ) -> Iterable[Diagnostic]:
        facts = _ClassFacts(locks=_find_locks(cls))
        for base in bases:
            facts.locks |= _find_locks(base)
        if not facts.locks:
            return
        for base in bases:
            for stmt in base.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    stmt.name in _CONSTRUCTORS
                ):
                    self._collect_declarations(ctx, facts, stmt)
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_method(ctx, facts, stmt)
        yield from self._report(ctx, facts)

    def _method_initial_held(
        self, ctx: FileContext, facts: _ClassFacts, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> frozenset[str]:
        pragma = ctx.pragma(fn.lineno)
        if pragma is None:
            return frozenset()
        return frozenset(lock for lock in pragma.guarded_by if lock in facts.locks)

    def _collect_method(
        self,
        ctx: FileContext,
        facts: _ClassFacts,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        held = self._method_initial_held(ctx, facts, fn)
        in_ctor = fn.name in _CONSTRUCTORS
        if in_ctor:
            self._collect_declarations(ctx, facts, fn)
        for stmt in fn.body:
            self._walk(ctx, facts, fn.name, stmt, held, in_ctor)

    def _collect_declarations(
        self,
        ctx: FileContext,
        facts: _ClassFacts,
        ctor: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        """guarded-by / unguarded-ok pragmas on constructor assignments."""
        for node in ast.walk(ctor):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            pragma = ctx.pragma(node.lineno)
            if pragma is None:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None or not attr.startswith("_"):
                    continue
                if pragma.unguarded_ok:
                    facts.declared_unguarded.add(attr)
                for lock in pragma.guarded_by:
                    if lock in facts.locks:
                        facts.declared_guards.setdefault(attr, set()).add(lock)

    def _walk(
        self,
        ctx: FileContext,
        facts: _ClassFacts,
        method: str,
        node: ast.AST,
        held: frozenset[str],
        in_ctor: bool,
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: set[str] = set()
            for item in node.items:
                self._walk(ctx, facts, method, item.context_expr, held, in_ctor)
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in facts.locks:
                    acquired.add(attr)
            inner = held | acquired
            for stmt in node.body:
                self._walk(ctx, facts, method, stmt, inner, in_ctor)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None and attr.startswith("_") and attr not in facts.locks:
                pragma = ctx.pragma(node.lineno)
                effective = held
                unguarded_ok = False
                if pragma is not None:
                    unguarded_ok = pragma.unguarded_ok
                    extra = frozenset(
                        lock for lock in pragma.guarded_by if lock in facts.locks
                    )
                    effective = held | extra
                if not in_ctor:
                    facts.accesses.append(
                        _Access(
                            node=node,
                            attr=attr,
                            method=method,
                            is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                            held=effective,
                            line=node.lineno,
                            unguarded_ok=unguarded_ok,
                        )
                    )
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, facts, method, child, held, in_ctor)

    # -------------------------------------------------------------- reporting
    def _report(self, ctx: FileContext, facts: _ClassFacts) -> Iterable[Diagnostic]:
        guards: dict[str, set[str]] = {
            attr: set(locks) for attr, locks in facts.declared_guards.items()
        }
        for access in facts.accesses:
            if access.is_write and access.held:
                guards.setdefault(access.attr, set()).update(access.held)
        for access in facts.accesses:
            attr = access.attr
            if attr in facts.declared_unguarded or access.unguarded_ok:
                continue
            guarding = guards.get(attr)
            if not guarding or access.held & guarding:
                continue
            locks = "/".join(f"self.{lock}" for lock in sorted(guarding))
            verb = "written" if access.is_write else "read"
            yield self.diagnostic(
                ctx,
                access.node,
                f"self.{attr} is guarded by {locks} but {verb} in "
                f"{access.method}() without holding it; wrap the access in "
                f"`with {locks.split('/')[0]}:` or annotate the line with "
                "`# reprolint: unguarded-ok`",
            )


RULES: tuple[LintRule, ...] = (GuardedByRule(),)
