"""Resource-lifecycle dataflow rule for the service-layer packages.

A :class:`~repro.fleet.session.DetectorSession`, a ``threading.Thread``,
a gateway server/client handle, or an ``open()`` handle acquired in
``repro.hardware`` / ``repro.fleet`` / ``repro.store`` /
``repro.gateway`` must be released
(``close()`` / ``join()`` / ``shutdown()``) on **every** CFG path out of the function —
including the exceptional edges the CFG models inside ``try`` blocks and
explicit ``raise`` statements — unless:

- a ``with`` statement governs it (the CFG binds it via ``WithBind``,
  which this rule never starts tracking),
- ownership visibly escapes (returned, yielded, stored into an
  attribute/container, passed to a callable we cannot see — the new
  owner carries the obligation), or
- a ``# reprolint: moves(name)`` pragma documents a hand-off the
  analysis genuinely cannot follow.

Since the interprocedural engine landed, hand-offs to *in-tree* helpers
are no longer automatic escapes: the callee's
:class:`~repro.lint.summaries.FunctionSummary` decides. A helper that
**consumes** the handle (transitively calls ``close()``/``join()`` on
its parameter) counts as a release; one that stores it away escapes;
one that merely *uses* it (reads, writes, inspects) keeps the
obligation right here in the caller — passing a handle to a logging
helper no longer silences the leak. Symmetrically, ``x = make_writer()``
starts tracking when the helper's summary says it **returns an owned
resource**. The old behaviour (every call is an escape, only literal
constructors start tracking) is what the rule degrades to when the
project analysis is absent.

The analysis is a forward may-be-unreleased set over ``(name,
acquisition site)`` pairs solved on the CFG; anything still in the set
at the exit block leaks on at least one path. Union join gives the
must-release-on-all-paths semantics: one early ``return`` above the
``close()`` is enough to convict.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.cfg import CFG, Element, build_cfg, iter_functions
from repro.lint.context import FileContext
from repro.lint.dataflow import Analysis, element_defs_uses, solve
from repro.lint.diagnostics import Diagnostic
from repro.lint.provenance import (
    KIND_NOUN,
    RELEASE_METHODS,
    TRACKED_KINDS,
    binding_of,
    constructor_kind,
)
from repro.lint.rules import LintRule
from repro.lint.summaries import ProjectAnalysis

__all__ = ["ResourceLifecycleRule", "RULES"]

#: All method names that release *some* tracked kind.
_ALL_RELEASES = frozenset(name for names in RELEASE_METHODS.values() for name in names)


class _CallResolver:
    """Pass-decision oracle for one function's call sites.

    Wraps the project analysis with the caller's coordinates so the
    dataflow transfer can ask "what happens to a handle given to this
    call?" without knowing anything about resolution.
    """

    def __init__(
        self,
        project: ProjectAnalysis,
        module_parts: tuple[str, ...] | None,
        qualname: str,
    ) -> None:
        self._project = project
        self._module_parts = module_parts
        self._qualname = qualname

    def pass_decision(self, call: ast.Call, slot: "int | str") -> str:
        """``"consumed"`` | ``"kept"`` | ``"escape"`` for one argument."""
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            return "escape"  # star-args make the slot mapping unsafe
        res = self._project.resolve_ast_call(self._module_parts, self._qualname, call)
        if res is None or res.category != "internal" or res.target is None:
            return "escape"
        summary = self._project.summary(res.target)
        landing = self._project.call_param(res, slot)
        if summary is None or landing is None:
            return "escape"
        if landing in summary.consumes:
            return "consumed"
        if landing in summary.escapes:
            return "escape"
        return "kept"

    def returns_owned_kind(self, call: ast.Call) -> str | None:
        """Tracked kind a resolved helper call hands its caller, if any."""
        res = self._project.resolve_ast_call(self._module_parts, self._qualname, call)
        if res is None or res.category != "internal" or res.target is None:
            return None
        summary = self._project.summary(res.target)
        if summary is None or not summary.returns_owned:
            return None
        return summary.returns_owned


def _dropped_names(element: Element, resolver: _CallResolver | None) -> frozenset[str]:
    """Names whose tracking obligation leaves this element.

    Per Name-load occurrence:

    - receiver of ``name.close()``/``join()``/... → released (drops);
    - receiver of any other method → still ours (keeps);
    - argument to a call → the callee summary decides (consumed and
      escape both drop; "kept" keeps the obligation here);
    - any other load (returned, yielded, stored, a container element)
      → escapes (drops).
    """
    if not isinstance(element, ast.AST):
        return frozenset()  # synthetic Bind wrappers
    receivers: dict[int, str] = {}
    arg_slots: dict[int, tuple[ast.Call, "int | str"]] = {}
    for node in ast.walk(element):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and isinstance(
            node.func.value, ast.Name
        ):
            receivers[id(node.func.value)] = node.func.attr
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Name):
                arg_slots[id(arg)] = (node, position)
        for kw in node.keywords:
            if kw.arg is not None and isinstance(kw.value, ast.Name):
                arg_slots[id(kw.value)] = (node, kw.arg)
    dropped: set[str] = set()
    for node in ast.walk(element):
        if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
            continue
        method = receivers.get(id(node))
        if method is not None:
            if method in _ALL_RELEASES:
                dropped.add(node.id)
            continue  # receiver-only use keeps ownership here
        slot = arg_slots.get(id(node))
        if slot is not None:
            if resolver is None:
                dropped.add(node.id)  # no project: every pass escapes
            elif resolver.pass_decision(slot[0], slot[1]) != "kept":
                dropped.add(node.id)
            continue
        dropped.add(node.id)  # returned / yielded / stored / collected
    return frozenset(dropped)


class _Unreleased(Analysis["frozenset[tuple[str, int]]"]):
    """May-be-unreleased resources, as ``(name, acquisition line)`` pairs."""

    def __init__(
        self,
        moves_by_line: dict[int, tuple[str, ...]],
        resolver: _CallResolver | None,
    ) -> None:
        self._moves_by_line = moves_by_line
        self._resolver = resolver
        self._kinds: dict[tuple[str, int], str] = {}
        #: Role classification is resolution work; the solver calls
        #: transfer repeatedly, so memoise per element.
        self._dropped_cache: dict[int, frozenset[str]] = {}

    def kind_of(self, pair: tuple[str, int]) -> str:
        return self._kinds[pair]

    def boundary(self, cfg: CFG) -> frozenset[tuple[str, int]]:
        return frozenset()

    def initial(self, cfg: CFG) -> frozenset[tuple[str, int]]:
        return frozenset()

    def join(
        self, a: frozenset[tuple[str, int]], b: frozenset[tuple[str, int]]
    ) -> frozenset[tuple[str, int]]:
        return a | b

    def transfer(
        self, element: Element, state: frozenset[tuple[str, int]]
    ) -> frozenset[tuple[str, int]]:
        if not state and not isinstance(element, (ast.Assign, ast.AnnAssign)):
            # Nothing tracked yet and this element cannot start tracking.
            return state
        dropped = self._dropped_cache.get(id(element))
        if dropped is None:
            dropped = _dropped_names(element, self._resolver)
            self._dropped_cache[id(element)] = dropped
        line = int(getattr(element, "lineno", 0))
        moved = self._moves_by_line.get(line)
        if moved:
            dropped = dropped | frozenset(moved)
        defs, _ = element_defs_uses(element)
        if dropped or defs:
            state = frozenset(
                pair for pair in state if pair[0] not in dropped and pair[0] not in defs
            )
        bound = binding_of(element)
        if bound is not None:
            name, value = bound
            if isinstance(value, ast.Call):
                kind = constructor_kind(value)
                if kind not in TRACKED_KINDS and self._resolver is not None:
                    kind = self._resolver.returns_owned_kind(value)
                if kind in TRACKED_KINDS:
                    pair = (name, int(value.lineno))
                    self._kinds[pair] = kind
                    state = state | frozenset((pair,))
        return state


class ResourceLifecycleRule(LintRule):
    """Sessions, threads, and file handles must be released on every path."""

    name = "resource-leak"
    summary = (
        "resources acquired in repro.hardware/repro.fleet/repro.store/"
        "repro.gateway/repro.shard must be closed/joined on every CFG "
        "path, with-governed, or handed to a helper whose summary "
        "consumes them"
    )
    #: "2": interprocedural — helper hand-offs resolved through escape/
    #: consume summaries, owned returns start tracking.
    version = "2"
    requires_project = True

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        if not ctx.in_package("hardware", "fleet", "store", "gateway", "shard"):
            return
        moves_by_line = {
            line: pragmas.moves for line, pragmas in ctx.pragmas.items() if pragmas.moves
        }
        for qualname, fn in iter_functions(ctx.tree):
            cfg = build_cfg(fn, qualname)
            if cfg.uses_dynamic_locals:
                continue
            resolver = (
                _CallResolver(ctx.project, ctx.module_parts, cfg.qualname)
                if ctx.project is not None
                else None
            )
            analysis = _Unreleased(moves_by_line, resolver)
            solution = solve(cfg, analysis)
            leaked = solution.inputs[cfg.exit]
            for name, line in sorted(leaked, key=lambda pair: (pair[1], pair[0])):
                noun = KIND_NOUN[analysis.kind_of((name, line))]
                releases = "/".join(
                    sorted(RELEASE_METHODS[analysis.kind_of((name, line))])
                )
                yield Diagnostic(
                    path=ctx.path,
                    line=line,
                    col=0,
                    rule=self.name,
                    message=(
                        f"{noun} {name!r} acquired in {cfg.qualname} may reach "
                        f"function exit without {releases}(); release it on every "
                        "path (try/finally or with), or document the hand-off "
                        "with '# reprolint: moves(" + name + ")'"
                    ),
                )


RULES: tuple[LintRule, ...] = (ResourceLifecycleRule(),)
