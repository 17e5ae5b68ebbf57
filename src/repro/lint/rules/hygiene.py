"""API-hygiene rules: small Python footguns that bite a library.

- ``mutable-default`` — list/dict/set default arguments are shared
  across calls.
- ``except-hygiene`` — ``except:`` swallows ``KeyboardInterrupt`` and
  ``asyncio.CancelledError``; ``except Exception:`` without a re-raise
  hides programming errors.
- ``or-default`` — ``x = x or default`` on an Optional parameter treats
  every falsy-but-valid value (0, 0.0, an empty array...) as missing;
  write ``x if x is not None else default``. It found 14 such sites
  when it landed, one of them the camera baseline silently replacing a
  caller's seeded ``rng`` with a fresh one.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import LintRule

__all__ = [
    "MutableDefaultRule",
    "ExceptHygieneRule",
    "OrDefaultRule",
    "RULES",
]

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


class MutableDefaultRule(LintRule):
    """Default argument values must be immutable."""

    name = "mutable-default"
    summary = "mutable default arguments ([] / {} / set()) are shared across calls"

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.diagnostic(
                        ctx,
                        default,
                        "mutable default argument is evaluated once and shared "
                        "across calls; default to None and build inside",
                    )


class ExceptHygieneRule(LintRule):
    """No bare excepts; broad excepts must re-raise."""

    name = "except-hygiene"
    summary = "bare `except:` is banned; `except Exception:` must re-raise"

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.diagnostic(
                    ctx,
                    node,
                    "bare `except:` also catches KeyboardInterrupt/SystemExit; "
                    "name the exceptions you can actually handle",
                )
                continue
            names = {
                child.id
                for child in ast.walk(node.type)
                if isinstance(child, ast.Name)
            }
            if names & {"Exception", "BaseException"} and not self._reraises(node):
                yield self.diagnostic(
                    ctx,
                    node,
                    "`except Exception:` without a re-raise hides programming "
                    "errors; narrow the type or `raise` after handling",
                )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


class OrDefaultRule(LintRule):
    """`param or default` on an Optional parameter conflates falsy with None."""

    name = "or-default"
    summary = (
        "`x or default` on an Optional parameter misreads falsy-but-valid "
        "values; use `x if x is not None else default`"
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        yield from self._walk(ctx, ctx.tree, {})

    def _walk(
        self, ctx: FileContext, node: ast.AST, optional_params: dict[str, bool]
    ) -> Iterable[Diagnostic]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            optional_params = dict(optional_params)
            optional_params.update(self._optional_params(node))
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            first = node.values[0]
            if isinstance(first, ast.Name) and optional_params.get(first.id):
                yield self.diagnostic(
                    ctx,
                    node,
                    f"`{first.id} or ...` treats every falsy {first.id} as "
                    f"missing; write `{first.id} if {first.id} is not None "
                    "else ...`",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, optional_params)

    @staticmethod
    def _optional_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, bool]:
        """Parameter name → is it Optional-annotated (and not bool)?"""
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults: list[ast.expr | None] = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        pairs = list(zip(positional, defaults)) + list(
            zip(args.kwonlyargs, args.kw_defaults)
        )
        out: dict[str, bool] = {}
        for arg, default in pairs:
            out[arg.arg] = OrDefaultRule._is_optional(arg.annotation, default)
        return out

    @staticmethod
    def _is_optional(annotation: ast.expr | None, default: ast.expr | None) -> bool:
        default_is_none = isinstance(default, ast.Constant) and default.value is None
        if annotation is None:
            return default_is_none
        mentions_bool = any(
            isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(annotation)
        )
        if mentions_bool:
            return False
        mentions_none = any(
            (isinstance(n, ast.Constant) and n.value is None)
            or (isinstance(n, ast.Name) and n.id == "Optional")
            or (isinstance(n, ast.Attribute) and n.attr == "Optional")
            for n in ast.walk(annotation)
        )
        return mentions_none or default_is_none


RULES: tuple[LintRule, ...] = (
    MutableDefaultRule(),
    ExceptHygieneRule(),
    OrDefaultRule(),
)
