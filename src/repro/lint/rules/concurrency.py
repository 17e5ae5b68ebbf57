"""``blocking-in-async``: nothing on the gateway's event loop may block.

The gateway multiplexes every vehicle onto one asyncio event loop, so a
blocking call — ``time.sleep``, sync file IO, ``Thread.join`` —
anywhere on the loop stalls **every** session at once. The direct cases
are greppable; the dangerous ones hide two sync helpers away. The rule
uses the interprocedural ``may_block`` summaries
(:class:`~repro.lint.summaries.ProjectAnalysis`) to convict the whole
chain and name the leaf primitive, and stays silent when the project
analysis is absent. It caught five real sites in the gateway server:
recorder opens in HELLO handling, recording finalisation in BYE and
cleanup, and scheduler-thread joins in ``shutdown()``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import LintRule
from repro.lint.summaries import blocking_reason

__all__ = ["BlockingInAsyncRule", "RULES"]


def _short(target: str) -> str:
    """Readable spelling of a resolved target (``Cls.method`` or ``fn``)."""
    parts = target.split(".")
    if len(parts) >= 2 and parts[-2][:1].isupper():
        return ".".join(parts[-2:])
    return parts[-1]


class BlockingInAsyncRule(LintRule):
    """No blocking primitives on the event loop — directly or via helpers."""

    name = "blocking-in-async"
    summary = (
        "async functions must not call blocking primitives (time.sleep, sync "
        "IO, Thread.join) or sync helpers that transitively reach one"
    )
    requires_project = True

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        project = ctx.project
        if project is None:
            return
        mod = project.module_of(ctx.module_parts)
        if mod is None:
            return
        for fn in mod.functions.values():
            if not fn.is_async:
                continue
            resolved = project.project.resolved_calls(f"{mod.dotted}.{fn.qualname}")
            for fact, res in zip(fn.calls, resolved):
                primitive = blocking_reason(res)
                if primitive is not None:
                    yield Diagnostic(
                        path=ctx.path,
                        line=fact.line,
                        col=fact.col,
                        rule=self.name,
                        message=(
                            f"blocking call {primitive}() inside async "
                            f"{fn.qualname}; every session on the event loop "
                            "stalls for its duration — hand it to a thread "
                            "(loop.run_in_executor / asyncio.to_thread) or use "
                            "the async equivalent"
                        ),
                    )
                    continue
                if res.category != "internal" or res.target is None:
                    continue
                callee = project.summary(res.target)
                if callee is None or callee.is_async or not callee.may_block:
                    # Async callees that block are convicted at their own
                    # call sites; flagging them here would double-report.
                    continue
                yield Diagnostic(
                    path=ctx.path,
                    line=fact.line,
                    col=fact.col,
                    rule=self.name,
                    message=(
                        f"call to {_short(res.target)}() from async "
                        f"{fn.qualname} blocks the event loop: it reaches "
                        f"{callee.block_primitive}() at {callee.block_site}; "
                        "run it in an executor or make the chain async"
                    ),
                )


RULES: tuple[LintRule, ...] = (BlockingInAsyncRule(),)
