"""The reprolint engine: discovery, per-file analysis, filtering.

Files are analysed one at a time and independently — parse, pragma
scan, every rule. Findings are merged, sorted, filtered through inline
pragmas and the baseline, and handed to a reporter.

Public entry point: :func:`lint_paths`.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.cache import ResultCache, rule_fingerprint
from repro.lint.context import FileContext, module_parts_of
from repro.lint.diagnostics import Diagnostic
from repro.lint.reporters import LintResult
from repro.lint.rules import LintRule, all_rules
from repro.lint.suppress import scan_pragmas

__all__ = [
    "discover_files",
    "check_file",
    "lint_paths",
]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


def discover_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def _display_path(path: Path, root: Path) -> str:
    """Root-relative posix path when possible (stable baseline keys)."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_file(
    path: Path,
    rules: tuple[LintRule, ...],
    root: Path,
    cache: ResultCache | None = None,
    fingerprint: str | None = None,
) -> tuple[list[Diagnostic], int]:
    """Analyse one file; returns (kept findings, inline-suppressed count)."""
    display = _display_path(path, root)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return [Diagnostic(display, 1, 0, "parse-error", f"unreadable file: {exc}")], 0
    key = ""
    if cache is not None:
        if fingerprint is None:
            fingerprint = rule_fingerprint(rules)
        key = cache.key(display, raw, fingerprint)
        hit = cache.get(key)
        if hit is not None:
            return hit
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [Diagnostic(display, 1, 0, "parse-error", f"unreadable file: {exc}")], 0
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        line = exc.lineno or 1
        col = (exc.offset or 1) - 1
        return [Diagnostic(display, line, col, "parse-error", f"syntax error: {exc.msg}")], 0

    pragmas, pragma_errors = scan_pragmas(source)
    ctx = FileContext(
        path=display,
        source=source,
        tree=tree,
        pragmas=pragmas,
        module_parts=module_parts_of(path.resolve().parts),
    )
    found: list[Diagnostic] = [
        Diagnostic(display, err.line, err.col, "bad-pragma", err.detail)
        for err in pragma_errors
    ]
    for rule in rules:
        found.extend(rule.check(ctx))

    kept: list[Diagnostic] = []
    suppressed = 0
    for diag in found:
        pragma = pragmas.get(diag.line)
        if pragma is not None and diag.rule != "bad-pragma" and pragma.suppresses(diag.rule):
            suppressed += 1
        else:
            kept.append(diag)
    if cache is not None:
        cache.put(key, kept, suppressed)
    return kept, suppressed


def lint_paths(
    paths: list[Path],
    rules: tuple[LintRule, ...] | None = None,
    baseline: Baseline | None = None,
    root: Path | None = None,
    cache: ResultCache | None = None,
) -> LintResult:
    """Lint every .py file under ``paths`` and return the filtered result.

    Parameters
    ----------
    paths:
        Files or directories to analyse.
    rules:
        Rule set (default: the full registry).
    baseline:
        Acknowledged findings to subtract (default: empty).
    root:
        Directory that display paths / baseline fingerprints are made
        relative to (default: the current working directory).
    cache:
        Optional :class:`~repro.lint.cache.ResultCache`; files whose
        content, path, and rule set match a cached entry are not
        re-analysed.
    """
    active_rules = rules if rules is not None else all_rules()
    base = baseline if baseline is not None else Baseline()
    anchor = root if root is not None else Path.cwd()

    files = discover_files(paths)
    fingerprint = rule_fingerprint(active_rules)

    diagnostics: list[Diagnostic] = []
    suppressed = 0
    for f in files:
        kept, file_suppressed = check_file(f, active_rules, anchor, cache, fingerprint)
        diagnostics.extend(kept)
        suppressed += file_suppressed
    diagnostics.sort()

    fresh, absorbed, stale = base.partition(diagnostics)
    return LintResult(
        diagnostics=fresh,
        suppressed=suppressed,
        baselined=absorbed,
        stale_baseline=stale,
        files=len(files),
    )
