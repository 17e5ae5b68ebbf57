"""Inline ``# reprolint:`` pragma parsing.

Three pragma forms, all attached to the physical line they appear on:

``# reprolint: disable=rule-a,rule-b``
    Suppress the named rules (or ``all``) for findings anchored to this
    line.

``# reprolint: guarded-by(_lock)``
    Lock-discipline intent: the access (or, on a ``def`` line, every
    access in the method; or, on an ``__init__`` assignment, the
    attribute itself) is protected by ``self._lock`` even though no
    ``with`` block is syntactically visible here.

``# reprolint: unguarded-ok``
    Lock-discipline intent: this access (or attribute, when placed on
    its ``__init__`` assignment) is deliberately unsynchronised —
    e.g. it is only ever touched before worker threads exist.

Pragmas are parsed from real COMMENT tokens via :mod:`tokenize`, so a
``# reprolint:`` inside a string literal is never misread as a pragma.
Unrecognised pragma bodies are returned as errors and surfaced by the
engine as ``bad-pragma`` findings — a typo in a suppression must not
silently re-enable nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["LinePragmas", "PragmaError", "scan_pragmas"]

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*(?P<body>.*\S)\s*$")
_GUARDED_RE = re.compile(r"guarded-by\((?P<lock>[A-Za-z_][A-Za-z0-9_]*)\)$")
_RULE_NAME_RE = re.compile(r"[a-z][a-z0-9-]*$")


@dataclass(frozen=True)
class LinePragmas:
    """All reprolint directives found on one physical line."""

    disabled: frozenset[str] = frozenset()
    guarded_by: tuple[str, ...] = ()
    unguarded_ok: bool = False

    def suppresses(self, rule: str) -> bool:
        """True when this line disables ``rule`` (or everything)."""
        return "all" in self.disabled or rule in self.disabled


@dataclass(frozen=True)
class PragmaError:
    """An unparseable pragma body, reported as a ``bad-pragma`` finding."""

    line: int
    col: int
    detail: str


@dataclass
class _Builder:
    disabled: set[str] = field(default_factory=set)
    guarded_by: list[str] = field(default_factory=list)
    unguarded_ok: bool = False

    def freeze(self) -> LinePragmas:
        return LinePragmas(
            disabled=frozenset(self.disabled),
            guarded_by=tuple(self.guarded_by),
            unguarded_ok=self.unguarded_ok,
        )


def _parse_body(
    body: str, line: int, col: int, builder: _Builder, errors: list[PragmaError]
) -> None:
    for token in body.split():
        if token.startswith("disable="):
            names = [name for name in token[len("disable=") :].split(",") if name]
            bad = [name for name in names if not _RULE_NAME_RE.fullmatch(name)]
            if not names or bad:
                errors.append(
                    PragmaError(line, col, f"malformed disable= pragma: {token!r}")
                )
                continue
            builder.disabled.update(names)
        elif token == "unguarded-ok":
            builder.unguarded_ok = True
        elif token.startswith("guarded-by"):
            match = _GUARDED_RE.fullmatch(token)
            if match is None:
                errors.append(
                    PragmaError(line, col, f"malformed guarded-by pragma: {token!r}")
                )
                continue
            builder.guarded_by.append(match.group("lock"))
        else:
            errors.append(
                PragmaError(line, col, f"unknown reprolint pragma: {token!r}")
            )


def scan_pragmas(source: str) -> tuple[dict[int, LinePragmas], list[PragmaError]]:
    """Extract every pragma from ``source``, keyed by 1-based line number."""
    builders: dict[int, _Builder] = {}
    errors: list[PragmaError] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # The AST parse will report the underlying problem; pragmas in a
        # file that cannot even tokenize are moot.
        return {}, []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        line, col = tok.start
        builder = builders.setdefault(line, _Builder())
        _parse_body(match.group("body"), line, col, builder, errors)
    return {line: b.freeze() for line, b in builders.items()}, errors
