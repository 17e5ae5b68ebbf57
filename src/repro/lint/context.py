"""Per-file context handed to every rule.

The context bundles the parsed AST with everything rules keep asking
for: raw source lines, the pragma map, and the file's position inside
the ``repro`` package (which decides rule scope — e.g. the determinism
rules only police the pure simulation packages).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.suppress import LinePragmas

__all__ = ["FileContext", "module_parts_of"]


def module_parts_of(path_parts: tuple[str, ...]) -> tuple[str, ...] | None:
    """Module path relative to the ``repro`` package, or None if outside.

    ``("src", "repro", "sim", "trace.py")`` → ``("sim", "trace")``. The
    *last* ``repro`` component wins so fixture trees that nest a fake
    ``repro/`` package under a temp directory scope exactly like the
    real tree.
    """
    try:
        anchor = len(path_parts) - 1 - path_parts[::-1].index("repro")
    except ValueError:
        return None
    rel = path_parts[anchor + 1 :]
    if not rel:
        return None
    leaf = rel[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    return rel[:-1] + (leaf,)


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str
    source: str
    tree: ast.Module
    pragmas: dict[int, LinePragmas]
    module_parts: tuple[str, ...] | None

    def pragma(self, line: int) -> LinePragmas | None:
        """Pragmas on a physical line (None when the line has none)."""
        return self.pragmas.get(line)

    def in_package(self, *packages: str) -> bool:
        """True when the file lives under one of the named repro subpackages."""
        return self.module_parts is not None and self.module_parts[0] in packages
