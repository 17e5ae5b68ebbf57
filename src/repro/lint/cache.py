"""Content-hash result cache for repeated lint runs.

Pre-commit and CI lint the same mostly-unchanged tree over and over, so
clean files should not be re-analysed. The cache maps
``sha256(cache version | rule fingerprint | display path | file bytes)``
to the file's post-suppression findings. Any input that could change a
finding is part of the key, so invalidation is automatic: edit the file,
rename it, change the rule set, or bump :data:`CACHE_VERSION` when the
engine itself changes, and the entry simply never matches again.

The fingerprint (:func:`rule_fingerprint`) is not just the rule names:
each rule carries a ``version`` that its author bumps on any behaviour
change, so editing a rule invalidates exactly the entries that could now
be stale. Matching on names alone was a staleness hazard: a re-tuned
rule would keep serving its old findings from cache until the file
itself changed.

Entries are one JSON file per key under ``.reprolint_cache/``, written
atomically (temp file + rename) so concurrent workers and interrupted
runs can never leave a half-written entry that parses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.rules import LintRule

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "rule_fingerprint",
]

#: Bump whenever rule or engine behaviour changes in a way the rule
#: fingerprint cannot capture (new analysis precision, message
#: rewording, ...).
CACHE_VERSION = "3"

DEFAULT_CACHE_DIR = ".reprolint_cache"


def rule_fingerprint(rules: "Sequence[LintRule]") -> str:
    """``name@version`` fingerprint of a rule set, in activation order."""
    return ";".join(f"{rule.name}@{rule.version}" for rule in rules)


class ResultCache:
    """File-backed memo of per-file lint outcomes."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def key(self, display: str, source: bytes, fingerprint: str) -> str:
        """Stable digest of everything that can change this file's findings.

        ``fingerprint`` is the :func:`rule_fingerprint` of the active
        rules.
        """
        hasher = hashlib.sha256()
        for part in (CACHE_VERSION, fingerprint, display):
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x00")
        hasher.update(source)
        return hasher.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> tuple[list[Diagnostic], int] | None:
        """Cached ``(diagnostics, suppressed)`` for ``key``, or None."""
        try:
            payload = json.loads(self._entry_path(key).read_text(encoding="utf-8"))
            diagnostics = [
                Diagnostic(
                    path=str(d["path"]),
                    line=int(d["line"]),
                    col=int(d["col"]),
                    rule=str(d["rule"]),
                    message=str(d["message"]),
                )
                for d in payload["diagnostics"]
            ]
            suppressed = int(payload["suppressed"])
        except (OSError, ValueError, TypeError, KeyError):
            return None  # absent or unreadable: treat as a miss
        self.hits += 1
        return diagnostics, suppressed

    def put(self, key: str, diagnostics: list[Diagnostic], suppressed: int) -> None:
        """Record one file's outcome; failures to write are non-fatal."""
        self.misses += 1
        payload = {
            "diagnostics": [
                {
                    "path": d.path,
                    "line": d.line,
                    "col": d.col,
                    "rule": d.rule,
                    "message": d.message,
                }
                for d in diagnostics
            ],
            "suppressed": suppressed,
        }
        entry = self._entry_path(key)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                os.replace(tmp_name, entry)
            except OSError:
                os.unlink(tmp_name)
                raise
        except OSError:
            return  # a read-only checkout must still lint
