"""Shared fixtures for the reprolint test battery.

Every rule test works the same way: write a snippet into a temporary
tree that mimics the real package layout (``<tmp>/repro/<pkg>/mod.py``
— the engine scopes rules by position relative to the ``repro``
component), lint it, and assert on the finding list.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import Diagnostic, LintResult, lint_paths


class SnippetLinter:
    """Write-and-lint helper bound to one tmp directory."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def write(self, source: str, rel: str = "repro/sim/snippet.py") -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return path

    def lint(
        self,
        source: str,
        rel: str = "repro/sim/snippet.py",
        rules=None,
        baseline=None,
    ) -> LintResult:
        path = self.write(source, rel)
        return lint_paths([path], rules=rules, baseline=baseline, root=self.root)

    def findings(self, source: str, rel: str = "repro/sim/snippet.py", rules=None) -> list[Diagnostic]:
        return self.lint(source, rel, rules=rules).diagnostics

    def rule_names(self, source: str, rel: str = "repro/sim/snippet.py", rules=None) -> list[str]:
        return [d.rule for d in self.findings(source, rel, rules=rules)]


@pytest.fixture
def linter(tmp_path: Path) -> SnippetLinter:
    return SnippetLinter(tmp_path)


@pytest.fixture(scope="session")
def repo_root() -> Path:
    root = Path(__file__).resolve().parents[2]
    assert (root / "src" / "repro").is_dir()
    return root
