"""Whole-tree self-check: the call graph must fully classify our own source.

Every call in ``src/repro`` must land in a known category; an
``unresolved`` node means the resolver met an internal class or module
it claims to know but could not finish the lookup — a resolver bug, not
a property of the code under analysis.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import build_project, discover_files

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_whole_src_call_graph_has_zero_unresolved_nodes():
    project = build_project(
        discover_files([REPO_SRC]), REPO_SRC.parent.parent, None
    )
    stats = project.project.stats()
    assert stats.get("unresolved", 0) == 0, project.project.unresolved_calls()


def test_whole_src_call_graph_is_substantially_internal():
    project = build_project(
        discover_files([REPO_SRC]), REPO_SRC.parent.parent, None
    )
    stats = project.project.stats()
    # Guard against a silent regression where extraction stops seeing
    # package-internal definitions and everything degrades to dynamic.
    assert stats.get("internal", 0) > 500
    assert stats.get("internal-ctor", 0) > 50
