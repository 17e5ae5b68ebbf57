"""Result cache, ``--changed`` narrowing, and exit-code contract tests."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from repro.lint.cache import ResultCache, rule_fingerprint
from repro.lint.cli import changed_files, main as lint_main
from repro.lint.engine import lint_paths
from repro.lint.rules import all_rules

VIOLATION = "import time\n\n\ndef f():\n    return time.time()\n"
CLEAN = "def f(x):\n    return x + 1\n"


def _write_tree(root: Path) -> Path:
    target = root / "repro" / "sim" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(VIOLATION)
    return target


class TestResultCache:
    def test_cold_run_populates_warm_run_hits(self, tmp_path):
        target = _write_tree(tmp_path)
        cache_dir = tmp_path / "cache"

        cold = ResultCache(cache_dir)
        first = lint_paths([target], jobs=1, root=tmp_path, cache=cold)
        assert (cold.hits, cold.misses) == (0, 1)

        warm = ResultCache(cache_dir)  # fresh instance: entries persisted
        second = lint_paths([target], jobs=1, root=tmp_path, cache=warm)
        assert (warm.hits, warm.misses) == (1, 0)
        assert second.diagnostics == first.diagnostics
        assert second.suppressed == first.suppressed

    def test_editing_the_file_invalidates(self, tmp_path):
        target = _write_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        lint_paths([target], jobs=1, root=tmp_path, cache=ResultCache(cache_dir))

        target.write_text(CLEAN)
        after = ResultCache(cache_dir)
        result = lint_paths([target], jobs=1, root=tmp_path, cache=after)
        assert (after.hits, after.misses) == (0, 1)
        assert result.diagnostics == []

    def test_rule_set_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        rules = all_rules()
        full = cache.key("repro/sim/mod.py", b"x = 1\n", rule_fingerprint(rules))
        subset = cache.key(
            "repro/sim/mod.py", b"x = 1\n", rule_fingerprint(rules[:1])
        )
        renamed = cache.key("repro/sim/other.py", b"x = 1\n", rule_fingerprint(rules))
        assert len({full, subset, renamed}) == 3

    def test_rule_version_bump_invalidates_warm_entries(self, tmp_path):
        """The staleness regression: a re-tuned rule must never serve its
        old findings from cache just because the file did not change."""
        target = _write_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        rules = all_rules()
        lint_paths([target], rules=rules, jobs=1, root=tmp_path,
                   cache=ResultCache(cache_dir))

        bumped = tuple(rules)
        flipped = bumped[0]
        original_version = flipped.version
        try:
            type(flipped).version = f"{original_version}-test-bump"
            after = ResultCache(cache_dir)
            lint_paths([target], rules=bumped, jobs=1, root=tmp_path, cache=after)
            assert (after.hits, after.misses) == (0, 1)
        finally:
            type(flipped).version = original_version

        # Same versions again: the re-written entry is warm.
        warm = ResultCache(cache_dir)
        lint_paths([target], rules=rules, jobs=1, root=tmp_path, cache=warm)
        assert (warm.hits, warm.misses) == (1, 0)

    def test_corrupt_entries_degrade_to_misses(self, tmp_path):
        target = _write_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        first = lint_paths([target], jobs=1, root=tmp_path, cache=ResultCache(cache_dir))
        for entry in cache_dir.rglob("*.json"):
            entry.write_text("{not json")

        recover = ResultCache(cache_dir)
        result = lint_paths([target], jobs=1, root=tmp_path, cache=recover)
        assert (recover.hits, recover.misses) == (0, 1)
        assert result.diagnostics == first.diagnostics

    def test_unwritable_cache_dir_is_non_fatal(self, tmp_path):
        cache = ResultCache(tmp_path / "blocked")
        (tmp_path / "blocked").write_text("a file, not a directory")
        target = _write_tree(tmp_path)
        result = lint_paths([target], jobs=1, root=tmp_path, cache=cache)
        assert [d.rule for d in result.diagnostics] == ["wall-clock"]


def _git(repo: Path, *argv: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def git_repo(tmp_path):
    repo = tmp_path / "proj"
    (repo / "repro" / "sim").mkdir(parents=True)
    (repo / "repro" / "sim" / "stale.py").write_text(CLEAN)
    (repo / "repro" / "sim" / "edited.py").write_text(CLEAN)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "seed")
    (repo / "repro" / "sim" / "edited.py").write_text(VIOLATION)
    (repo / "repro" / "sim" / "untracked.py").write_text(VIOLATION)
    return repo


class TestChangedMode:
    def test_changed_files_sees_edits_and_untracked(self, git_repo):
        changed = {p.name for p in changed_files("HEAD", root=git_repo)}
        assert changed == {"edited.py", "untracked.py"}

    def test_outside_a_repository_is_a_usage_error(self, tmp_path):
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        with pytest.raises(SystemExit):
            changed_files("HEAD", root=lonely)

    def test_cli_lints_only_the_diff(self, git_repo, monkeypatch, capsys):
        monkeypatch.chdir(git_repo)
        exit_code = lint_main(["repro", "--changed", "HEAD", "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "edited.py" in out and "untracked.py" in out
        assert "stale.py" not in out  # committed and untouched: skipped

    def test_cli_unknown_ref_exits_with_usage_error(self, git_repo, monkeypatch):
        monkeypatch.chdir(git_repo)
        with pytest.raises(SystemExit):
            lint_main(["repro", "--changed", "no-such-ref", "--no-baseline"])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "repro" / "sim" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(CLEAN)
        assert lint_main([str(target), "--no-baseline"]) == 0
        capsys.readouterr()

    def test_findings_exit_one(self, tmp_path, capsys):
        target = _write_tree(tmp_path)
        assert lint_main([str(target), "--no-baseline"]) == 1
        capsys.readouterr()

    def test_internal_error_exits_two(self, tmp_path, monkeypatch, capsys):
        target = _write_tree(tmp_path)

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic analysis fault")

        monkeypatch.setattr("repro.lint.cli.lint_paths", explode)
        exit_code = lint_main([str(target), "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "internal error" in out and "synthetic analysis fault" in out
