"""CLI-level lint tests, including the tier-1 clean-tree gate.

The two ``*_seeded_violation`` tests are the acceptance spec for the CI
gate: take the *real* source files, deliberately insert the class of
bug each rule exists for, and prove the lint run fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import all_rules


def _run_lint_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(cwd / "src")},
    )


class TestCleanTree:
    def test_src_is_clean_against_committed_baseline(self, repo_root):
        # Tier-1 gate: the whole tree lints clean. This is exactly the
        # command CI runs.
        proc = _run_lint_cli(["src"], cwd=repo_root)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_committed_baseline_is_empty(self, repo_root):
        # The gate holds with zero acknowledged findings: every rule is
        # fully enforced, nothing is grandfathered.
        payload = json.loads((repo_root / ".reprolint.json").read_text())
        assert payload["entries"] == {}


class TestSeededViolations:
    def test_wall_clock_in_sim_fails_the_gate(self, repo_root, tmp_path, capsys):
        # Insert a time.time() call into the real simulator module.
        source = (repo_root / "src/repro/sim/simulator.py").read_text()
        assert "time.time()" not in source
        seeded = "import time\n" + source + "\n\n_T0 = time.time()\n"
        target = tmp_path / "src/repro/sim/simulator.py"
        target.parent.mkdir(parents=True)
        target.write_text(seeded)

        exit_code = repro_main(["lint", str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "wall-clock" in out

    def test_unguarded_write_in_session_fails_the_gate(self, repo_root, tmp_path, capsys):
        # Insert an unguarded write to lock-guarded session state, in a
        # DetectorSession method: the rule checks the class that
        # declares the guard.
        source = (repo_root / "src/repro/fleet/session.py").read_text()
        anchor = "        self._transition(SessionState.STOPPED)\n"
        assert source.count(anchor) == 1
        seeded = source.replace(anchor, anchor + "        self._state = SessionState.INIT\n")
        target = tmp_path / "src/repro/fleet/session.py"
        target.parent.mkdir(parents=True)
        target.write_text(seeded)

        exit_code = repro_main(["lint", str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "guarded-by" in out
        assert "_state" in out

    def test_unguarded_write_in_a_subclass_fails_the_gate(self, repo_root, tmp_path, capsys):
        # The same write from EmulatedSession, a subclass in the same
        # file: the rule merges in the base class's locks and
        # constructor declarations.
        source = (repo_root / "src/repro/fleet/session.py").read_text()
        anchor = (
            '        """Ask for an operator restart (due on the next produce)."""\n'
            "        self._restart_requested = True\n"
        )
        assert source.count(anchor) == 1
        seeded = source.replace(anchor, anchor + "        self._state = SessionState.INIT\n")
        target = tmp_path / "src/repro/fleet/session.py"
        target.parent.mkdir(parents=True)
        target.write_text(seeded)

        exit_code = repro_main(["lint", str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "guarded-by" in out
        assert "_state" in out and "request_restart()" in out

    def test_unseeded_tree_passes(self, repo_root, tmp_path, capsys):
        # Control: the same files unmodified are clean.
        for rel in ("src/repro/sim/simulator.py", "src/repro/fleet/session.py"):
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text((repo_root / rel).read_text())
        exit_code = repro_main(["lint", str(tmp_path / "src")])
        capsys.readouterr()
        assert exit_code == 0


class TestCliSurface:
    def test_list_rules_covers_all_families(self, repo_root, capsys):
        exit_code = repro_main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert exit_code == 0
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "wall-clock",
            "global-rng",
            "unit-suffix",
            "unit-mismatch",
            "guarded-by",
            "mutable-default",
            "except-hygiene",
            "or-default",
        ]

    def test_registry_names_are_unique_and_documented(self):
        rules = all_rules()
        names = [r.name for r in rules]
        assert len(names) == len(set(names))
        assert all(r.summary for r in rules)

    def test_json_format(self, repo_root, tmp_path, capsys):
        target = tmp_path / "repro/sim/bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        exit_code = repro_main(["lint", str(target), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "wall-clock"

    def test_unknown_rule_rejected(self, capsys):
        with pytest.raises(SystemExit, match="unknown rule"):
            repro_main(["lint", "--rules", "nope"])

    def test_rule_subset_runs_only_selected(self, tmp_path, capsys):
        target = tmp_path / "repro/sim/bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import time\n\n\ndef f(x=None):\n    return x or time.time()\n"
        )
        exit_code = repro_main(["lint", str(target), "--rules", "or-default"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "or-default" in out and "wall-clock" not in out

    def test_update_baseline_flow(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "repro/sim/bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\n\n\ndef f():\n    return time.time()\n")

        assert repro_main(["lint", "repro"]) == 1
        capsys.readouterr()
        assert repro_main(["lint", "repro", "--update-baseline"]) == 0
        capsys.readouterr()
        assert repro_main(["lint", "repro"]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out
        # And --no-baseline reveals the finding again.
        assert repro_main(["lint", "repro", "--no-baseline"]) == 1

    def test_parse_error_is_a_finding_with_exit_code_2(self, tmp_path, capsys):
        # An unparseable file is a *tooling* outcome, not a policy one:
        # the run never analysed the file, so it must not masquerade as
        # an ordinary finding (exit 1).
        target = tmp_path / "repro/sim/broken.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(:\n")
        exit_code = repro_main(["lint", str(target)])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "parse-error" in out
