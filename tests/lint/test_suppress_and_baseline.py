"""Inline suppression pragmas and the baseline round-trip."""

from __future__ import annotations

from pathlib import Path

from repro.lint import Baseline, lint_paths
from repro.lint.suppress import scan_pragmas

_DIRTY = """
import time

def f():
    return time.time()
"""

_DIRTY_SUPPRESSED = """
import time

def f():
    return time.time()  # reprolint: disable=wall-clock
"""


class TestPragmaParsing:
    def test_disable_list(self):
        pragmas, errors = scan_pragmas("x = 1  # reprolint: disable=rule-a,rule-b\n")
        assert errors == []
        assert pragmas[1].suppresses("rule-a")
        assert pragmas[1].suppresses("rule-b")
        assert not pragmas[1].suppresses("rule-c")

    def test_disable_all(self):
        pragmas, _ = scan_pragmas("x = 1  # reprolint: disable=all\n")
        assert pragmas[1].suppresses("anything")

    def test_guarded_by_and_unguarded_ok(self):
        pragmas, errors = scan_pragmas(
            "a = 1  # reprolint: guarded-by(_lock)\nb = 2  # reprolint: unguarded-ok\n"
        )
        assert errors == []
        assert pragmas[1].guarded_by == ("_lock",)
        assert pragmas[2].unguarded_ok

    def test_pragma_inside_string_ignored(self):
        pragmas, errors = scan_pragmas('x = "# reprolint: disable=all"\n')
        assert pragmas == {} and errors == []

    def test_unknown_pragma_is_an_error(self):
        _, errors = scan_pragmas("x = 1  # reprolint: dissable=wall-clock\n")
        assert len(errors) == 1
        assert "dissable" in errors[0].detail

    def test_malformed_guarded_by_is_an_error(self):
        _, errors = scan_pragmas("x = 1  # reprolint: guarded-by(\n")
        assert len(errors) == 1


class TestInlineSuppression:
    def test_disable_pragma_suppresses(self, linter):
        result = linter.lint(_DIRTY_SUPPRESSED, rel="repro/sim/clock.py")
        assert result.diagnostics == []
        assert result.suppressed == 1

    def test_without_pragma_finding_reported(self, linter):
        result = linter.lint(_DIRTY, rel="repro/sim/clock.py")
        assert [d.rule for d in result.diagnostics] == ["wall-clock"]

    def test_disable_wrong_rule_does_not_suppress(self, linter):
        result = linter.lint(
            """
            import time

            def f():
                return time.time()  # reprolint: disable=or-default
            """,
            rel="repro/sim/clock.py",
        )
        assert [d.rule for d in result.diagnostics] == ["wall-clock"]

    def test_bad_pragma_is_reported_and_not_self_suppressible(self, linter):
        result = linter.lint(
            "x = 1  # reprolint: not-a-thing disable=bad-pragma\n",
            rel="repro/sim/meta.py",
        )
        assert [d.rule for d in result.diagnostics] == ["bad-pragma"]


class TestBaseline:
    def test_round_trip(self, linter, tmp_path: Path):
        # First run: finding reported.
        result = linter.lint(_DIRTY, rel="repro/sim/clock.py")
        assert len(result.diagnostics) == 1

        # Acknowledge it; the same run against the baseline is clean.
        baseline = Baseline.from_diagnostics(result.diagnostics)
        path = tmp_path / ".reprolint.json"
        baseline.save(path)
        reloaded = Baseline.load(path)
        assert reloaded.entries == baseline.entries

        again = linter.lint(_DIRTY, rel="repro/sim/clock.py", baseline=reloaded)
        assert again.diagnostics == []
        assert again.baselined == 1
        assert again.stale_baseline == []

    def test_new_findings_still_fail(self, linter):
        result = linter.lint(_DIRTY, rel="repro/sim/clock.py")
        baseline = Baseline.from_diagnostics(result.diagnostics)
        dirtier = _DIRTY + "\n\ndef g(x=None):\n    return x or 1\n"
        rerun = linter.lint(dirtier, rel="repro/sim/clock.py", baseline=baseline)
        assert [d.rule for d in rerun.diagnostics] == ["or-default"]
        assert rerun.baselined == 1

    def test_fixed_finding_goes_stale(self, linter):
        result = linter.lint(_DIRTY, rel="repro/sim/clock.py")
        baseline = Baseline.from_diagnostics(result.diagnostics)
        clean = linter.lint("x = 1\n", rel="repro/sim/clock.py", baseline=baseline)
        assert clean.diagnostics == []
        assert clean.baselined == 0
        assert len(clean.stale_baseline) == 1

    def test_line_moves_do_not_invalidate_baseline(self, linter):
        result = linter.lint(_DIRTY, rel="repro/sim/clock.py")
        baseline = Baseline.from_diagnostics(result.diagnostics)
        shifted = "# a new leading comment\n" + _DIRTY
        rerun = linter.lint(shifted, rel="repro/sim/clock.py", baseline=baseline)
        assert rerun.diagnostics == []
        assert rerun.baselined == 1

    def test_missing_file_is_empty(self, tmp_path: Path):
        assert Baseline.load(tmp_path / "nope.json").entries == {}

    def test_malformed_file_rejected(self, tmp_path: Path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"entries": {"k": -1}, "version": 1}')
        try:
            Baseline.load(bad)
        except ValueError as exc:
            assert "malformed" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_counted_entries_absorb_exactly_n(self, linter):
        two = (
            "import time\n\n"
            "def f():\n    return time.time()\n\n"
            "def g():\n    return time.time()\n"
        )
        result = linter.lint(two, rel="repro/sim/clock.py")
        assert len(result.diagnostics) == 2
        baseline = Baseline.from_diagnostics(result.diagnostics)
        assert list(baseline.entries.values()) == [2]

        three = two + "\n\ndef h():\n    return time.time()\n"
        rerun = linter.lint(three, rel="repro/sim/clock.py", baseline=baseline)
        assert len(rerun.diagnostics) == 1
        assert rerun.baselined == 2
