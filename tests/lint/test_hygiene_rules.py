"""API-hygiene rules: mutable defaults, excepts, or-defaults."""

from __future__ import annotations

import pytest

_REL = "repro/eval/util.py"


class TestMutableDefault:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()", "list()"])
    def test_mutable_defaults_flagged(self, linter, default):
        names = linter.rule_names(
            f"""
            def f(items={default}):
                return items
            """,
            rel=_REL,
        )
        assert names == ["mutable-default"]

    @pytest.mark.parametrize("default", ["()", "None", "frozenset()", "0", "'x'"])
    def test_immutable_defaults_ok(self, linter, default):
        assert (
            linter.rule_names(
                f"""
                def f(item={default}):
                    return item
                """,
                rel=_REL,
            )
            == []
        )

    def test_kwonly_mutable_default_flagged(self, linter):
        names = linter.rule_names(
            """
            def f(*, items=[]):
                return items
            """,
            rel=_REL,
        )
        assert names == ["mutable-default"]


class TestExceptHygiene:
    def test_bare_except_flagged(self, linter):
        names = linter.rule_names(
            """
            def f():
                try:
                    return 1
                except:
                    return 0
            """,
            rel=_REL,
        )
        assert names == ["except-hygiene"]

    def test_broad_except_without_reraise_flagged(self, linter):
        names = linter.rule_names(
            """
            def f():
                try:
                    return 1
                except Exception:
                    return 0
            """,
            rel=_REL,
        )
        assert names == ["except-hygiene"]

    def test_broad_except_with_reraise_ok(self, linter):
        assert (
            linter.rule_names(
                """
                import logging

                def f():
                    try:
                        return 1
                    except Exception:
                        logging.exception("boom")
                        raise
                """,
                rel=_REL,
            )
            == []
        )

    def test_narrow_except_ok(self, linter):
        assert (
            linter.rule_names(
                """
                def f():
                    try:
                        return 1
                    except (ValueError, KeyError):
                        return 0
                """,
                rel=_REL,
            )
            == []
        )


class TestOrDefault:
    def test_optional_param_or_default_flagged(self, linter):
        findings = linter.findings(
            """
            def f(config=None):
                config = config or dict
                return config
            """,
            rel=_REL,
        )
        assert [d.rule for d in findings] == ["or-default"]
        assert "is not None" in findings[0].message

    def test_union_none_annotation_flagged(self, linter):
        names = linter.rule_names(
            """
            def f(rng: object | None = None):
                rng = rng or object()
                return rng
            """,
            rel=_REL,
        )
        assert names == ["or-default"]

    def test_or_inside_call_argument_flagged(self, linter):
        names = linter.rule_names(
            """
            def g(x):
                return x

            def f(config: dict | None = None):
                return g(config or {"a": 1})
            """,
            rel=_REL,
        )
        assert names == ["or-default"]

    def test_is_none_rewrite_ok(self, linter):
        assert (
            linter.rule_names(
                """
                def f(config=None):
                    config = config if config is not None else dict
                    return config
                """,
                rel=_REL,
            )
            == []
        )

    def test_bool_param_exempt(self, linter):
        assert (
            linter.rule_names(
                """
                def f(flag: bool = False, fallback: bool = True):
                    return flag or fallback
                """,
                rel=_REL,
            )
            == []
        )

    def test_non_parameter_or_ok(self, linter):
        assert (
            linter.rule_names(
                """
                def f():
                    a = compute() or 1
                    return a

                def compute():
                    return 0
                """,
                rel=_REL,
            )
            == []
        )
