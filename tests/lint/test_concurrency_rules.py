"""True-positive and near-miss gates for the asyncio concurrency rules."""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.rules import rules_by_name


def _run(tmp_path: Path, source: str, *rule_names: str, subpkg: str = "gateway"):
    root = tmp_path / "repro" / subpkg
    root.mkdir(parents=True, exist_ok=True)
    (root / "mod.py").write_text(source)
    registry = rules_by_name()
    rules = tuple(registry[name] for name in rule_names)
    result = lint_paths([tmp_path / "repro"], rules=rules, jobs=1, root=tmp_path)
    return result.diagnostics


class TestBlockingInAsync:
    def test_direct_primitive_fires(self, tmp_path):
        diags = _run(
            tmp_path,
            "import time\nasync def f():\n    time.sleep(1)\n",
            "blocking-in-async",
        )
        assert [d.rule for d in diags] == ["blocking-in-async"]
        assert "time.sleep" in diags[0].message

    def test_transitive_sync_helper_fires_naming_the_leaf(self, tmp_path):
        diags = _run(
            tmp_path,
            "import time\n"
            "def helper():\n"
            "    middle()\n"
            "def middle():\n"
            "    time.sleep(1)\n"
            "async def f():\n"
            "    helper()\n",
            "blocking-in-async",
        )
        assert [d.rule for d in diags] == ["blocking-in-async"]
        assert diags[0].line == 7  # the call site in the async function
        assert "time.sleep" in diags[0].message
        assert "repro.gateway.mod:5" in diags[0].message  # the leaf site

    def test_asyncio_sleep_is_a_near_miss(self, tmp_path):
        diags = _run(
            tmp_path,
            "import asyncio\nasync def f():\n    await asyncio.sleep(1)\n",
            "blocking-in-async",
        )
        assert diags == []

    def test_blocking_in_sync_code_is_fine(self, tmp_path):
        diags = _run(
            tmp_path,
            "import time\ndef f():\n    time.sleep(1)\n",
            "blocking-in-async",
        )
        assert diags == []

    def test_async_callee_is_convicted_once_at_its_own_site(self, tmp_path):
        diags = _run(
            tmp_path,
            "import time\n"
            "async def inner():\n"
            "    time.sleep(1)\n"
            "async def outer():\n"
            "    await inner()\n",
            "blocking-in-async",
        )
        assert [(d.rule, d.line) for d in diags] == [("blocking-in-async", 3)]

    def test_executor_handoff_is_a_near_miss(self, tmp_path):
        diags = _run(
            tmp_path,
            "import asyncio, time\n"
            "def blocking():\n"
            "    time.sleep(1)\n"
            "async def f():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, blocking)\n",
            "blocking-in-async",
        )
        assert diags == []
