"""Call-graph extraction and resolution unit tests."""

from __future__ import annotations

import ast

from repro.lint.callgraph import (
    ModuleFacts,
    Project,
    extract_module_facts,
)


def _facts(source: str, module=("sim", "mod")) -> ModuleFacts:
    return extract_module_facts(tuple(module), ast.parse(source))


def _project(**modules: str) -> Project:
    """Build a project from ``{"sim.mod": source}``-style kwargs (dots
    spelled as double underscores in the kwarg name)."""
    built: dict[str, ModuleFacts] = {}
    for spec, source in modules.items():
        parts = tuple(spec.split("__"))
        facts = _facts(source, parts)
        built[facts.dotted] = facts
    return Project(built)


class TestExtraction:
    def test_calls_are_in_source_order(self):
        facts = _facts("def f():\n    a()\n    b()\n    c()\n")
        assert [c.parts[0] for c in facts.functions["f"].calls] == ["a", "b", "c"]

    def test_nested_function_calls_belong_to_the_nested_facts(self):
        facts = _facts(
            "def outer():\n"
            "    def inner():\n"
            "        leaf()\n"
            "    inner()\n"
        )
        assert [c.parts for c in facts.functions["outer"].calls] == [("inner",)]
        assert [c.parts for c in facts.functions["outer.<locals>.inner"].calls] == [
            ("leaf",)
        ]

    def test_class_attr_types_from_annotations_and_constructors(self):
        facts = _facts(
            "import threading\n"
            "class C:\n"
            "    count: int\n"
            "    def __init__(self, path):\n"
            "        self._lock = threading.Lock()\n"
            "        self._fh = open(path)\n"
            "        self._sink = print\n"
        )
        cls = facts.classes["C"]
        assert cls.attr_types["_lock"] == "threading.Lock"
        assert cls.attr_types["_fh"] == "file"
        assert "_sink" in cls.attrs and "_sink" not in cls.attr_types
        assert cls.has_init

    def test_relative_import_resolves_against_the_package(self):
        facts = _facts(
            "from .helper import leaf\nfrom ..store import record\n",
            ("gateway", "mod"),
        )
        assert facts.imports["leaf"] == "repro.gateway.helper.leaf"
        assert facts.imports["record"] == "repro.store.record"

    def test_json_round_trip_is_lossless(self):
        facts = _facts(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    async def go(self, x):\n"
            "        async with self._aio:\n"
            "            await self.pump(x)\n"
            "        return x\n"
        )
        assert ModuleFacts.from_json(facts.to_json()) == facts


class TestResolution:
    def test_module_function_and_method_resolve_internal(self):
        project = _project(
            sim__mod=(
                "def leaf():\n    pass\n"
                "class C:\n"
                "    def m(self):\n"
                "        leaf()\n"
                "        self.n()\n"
                "    def n(self):\n"
                "        pass\n"
            )
        )
        resolved = project.resolved_calls("repro.sim.mod.C.m")
        assert [(r.category, r.target) for r in resolved] == [
            ("internal", "repro.sim.mod.leaf"),
            ("internal", "repro.sim.mod.C.n"),
        ]
        assert resolved[1].bound_receiver

    def test_cross_module_import_resolves(self):
        project = _project(
            sim__helper="def leaf():\n    pass\n",
            sim__mod=(
                "from repro.sim.helper import leaf\n"
                "def f():\n    leaf()\n"
            ),
        )
        (res,) = project.resolved_calls("repro.sim.mod.f")
        assert (res.category, res.target) == ("internal", "repro.sim.helper.leaf")

    def test_receiver_chain_types_through_attributes(self):
        project = _project(
            sim__mod=(
                "class Inner:\n"
                "    def leaf(self):\n"
                "        pass\n"
                "class Outer:\n"
                "    def __init__(self):\n"
                "        self.inner = Inner()\n"
                "    def go(self):\n"
                "        self.inner.leaf()\n"
            )
        )
        (res,) = project.resolved_calls("repro.sim.mod.Outer.go")
        assert (res.category, res.target) == ("internal", "repro.sim.mod.Inner.leaf")

    def test_dataclass_constructor_is_internal_ctor(self):
        project = _project(
            sim__mod=(
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Point:\n"
                "    x: int\n"
                "def f():\n    return Point(1)\n"
            )
        )
        (res,) = project.resolved_calls("repro.sim.mod.f")
        assert (res.category, res.target) == ("internal-ctor", "repro.sim.mod.Point")

    def test_super_call_binds_to_the_base(self):
        project = _project(
            sim__mod=(
                "class Base:\n"
                "    def __init__(self):\n"
                "        pass\n"
                "class Child(Base):\n"
                "    def __init__(self):\n"
                "        super().__init__()\n"
            )
        )
        resolved = project.resolved_calls("repro.sim.mod.Child.__init__")
        targets = {r.target for r in resolved}
        assert "repro.sim.mod.Base.__init__" in targets

    def test_stored_callable_attribute_is_dynamic_not_unresolved(self):
        project = _project(
            sim__mod=(
                "class C:\n"
                "    def __init__(self, fn):\n"
                "        self._fn = fn\n"
                "    def go(self):\n"
                "        self._fn()\n"
            )
        )
        (res,) = project.resolved_calls("repro.sim.mod.C.go")
        assert res.category == "dynamic"
        assert project.unresolved_calls() == []

    def test_missing_method_on_internal_class_is_unresolved(self):
        project = _project(
            sim__mod=(
                "class C:\n"
                "    def m(self):\n"
                "        self.never_defined()\n"
            )
        )
        (res,) = project.resolved_calls("repro.sim.mod.C.m")
        assert res.category == "unresolved"
        assert len(project.unresolved_calls()) == 1

    def test_external_and_unseen_categories(self):
        project = _project(
            sim__mod=(
                "import time\n"
                "from repro.sim.absent import ghost\n"
                "def f():\n"
                "    time.sleep(1)\n"
                "    ghost()\n"
            )
        )
        categories = {
            r.target: r.category for r in project.resolved_calls("repro.sim.mod.f")
        }
        assert categories["time.sleep"] == "external"
        assert categories["repro.sim.absent.ghost"] == "unseen"

    def test_sccs_are_callee_first_and_cycle_tolerant(self):
        project = _project(
            sim__mod=(
                "def leaf():\n    pass\n"
                "def a():\n    b()\n    leaf()\n"
                "def b():\n    a()\n"
            )
        )
        components = project.sccs()
        cycle = next(c for c in components if len(c) == 2)
        assert set(cycle) == {"repro.sim.mod.a", "repro.sim.mod.b"}
        leaf_at = next(
            i for i, c in enumerate(components) if c == ["repro.sim.mod.leaf"]
        )
        cycle_at = components.index(cycle)
        assert leaf_at < cycle_at
