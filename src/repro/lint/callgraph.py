"""Whole-tree call graph over the ``repro`` package.

The interprocedural rules need to know, for a call written in one
function, which function in the tree it lands in. This module answers
that in two strictly separated stages so the answer stays cacheable:

1. **Extraction** (:func:`extract_module_facts`) — a purely syntactic,
   per-file pass producing JSON-serialisable :class:`ModuleFacts`: the
   import map, a class registry (bases, methods, attribute types read
   off ``__init__`` assignments and dataclass annotations), and per
   function a list of symbolic :class:`CallFact` records ("calls
   ``self.recorder.append`` at line 210"). Facts depend
   only on the file's bytes, so the summary store memoises them by
   content hash and warm runs never re-parse.

2. **Resolution** (:class:`Project`) — a cheap whole-tree pass over the
   collected facts. Names resolve through the import maps, methods bind
   via class scan with base-chain chasing (``super().__init__`` walks
   the MRO approximation), and receiver chains (``conn.recorder.append``)
   resolve through declared/inferred attribute types. Every call lands
   in exactly one category:

   - ``internal`` — a function in the tree (edge in the graph);
   - ``internal-ctor`` — an in-tree class with a synthesised
     ``__init__`` (dataclasses; the class resolved, there is no body
     to follow);
   - ``external`` — stdlib/third-party (``time.sleep``, numpy, a
     method inherited from an external base);
   - ``unseen`` — an intra-package import whose module is not part of
     this run (``--changed`` subsets);
   - ``dynamic`` — an untyped receiver or higher-order value; rules
     stay silent rather than speculate;
   - ``unresolved`` — a symbolic reference that *should* have resolved
     (an attribute on an in-tree class that no class in the chain
     defines). The whole-src self-check asserts this count is zero.

Cycles are expected (mutual recursion, method ↔ helper); the summary
layer consumes :meth:`Project.sccs` — Tarjan strongly-connected
components in bottom-up (callee-first) order — so propagation reaches a
fixpoint without caring about them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Iterator, Union

from repro.lint.cfg import FunctionLike, iter_functions

__all__ = [
    "CALLGRAPH_VERSION",
    "CallFact",
    "ClassFacts",
    "FunctionFacts",
    "ModuleFacts",
    "Project",
    "Resolution",
    "call_fact_of",
    "extract_module_facts",
]

#: Bump when the facts schema or extraction behaviour changes; persisted
#: facts from an older version are discarded, never misread.
#: 3: array facts, lock holds and await/discard flags removed.
CALLGRAPH_VERSION = "3"

#: The package the graph is scoped to.
_PACKAGE = "repro"

#: Receiver-chain length beyond which calls are classified dynamic.
_MAX_CHAIN = 4


# ----------------------------------------------------------------- fact model
@dataclass(frozen=True)
class CallFact:
    """One call site, symbolically: a receiver chain plus position.

    ``parts`` spells the callee as written — ``("time", "sleep")``,
    ``("self", "recorder", "append")``, ``("helper",)`` — except for
    ``super().m(...)`` which is recorded as ``("super", "m")``.
    """

    parts: tuple[str, ...]
    line: int
    col: int
    #: The call carries ``*args``/``**kwargs`` (argument mapping unsafe).
    has_star_args: bool
    #: Positional argument count and keyword names (for param mapping).
    n_args: int
    kwarg_names: tuple[str, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "parts": list(self.parts),
            "line": self.line,
            "col": self.col,
            "star": self.has_star_args,
            "n_args": self.n_args,
            "kwargs": list(self.kwarg_names),
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "CallFact":
        return CallFact(
            parts=tuple(data["parts"]),
            line=int(data["line"]),
            col=int(data["col"]),
            has_star_args=bool(data["star"]),
            n_args=int(data["n_args"]),
            kwarg_names=tuple(data["kwargs"]),
        )


@dataclass(frozen=True)
class FunctionFacts:
    """Everything the interprocedural layer knows about one function."""

    qualname: str
    line: int
    is_async: bool
    #: Immediately enclosing class qualname within the module, or "".
    class_name: str
    #: Parameter names in binding order (``self``/``cls`` included).
    params: tuple[str, ...]
    calls: tuple[CallFact, ...]
    #: Local/parameter type spellings (``{"t": "threading.Thread"}``).
    local_types: dict[str, str]
    #: Parameter names whose value visibly escapes without a call
    #: (returned, yielded, stored into an attribute/container, captured
    #: by a nested function).
    param_escapes_direct: tuple[str, ...]
    #: Parameter names released locally (``p.close()`` etc.).
    param_consumes_direct: tuple[str, ...]
    #: ``(param, call index, position or keyword)`` argument hand-offs.
    param_passes: tuple[tuple[str, int, Union[int, str]], ...]
    #: Names of locals returned by this function (ownership heuristics).
    returned_names: tuple[str, ...]
    #: Indices into ``calls`` whose result is returned directly
    #: (``return helper()`` / ``return Recorder(...)``).
    returned_calls: tuple[int, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "is_async": self.is_async,
            "class_name": self.class_name,
            "params": list(self.params),
            "calls": [c.to_json() for c in self.calls],
            "local_types": dict(self.local_types),
            "escapes": list(self.param_escapes_direct),
            "consumes": list(self.param_consumes_direct),
            "passes": [list(p) for p in self.param_passes],
            "returned": list(self.returned_names),
            "returned_calls": list(self.returned_calls),
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "FunctionFacts":
        return FunctionFacts(
            qualname=str(data["qualname"]),
            line=int(data["line"]),
            is_async=bool(data["is_async"]),
            class_name=str(data["class_name"]),
            params=tuple(data["params"]),
            calls=tuple(CallFact.from_json(c) for c in data["calls"]),
            local_types={str(k): str(v) for k, v in data["local_types"].items()},
            param_escapes_direct=tuple(data["escapes"]),
            param_consumes_direct=tuple(data["consumes"]),
            param_passes=tuple(
                (str(p[0]), int(p[1]), p[2] if isinstance(p[2], str) else int(p[2]))
                for p in data["passes"]
            ),
            returned_names=tuple(data["returned"]),
            returned_calls=tuple(int(i) for i in data["returned_calls"]),
        )


@dataclass(frozen=True)
class ClassFacts:
    """One class: bases, methods, and attribute type spellings."""

    qualname: str
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    #: Every attribute name the class visibly assigns (typed or not);
    #: calling one of these is a higher-order call, not a missing method.
    attrs: tuple[str, ...]
    #: ``self.X`` → type spelling ("Recorder", "threading.Lock", "file",
    #: "list[threading.Thread]"), from annotations or constructor calls.
    attr_types: dict[str, str]
    #: True when an explicit ``__init__``/``__new__`` exists.
    has_init: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "bases": list(self.bases),
            "methods": list(self.methods),
            "attrs": list(self.attrs),
            "attr_types": dict(self.attr_types),
            "has_init": self.has_init,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "ClassFacts":
        return ClassFacts(
            qualname=str(data["qualname"]),
            bases=tuple(data["bases"]),
            methods=tuple(data["methods"]),
            attrs=tuple(data["attrs"]),
            attr_types={str(k): str(v) for k, v in data["attr_types"].items()},
            has_init=bool(data["has_init"]),
        )


@dataclass(frozen=True)
class ModuleFacts:
    """Per-file facts: imports, classes, functions."""

    #: Module path relative to the package, e.g. ``("gateway", "server")``.
    module_parts: tuple[str, ...]
    #: Local name → dotted target (``{"Recorder": "repro.store.record.Recorder",
    #: "asyncio": "asyncio"}``).
    imports: dict[str, str]
    classes: dict[str, ClassFacts]
    functions: dict[str, FunctionFacts]

    @property
    def dotted(self) -> str:
        return ".".join((_PACKAGE, *self.module_parts))

    def to_json(self) -> dict[str, Any]:
        return {
            "module": list(self.module_parts),
            "imports": dict(self.imports),
            "classes": {k: v.to_json() for k, v in self.classes.items()},
            "functions": {k: v.to_json() for k, v in self.functions.items()},
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "ModuleFacts":
        return ModuleFacts(
            module_parts=tuple(data["module"]),
            imports={str(k): str(v) for k, v in data["imports"].items()},
            classes={
                str(k): ClassFacts.from_json(v) for k, v in data["classes"].items()
            },
            functions={
                str(k): FunctionFacts.from_json(v) for k, v in data["functions"].items()
            },
        )


# ------------------------------------------------------------------ extraction
def _type_spelling(annotation: ast.expr | None) -> str | None:
    """Normalised type spelling of an annotation, or None when unusable.

    ``Recorder | None`` → ``"Recorder"``; ``list[threading.Thread]`` →
    ``"list[threading.Thread]"``; ``Optional[Path]`` → ``"Path"``.
    Anything genuinely polymorphic (unions of two real types, mappings)
    collapses to None — the resolver then treats the receiver as dynamic.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant):
        if isinstance(annotation.value, str):
            try:
                return _type_spelling(ast.parse(annotation.value, mode="eval").body)
            except SyntaxError:
                return None
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return _dotted_of(annotation)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [
            _type_spelling(side)
            for side in (annotation.left, annotation.right)
            if not (isinstance(side, ast.Constant) and side.value is None)
        ]
        real = [s for s in sides if s is not None]
        return real[0] if len(real) == 1 else None
    if isinstance(annotation, ast.Subscript):
        head = _type_spelling(annotation.value)
        if head is None:
            return None
        base = head.split(".")[-1]
        if base == "Optional":
            return _type_spelling(annotation.slice)
        if base in ("list", "List"):
            inner = _type_spelling(annotation.slice)
            return f"list[{inner}]" if inner is not None else None
        return None
    return None


def list_element(spelling: str) -> str | None:
    """``"list[T]"`` → ``"T"``, else None."""
    if spelling.startswith("list[") and spelling.endswith("]"):
        return spelling[len("list[") : -1]
    return None


def _dotted_of(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _chain_of(node: ast.expr) -> tuple[str, ...] | None:
    """Receiver chain of a callee expression, or None when dynamic.

    ``self.recorder.append`` → ``("self", "recorder", "append")``;
    ``super().__init__`` → ``("super", "__init__")``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
        and len(parts) == 1
    ):
        return ("super", parts[0])
    return None


def call_fact_of(node: ast.Call) -> CallFact | None:
    """The symbolic :class:`CallFact` for one AST call, or None (dynamic)."""
    chain = _chain_of(node.func)
    if chain is None or len(chain) > _MAX_CHAIN:
        return None
    has_star = any(isinstance(a, ast.Starred) for a in node.args) or any(
        kw.arg is None for kw in node.keywords
    )
    return CallFact(
        parts=chain,
        line=node.lineno,
        col=node.col_offset,
        has_star_args=has_star,
        n_args=len(node.args),
        kwarg_names=tuple(kw.arg for kw in node.keywords if kw.arg is not None),
    )


_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _iter_own(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes.

    Comprehension bodies are included (they run in place, give or take
    laziness); nested ``def``/``lambda``/``class`` bodies are not — their
    calls belong to their own facts.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _NESTED_SCOPES):
            stack.extend(ast.iter_child_nodes(child))


def _param_names(fn: FunctionLike) -> list[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names


def _self_attr_target(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _ctor_spelling(value: ast.expr) -> str | None:
    """Type spelling minted by ``X(...)`` / ``open(...)`` initialisers."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted_of(value.func)
    if dotted is None:
        return None
    if dotted == "open":
        return "file"
    last = dotted.split(".")[-1]
    if last and (last[0].isupper() or "." in dotted):
        return dotted
    return None


def _class_facts(cls: ast.ClassDef, qualname: str) -> ClassFacts:
    bases: list[str] = []
    for base in cls.bases:
        dotted = _dotted_of(base)
        if dotted is not None:
            bases.append(dotted)
    methods: list[str] = []
    attr_types: dict[str, str] = {}
    attr_names: set[str] = set()
    has_init = False
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(stmt.name)
            if stmt.name in ("__init__", "__new__"):
                has_init = True
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            # Dataclass-style field annotations type the attribute.
            attr_names.add(stmt.target.id)
            spelling = _type_spelling(stmt.annotation)
            if spelling is not None:
                attr_types[stmt.target.id] = spelling
    # ``self.X: T = ...`` / ``self.X = Ctor(...)`` in any method body;
    # explicit annotations win over constructor inference.
    inferred: dict[str, str] = {}
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _iter_own(stmt):
            if isinstance(node, ast.AnnAssign):
                attr = _self_attr_target(node.target)
                if attr is not None:
                    attr_names.add(attr)
                    spelling = _type_spelling(node.annotation)
                    if spelling is not None:
                        attr_types.setdefault(attr, spelling)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _self_attr_target(node.targets[0])
                if attr is None:
                    continue
                attr_names.add(attr)
                if attr in attr_types:
                    continue
                spelling = _ctor_spelling(node.value)
                if spelling is not None:
                    inferred.setdefault(attr, spelling)
    for attr, spelling in inferred.items():
        attr_types.setdefault(attr, spelling)
    return ClassFacts(
        qualname=qualname,
        bases=tuple(bases),
        methods=tuple(methods),
        attrs=tuple(sorted(attr_names)),
        attr_types=attr_types,
        has_init=has_init,
    )


def _local_types(
    fn: FunctionLike, attr_types: dict[str, str]
) -> dict[str, str]:
    """Type spellings for parameters and simply-typed locals."""
    types: dict[str, str] = {}
    for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
        spelling = _type_spelling(arg.annotation)
        if spelling is not None:
            types[arg.arg] = spelling
    for node in _iter_own(fn):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            spelling = _type_spelling(node.annotation)
            if spelling is not None:
                types[node.target.id] = spelling
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id not in types:
                spelling = _ctor_spelling(node.value)
                if spelling is not None:
                    types[target.id] = spelling
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            # ``for t in self._threads:`` with a list[...]-typed iterable
            # types the loop variable as the element.
            iter_spelling: str | None = None
            attr = _self_attr_target(node.iter)
            if attr is not None:
                iter_spelling = attr_types.get(attr)
            elif isinstance(node.iter, ast.Name):
                iter_spelling = types.get(node.iter.id)
            if iter_spelling is not None:
                element = list_element(iter_spelling)
                if element is not None:
                    types.setdefault(node.target.id, element)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    spelling = _ctor_spelling(item.context_expr)
                    if spelling is not None:
                        types.setdefault(item.optional_vars.id, spelling)
    return types


#: Method names that release a tracked resource (mirrors provenance
#: RELEASE_METHODS; duplicated literally to keep extraction import-light).
_RELEASE_NAMES = frozenset({"close", "join", "shutdown", "stop", "cancel"})


def _function_facts(
    qualname: str,
    fn: FunctionLike,
    class_name: str,
    attr_types: dict[str, str],
) -> FunctionFacts:
    params = _param_names(fn)
    local_types = _local_types(fn, attr_types)

    own_nodes = list(_iter_own(fn))
    call_nodes = sorted(
        (node for node in own_nodes if isinstance(node, ast.Call)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    calls: list[CallFact] = []
    call_index: dict[int, int] = {}
    for node in call_nodes:
        fact = call_fact_of(node)
        if fact is not None:
            call_index[id(node)] = len(calls)
            calls.append(fact)

    # Parameter escape/consume/pass classification. A parameter load is
    # benign when it is the receiver of a method call or a plain call
    # argument (the pass is then resolved against the callee's summary);
    # every other load context hands the reference somewhere we cannot
    # see, so it escapes.
    tracked = {p for p in params if p not in ("self", "cls")}
    receiver_method: dict[int, str] = {}
    arg_slot: dict[int, tuple[int, Union[int, str]]] = {}
    for node in own_nodes:
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and isinstance(
            node.func.value, ast.Name
        ):
            receiver_method[id(node.func.value)] = node.func.attr
        index = call_index.get(id(node))
        if index is None:
            continue
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Name):
                arg_slot[id(arg)] = (index, position)
        for kw in node.keywords:
            if kw.arg is not None and isinstance(kw.value, ast.Name):
                arg_slot[id(kw.value)] = (index, kw.arg)

    escapes: set[str] = set()
    consumes: set[str] = set()
    passes: list[tuple[str, int, Union[int, str]]] = []
    for node in own_nodes:
        if isinstance(node, _NESTED_SCOPES):
            # Closure capture: any parameter read inside escapes.
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)
                    and inner.id in tracked
                ):
                    escapes.add(inner.id)
            continue
        if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
            continue
        if node.id not in tracked:
            continue
        method = receiver_method.get(id(node))
        if method is not None:
            if method in _RELEASE_NAMES:
                consumes.add(node.id)
            continue  # receiver-only use keeps ownership here
        slot = arg_slot.get(id(node))
        if slot is not None:
            passes.append((node.id, slot[0], slot[1]))
            continue
        escapes.add(node.id)

    returned: list[str] = []
    returned_calls: list[int] = []
    for node in own_nodes:
        if not isinstance(node, ast.Return):
            continue
        if isinstance(node.value, ast.Name):
            returned.append(node.value.id)
        elif isinstance(node.value, ast.Call):
            index = call_index.get(id(node.value))
            if index is not None:
                returned_calls.append(index)

    return FunctionFacts(
        qualname=qualname,
        line=fn.lineno,
        is_async=isinstance(fn, ast.AsyncFunctionDef),
        class_name=class_name,
        params=tuple(params),
        calls=tuple(calls),
        local_types=local_types,
        param_escapes_direct=tuple(sorted(escapes)),
        param_consumes_direct=tuple(sorted(consumes)),
        param_passes=tuple(passes),
        returned_names=tuple(returned),
        returned_calls=tuple(returned_calls),
    )


def _import_map(tree: ast.Module, module_parts: tuple[str, ...]) -> dict[str, str]:
    """Local name → dotted origin for every import in the module."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname if alias.asname else alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against this module's package.
                package = (_PACKAGE, *module_parts[:-1])
                if node.level <= len(package):
                    base_parts = package[: len(package) - (node.level - 1)]
                else:
                    continue
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname if alias.asname else alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def extract_module_facts(
    module_parts: tuple[str, ...], tree: ast.Module
) -> ModuleFacts:
    """Stage 1: purely syntactic facts for one parsed module."""
    classes: dict[str, ClassFacts] = {}

    # Collect classes (including nested ones) with dotted qualnames.
    def _collect(prefix: str, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                classes[qualname] = _class_facts(child, qualname)
                _collect(f"{qualname}.", child)
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _collect(prefix, child)

    _collect("", tree)

    functions: dict[str, FunctionFacts] = {}
    for qualname, fn in iter_functions(tree):
        head = qualname.rsplit(".", 1)[0] if "." in qualname else ""
        class_name = head if head in classes else ""
        attr_types = classes[class_name].attr_types if class_name else {}
        functions[qualname] = _function_facts(qualname, fn, class_name, attr_types)

    return ModuleFacts(
        module_parts=module_parts,
        imports=_import_map(tree, module_parts),
        classes=classes,
        functions=functions,
    )


# ------------------------------------------------------------------ resolution
@dataclass(frozen=True)
class Resolution:
    """Where one :class:`CallFact` lands."""

    #: internal | internal-ctor | external | unseen | dynamic | unresolved
    category: str
    #: Fully-qualified target ("repro.store.writer.TraceWriter.append",
    #: "time.sleep"); None for dynamic.
    target: str | None
    #: True when the first positional argument maps to ``params[1]``
    #: (bound method / constructor call).
    bound_receiver: bool = False


_DYNAMIC = Resolution("dynamic", None)


class Project:
    """The resolved whole-tree view: facts registry + call graph."""

    def __init__(self, modules: dict[str, ModuleFacts]) -> None:
        #: Dotted module name → facts.
        self.modules = modules
        self._class_index: dict[str, tuple[ModuleFacts, ClassFacts]] = {}
        self._function_index: dict[str, tuple[ModuleFacts, FunctionFacts]] = {}
        for mod in modules.values():
            for cls in mod.classes.values():
                self._class_index[f"{mod.dotted}.{cls.qualname}"] = (mod, cls)
            for fn in mod.functions.values():
                self._function_index[f"{mod.dotted}.{fn.qualname}"] = (mod, fn)
        self._resolved: dict[str, list[Resolution]] | None = None
        self._stats: dict[str, int] | None = None

    # ------------------------------------------------------------ registries
    def module_of(self, module_parts: tuple[str, ...]) -> ModuleFacts | None:
        return self.modules.get(".".join((_PACKAGE, *module_parts)))

    def function(self, full_qualname: str) -> FunctionFacts | None:
        entry = self._function_index.get(full_qualname)
        return entry[1] if entry is not None else None

    def functions(self) -> Iterator[tuple[str, ModuleFacts, FunctionFacts]]:
        for full, (mod, fn) in self._function_index.items():
            yield full, mod, fn

    # ----------------------------------------------------------- type lookup
    def resolve_type(self, mod: ModuleFacts, spelling: str) -> str:
        """Canonicalise a type spelling.

        Returns an internal class qualname, ``"file"``, or
        ``external:<dotted>`` / ``unseen:<dotted>`` / ``""`` (unknown).
        """
        if spelling == "file":
            return "file"
        element = list_element(spelling)
        if element is not None:
            inner = self.resolve_type(mod, element)
            return f"list[{inner}]" if inner else ""
        head, _, rest = spelling.partition(".")
        if spelling in mod.classes:
            return f"{mod.dotted}.{spelling}"
        origin = mod.imports.get(head)
        if origin is None:
            return ""
        dotted = f"{origin}.{rest}" if rest else origin
        if dotted in self._class_index:
            return dotted
        if dotted.split(".")[0] == _PACKAGE:
            # Maybe "module import" spelling: repro.store.record.Recorder
            if dotted in self._class_index:
                return dotted
            return f"unseen:{dotted}" if dotted not in self.modules else ""
        return f"external:{dotted}"

    def _base_chain(self, class_qualname: str) -> list[tuple[str, ClassFacts]]:
        """The class and its internal ancestors, nearest first."""
        chain: list[tuple[str, ClassFacts]] = []
        seen: set[str] = set()
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            entry = self._class_index.get(current)
            if entry is None:
                continue
            mod, cls = entry
            chain.append((current, cls))
            for base in cls.bases:
                resolved = self.resolve_type(mod, base)
                if resolved and not resolved.startswith(("external:", "unseen:")):
                    frontier.append(resolved)
        return chain

    def _has_external_base(self, class_qualname: str) -> bool:
        for current, cls in self._base_chain(class_qualname):
            entry = self._class_index[current]
            for base in cls.bases:
                resolved = self.resolve_type(entry[0], base)
                if not resolved or resolved.startswith(("external:", "unseen:")):
                    return True
        return False

    def _lookup_method(self, class_qualname: str, method: str) -> Resolution:
        for current, cls in self._base_chain(class_qualname):
            if method in cls.methods:
                return Resolution("internal", f"{current}.{method}", bound_receiver=True)
        for _current, cls in self._base_chain(class_qualname):
            if method in cls.attrs:
                # Calling a stored attribute (``self._sink(...)``): a
                # higher-order value, not a missing method.
                return _DYNAMIC
        if self._has_external_base(class_qualname):
            return Resolution("external", f"{class_qualname}.{method}")
        return Resolution("unresolved", f"{class_qualname}.{method}")

    def _resolve_class_target(self, dotted: str) -> Resolution | None:
        """Constructor resolution for a canonical class qualname."""
        entry = self._class_index.get(dotted)
        if entry is None:
            return None
        for current, cls in self._base_chain(dotted):
            if cls.has_init:
                return Resolution(
                    "internal", f"{current}.__init__", bound_receiver=True
                )
        return Resolution("internal-ctor", dotted)

    # ------------------------------------------------------------ call resolve
    def resolve_call(
        self, mod: ModuleFacts, fn: FunctionFacts, fact: CallFact
    ) -> Resolution:
        """Stage 2: land one symbolic call somewhere (see module docs)."""
        parts = fact.parts
        if parts[0] == "super":
            if len(parts) == 1:
                # The inner ``super()`` of ``super().m(...)`` is its own
                # Call node; the zero-arg builtin itself does nothing.
                return Resolution("external", "super")
            if fn.class_name:
                entry = self._class_index.get(f"{mod.dotted}.{fn.class_name}")
                if entry is not None and entry[1].bases:
                    base = self.resolve_type(mod, entry[1].bases[0])
                    if base and not base.startswith(("external:", "unseen:")):
                        return self._lookup_method(base, parts[1])
                    if base.startswith("external:"):
                        return Resolution("external", f"{base[9:]}.{parts[1]}")
                    if base.startswith("unseen:"):
                        return Resolution("unseen", f"{base[7:]}.{parts[1]}")
            return _DYNAMIC

        if len(parts) == 1:
            return self._resolve_plain_name(mod, fn, parts[0])

        # Receiver chain: type the root, then walk attributes.
        root = parts[0]
        if root in ("self", "cls") and fn.class_name:
            receiver = f"{mod.dotted}.{fn.class_name}"
        elif root in fn.local_types:
            receiver = self.resolve_type(mod, fn.local_types[root])
        elif root in mod.imports:
            return self._resolve_imported_chain(mod, parts)
        else:
            return _DYNAMIC
        return self._walk_chain(receiver, parts[1:])

    def _walk_chain(self, receiver: str, rest: tuple[str, ...]) -> Resolution:
        """Follow ``rest`` (attributes then a final method) from a type."""
        for step, attr in enumerate(rest):
            last = step == len(rest) - 1
            if not receiver:
                return _DYNAMIC
            if receiver.startswith("external:"):
                return Resolution("external", f"{receiver[9:]}.{'.'.join(rest[step:])}")
            if receiver.startswith("unseen:"):
                return Resolution("unseen", f"{receiver[7:]}.{'.'.join(rest[step:])}")
            if receiver == "file" or receiver.startswith("list["):
                return Resolution("external", f"{receiver}.{'.'.join(rest[step:])}")
            entry = self._class_index.get(receiver)
            if entry is None:
                return _DYNAMIC
            if last:
                return self._lookup_method(receiver, attr)
            attr_mod, attr_cls = entry
            spelling = None
            for current, cls in self._base_chain(receiver):
                if attr in cls.attr_types:
                    attr_mod = self._class_index[current][0]
                    spelling = cls.attr_types[attr]
                    break
            if spelling is None:
                return _DYNAMIC
            receiver = self.resolve_type(attr_mod, spelling)
        return _DYNAMIC

    def _resolve_plain_name(
        self, mod: ModuleFacts, fn: FunctionFacts, name: str
    ) -> Resolution:
        # A nested function defined in this scope or an enclosing one?
        scope = fn.qualname
        while scope:
            nested = f"{scope}.<locals>.{name}"
            if nested in mod.functions:
                return Resolution("internal", f"{mod.dotted}.{nested}")
            scope = scope.rsplit(".<locals>.", 1)[0] if ".<locals>." in scope else ""
        if name in mod.functions:
            return Resolution("internal", f"{mod.dotted}.{name}")
        if name in mod.classes:
            resolved = self._resolve_class_target(f"{mod.dotted}.{name}")
            if resolved is not None:
                return resolved
        if name in fn.local_types:
            return _DYNAMIC  # calling a typed local value: higher-order
        origin = mod.imports.get(name)
        if origin is None:
            if name == "open":
                return Resolution("external", "open")
            return _DYNAMIC  # builtin or module-global we do not model
        return self._resolve_dotted(origin)

    def _resolve_imported_chain(
        self, mod: ModuleFacts, parts: tuple[str, ...]
    ) -> Resolution:
        origin = mod.imports[parts[0]]
        return self._resolve_dotted(".".join((origin, *parts[1:])))

    def _resolve_dotted(self, dotted: str) -> Resolution:
        """Resolve a fully-dotted reference (import-rooted)."""
        if dotted.split(".")[0] != _PACKAGE:
            return Resolution("external", dotted)
        if dotted in self._function_index:
            return Resolution("internal", dotted)
        ctor = self._resolve_class_target(dotted)
        if ctor is not None:
            return ctor
        # Method on an imported class: repro.x.Cls.method
        head, _, method = dotted.rpartition(".")
        if head in self._class_index:
            return self._lookup_method(head, method)
        # Attribute of a known module that is neither function nor class
        # (a module-level constant holding a callable, __all__ tricks...).
        module = head
        while module:
            if module in self.modules:
                return _DYNAMIC
            module = module.rpartition(".")[0]
        return Resolution("unseen", dotted)

    # ------------------------------------------------------------- graph view
    def resolved_calls(self, full_qualname: str) -> list[Resolution]:
        """Per-call resolutions for one function (parallel to facts.calls)."""
        resolved = self._resolved
        if resolved is None:
            resolved = self._resolve_all()
        return resolved.get(full_qualname, [])

    def _resolve_all(self) -> dict[str, list[Resolution]]:
        resolved: dict[str, list[Resolution]] = {}
        stats = {
            "internal": 0,
            "internal-ctor": 0,
            "external": 0,
            "unseen": 0,
            "dynamic": 0,
            "unresolved": 0,
        }
        for full, mod, fn in self.functions():
            out = [self.resolve_call(mod, fn, fact) for fact in fn.calls]
            resolved[full] = out
            for res in out:
                stats[res.category] += 1
        self._resolved = resolved
        self._stats = stats
        return resolved

    def stats(self) -> dict[str, int]:
        """Resolution-category counts over every call in the tree."""
        if self._stats is None:
            self._resolve_all()
        return dict(self._stats or {})

    def unresolved_calls(self) -> list[tuple[str, CallFact]]:
        """Every call that should have resolved but did not (self-check)."""
        out: list[tuple[str, CallFact]] = []
        for full, _, fn in self.functions():
            for fact, res in zip(fn.calls, self.resolved_calls(full)):
                if res.category == "unresolved":
                    out.append((full, fact))
        return out

    def sccs(self) -> list[list[str]]:
        """Strongly-connected components, callees before callers (Tarjan)."""
        edges: dict[str, list[str]] = {}
        for full, _, fn in self.functions():
            targets: list[str] = []
            for res in self.resolved_calls(full):
                if res.category == "internal" and res.target in self._function_index:
                    targets.append(res.target)
            edges[full] = targets

        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = 0

        for root in edges:
            if root in index_of:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, cursor = work[-1]
                if cursor == 0:
                    index_of[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                targets = edges[node]
                while cursor < len(targets):
                    succ = targets[cursor]
                    cursor += 1
                    if succ not in index_of:
                        work[-1] = (node, cursor)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if advanced:
                    continue
                work[-1] = (node, cursor)
                if cursor >= len(targets):
                    if lowlink[node] == index_of[node]:
                        component: list[str] = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.append(member)
                            if member == node:
                                break
                        components.append(component)
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components
