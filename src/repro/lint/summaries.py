"""Bottom-up interprocedural function summaries.

On top of the :mod:`~repro.lint.callgraph` facts, this module computes
one :class:`FunctionSummary` per function in the tree:

- **may_block** — the function transitively reaches a blocking
  primitive (``time.sleep``, ``subprocess``, synchronous file/``Path``
  IO, ``Thread.join``, ``Event``/``Condition`` waits). Propagated
  bottom-up over the call graph's SCCs, so a coroutine three helpers
  away from an ``open()`` is convicted with the leaf site named.
  Function *references* passed to ``run_in_executor``/``to_thread`` are
  not calls, so executor hand-offs never taint the caller.
- **escapes / consumes** — which parameters a function stores away vs
  releases (``close``/``join``/...), with argument hand-offs resolved
  through callee summaries to a fixpoint. The resource-lifecycle rule
  uses these to follow a handle through helper calls instead of giving
  up at the first call site.
- **returns_owned** — the function hands its caller a tracked resource
  (directly, via a typed local, or through a helper that does), so the
  caller inherits the release obligation.

Caching: warm runs must stay close to the intra-procedural engine, so
everything expensive is memoised in one JSON file under the result
cache directory (:class:`SummaryStore`): per-file facts keyed by
content hash (unchanged files are never re-parsed), and the fully
propagated summaries keyed by a whole-tree key (an unchanged tree skips
resolution and propagation entirely). :func:`digest_of` gives the
deterministic digest the engine folds into per-file result-cache keys —
editing a callee's behaviour re-lints its callers, while a pure
comment edit re-lints only the edited file.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence, Union

from repro.lint.callgraph import (
    CALLGRAPH_VERSION,
    FunctionFacts,
    ModuleFacts,
    Project,
    Resolution,
    call_fact_of,
    extract_module_facts,
)
from repro.lint.provenance import TRACKED_KINDS, kind_of_dotted

__all__ = [
    "SUMMARIES_VERSION",
    "FunctionSummary",
    "ProjectAnalysis",
    "blocking_reason",
    "compute_summaries",
    "digest_of",
    "load_project",
]

#: Bump when summary semantics change; invalidates the persisted store.
#: 3: array-contract domain, awaits and locks-across-await removed.
SUMMARIES_VERSION = "3"

_STORE_NAME = "summaries.json"
_FACTS_NAME = "facts.json"

# ------------------------------------------------------- blocking primitives
#: Dotted externals that block the calling thread outright.
_BLOCKING_EXTERNAL = frozenset(
    {
        "open",
        "time.sleep",
        "os.system",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
        "urllib.request.urlopen",
    }
)

#: Methods on an ``open()``-typed receiver that hit the filesystem.
_FILE_METHODS = frozenset(
    {"read", "read1", "readline", "readlines", "write", "writelines", "flush",
     "seek", "truncate", "close"}
)

#: ``pathlib.Path`` methods that hit the filesystem.
_PATH_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes", "mkdir", "unlink",
     "rmdir", "touch", "rename", "replace", "symlink_to", "hardlink_to"}
)

#: ``threading`` receiver methods that park the calling thread. ``acquire``
#: / ``with lock`` are deliberately excluded — short critical sections are
#: this codebase's design.
_THREADING_WAIT_METHODS = frozenset({"join", "wait", "wait_for"})


def blocking_reason(resolution: Resolution) -> str | None:
    """Blocking-primitive spelling for an external resolution, or None."""
    if resolution.category != "external" or resolution.target is None:
        return None
    target = resolution.target
    if target in _BLOCKING_EXTERNAL:
        return target
    parts = target.split(".")
    method = parts[-1]
    if parts[0] == "file" and method in _FILE_METHODS:
        return f"file.{method}"
    if parts[0] == "pathlib" and method in _PATH_METHODS:
        return f"Path.{method}"
    if parts[0] == "threading" and method in _THREADING_WAIT_METHODS:
        return target
    return None


# ------------------------------------------------------------------ summaries
@dataclass(frozen=True)
class FunctionSummary:
    """One function's interprocedural facts, fully propagated."""

    qualname: str
    is_async: bool
    may_block: bool
    #: The leaf primitive reached ("time.sleep"), "" when not blocking.
    block_primitive: str
    #: ``module:line`` of the leaf primitive call site.
    block_site: str
    escapes: frozenset[str]
    consumes: frozenset[str]
    #: Tracked resource kind handed to the caller, "" when none.
    returns_owned: str

    def to_json(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "is_async": self.is_async,
            "may_block": self.may_block,
            "block_primitive": self.block_primitive,
            "block_site": self.block_site,
            "escapes": sorted(self.escapes),
            "consumes": sorted(self.consumes),
            "returns_owned": self.returns_owned,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "FunctionSummary":
        return FunctionSummary(
            qualname=str(data["qualname"]),
            is_async=bool(data["is_async"]),
            may_block=bool(data["may_block"]),
            block_primitive=str(data["block_primitive"]),
            block_site=str(data["block_site"]),
            escapes=frozenset(data["escapes"]),
            consumes=frozenset(data["consumes"]),
            returns_owned=str(data["returns_owned"]),
        )


def _param_at(
    callee: FunctionFacts, slot: Union[int, str], bound: bool
) -> str | None:
    """Callee parameter a caller argument lands in, or None (unmappable)."""
    if isinstance(slot, str):
        return slot if slot in callee.params else None
    index = slot + (1 if bound else 0)
    if 0 <= index < len(callee.params):
        return callee.params[index]
    return None


def _owned_kind_of_resolution(resolution: Resolution) -> str | None:
    """Tracked kind minted when a resolved call constructs a resource."""
    target = resolution.target
    if target is None:
        return None
    if resolution.category == "internal-ctor":
        kind = kind_of_dotted(target)
    elif resolution.category == "internal" and target.endswith(".__init__"):
        kind = kind_of_dotted(target[: -len(".__init__")])
    elif resolution.category in ("external", "unseen"):
        kind = kind_of_dotted(target)
    else:
        return None
    return kind if kind in TRACKED_KINDS else None


def compute_summaries(project: Project) -> dict[str, FunctionSummary]:
    """Propagate local facts bottom-up into whole-tree summaries."""
    facts: dict[str, tuple[ModuleFacts, FunctionFacts]] = {}
    resolved: dict[str, list[Resolution]] = {}
    for full, mod, fn in project.functions():
        facts[full] = (mod, fn)
        resolved[full] = project.resolved_calls(full)

    # ---- seed local state
    block_primitive: dict[str, str] = {}
    block_site: dict[str, str] = {}
    escapes: dict[str, set[str]] = {}
    consumes: dict[str, set[str]] = {}
    returns_owned: dict[str, str] = {}

    for full, (mod, fn) in facts.items():
        escapes[full] = set(fn.param_escapes_direct)
        consumes[full] = set(fn.param_consumes_direct)
        for fact, res in zip(fn.calls, resolved[full]):
            if full not in block_primitive:
                primitive = blocking_reason(res)
                if primitive is not None:
                    block_primitive[full] = primitive
                    block_site[full] = f"{mod.dotted}:{fact.line}"
        for param, call_index, _slot in fn.param_passes:
            if fn.calls[call_index].has_star_args:
                escapes[full].add(param)
        for name in fn.returned_names:
            spelling = fn.local_types.get(name)
            if spelling is not None:
                # "file" is the local-type spelling for open() handles.
                kind = "file" if spelling == "file" else kind_of_dotted(spelling)
                if kind in TRACKED_KINDS and kind is not None:
                    returns_owned.setdefault(full, kind)

    # ---- bottom-up fixpoint over SCCs
    for component in project.sccs():
        changed = True
        while changed:
            changed = False
            for full in component:
                mod, fn = facts[full]
                fn_resolved = resolved[full]
                if full not in block_primitive:
                    for fact, res in zip(fn.calls, fn_resolved):
                        if (
                            res.category == "internal"
                            and res.target in block_primitive
                        ):
                            block_primitive[full] = block_primitive[res.target]
                            block_site[full] = block_site[res.target]
                            changed = True
                            break
                for param, call_index, slot in fn.param_passes:
                    if param in escapes[full]:
                        continue
                    res = fn_resolved[call_index]
                    if res.category == "internal" and res.target in facts:
                        callee = facts[res.target][1]
                        landing = _param_at(callee, slot, res.bound_receiver)
                        if landing is None:
                            escapes[full].add(param)
                            changed = True
                        elif landing in escapes[res.target]:
                            escapes[full].add(param)
                            changed = True
                        elif (
                            landing in consumes[res.target]
                            and param not in consumes[full]
                        ):
                            consumes[full].add(param)
                            changed = True
                    else:
                        # internal-ctor / external / dynamic / unseen /
                        # unresolved: the reference leaves our sight.
                        escapes[full].add(param)
                        changed = True
                if full not in returns_owned:
                    for call_index in fn.returned_calls:
                        res = fn_resolved[call_index]
                        kind = _owned_kind_of_resolution(res)
                        if kind is None and res.category == "internal":
                            kind = returns_owned.get(res.target or "")
                        if kind:
                            returns_owned[full] = kind
                            changed = True
                            break

    out: dict[str, FunctionSummary] = {}
    for full, (mod, fn) in facts.items():
        out[full] = FunctionSummary(
            qualname=full,
            is_async=fn.is_async,
            may_block=full in block_primitive,
            block_primitive=block_primitive.get(full, ""),
            block_site=block_site.get(full, ""),
            escapes=frozenset(escapes[full]),
            consumes=frozenset(consumes[full] - escapes[full]),
            returns_owned=returns_owned.get(full, ""),
        )
    return out


def digest_of(summaries: dict[str, FunctionSummary]) -> str:
    """Deterministic digest of the whole summary DB (cache-key input)."""
    payload = json.dumps(
        {name: summary.to_json() for name, summary in sorted(summaries.items())},
        sort_keys=True,
        separators=(",", ":"),
    )
    hasher = hashlib.sha256()
    hasher.update(f"{CALLGRAPH_VERSION}|{SUMMARIES_VERSION}|".encode("utf-8"))
    hasher.update(payload.encode("utf-8"))
    return hasher.hexdigest()


# -------------------------------------------------------------- project view
class ProjectAnalysis:
    """What the engine hands rules: graph + summaries + cache digest.

    The ``project`` graph is materialised on first access: a fully warm
    run answers every file from the result cache and never consults the
    graph, and deserialising facts for a few hundred modules is the
    dominant cost of that path.
    """

    def __init__(
        self,
        summaries: dict[str, FunctionSummary],
        digest: str,
        project: Project | None = None,
        project_thunk: "Callable[[], Project] | None" = None,
    ) -> None:
        self.summaries = summaries
        self.digest = digest
        self._project = project
        self._thunk = project_thunk

    @property
    def project(self) -> Project:
        # Benign race under worker threads: materialisation is a pure
        # function of the store contents, so concurrent first accesses
        # build identical graphs and the assignment is atomic.
        project = self._project
        if project is None:
            thunk = self._thunk
            project = Project({}) if thunk is None else thunk()
            self._project = project
        return project

    def summary(self, full_qualname: str | None) -> FunctionSummary | None:
        if full_qualname is None:
            return None
        return self.summaries.get(full_qualname)

    def module_of(self, module_parts: tuple[str, ...] | None) -> ModuleFacts | None:
        if module_parts is None:
            return None
        return self.project.module_of(module_parts)

    def resolve_ast_call(
        self,
        module_parts: tuple[str, ...] | None,
        caller_qualname: str,
        node: ast.Call,
    ) -> Resolution | None:
        """Resolve a live AST call from rule code (None = not resolvable)."""
        mod = self.module_of(module_parts)
        if mod is None:
            return None
        fn = mod.functions.get(caller_qualname)
        if fn is None:
            return None
        fact = call_fact_of(node)
        if fact is None:
            return None
        return self.project.resolve_call(mod, fn, fact)

    def call_param(
        self, resolution: Resolution, slot: Union[int, str]
    ) -> str | None:
        """Callee parameter name an argument slot maps to, or None."""
        if resolution.category != "internal" or resolution.target is None:
            return None
        callee = self.project.function(resolution.target)
        if callee is None:
            return None
        return _param_at(callee, slot, resolution.bound_receiver)


# ------------------------------------------------------------------ the store
def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_name, path)
        except OSError:
            os.unlink(tmp_name)
            raise
    except OSError:
        return  # a read-only checkout must still lint


_STORE_VERSION = f"{CALLGRAPH_VERSION}|{SUMMARIES_VERSION}"


def _read_json(path: Path | None) -> "dict[str, Any] | None":
    """Versioned store payload at ``path``, or None when unusable."""
    if path is None:
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if isinstance(payload, dict) and payload.get("version") == _STORE_VERSION:
        return payload
    return None


def load_project(
    sources: Sequence[tuple[str, tuple[str, ...], bytes]],
    store_dir: Path | None,
    parse: Callable[[str, bytes], "ast.Module | None"],
) -> ProjectAnalysis:
    """Build (or reload) the whole-tree analysis for one lint run.

    ``sources`` is ``(display path, module parts, raw bytes)`` for every
    in-package file of the run. With a ``store_dir``, per-file facts are
    reused by content hash (``facts.json``) and the propagated summaries
    by whole-tree key (``summaries.json``). The stores are split so the
    warm path reads only the small summary file: when the tree key
    matches, the facts — several times larger and only consulted by
    rules that actually run — stay on disk until first access.
    """
    facts_path = store_dir / _FACTS_NAME if store_dir is not None else None
    store_path = store_dir / _STORE_NAME if store_dir is not None else None

    tree_entries: list[tuple[str, str]] = []
    entries: list[tuple[str, tuple[str, ...], bytes, str]] = []
    for display, parts, raw in sources:
        sha = hashlib.sha256(raw).hexdigest()
        tree_entries.append((display, sha))
        entries.append((display, parts, raw, sha))

    tree_hasher = hashlib.sha256()
    tree_hasher.update(_STORE_VERSION.encode("utf-8"))
    for display, sha in sorted(tree_entries):
        tree_hasher.update(f"{display}\x00{sha}\x00".encode("utf-8"))
    tree_key = tree_hasher.hexdigest()

    def materialise() -> tuple[Project, dict[str, Any], bool]:
        facts_store = _read_json(facts_path)
        cached_files: dict[str, Any] = {}
        if facts_store is not None and isinstance(facts_store.get("files"), dict):
            cached_files = facts_store["files"]
        modules: dict[str, ModuleFacts] = {}
        used: dict[str, Any] = {}
        dirty = False
        for display, parts, raw, sha in entries:
            facts = None
            cached = cached_files.get(sha)
            if cached is not None:
                try:
                    facts = ModuleFacts.from_json(cached)
                except (KeyError, TypeError, ValueError):
                    cached = None
            if facts is None:
                tree = parse(display, raw)
                if tree is None:
                    continue  # syntax error: the engine reports it per-file
                facts = extract_module_facts(parts, tree)
                dirty = True
            used[sha] = cached if cached is not None else facts.to_json()
            modules[facts.dotted] = facts
        return Project(modules), used, dirty

    def materialise_and_repair() -> Project:
        project, used, dirty = materialise()
        if dirty and facts_path is not None:
            # Entries for files no longer present are pruned here too.
            _atomic_write_json(
                facts_path, {"version": _STORE_VERSION, "files": used}
            )
        return project

    stored = _read_json(store_path)
    if (
        stored is not None
        and stored.get("tree") == tree_key
        and isinstance(stored.get("summaries"), dict)
    ):
        try:
            summaries: "dict[str, FunctionSummary] | None" = {
                str(name): FunctionSummary.from_json(data)
                for name, data in stored["summaries"].items()
            }
            digest = str(stored["digest"])
        except (KeyError, TypeError, ValueError):
            summaries = None
        if summaries is not None:
            return ProjectAnalysis(
                summaries=summaries,
                digest=digest,
                project_thunk=materialise_and_repair,
            )

    project, used, dirty = materialise()
    computed = compute_summaries(project)
    digest = digest_of(computed)
    if facts_path is not None and dirty:
        _atomic_write_json(facts_path, {"version": _STORE_VERSION, "files": used})
    if store_path is not None:
        _atomic_write_json(
            store_path,
            {
                "version": _STORE_VERSION,
                "tree": tree_key,
                "digest": digest,
                "summaries": {
                    name: summary.to_json() for name, summary in computed.items()
                },
            },
        )
    return ProjectAnalysis(project=project, summaries=computed, digest=digest)
