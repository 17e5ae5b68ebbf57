"""Resource provenance for ``resource-leak`` and the summary layer.

One shared vocabulary: which expressions *mint* a tracked resource (a
thread, a detector session, a file, a store/gateway/shard handle) and
which method calls *release* it. Classification is by dotted spelling —
the same convention the lexical rules use (``dotted_name``), which
matches this repo's import style without needing whole-program import
resolution.
"""

from __future__ import annotations

import ast

from repro.lint.cfg import Element
from repro.lint.rules import dotted_name

__all__ = [
    "KIND_NOUN",
    "RELEASE_METHODS",
    "TRACKED_KINDS",
    "binding_of",
    "constructor_kind",
    "kind_of_dotted",
]

#: Trace-store handle types from ``repro.store``: a writer left unclosed
#: loses its buffered tail chunk and never finalizes, a reader pins an
#: mmap, a recorder owns a writer.
_STORE_CTORS = frozenset({"TraceWriter", "TraceReader", "Recorder"})

#: Network-service handles from ``repro.gateway``: a server left
#: unreleased keeps its listen socket and worker pool, a client keeps a
#: connection and a background reader task. Release spellings differ per
#: type (``shutdown`` for the ingest server, ``stop`` for the HTTP
#: endpoint, ``close`` for clients), so the kind accepts all three.
_GATEWAY_CTORS = frozenset({"GatewayServer", "GatewayClient", "MetricsHttpServer"})

#: Process-shard handles from ``repro.shard``: a worker left unreleased
#: keeps a live child process *and* a shared-memory segment (which
#: outlives the interpreter until unlinked), a ring pins its mapping, a
#: fleet owns one of each per shard. Release spellings differ per type
#: (``close`` for workers and rings, ``stop`` for the fleet), so the
#: kind accepts both.
_SHARD_CTORS = frozenset({"ShardWorker", "ShmRing", "ShardedFleet"})

#: Resource kinds the lifecycle rule enforces, with the method names
#: that count as releasing them on a path.
RELEASE_METHODS: dict[str, frozenset[str]] = {
    "thread": frozenset({"join"}),
    "session": frozenset({"close"}),
    "file": frozenset({"close"}),
    "store": frozenset({"close"}),
    "gateway": frozenset({"close", "shutdown", "stop"}),
    "shard": frozenset({"close", "stop"}),
}

#: Kinds with a known release protocol (the lifecycle rule's scope).
TRACKED_KINDS = frozenset(RELEASE_METHODS)

#: Human description per kind, used in diagnostics.
KIND_NOUN: dict[str, str] = {
    "thread": "thread",
    "session": "detector session",
    "file": "file handle",
    "store": "trace-store handle",
    "gateway": "gateway service handle",
    "shard": "shard runtime handle",
}


def constructor_kind(call: ast.Call) -> str | None:
    """Provenance kind minted by ``call``, or None for untracked calls."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    return kind_of_dotted(dotted)


def kind_of_dotted(dotted: str) -> str | None:
    """Provenance kind minted by a constructor's dotted spelling.

    Shared with the interprocedural summary layer, which classifies by
    symbolic spelling rather than live AST nodes.
    """
    parts = dotted.split(".")
    last = parts[-1]
    if last == "Thread" and (len(parts) == 1 or parts[-2] == "threading"):
        return "thread"
    if last in ("DetectorSession", "IngestSession"):
        return "session"
    if last in _STORE_CTORS:
        return "store"
    if last in _GATEWAY_CTORS:
        return "gateway"
    if last in _SHARD_CTORS:
        return "shard"
    # ShmRing mints through classmethods, not a bare constructor call.
    if last in ("create", "attach") and len(parts) >= 2 and parts[-2] == "ShmRing":
        return "shard"
    if dotted == "open":
        return "file"
    return None


def binding_of(element: Element) -> tuple[str, ast.expr] | None:
    """``(name, value)`` when ``element`` binds one plain name to a value.

    Only simple ``name = value`` / ``name: T = value`` forms qualify —
    tuple unpacking and attribute targets are aliasing, not minting.
    """
    if isinstance(element, ast.Assign):
        if len(element.targets) == 1 and isinstance(element.targets[0], ast.Name):
            return element.targets[0].id, element.value
        return None
    if isinstance(element, ast.AnnAssign):
        if element.value is not None and isinstance(element.target, ast.Name):
            return element.target.id, element.value
    return None
