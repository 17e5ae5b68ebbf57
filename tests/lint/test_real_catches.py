"""Every real bug reprolint has caught, re-seeded into the real source.

Each test copies the real package, puts back the shape of a bug a rule
once caught and the fix removed, and proves the check that owns that
bug class convicts it again: the rule itself, or, for the deleted
``blocking-in-async``, the runtime event-loop guard in
``tests/conftest.py``. A rule is kept only while it has such a catch
(see the ledger in docs/static_analysis.md), so these are the tests
that justify the linter's size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.rules import rules_by_name


def _seeded_tree(repo_root: Path, tmp_path: Path, seeds: dict[str, list[tuple[str, str]]]) -> None:
    """Copy ``src/repro`` to ``tmp_path``; per file, turn each fixed
    spelling (every occurrence) back into its buggy one."""
    shutil.copytree(
        repo_root / "src" / "repro",
        tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for rel, fixes in seeds.items():
        target = tmp_path / "repro" / rel
        source = target.read_text()
        for fixed, buggy in fixes:
            assert fixed in source, fixed
            source = source.replace(fixed, buggy)
        target.write_text(source)


def _findings(tmp_path: Path, rule: str) -> list[tuple[str, str]]:
    """``(path, message)`` of every ``rule`` finding in the seeded tree."""
    rules = (rules_by_name()[rule],)
    result = lint_paths([tmp_path / "repro"], rules=rules, jobs=1, root=tmp_path)
    return [(d.path, d.message) for d in result.diagnostics]


class TestGuardedByFleetRaces:
    def test_unlocked_generation_read(self, repo_root, tmp_path):
        # DetectorSession.generation read the lock-guarded counter bare.
        _seeded_tree(repo_root, tmp_path, {"fleet/session.py": [(
            "        with self._lock:\n            return self._generation\n",
            "        return self._generation\n",
        )]})
        [(path, message)] = _findings(tmp_path, "guarded-by")
        assert path == "repro/fleet/session.py" and "_generation" in message

    def test_unlocked_pumping_handoff(self, repo_root, tmp_path):
        # The scheduler's pump once raised its run flag outside the
        # condition the workers read it under; the same hand-off now
        # lives in FleetScheduler.start, seeded here.
        _seeded_tree(repo_root, tmp_path, {"fleet/scheduler.py": [(
            "already running\")\n            self._serving = True\n        self._threads",
            "already running\")\n        self._serving = True\n        self._threads",
        )]})
        [(path, message)] = _findings(tmp_path, "guarded-by")
        assert path == "repro/fleet/scheduler.py" and "_serving" in message


class TestOrDefaultCameraBaseline:
    def test_rng_or_default_swallow(self, repo_root, tmp_path):
        _seeded_tree(repo_root, tmp_path, {"baselines/camera.py": [(
            "rng = rng if rng is not None else np.random.default_rng(0)",
            "rng = rng or np.random.default_rng(0)",
        )]})
        [(path, message)] = _findings(tmp_path, "or-default")
        assert path == "repro/baselines/camera.py" and "`rng or ...`" in message


class TestBlockingInAsyncGateway:
    """``blocking-in-async``'s catches, now convicted at run time.

    The static rule is gone; the event-loop guard in ``tests/conftest.py``
    replaced it. Each test runs :data:`_SCENARIO` on a seeded copy of the
    package and asserts which ``repro`` coroutines the guard convicted.
    """

    def test_five_event_loop_blocking_sites(self, repo_root, tmp_path):
        """The server's shutdown join, HELLO recording open, BYE and
        cleanup finalisation, and the load generator's trace open: each
        executor or thread hand-off undone, ``_finalize_session`` sync
        again, as the code was when the static rule caught them."""
        _seeded_tree(repo_root, tmp_path, {
            "gateway/server.py": [
                (f"{_EXECUTOR}None, self.scheduler.stop)", "self.scheduler.stop()"),
                (
                    f"{_EXECUTOR}\n                    None, self._open_recorder, hello\n                )",
                    "self._open_recorder(hello)",
                ),
                ("async def _finalize_session(", "def _finalize_session("),
                (_DETACH_HANDOFF, "self.scheduler.detach(session.session_id)"),
                (
                    f"{_EXECUTOR}\n                None, self._finalize_recording, session.session_id, recorder\n            )",
                    "self._finalize_recording(session.session_id, recorder)",
                ),
                ("await self._finalize_session(conn)", "self._finalize_session(conn)"),
            ],
            "gateway/loadgen.py": [(
                "await asyncio.to_thread(ReplaySource, self.trace_path)",
                "ReplaySource(self.trace_path)",
            )],
        })
        assert _loop_blockers(repo_root, tmp_path, "threaded") == [
            ["repro.gateway.loadgen", "_vehicle"],
            ["repro.gateway.server", "_cleanup_connection"],
            ["repro.gateway.server", "_handle_hello"],
            ["repro.gateway.server", "_handle_message"],
            ["repro.gateway.server", "shutdown"],
        ]

    def test_sharded_detach_on_the_loop(self, repo_root, tmp_path):
        """A sharded detach waits on its worker's ack. The static rule
        missed it: behind the ``ServeBackend`` Protocol it saw a ``...``
        body, and reported nothing on this seed."""
        _seeded_tree(repo_root, tmp_path, {"gateway/server.py": [
            (_DETACH_HANDOFF, "self.scheduler.detach(session.session_id)"),
        ]})
        assert _loop_blockers(repo_root, tmp_path, "sharded") == [
            ["repro.gateway.server", "_finalize_session"],
        ]


_EXECUTOR = "await asyncio.get_running_loop().run_in_executor("
_DETACH_HANDOFF = (
    f"{_EXECUTOR}\n                None, self.scheduler.detach, session.session_id\n            )"
)

#: One server with recording on: a session that ends with BYE, one that
#: disconnects without it, one load-generator vehicle, then shutdown.
#: Prints the ``[module, coroutine]`` pairs the loop guard convicted.
_SCENARIO = """
import asyncio, json, sys
from pathlib import Path

import numpy as np

from repro.fleet.scheduler import FleetScheduler
from repro.gateway.client import GatewayClient
from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import GatewayServer
from repro.shard.fleet import ShardedFleet
from repro.store.writer import TraceWriter
from tests.conftest import loop_violations

N_BINS, RATE_HZ = 32, 25.0
work = Path(sys.argv[2])
rng = np.random.default_rng(0)
frames = (rng.standard_normal((20, N_BINS)) + 1j).astype(np.complex64)
trace = work / "drive.rst"
with TraceWriter(trace, n_bins=N_BINS, frame_rate_hz=RATE_HZ) as writer:
    for seq, frame in enumerate(frames):
        writer.append(frame, seq / RATE_HZ)


async def session(port, session_id, bye):
    client = await GatewayClient.connect("127.0.0.1", port)
    await client.hello(session_id, n_bins=N_BINS, frame_rate_hz=RATE_HZ)
    for seq, frame in enumerate(frames):
        await client.send_frame(seq, seq / RATE_HZ, frame)
    await client.drain()
    if bye:
        await client.bye()
    await client.close()


async def main():
    backend = ShardedFleet(workers=1) if sys.argv[1] == "sharded" else FleetScheduler(workers=1)
    server = GatewayServer(backend=backend, record_dir=work / "rec")
    await server.start()
    await session(server.port, "bye", bye=True)
    await session(server.port, "gone", bye=False)
    await LoadGenerator("127.0.0.1", server.port, trace, vehicles=1).run()
    await server.shutdown()


asyncio.run(main())
print(json.dumps(sorted({(module, name) for module, name, _ in loop_violations})))
"""


def _loop_blockers(repo_root: Path, tmp_path: Path, backend: str) -> list[list[str]]:
    """Run :data:`_SCENARIO` against the seeded package in ``tmp_path``."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO, backend, str(tmp_path)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(repo_root)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
