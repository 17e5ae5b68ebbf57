"""Every real bug reprolint has caught, re-seeded into the real source.

Each test copies the real module (with the package around it, so the
interprocedural rules resolve exactly as on the tree), puts back the
shape of a bug a rule once caught and the fix removed, and proves the
rule convicts it again. A rule is kept only while it has such a catch
(see the ledger in docs/static_analysis.md), so these are the tests
that justify the linter's size.
"""

from __future__ import annotations

import shutil
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
    def test_five_event_loop_blocking_sites(self, repo_root, tmp_path):
        """The server's shutdown join, HELLO recording open, BYE and
        cleanup finalisation, and the load generator's trace open.

        The first four are the server as it was when the rule caught
        them: the hand-offs to an executor undone, ``_finalize_session``
        sync again, and the scheduler attribute concretely typed. Today
        it is typed ``ServeBackend``, a Protocol whose method bodies are
        ``...``, so the rule would not see a blocking backend call (see
        docs/static_analysis.md). The fifth is the load generator's
        justified suppression, removed.
        """
        executor = "await asyncio.get_running_loop().run_in_executor("
        _seeded_tree(repo_root, tmp_path, {
            "gateway/server.py": [
                (
                    "self.scheduler: ServeBackend = backend if backend is not None else FleetScheduler()",
                    "self.scheduler = FleetScheduler()",
                ),
                (f"{executor}None, self.scheduler.stop)", "self.scheduler.stop()"),
                (
                    f"{executor}\n                    None, self._open_recorder, hello\n                )",
                    "self._open_recorder(hello)",
                ),
                ("async def _finalize_session(", "def _finalize_session("),
                (
                    f"{executor}\n                None, self.scheduler.detach, session.session_id\n            )",
                    "self.scheduler.detach(session.session_id)",
                ),
                (
                    f"{executor}\n                None, self._finalize_recording, session.session_id, recorder\n            )",
                    "self._finalize_recording(session.session_id, recorder)",
                ),
                ("await self._finalize_session(conn)", "self._finalize_session(conn)"),
            ],
            "gateway/loadgen.py": [("  # reprolint: disable=blocking-in-async", "")],
        })
        convicted = sorted(
            (path.rsplit("/", 1)[-1], message.split(" blocks the event loop")[0])
            for path, message in _findings(tmp_path, "blocking-in-async")
        )
        assert convicted == [
            ("loadgen.py", "call to ReplaySource.__init__() from async LoadGenerator._vehicle"),
            ("server.py", "call to FleetScheduler.stop() from async GatewayServer.shutdown"),
            ("server.py", "call to GatewayServer._finalize_session() from async GatewayServer._cleanup_connection"),
            ("server.py", "call to GatewayServer._finalize_session() from async GatewayServer._handle_message"),
            ("server.py", "call to GatewayServer._open_recorder() from async GatewayServer._handle_hello"),
        ]
