"""The gateway under test: one ``python -m repro gateway serve`` process.

The server runs from the checkout's ``src`` on ephemeral ports; its
ports are read from the line it prints once listening. For the traced
run, ``perfbench/tracehook`` goes first on its ``PYTHONPATH`` so the
span probes load in it and in its shard workers.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import signal
import sys
import time
from pathlib import Path

from perfbench import procfs
from perfbench.tracehook.probes import TRACE_DIR_ENV
from perfbench.wire import Vehicle

__all__ = ["GatewayProcess"]

_LISTENING = re.compile(rb"gateway listening on \S+?:(\d+) \(http \S+?:(\d+)\)")
_HOST = "127.0.0.1"


async def _ended(pids: list[int], timeout_s: float) -> bool:
    """Wait until none of ``pids`` runs; False if some still run at the timeout."""
    deadline = time.perf_counter() + timeout_s
    while procfs.living(pids):
        if time.perf_counter() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


class GatewayProcess:
    """Launch, probe, scrape and stop one gateway server process."""

    def __init__(
        self,
        root: Path,
        serve_args: list[str],
        log_path: Path,
        trace_dir: Path | None = None,
    ) -> None:
        self.root = root
        self.serve_args = serve_args
        self.log_path = log_path
        self.trace_dir = trace_dir
        self.host = _HOST
        self.port = 0
        self.http_port = 0
        self.launched_at = float("nan")
        self.listening_at = float("nan")
        self.hello_at = float("nan")
        self.proc: asyncio.subprocess.Process | None = None
        self._log = None

    @property
    def setup_s(self) -> float:
        """Launch to first HELLO acknowledged."""
        return self.hello_at - self.launched_at

    @property
    def first_hello_s(self) -> float:
        """First HELLO acknowledged, minus the time it took to listen."""
        return self.hello_at - self.listening_at

    async def start(self, timeout_s: float = 120.0) -> None:
        env = dict(os.environ)
        env.pop(TRACE_DIR_ENV, None)
        paths = [str(self.root / "src")]
        if self.trace_dir is not None:
            paths.insert(0, str(self.root / "perfbench" / "tracehook"))
            env[TRACE_DIR_ENV] = str(self.trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(self.log_path, "ab")
        self.launched_at = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "gateway", "serve",
            "--host", _HOST, "--port", "0", "--http-port", "0", *self.serve_args,
            stdout=asyncio.subprocess.PIPE,
            stderr=self._log,
            cwd=str(self.root),
            env=env,
        )
        try:
            await asyncio.wait_for(self._await_listening(), timeout_s)
        except BaseException:
            await self.stop()
            raise
        self.listening_at = time.perf_counter()

    async def _await_listening(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"gateway exited before listening; log: {self.log_path}")
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(1))
                self.http_port = int(match.group(2))
                return

    async def first_hello(self, n_bins: int, frame_rate_hz: float) -> None:
        """Open and close one empty session: the server's first HELLO."""
        vehicle = await Vehicle.connect(self.host, self.port)
        try:
            await vehicle.hello("setup-probe", n_bins, frame_rate_hz)
            self.hello_at = time.perf_counter()
            await vehicle.bye()
        finally:
            await vehicle.close()

    async def scrape(self) -> dict[str, float]:
        """``/metrics`` as ``{series: value}``."""
        reader, writer = await asyncio.open_connection(self.host, self.http_port)
        try:
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        _head, _, body = raw.partition(b"\r\n\r\n")
        samples: dict[str, float] = {}
        for line in body.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                samples[series] = float(value)
        return samples

    def tree(self) -> dict[int, int]:
        """The server's process tree (``{pid: parent pid}``)."""
        assert self.proc is not None
        return procfs.process_tree(self.proc.pid)

    async def stop(self, timeout_s: float = 20.0) -> int | None:
        """SIGTERM (graceful drain), then wait; SIGKILL past the timeout.

        A sound server drains and exits well within a second; one whose
        drain never completes is killed. Returns once every process of the
        server's tree has ended (shard workers, forkserver, resource
        tracker), so nothing of this server runs beside the next one.
        """
        proc = self.proc
        if proc is not None:
            descendants = []
            if proc.returncode is None:
                descendants = [pid for pid in self.tree() if pid != proc.pid]
                proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(proc.communicate(), timeout_s)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
            if not await _ended(descendants, 5.0):
                for pid in procfs.living(descendants):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                await _ended(descendants, 5.0)
        if self._log is not None:
            self._log.close()
            self._log = None
        return None if proc is None else proc.returncode
