"""Both serve backends run end to end with scipy unimportable.

No process that serves traffic may need scipy: not the gateway server,
not the shard forkserver, not a shard worker. A ``sitecustomize`` first
on a subprocess's ``PYTHONPATH`` makes every ``scipy`` import raise
ImportError in that interpreter and in every interpreter it starts (the
forkserver and the shard workers inherit its environment). The
subprocess serves one short session; what it processed and detected must
match an in-process reference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.batched import BatchedPipeline
from repro.store.replay import ReplaySource

SRC = Path(__file__).resolve().parents[2] / "src"

#: Imported by ``site`` at start-up of every interpreter on the path.
SITECUSTOMIZE = '''\
import sys


class NoScipy:
    """A meta-path finder that refuses ``scipy`` and every submodule."""

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked in this interpreter")
        return None


sys.meta_path.insert(0, NoScipy())
'''

#: Serves the drive at argv[2] as one session through backend argv[1]
#: and prints what was sent, processed and detected as JSON.
SERVE = '''\
import asyncio
import json
import sys

from repro.gateway.client import GatewayClient
from repro.gateway.server import GatewayServer
from repro.store.replay import ReplaySource


def backend(name):
    if name == "sharded":
        from repro.shard import ShardedFleet

        return ShardedFleet(workers=1)
    from repro.fleet.scheduler import FleetScheduler

    return FleetScheduler(workers=2)


async def serve(name, drive):
    server = GatewayServer(backend=backend(name))
    await server.start()
    try:
        client = await GatewayClient.connect(server.host, server.port)
        try:
            with ReplaySource(drive) as source:
                await client.hello("v0", n_bins=source.n_bins, frame_rate_hz=source.frame_rate_hz)
                sent = 0
                for seq, (stamp_s, frame) in enumerate(source):
                    await client.send_frame(seq, stamp_s, frame)
                    sent += 1
            stats = await client.drain()
            blinks = [e.frame_index for e in server.sessions["v0"].blink_events]
            await client.bye()
        finally:
            await client.close()
    finally:
        await server.shutdown()
    return {"sent": sent, "processed": stats["processed"], "blinks": blinks}


if __name__ == "__main__":  # shard workers re-import this file
    print(json.dumps(asyncio.run(serve(sys.argv[1], sys.argv[2]))))
'''


@pytest.mark.parametrize(
    "backend",
    [
        "threaded",
        pytest.param(
            "sharded",
            marks=pytest.mark.skipif(
                not Path("/dev/shm").is_dir(), reason="no /dev/shm for the shard rings"
            ),
        ),
    ],
)
def test_serves_a_session_with_scipy_unimportable(backend, gateway_trace_path, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    script = tmp_path / "serve.py"
    script.write_text(SERVE)
    proc = subprocess.run(
        [sys.executable, str(script), backend, str(gateway_trace_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(SRC)])},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    served = json.loads(proc.stdout)

    with ReplaySource(gateway_trace_path) as source:
        frames = np.asarray(source)
        pipeline = BatchedPipeline(source.frame_rate_hz, 1)
    statuses = pipeline.process_block([frames])[0]
    reference = [s.event.frame_index for s in statuses if s.event is not None]

    assert served["processed"] == served["sent"] == len(frames)
    assert served["blinks"] == reference
    assert reference  # the fixture drive blinks
