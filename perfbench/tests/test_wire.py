"""The generator against a fake gateway: unanswered DRAINs and shed uploads."""

import asyncio
from types import SimpleNamespace

import numpy as np

from perfbench import wire, workloads
from perfbench.pool import Drive, DriveSpec
from repro.gateway.protocol import Ack, Bye, Drain, Frame, Hello, WireDecoder, encode_message


def _drive(n_frames: int = 5, n_bins: int = 4) -> Drive:
    return Drive(
        spec=DriveSpec(0, 0, "parked", "awake", False, 0),
        name="d0",
        content_hash="0" * 64,
        frame_rate_hz=25.0,
        frames=np.zeros((n_frames, n_bins), np.complex64),
        timestamps_s=np.arange(n_frames) / 25.0,
        blink_times_s=np.zeros(0),
    )


def test_unanswered_drain_fails_the_session_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(wire, "_REPLY_TIMEOUT_S", 0.2)

    async def serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # Acknowledges HELLO, then swallows every frame and the DRAIN.
        decoder = WireDecoder()
        while data := await reader.read(1 << 16):
            for message in decoder.feed(data):
                if isinstance(message, Hello):
                    writer.write(encode_message(Ack(session=1, seq=0)))
        writer.close()

    async def main() -> wire.SessionLog:
        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await wire._run_session("127.0.0.1", port, _drive(), "s0", 5, None)

    log = asyncio.run(asyncio.wait_for(main(), 10.0))
    assert log.n_sent == 5
    assert log.stats == {}  # the caller counts all 5 frames as lost


def _upload_against(shed_sessions: int) -> list[wire.SessionLog]:
    """Upload one 5-frame drive into a server that sheds a frame of its first sessions."""
    sessions = 0

    async def serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        nonlocal sessions
        decoder = WireDecoder()
        frames = 0
        while data := await reader.read(1 << 16):
            for message in decoder.feed(data):
                if isinstance(message, Hello):
                    sessions += 1
                    writer.write(encode_message(Ack(session=sessions, seq=0)))
                elif isinstance(message, Frame):
                    frames += 1
                elif isinstance(message, Drain):
                    dropped = 1 if sessions <= shed_sessions else 0
                    stats = {"received": frames, "processed": frames - dropped,
                             "dropped_queue": dropped}
                    writer.write(encode_message(Ack(session=message.session, seq=frames)))
                    writer.write(encode_message(Drain(session=message.session, stats=stats)))
                elif isinstance(message, Bye):
                    writer.write(encode_message(Bye(session=message.session)))
        writer.close()

    async def main() -> list[wire.SessionLog]:
        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            logs, _ = await wire.upload("127.0.0.1", port, [_drive()], 0.001, connections=1)
            return logs

    return asyncio.run(asyncio.wait_for(main(), 10.0))


def test_a_shed_upload_is_sent_again():
    logs = _upload_against(shed_sessions=1)
    assert [log.session_id for log in logs[:2]] == ["up-0000-0", "up-0000-1"]
    assert logs[0].resent and logs[0].stats["dropped_queue"] == 1
    assert not any(log.resent for log in logs[1:])


def test_resending_stops_after_the_last_attempt():
    logs = _upload_against(shed_sessions=10**6)
    first = [log for log in logs if log.session_id.startswith("up-0000-")]
    assert len(first) == wire._UPLOAD_ATTEMPTS
    assert [log.resent for log in first] == [True] * (wire._UPLOAD_ATTEMPTS - 1) + [False]


def _log(session_id: str, sent: int, processed: int, resent: bool = False) -> wire.SessionLog:
    log = wire.SessionLog(
        session_id, 0, [0.0] * sent, [0.0] * sent, [0.0] * sent, [], {"processed": processed}, 0.0
    )
    log.resent = resent
    return log


def test_frames_of_a_drive_sent_again_are_lost_but_not_failed():
    phase = SimpleNamespace(logs=[
        _log("a-0", 5, 4, resent=True),  # shed one frame, then sent again whole
        _log("a-1", 5, 5),
        _log("b-0", 5, 3),  # shed two frames on its last attempt
        _log("c-0", 5, 5, resent=True),  # failed a check: every frame counts
    ])
    bad = {"c-0"}
    assert [workloads._lost(log, bad) for log in phase.logs] == [1, 0, 2, 5]
    assert workloads._failed(phase, bad) == 2 + 5
