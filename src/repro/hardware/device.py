"""The emulated IR-UWB transceiver chip.

:class:`UwbRadarDevice` is the SPI slave: a register file, a byte FIFO and
a frame engine. Frames come from the RF simulator (a precomputed complex
frame matrix, or any callable producing frames); the device quantises them
to int16 I/Q pairs — like the real chip's ADC — and streams them through
the FIFO under the control of the TRX_CTRL/FRAME_RATE_DIV registers.

Time is advanced explicitly with :meth:`tick` (one tick = one frame
period), keeping the emulation deterministic and test-friendly; the
:class:`~repro.hardware.driver.FrameStream` pairs ticks with reads to
emulate the live loop.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator

import numpy as np

from repro.hardware.registers import RegisterFile, REGISTERS
from repro.hardware.spi import ACK, NAK, crc8

__all__ = ["UwbRadarDevice"]

_CMD_WRITE = 0x80
_CMD_BURST = 0x40

#: Full-scale amplitude of the int16 quantiser. Must clear the strongest
#: return in the frame — the direct TX→RX leakage at ~2e-3 of the pulse
#: amplitude — while the LSB (full_scale/32767 ≈ 1.2e-7) stays below the
#: thermal noise floor so quantisation never limits sensing.
DEFAULT_FULL_SCALE = 4.0e-3

#: FIFO capacity in bytes (8 frames of 234 bins — matches a small on-chip
#: SRAM; overruns set the STATUS overflow bit and drop the oldest frame).
DEFAULT_FIFO_BYTES = 8 * 234 * 4


class UwbRadarDevice:
    """Register-programmable emulated transceiver (SPI slave)."""

    def __init__(
        self,
        frame_source: np.ndarray | Callable[[int], np.ndarray] | None = None,
        full_scale: float = DEFAULT_FULL_SCALE,
        fifo_capacity_bytes: int = DEFAULT_FIFO_BYTES,
    ) -> None:
        if full_scale <= 0:
            raise ValueError(f"full scale must be positive, got {full_scale}")
        if fifo_capacity_bytes < 4:
            raise ValueError("FIFO must hold at least one sample")
        self.registers = RegisterFile()
        self.full_scale = full_scale
        self.fifo_capacity_bytes = fifo_capacity_bytes
        self._fifo: deque[int] = deque()
        self._frame_counter = 0
        self._source: Callable[[int], np.ndarray] | None = None
        self._n_bins: int | None = None
        if frame_source is not None:
            self.attach_source(frame_source)

    # ------------------------------------------------------------- frame feed
    def attach_source(self, source: np.ndarray | Callable[[int], np.ndarray]) -> None:
        """Attach the frame source: a (n_frames, n_bins) matrix or callable.

        A callable receives the frame index and returns one complex frame;
        it may raise :class:`IndexError`/:class:`StopIteration` to signal
        exhaustion (the device then simply stops producing frames).
        """
        if callable(source):
            self._source = source
            self._n_bins = None
        else:
            matrix = np.asarray(source)
            if matrix.ndim != 2:
                raise ValueError(f"frame matrix must be 2-D, got shape {matrix.shape}")

            def indexed(k: int, _m=matrix) -> np.ndarray:
                return _m[k]

            self._source = indexed
            self._n_bins = int(matrix.shape[1])

    @property
    def n_bins(self) -> int | None:
        """Bins per frame, once known (after attach or the first tick)."""
        return self._n_bins

    @property
    def running(self) -> bool:
        """True when TRX_CTRL bit 0 is set."""
        return bool(self.registers.read_name("TRX_CTRL") & 0x01)

    @property
    def frame_period_s(self) -> float:
        """FRAME_RATE_DIV / 100 Hz base clock (div 4 → 40 ms)."""
        div = max(1, self.registers.read_name("FRAME_RATE_DIV"))
        return div / 100.0

    def encode_frame(self, frame: np.ndarray) -> bytes:
        """Quantise one complex frame to interleaved little-endian int16 I/Q."""
        frame = np.asarray(frame)
        gain = self.registers.read_name("TX_POWER") / 255.0
        scaled = frame * gain / self.full_scale
        interleaved = np.empty(2 * len(frame), dtype="<i2")
        interleaved[0::2] = np.clip(np.round(scaled.real * 32767), -32768, 32767)
        interleaved[1::2] = np.clip(np.round(scaled.imag * 32767), -32768, 32767)
        return interleaved.tobytes()

    def decode_frame(self, payload: bytes) -> np.ndarray:
        """Inverse of :meth:`encode_frame` (used by driver and tests)."""
        interleaved = np.frombuffer(payload, dtype="<i2").astype(float) / 32767.0
        gain = self.registers.read_name("TX_POWER") / 255.0
        if gain == 0:
            raise ValueError("TX_POWER is zero; frames carry no signal to decode")
        return (interleaved[0::2] + 1j * interleaved[1::2]) * self.full_scale / gain

    def tick(self) -> bool:
        """Advance one frame period; produce a frame when running.

        Returns True if a frame was pushed into the FIFO.
        """
        if not self.running or self._source is None:
            return False
        try:
            frame = self._source(self._frame_counter)
        except (IndexError, StopIteration):
            return False
        self._frame_counter += 1
        self._sync_frame_count()
        if self._n_bins is None:
            self._n_bins = int(len(frame))
        payload = self.encode_frame(frame)
        frame_bytes = len(payload)
        if len(self._fifo) + frame_bytes > self.fifo_capacity_bytes:
            # Overflow: drop the oldest frame, flag it.
            for _ in range(min(frame_bytes, len(self._fifo))):
                self._fifo.popleft()
            self._set_status(overflow=True)
        self._fifo.extend(payload)
        self._set_status(frame_ready=True)
        self._sync_count()
        return True

    # ----------------------------------------------------------- device state
    def _set_status(self, frame_ready: bool | None = None, overflow: bool | None = None) -> None:
        status = self.registers.read_name("STATUS")
        if frame_ready is not None:
            status = (status | 0x01) if frame_ready else (status & ~0x01)
        if overflow is not None:
            status = (status | 0x02) if overflow else (status & ~0x02)
        self.registers.write_name("STATUS", status & 0xFF, force=True)

    def _sync_frame_count(self) -> None:
        produced = self._frame_counter & 0xFFFF
        self.registers.write_name("FRAME_COUNT_L", produced & 0xFF, force=True)
        self.registers.write_name("FRAME_COUNT_H", (produced >> 8) & 0xFF, force=True)

    def _sync_count(self) -> None:
        count = len(self._fifo)
        self.registers.write_name("FIFO_COUNT_L", count & 0xFF, force=True)
        self.registers.write_name("FIFO_COUNT_H", (count >> 8) & 0xFF, force=True)
        if count == 0:
            self._set_status(frame_ready=False)

    def _soft_reset(self) -> None:
        self.registers.reset()
        self._fifo.clear()
        self._frame_counter = 0
        self._sync_count()

    # -------------------------------------------------------------- SPI slave
    def spi_transaction(self, mosi: bytes) -> bytes:
        """Answer one chip-select-framed transaction (see repro.hardware.spi)."""
        if len(mosi) < 2 or crc8(mosi[:-1]) != mosi[-1]:
            return bytes([NAK])
        body = mosi[:-1]
        command = body[0]
        if command & _CMD_WRITE:
            if len(body) != 2:
                return bytes([NAK])
            address, value = command & 0x3F, body[1]
            try:
                self.registers.write(address, value)
            except (KeyError, PermissionError, ValueError):
                return bytes([NAK])
            if address == REGISTERS["SOFT_RESET"].address and value & 0x01:
                self._soft_reset()
            return bytes([ACK])
        if command & _CMD_BURST:
            if len(body) != 3:
                return bytes([NAK])
            n = body[1] | (body[2] << 8)
            if n > len(self._fifo):
                return bytes([NAK])
            out = bytes(self._fifo.popleft() for _ in range(n))
            self._sync_count()
            return bytes([ACK]) + out
        # Plain register read. The leading ACK keeps a data byte of 0xEE
        # from masquerading as a NAK (see repro.hardware.spi).
        if len(body) != 1:
            return bytes([NAK])
        try:
            return bytes([ACK, self.registers.read(command & 0x3F)])
        except KeyError:
            return bytes([NAK])

    # --------------------------------------------------------------- plumbing
    def fifo_frames(self) -> Iterator[np.ndarray]:
        """Drain the FIFO frame by frame (device-side test helper)."""
        if self._n_bins is None:
            return
        frame_bytes = self._n_bins * 4
        while len(self._fifo) >= frame_bytes:
            payload = bytes(self._fifo.popleft() for _ in range(frame_bytes))
            self._sync_count()
            yield self.decode_frame(payload)
