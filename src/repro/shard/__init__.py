"""Process-sharded fleet runtime.

The thread-based :class:`~repro.fleet.scheduler.FleetScheduler` flat-lines
once the stateful per-session walks saturate the GIL: past ~4 sessions,
adding workers adds contention, not throughput. This package moves the
detector side into worker *processes*, each owning a shard of sessions:

- Frames travel parent → worker over an SPSC shared-memory ring of
  packed records (:class:`~repro.shard.ring.ShmRing`); each record
  carries one frame at its own size, framed exactly like a one-frame
  ``.rst`` CHUNK block (24-byte header, CRC-32 over header and
  payload), so payloads are checksummed and the worker consumes them
  zero-copy straight out of shared memory. The producer rewinds to the
  start of the ring whenever it drains, so a ring's memory follows its
  deepest backlog, not its capacity.
- A small pickle-over-pipe control plane (:mod:`repro.shard.messages`)
  handles attach/detach/drain/stop, ships each tick's session events
  and batches back for the parent to count (a tick is at most 64 ring
  records, so results and ACKs flow every 64 frames or sooner, also
  while a detach drains a backlog), and heartbeats each shard.
- Each worker drains its ring into one fused stage-1 kernel launch per
  tick (the cross-session row-matrix batching of
  :class:`~repro.core.batched.BatchedPipeline`), then runs the stateful
  per-session walks — in its own interpreter, on its own core.
- The parent (:class:`~repro.shard.fleet.ShardedFleet`) supervises the
  shards: a SIGKILLed worker is detected, the frames it took but never
  reported (at most one tick, 64 frames) are counted as losses, a
  replacement is spawned, the dead shard's sessions and its ring's
  backlog move onto it — other shards never notice, and no parent call
  deadlocks.

:class:`ShardedFleet` implements the
:class:`~repro.fleet.backend.ServeBackend` contract, so the network
gateway, :class:`~repro.fleet.service.FleetService` and the one
run-to-completion pump (:func:`~repro.fleet.backend.run_to_completion`)
take it in place of the threaded scheduler; the ``gateway serve
--backend sharded`` and ``fleet --sharded`` CLI flags construct it.
"""

from __future__ import annotations

from repro.shard.fleet import ShardedFleet
from repro.shard.ring import ShmRing
from repro.shard.worker import ShardWorker

__all__ = ["ShardWorker", "ShardedFleet", "ShmRing"]
