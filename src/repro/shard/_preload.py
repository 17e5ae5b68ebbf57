"""Import warm-up for shard worker processes.

Importing this module pays every heavy import a worker needs — numpy,
the detector stack and the session a worker runs — so it can happen
*once* in the forkserver parent (via ``set_forkserver_preload``) or
before a spawned worker reports Ready, never while frames are in flight.
"""

from __future__ import annotations

import numpy  # noqa: F401

import repro.core.realtime  # noqa: F401
import repro.fleet.session  # noqa: F401
import repro.shard.ring  # noqa: F401
