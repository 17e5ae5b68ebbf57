"""Installs the benchmark's span probes in every process of a traced server.

The benchmark puts this directory on the gateway server's ``PYTHONPATH``
(and sets ``PERFBENCH_TRACE_DIR``) only for its traced run. Python
imports ``sitecustomize`` at start-up, so the probes are in place in the
server, in the forkserver its shard workers are forked from, and so in
every shard worker, before any of them imports the code under test.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import atexit

    import probes

    probes.install()
    atexit.register(probes.dump, "server")
