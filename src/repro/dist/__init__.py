"""repro.dist — the multi-process rack runtime.

The shared-timeline rack (:mod:`repro.cluster`) composes every server
onto one simulator in one process; this package runs the same rack as a
real fleet: each server slice lives in a spawned worker process
(:mod:`repro.dist.worker`), a length-prefixed wire protocol
(:mod:`repro.dist.wire`: packed binary ``step``/``step_ok``, JSON for
the rest) carries dispatch/completion/heartbeat traffic
over loopback TCP or Unix sockets, and a streaming replayer
(:mod:`repro.dist.replay`) feeds generated or recorded workloads at a
configurable speed factor. The coordinator
(:mod:`repro.dist.coordinator`) drives the rack's own fleet front end
(:mod:`repro.cluster.frontend`: balancer, crash membership, failover,
client metrics) on a simulator of its own and merges per-node metrics
through the :mod:`repro.obs` snapshot/merge machinery.

Entry point: :func:`run_cluster_dist`, a drop-in peer of
:func:`repro.cluster.rack.run_cluster`. Experiments reach it through
``backend="dist"`` (see docs/distributed.md).
"""

from repro.dist.coordinator import (
    TRANSPORTS,
    DistError,
    DistOptions,
    DistRun,
    WorkerPool,
    WorkerSpawnError,
    run_cluster_dist,
)
from repro.dist.replay import (
    ArrivalSource,
    PoissonSource,
    ReplayPacer,
    TraceFileSource,
    TraceRecord,
    write_trace,
)
from repro.dist.wire import (
    Channel,
    ChannelClosed,
    ChannelTimeout,
    ProtocolError,
    RemoteError,
    WireError,
    decode_body,
    encode_frame,
)

__all__ = [
    "ArrivalSource",
    "Channel",
    "ChannelClosed",
    "ChannelTimeout",
    "DistError",
    "DistOptions",
    "DistRun",
    "PoissonSource",
    "ProtocolError",
    "RemoteError",
    "ReplayPacer",
    "TraceFileSource",
    "TraceRecord",
    "TRANSPORTS",
    "WireError",
    "WorkerPool",
    "WorkerSpawnError",
    "decode_body",
    "encode_frame",
    "run_cluster_dist",
    "write_trace",
]
