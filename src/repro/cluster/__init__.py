"""Multi-node cluster tier: shard servers, front-tier router, WAL shipping.

The cluster package lifts the in-process serving stack across machines
while keeping every correctness contract it already has:

* :mod:`repro.cluster.topology` -- the static JSON registry of domain cut
  points and per-shard replica endpoints every node plans against;
* :mod:`repro.cluster.shard_server` -- a
  :class:`~repro.serve.server.QueryServer` owning one shard's residents,
  extended with the cluster protocol (``/shard-batch``, ``/cluster-info``,
  ``/checkpoint``, ``/wal-feed``, ``/promote``);
* :mod:`repro.cluster.router` -- the front tier: plan with the shared
  :class:`~repro.engine.sharding.ShardPlan`, fan out over keep-alive
  clients, merge with the engine's domain-order dedup, fail over between
  replicas, and cache results keyed on the generation tokens piggybacked
  on every shard response;
* :mod:`repro.cluster.follower` -- a warm standby that bootstraps from a
  leader checkpoint, continuously replays its shipped WAL, and takes over
  serving on promotion with exactly the applied prefix live.
"""

from repro.cluster.follower import ClusterFollower
from repro.cluster.router import (
    ClusterRouter,
    ClusterUpdateError,
    NoHealthyReplicaError,
    ReplicaFailure,
)
from repro.cluster.shard_server import (
    SHARD_BATCH_KINDS,
    ShardServer,
    start_shard_server_thread,
)
from repro.cluster.topology import (
    TOPOLOGY_VERSION,
    ClusterTopology,
    Endpoint,
    TopologyError,
)

__all__ = [
    "SHARD_BATCH_KINDS",
    "TOPOLOGY_VERSION",
    "ClusterFollower",
    "ClusterRouter",
    "ClusterTopology",
    "ClusterUpdateError",
    "Endpoint",
    "NoHealthyReplicaError",
    "ReplicaFailure",
    "ShardServer",
    "TopologyError",
    "start_shard_server_thread",
]
