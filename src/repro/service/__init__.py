"""The membership-service layer (PR 5): an asyncio gateway that turns a
live stream of concurrent ``join``/``leave`` requests into the batch
waves of :mod:`repro.core.multi`, with per-request outcomes, bounded
backpressure, adaptive overload control (admission policies, request
deadlines, controlled shedding), client load generators and latency
metrics.

See :mod:`repro.service.flush` for the one flush implementation the
gateway and the shard workers share, :mod:`repro.service.gateway` for
the architecture notes and :mod:`repro.service.policy` for the
overload-control design.
"""

from repro.service.flush import Ack, FlushCore
from repro.service.gateway import MembershipGateway
from repro.service.loadgen import (
    LoadStats,
    Population,
    RetryPolicy,
    flash_crowd_load,
    poisson_load,
    saturating_load,
)
from repro.service.metrics import (
    FlushRecord,
    ServiceMetrics,
    aggregate_snapshots,
    exact_quantile,
)
from repro.service.router import (
    InlineShardHandle,
    ProcessShardHandle,
    ShardRouter,
    start_cluster,
)
from repro.service.shard import SHARD_STRIDE, ShardMap, ShardServer
from repro.service.policy import (
    POLICIES,
    AdaptiveWindowPolicy,
    AdmissionPolicy,
    DegradeToRejectPolicy,
    FixedPolicy,
    ShedOldestPolicy,
    make_policy,
)

__all__ = [
    "Ack",
    "FlushCore",
    "MembershipGateway",
    "LoadStats",
    "Population",
    "RetryPolicy",
    "flash_crowd_load",
    "poisson_load",
    "saturating_load",
    "FlushRecord",
    "ServiceMetrics",
    "aggregate_snapshots",
    "exact_quantile",
    "SHARD_STRIDE",
    "ShardMap",
    "ShardServer",
    "InlineShardHandle",
    "ProcessShardHandle",
    "ShardRouter",
    "start_cluster",
    "POLICIES",
    "AdmissionPolicy",
    "AdaptiveWindowPolicy",
    "DegradeToRejectPolicy",
    "FixedPolicy",
    "ShedOldestPolicy",
    "make_policy",
]
