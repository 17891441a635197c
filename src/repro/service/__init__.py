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

:func:`open_service` opens either backend -- one gateway or an N-shard
cluster -- started, behind one client and operator surface.
"""

from pathlib import Path

from repro.service.flush import DEFAULT_QUEUE_LIMIT, Ack, FlushCore
from repro.service.gateway import MembershipGateway
from repro.service.loadgen import (
    LoadStats,
    Population,
    RetryPolicy,
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



async def open_service(
    n0: int,
    *,
    shards: int = 1,
    seed: int = 0,
    max_batch: int = 64,
    window_ms: float = 2.0,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    policy: str = "fixed",
    deadline_ms: float | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 32,
    checkpoint_keep: int = 3,
    restore: bool = False,
) -> "MembershipGateway | ShardRouter":
    """Open a *started* membership service over ``n0`` bootstrap nodes:
    one :class:`MembershipGateway`, or ``shards`` worker processes
    behind a :class:`ShardRouter` (``queue_limit`` / ``policy`` /
    checkpoint cadence then apply per shard, each checkpointing into
    ``checkpoint_dir/shard-<i>``).  ``restore`` starts from the newest
    loadable checkpoint(s) there instead of bootstrapping.  Both answer
    ``join`` / ``leave`` / ``metrics`` / ``net`` and the operator
    surface ``ready`` / ``queue_depth`` / ``reset_metrics()`` /
    ``cluster_audit()`` / ``publish_registry()`` / ``drain()``; callers
    that need the gateway-only hooks (``on_ack``,
    ``on_before_checkpoint``) construct the gateway themselves."""
    if restore and checkpoint_dir is None:
        raise ValueError("restore needs a checkpoint_dir")
    shared: dict = dict(
        seed=seed,
        max_batch=max_batch,
        queue_limit=queue_limit,
        policy=policy,
        deadline_ms=deadline_ms,
        checkpoint_every=checkpoint_every,
        checkpoint_keep=checkpoint_keep,
    )
    if shards > 1:
        return await start_cluster(
            n0,
            shards,
            window_ms=window_ms,
            checkpoint_root=checkpoint_dir,
            restore=restore,
            **shared,
        )
    shared.update(batch_window_ms=window_ms, checkpoint_dir=checkpoint_dir)
    if restore and checkpoint_dir is not None:
        gateway = MembershipGateway.from_checkpoint(checkpoint_dir, **shared)
    else:
        from repro.core.config import DexConfig
        from repro.core.dex import DexNetwork

        config = DexConfig(seed=seed, type2_mode="simplified")
        gateway = MembershipGateway(DexNetwork.bootstrap(n0, config, seed=seed), **shared)
    return await gateway.start()


__all__ = [
    "open_service",
    "Ack",
    "FlushCore",
    "MembershipGateway",
    "LoadStats",
    "Population",
    "RetryPolicy",
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
