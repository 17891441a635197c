"""The exit audit of ``repro.cli serve`` runs after the queue has healed.

An interrupt cancels the load generator, but the requests it already
submitted stay queued and heal before ``drain()`` returns.  ``quiesce``
waits for them, so the audit taken next sees the membership the drain
leaves -- on one gateway and on a shard cluster alike.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.service as service_module
from repro.service import open_service, quiesce

N0 = 48
JOINS = 30


async def _interrupted_run(shards: int) -> tuple[int, int, int, int]:
    """Queue joins behind a long batch window, cancel the load, then
    quiesce -> audit -> drain as ``serve`` does.  Returns the depth at
    the cancel, the audited size, the size after the drain and the
    expected size."""
    service = await open_service(N0, shards=shards, seed=5, max_batch=64, window_ms=200.0)
    clients: list[asyncio.Future] = []

    async def load() -> None:
        clients.extend(asyncio.ensure_future(service.join()) for _ in range(JOINS))
        await asyncio.sleep(3600)

    task = asyncio.ensure_future(load())
    await asyncio.sleep(0.02)
    task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await task
    queued = service.queue_depth
    assert await quiesce(service)
    audit = await service.cluster_audit()
    summary = await service.drain()
    acks = await asyncio.gather(*clients)
    rows = summary.get("per_shard") or [{"size": service.net.size}]
    assert audit["ok"], audit["errors"]
    return queued, audit["total_nodes"], sum(r["size"] for r in rows), N0 + sum(a.ok for a in acks)


@pytest.mark.parametrize("shards", [1, 2])
def test_audit_sees_the_membership_the_drain_leaves(shards: int):
    queued, audited, drained, expected = asyncio.run(_interrupted_run(shards))
    assert queued > 0, "no request was queued at the cancel"
    assert audited == drained == expected


def test_quiesce_gives_up_after_its_timeout(monkeypatch):
    async def run() -> tuple[bool, bool]:
        service = await open_service(N0, seed=5, window_ms=500.0)
        client = asyncio.ensure_future(service.join())
        await asyncio.sleep(0)
        monkeypatch.setattr(service_module, "QUIESCE_TIMEOUT_S", 0.01)
        early = await quiesce(service)
        monkeypatch.undo()
        late = await quiesce(service)
        await client
        await service.drain()
        return early, late

    assert asyncio.run(run()) == (False, True)
