"""``DexNetwork.bootstrap`` is order-faithful: the state it builds --
adjacency key order, host order, aggregates -- hashes to what the
per-vertex ``Overlay.activate`` loop built at commit d7544f5, before the
array pass replaced it, in the first shard's id region and in the
second's.  The literals sit beside ``JOIN_STATE`` / ``LEAVE_STATE`` of
``test_cost_transcript.py`` (same digest; that file is kept byte for
byte), which pin the same property across a simplified inflation and a
deflation."""

import hashlib

import pytest

from repro.core.dex import DexNetwork
from repro.persist.snapshot import state_fingerprint

# fmt: off
#: (n0, id_base) -> sha256 of ``state_fingerprint`` at the parent commit
BOOTSTRAP_STATE = {
    (12, 0): "49a2f486a2388591db347f34999c19b3c86ae5085cc54826154b0ed2e7f4d84d",
    (12, 2**40): "c0acacd57888268c46f8e562919b5e2caed9b1309502ae7eb05bead44ac05582",
    (256, 0): "1ebd239ef82b75906b88531a965407dddf769cacc4f0f494f339ed3ae28c689f",
    (256, 2**40): "bd624a714a047e654a10e7ac8dcc0f7ca7b6617d1e876aaa800a710fcb61d380",
    (4096, 0): "2872735369a7857d9f03d3cedb8b516f422eb869e38b33a20811bc8d6719cc1d",
    (4096, 2**40): "1680028654848b1faad9da44a09c5a7c72081c7342d2234a06b971c636b910f5",
}
# fmt: on


@pytest.mark.parametrize("n0, id_base", BOOTSTRAP_STATE)
def test_bootstrap_state_is_the_parent_commits(n0, id_base):
    net = DexNetwork.bootstrap(n0, id_base=id_base)
    assert net.graph.topology_changes == 0
    digest = hashlib.sha256(repr(state_fingerprint(net)).encode()).hexdigest()
    assert digest == BOOTSTRAP_STATE[n0, id_base]
    net.check_invariants()
