"""repro -- a full reproduction of *DEX: Self-Healing Expanders*
(Pandurangan, Robinson, Trehan; IPDPS 2014 / Distributed Computing 2016).

Quickstart::

    from repro import DexNetwork, DexConfig

    net = DexNetwork.bootstrap(64, DexConfig(seed=1))
    for _ in range(200):
        net.insert()                 # adversarial join
    report = net.delete(net.random_node())  # adversarial leave
    print(report.summary_line())
    assert net.spectral_gap() > 0.01         # always an expander
    assert net.max_degree() <= 3 * 4 * 8     # always constant degree

See ``docs/substitutions.md`` for where the reproduction departs from the
paper and for the invariants it checks, and ``benchmarks/README.md`` for
the paper's tables and figures as measured here.
"""

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.events import StepReport
from repro.core.multi import (
    BatchOutcome,
    BatchRejection,
    delete_batch,
    delete_batch_partial,
    insert_batch,
    insert_batch_partial,
)
from repro.dht.dht import DexDHT
from repro.virtual.pcycle import PCycle
from repro.analysis.spectral import spectral_gap, second_eigenvalue
from repro.types import Layer, RecoveryType, StepKind

__version__ = "1.0.0"

__all__ = [
    "DexNetwork",
    "DexConfig",
    "DexDHT",
    "StepReport",
    "PCycle",
    "insert_batch",
    "delete_batch",
    "spectral_gap",
    "second_eigenvalue",
    "Layer",
    "RecoveryType",
    "StepKind",
    "__version__",
]
