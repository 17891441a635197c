"""Exception hierarchy for the DEX reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """A configuration value is out of its legal range."""


class TopologyError(ReproError):
    """An operation referenced a node or edge that does not exist, or
    attempted an illegal mutation of the real network multigraph."""


class VirtualGraphError(ReproError):
    """An operation on the virtual p-cycle was malformed (bad prime,
    vertex out of range, ...)."""


class MappingError(ReproError):
    """The virtual-to-real mapping was asked to do something inconsistent
    (move a vertex that is not mapped, unmap the last vertex of a node,
    ...)."""


class InvariantViolation(ReproError):
    """A DEX invariant (I1-I8 in ``docs/substitutions.md``) failed a
    runtime check."""


class RecoveryError(ReproError):
    """Self-healing could not complete within configured resource bounds
    (e.g. the type-1 retry budget was exhausted while the respective set
    was still above threshold)."""


class AdversaryError(ReproError):
    """The adversary attempted an action outside the model of Section 2
    (deleting below the minimum size, disconnecting deletions in batch
    mode, attaching too many nodes to one host, ...)."""


class TraceExhausted(ReproError):
    """A scripted adversary ran out of actions.  Not a failure: the
    churn runner catches it and ends the run cleanly with the steps
    actually executed (raising it instead of leaking ``StopIteration``
    keeps PEP 479 generator contexts from turning exhaustion into a
    ``RuntimeError``)."""


class ServiceError(ReproError):
    """The membership-service gateway could not accept or complete a
    request (distinct from :class:`AdversaryError`, which signals an
    *illegal* action: service errors are operational)."""


class GatewayClosed(ServiceError):
    """A request arrived after :meth:`MembershipGateway.close` -- the
    caller raced shutdown and must not expect an outcome."""


class PolicyError(ServiceError):
    """An admission-policy specification was invalid: an unknown policy
    name, or a policy parameter outside its legal range (e.g. a shed
    high-water mark below one, a window scale outside its bounds)."""


class ShardError(ServiceError):
    """A sharded-cluster operation failed at the protocol level: an id
    outside every shard's region, a malformed control message, or a
    router driven against a shard set it was not built over.  Per-request
    failures (dead shard, refused handoff, expired reservation) are
    *answered* as rejected acks, never raised -- this error signals
    misuse of the sharding layer itself."""


class SnapshotError(ReproError):
    """A checkpoint could not be written or a restore request could not
    be satisfied (no checkpoint available, a staggered type-2 recovery
    in flight at save time, ...)."""


class CorruptSnapshot(SnapshotError):
    """A snapshot directory failed verification on load: missing or
    truncated manifest, checksum mismatch, or internal inconsistency
    between the serialized arrays and the manifest aggregates.  Raised
    *before* any network state is built -- a corrupt checkpoint is
    skipped, never half-loaded."""


class DHTError(ReproError):
    """A DHT operation failed (lookup of a missing key is *not* an error;
    this signals protocol-level misuse)."""


class SimulationError(ReproError):
    """The synchronous engine detected a protocol violation (message to a
    non-neighbor, exceeding per-edge capacity, round overrun)."""
