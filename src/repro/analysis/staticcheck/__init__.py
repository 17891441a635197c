"""Project-specific static analysis (the *universal* correctness gate).

The runtime oracles -- invariant audits, cache-vs-rescan differentials,
scalar≡vector wave transcripts -- check *executions*; they sample the
properties the serving tier depends on.  This package checks *code*:
every path, not just the ones a harness happened to drive.  Three rule
families hold the reproduction to the per-event worst-case standard of
self-healing guarantees (DEX / Xheal are claims about **every**
insertion and deletion, so the checker must quantify the same way):

* **determinism** -- engine layers may not consult global random state,
  unseeded generators or the wall clock (the transcript oracles and
  snapshot bit-identity silently lose meaning otherwise);
* **async-safety** -- no blocking calls inside ``async def``, and every
  created future must be resolved or registered before an exception
  can orphan it (the gateway/router "answered, never dropped"
  contract);
* **layering** -- the import DAG stays acyclic and ordered
  (core → net → service → harness; nothing imports ``cli``).

One **hygiene** rule rides along: a module-level import the module never
reads (ruff's F401, so that check also runs without ruff installed).

Run it as ``python -m repro.analysis.staticcheck [paths]``; suppress a
finding with ``# staticcheck: ignore[rule] -- reason`` (the reason is
mandatory; a bare ignore is itself a finding).  See
``docs/staticcheck.md`` for the rule catalogue and how to add a rule.

Deliberately stdlib-only (``ast`` + ``tokenize``): the checker sits in
the ``analysis`` layer and must not import upward.
"""

from repro.analysis.staticcheck.engine import (
    SCHEMA,
    Finding,
    ModuleInfo,
    Report,
    check_paths,
)
from repro.analysis.staticcheck.rules import ALL_RULES, rule_ids

__all__ = [
    "SCHEMA",
    "Finding",
    "ModuleInfo",
    "Report",
    "check_paths",
    "ALL_RULES",
    "rule_ids",
]
