"""The rule registry.  To add a rule: subclass
:class:`~repro.analysis.staticcheck.rules.base.Rule` in a module here,
declare its ``ids`` and ``description``, and append an instance to
:data:`ALL_RULES` -- the engine, the CLI (``--list-rules``), directive
validation and the CI gate all read this one list."""

from repro.analysis.staticcheck.rules.asyncsafety import (
    BlockingCallRule,
    FutureResolutionRule,
)
from repro.analysis.staticcheck.rules.base import Rule
from repro.analysis.staticcheck.rules.determinism import (
    ModuleRandomRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.analysis.staticcheck.rules.hygiene import LineTooLongRule, UnusedImportRule
from repro.analysis.staticcheck.rules.layering import LayeringRule
from repro.analysis.staticcheck.rules.typed import UntypedDefRule

#: every active rule, in report order
ALL_RULES: list[Rule] = [
    ModuleRandomRule(),
    UnseededRngRule(),
    WallClockRule(),
    BlockingCallRule(),
    FutureResolutionRule(),
    LayeringRule(),
    UnusedImportRule(),
    LineTooLongRule(),
    UntypedDefRule(),
]


def rule_ids() -> list[str]:
    """Every finding id the registry can emit, sorted."""
    out: list[str] = []
    for rule in ALL_RULES:
        out.extend(rule.ids)
    return sorted(out)


__all__ = [
    "ALL_RULES",
    "Rule",
    "rule_ids",
    "BlockingCallRule",
    "FutureResolutionRule",
    "ModuleRandomRule",
    "UnseededRngRule",
    "WallClockRule",
    "LayeringRule",
    "UnusedImportRule",
    "LineTooLongRule",
    "UntypedDefRule",
]
