"""Cost accounting: rounds, messages and topology changes per step.

Theorem 1 bounds exactly these three quantities, so every primitive in
the library reports its consumption into a :class:`CostLedger`.  One
ledger is one step's value record; the step's report
(``DexNetwork.reports[i].costs``) is where it is kept.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostLedger:
    """Mutable accumulator for one step's communication costs."""

    rounds: int = 0
    messages: int = 0
    topology_changes: int = 0
    walks: int = 0
    walk_hops: int = 0
    retries: int = 0
    floods: int = 0
    coordinator_updates: int = 0

    def charge_walk(self, hops: int) -> None:
        """A token walk of ``hops`` hops: one message and one round per hop
        (walks in DEX are sequential within a step)."""
        self.walks += 1
        self.walk_hops += hops
        self.messages += hops
        self.rounds += hops

    def charge_walk_wave(self, walks: int, hops: int, rounds: int) -> None:
        """A congestion-scheduled wave of ``walks`` simultaneous tokens
        (Lemma 11): ``rounds`` is the scheduler's *actual* round count,
        messages the total hops over all tokens."""
        self.walks += walks
        self.walk_hops += hops
        self.messages += hops
        self.rounds += rounds

    def charge_route(self, hops: int) -> None:
        """A routed message along ``hops`` real hops."""
        self.messages += hops
        self.rounds += hops

    def charge_flood(self, rounds: int, messages: int) -> None:
        self.floods += 1
        self.rounds += rounds
        self.messages += messages

    def charge_parallel(self, rounds: int, messages: int) -> None:
        """A batch of parallel activity: rounds is the max over the batch,
        messages the sum."""
        self.rounds += rounds
        self.messages += messages

    def as_dict(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "topology_changes": self.topology_changes,
            "walks": self.walks,
            "walk_hops": self.walk_hops,
            "retries": self.retries,
            "floods": self.floods,
            "coordinator_updates": self.coordinator_updates,
        }
