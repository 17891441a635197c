#!/usr/bin/env python
"""Quickstart: build a DEX self-healing expander, churn it, watch it heal.

Run:  python examples/quickstart.py
"""

from repro import DexConfig, DexNetwork

def main() -> None:
    # A 64-node network.  DEX picks the smallest prime p in (4n, 8n) and
    # maintains the network as a balanced contraction of the p-cycle
    # expander Z(p).
    net = DexNetwork.bootstrap(64, DexConfig(seed=42))
    print(f"bootstrap: n={net.size}  p-cycle size={net.p}")
    print(f"spectral gap 1-lambda = {net.spectral_gap():.4f}")
    print(f"max degree           = {net.max_degree()}  (always <= 3*4*zeta)")
    print()

    # The adversary inserts and deletes nodes one per step; every step is
    # healed in O(log n) messages/rounds with O(1) topology changes.
    print("-- 30 adversarial joins --")
    for _ in range(30):
        report = net.insert()
    print(report.summary_line())

    print("-- 20 adversarial leaves --")
    for _ in range(20):
        report = net.delete(net.random_node())
    print(report.summary_line())
    print()

    # The guarantees of Theorem 1, measured:
    print(f"n={net.size}  gap={net.spectral_gap():.4f}  max degree={net.max_degree()}")
    costs = [step.costs for step in net.reports]
    steps = len(costs)
    print(
        f"per-step averages over {steps} steps: "
        f"{sum(c.rounds for c in costs) / steps:.1f} rounds, "
        f"{sum(c.messages for c in costs) / steps:.1f} messages, "
        f"{sum(c.topology_changes for c in costs) / steps:.1f} topology changes"
    )

    # Invariants I1-I8 (DESIGN.md) hold at every step; verify explicitly:
    net.check_invariants()
    print("all invariants hold")


if __name__ == "__main__":
    main()
