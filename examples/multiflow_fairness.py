#!/usr/bin/env python3
"""Multi-flow contention and fairness on one bottleneck.

Section 5 floats adversarial goals that only exist with several flows
(incast, induced congestion, unfairness).  This example runs the
multi-flow emulator over homogeneous and heterogeneous sender mixes and
reports goodput shares and Jain's fairness index -- the substrate a
fairness-goal adversary would attack.

Run:  python examples/multiflow_fairness.py
"""

from repro.analysis import format_table
from repro.cc import (
    BBRSender,
    CopaSender,
    CubicSender,
    MultiFlowEmulator,
    RenoSender,
    TimeVaryingLink,
    jain_fairness,
)

SCENARIOS = {
    "cubic vs cubic": [CubicSender, CubicSender],
    "reno vs reno": [RenoSender, RenoSender],
    "bbr vs cubic": [BBRSender, CubicSender],
    "copa vs cubic": [CopaSender, CubicSender],
    "bbr vs cubic @2% loss": [BBRSender, CubicSender],
}


def main() -> None:
    rows = []
    for name, sender_classes in SCENARIOS.items():
        loss = 0.02 if "loss" in name else 0.0
        link = TimeVaryingLink(12.0, 40.0, loss)
        emulator = MultiFlowEmulator([cls() for cls in sender_classes], link, seed=0)
        emulator.run_until(10.0)  # warm-up
        stats = emulator.run_interval(20.0)
        rates = [b * 8.0 / 20.0 / 1e6 for b in stats.flow_bytes]
        rows.append([
            name,
            *(round(r, 2) for r in rates),
            jain_fairness(rates),
        ])
    print(format_table(
        ["scenario", "flow A (Mbps)", "flow B (Mbps)", "Jain fairness"], rows
    ))
    print("\n(1.0 = perfectly fair; the delay-based and model-based senders"
          "\n coexist with Cubic differently, and random loss starves Cubic)")


if __name__ == "__main__":
    main()
