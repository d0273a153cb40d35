"""Congestion-control substrate.

A discrete-event, packet-level single-bottleneck emulator in the spirit of
the modified Mahimahi the paper used ("an event-based approach to packet
delivery", section 4), plus sender implementations:

- :mod:`repro.cc.protocols.bbr` -- BBRv1 state machine (the paper's case
  study),
- :mod:`repro.cc.protocols.cubic` / :mod:`repro.cc.protocols.reno` --
  loss-based TCP variants ("a trivial weakness to packet loss even as low
  as 1%", section 4).

As in the paper's setup, the emulator is event-driven and not designed for
exact timing reproducibility; adversarial traces replayed against it give
statistically similar -- not bit-identical -- results.
"""

from repro.cc.link import TimeVaryingLink
from repro.cc.multiflow import IntervalStats, MultiFlowEmulator, jain_fairness
from repro.cc.network import PacketNetworkEmulator
from repro.cc.protocols.bbr import BBRSender
from repro.cc.protocols.copa import CopaSender
from repro.cc.protocols.cubic import CubicSender
from repro.cc.protocols.reno import RenoSender
from repro.cc.protocols.vivace import VivaceSender

__all__ = [
    "BBRSender",
    "CopaSender",
    "CubicSender",
    "IntervalStats",
    "MultiFlowEmulator",
    "PacketNetworkEmulator",
    "jain_fairness",
    "RenoSender",
    "TimeVaryingLink",
    "VivaceSender",
]
