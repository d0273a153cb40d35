"""The single-flow emulator: one sender on the time-varying bottleneck.

This is the paper's setting -- one BBR flow under the adversary's
30 ms link changes -- and it runs on the one packet event loop,
:class:`repro.cc.multiflow.MultiFlowEmulator`, with a single flow.
:meth:`run_interval` returns that interval's
:class:`~repro.cc.multiflow.IntervalStats`, the adversary's observation.
"""

from __future__ import annotations

from repro.cc.link import TimeVaryingLink
from repro.cc.multiflow import MultiFlowEmulator
from repro.cc.protocols.base import Sender

__all__ = ["PacketNetworkEmulator"]


class PacketNetworkEmulator(MultiFlowEmulator):
    """Couples one sender to one time-varying link.

    A one-flow :class:`~repro.cc.multiflow.MultiFlowEmulator` that keeps
    its sender as ``sender``; the flow starts sending at time 0 and the
    RTO check runs every 100 ms.
    """

    def __init__(self, sender: Sender, link: TimeVaryingLink, seed: int = 0) -> None:
        super().__init__([sender], link, seed=seed)
        self.sender = sender
