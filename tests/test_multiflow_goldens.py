"""Pinned multi-flow emulator goldens.

These digests were captured from the pre-fast-path
:class:`repro.cc.multiflow.MultiFlowEmulator` (string event kinds in one
heap, per-packet ``rng.random()`` draws, dataclass flow records) via
``tests/_capture_multiflow_goldens.py``.  The fast-path rewrite must
reproduce every per-flow interval statistic bit for bit: the digest
hashes the exact IEEE-754 representation (``float.hex()``) of each
interval's per-flow delivered bytes and throughput for every one of the
five senders, plus the final link counters.

Scenarios deliberately exercise the numerically delicate paths:

- latency changes *between* intervals (packets in flight across a
  condition change must price the receiver hop at the delay in force
  when they reach it, not when they egressed),
- nonzero random loss (the Bernoulli draw order is part of the stream),
- a small queue (droptail drops),
- staggered flow starts and 1/2/4-flow contention,
- all five senders (bbr, cubic, reno, copa, vivace).

The three Table-1 mixes (``TABLE1_MIXES``) pin the live emulator and
senders at e9af27e, where the same digests also came out of a frozen
copy of the pre-fast-path stack: that emulator loop, the seed-era link
and the seed-era sender bookkeeping, with BBR's filter and state updates
as separate methods.  Each mix runs 400 intervals of random actions from
the adversary's Table-1 ranges.
"""

import hashlib

import numpy as np

from repro.adversary.cc_env import CC_ACTION_RANGES
from repro.cc import (
    BBRSender,
    CopaSender,
    CubicSender,
    RenoSender,
    TimeVaryingLink,
    VivaceSender,
)
from repro.cc.multiflow import MultiFlowEmulator

#: (name, sender factories, link kwargs, emulator kwargs, schedule seed,
#:  n_intervals, interval_s)
SCENARIOS = {
    "bbr-solo": ([BBRSender], dict(bandwidth_mbps=10.0, latency_ms=40.0), {}, 7, 120, 0.03),
    "cubic-solo": ([CubicSender], dict(bandwidth_mbps=10.0, latency_ms=40.0), {}, 7, 120, 0.03),
    "reno-solo": ([RenoSender], dict(bandwidth_mbps=10.0, latency_ms=40.0), {}, 7, 120, 0.03),
    "copa-solo": ([CopaSender], dict(bandwidth_mbps=10.0, latency_ms=40.0), {}, 7, 120, 0.03),
    "vivace-solo": ([VivaceSender], dict(bandwidth_mbps=10.0, latency_ms=40.0), {}, 7, 120, 0.03),
    "cubic-pair-lossy": (
        [CubicSender, CubicSender],
        dict(bandwidth_mbps=12.0, latency_ms=30.0, loss_rate=0.01),
        dict(seed=3),
        11, 150, 0.03,
    ),
    "bbr-vs-cubic-small-queue": (
        [BBRSender, CubicSender],
        dict(bandwidth_mbps=8.0, latency_ms=50.0, queue_packets=20),
        dict(seed=1, start_stagger_s=0.7),
        13, 150, 0.03,
    ),
    "four-flow-mix": (
        [BBRSender, CubicSender, RenoSender, CopaSender],
        dict(bandwidth_mbps=16.0, latency_ms=25.0, loss_rate=0.005),
        dict(seed=5, start_stagger_s=0.25),
        17, 120, 0.03,
    ),
    "copa-vivace-swings": (
        [CopaSender, VivaceSender],
        dict(bandwidth_mbps=10.0, latency_ms=60.0),
        dict(seed=9),
        19, 150, 0.05,
    ),
}

GOLDEN_DIGESTS = {
    "bbr-solo": "c8d8c61175b6e54c07550ecee7fb1a29812cd114b1c9db3edbe80e0454c96452",
    "cubic-solo": "be95b691b3a21e2b73a492ceff40df97aa7460945499a6aff0f09f35e3904509",
    "reno-solo": "809328720f2dfe526575c0b7efe4e538bbc829c89c9631b7f86318ef9d160fa3",
    "copa-solo": "5f7aa53be8dc71ebd445ede49e58c6b0d48818289128438ff3b93491ae9328c5",
    "vivace-solo": "2615d8d6dfaeb3b5b073ea1ce75c8c30ec43bb14590f2ab31098fcb3dea3dfe2",
    "cubic-pair-lossy": "ca2d60b4544de65b920f3d567636425b68d139656d0863874e2290ce0ec7975b",
    "bbr-vs-cubic-small-queue": "7dc29d71eefb820fc35c465573a562d63419fe0072e03fbe6eee4da4b6552486",
    "four-flow-mix": "2a5c4d15ba7abfbd28bd389e1e556620822a408e135745c7cb12a98d98067779",
    "copa-vivace-swings": "faa0b8a30320c04b3bfd57b17ed2258f859361a5c868e88adbcd378bde38c817",
}


#: One mix per flow count, BBR in each; together they run all five
#: senders.  The link starts at the midpoints of Table 1's bandwidth and
#: latency ranges with no loss and a 120-packet queue.
TABLE1_MIXES = {
    "bbr-vivace": [BBRSender, VivaceSender],
    "bbr-cubic-vivace": [BBRSender, CubicSender, VivaceSender],
    "bbr-reno-copa-vivace": [BBRSender, RenoSender, CopaSender, VivaceSender],
}

TABLE1_DIGESTS = {
    "bbr-vivace": "5ebe17aa991e8eaf63ecbe9ebf666cd78d4595986432600d4fa2a7144ae08165",
    "bbr-cubic-vivace": "4b148083df0337daebeb7566d095d757d3d89da9dc93109d66f2494db3700fbc",
    "bbr-reno-copa-vivace": "9acfd1b8523be76ce5ca724725c4d218da4eaf292818399d463f6ee859b3f20f",
}


def digest_run(emulator: MultiFlowEmulator, conditions, dt: float) -> str:
    """Run one ``dt`` interval per ``(bandwidth_mbps, latency_ms,
    loss_rate)`` row of ``conditions`` and return the SHA-256 digest of
    every interval's per-flow bytes and throughput, then the link's
    byte and drop counters."""
    h = hashlib.sha256()
    for bandwidth_mbps, latency_ms, loss_rate in conditions:
        emulator.set_conditions(bandwidth_mbps, latency_ms, loss_rate)
        for delivered in emulator.run_interval(dt).flow_bytes:
            h.update(str(delivered).encode())
            h.update(float(delivered * 8.0 / dt / 1e6).hex().encode())
    link = emulator.link
    h.update(str(link.bytes_delivered).encode())
    h.update(str(link.drops_loss).encode())
    h.update(str(link.drops_queue).encode())
    return h.hexdigest()


def run_scenario(name: str) -> str:
    """Run one scenario and return the SHA-256 digest of its outcomes."""
    factories, link_kwargs, emu_kwargs, sched_seed, n_intervals, dt = SCENARIOS[name]
    link = TimeVaryingLink(**link_kwargs)
    emulator = MultiFlowEmulator([f() for f in factories], link, **emu_kwargs)
    base_bw = link.bandwidth_mbps
    base_lat = link.latency_ms
    base_loss = link.loss_rate
    u = np.random.default_rng(sched_seed).random((n_intervals, 3))
    # Swing bandwidth 0.3-1.7x, latency 0.5-2.5x, loss 0-2x around the
    # scenario's base conditions -- every interval boundary moves all
    # three knobs, so in-flight packets straddle condition changes.
    conditions = np.column_stack([
        base_bw * (0.3 + 1.4 * u[:, 0]),
        base_lat * (0.5 + 2.0 * u[:, 1]),
        np.minimum(
            base_loss * 2.0 * u[:, 2] + (0.002 if base_loss == 0 else 0.0) * u[:, 2],
            1.0,
        ),
    ])
    return digest_run(emulator, conditions, dt)


def run_table1_mix(name: str) -> str:
    """Run one Table-1 mix and return the SHA-256 digest of its outcomes."""
    (bw_lo, bw_hi), (lat_lo, lat_hi), (loss_lo, loss_hi) = CC_ACTION_RANGES.values()
    link = TimeVaryingLink((bw_lo + bw_hi) / 2, (lat_lo + lat_hi) / 2, 0.0,
                           queue_packets=120)
    emulator = MultiFlowEmulator([cls() for cls in TABLE1_MIXES[name]], link,
                                 seed=0, start_stagger_s=0.05)
    u = np.random.default_rng(1).random((400, 3))
    conditions = np.column_stack([
        bw_lo + (bw_hi - bw_lo) * u[:, 0],
        lat_lo + (lat_hi - lat_lo) * u[:, 1],
        loss_lo + (loss_hi - loss_lo) * u[:, 2],
    ])
    return digest_run(emulator, conditions, 0.03)


class TestMultiFlowGoldens:
    def test_all_scenarios_pinned(self):
        assert set(GOLDEN_DIGESTS) == set(SCENARIOS)
        assert set(TABLE1_DIGESTS) == set(TABLE1_MIXES)

    def test_digests_match(self):
        digests = {name: run_scenario(name) for name in SCENARIOS}
        digests.update((name, run_table1_mix(name)) for name in TABLE1_MIXES)
        pinned = {**GOLDEN_DIGESTS, **TABLE1_DIGESTS}
        mismatches = {name: d for name, d in digests.items() if d != pinned[name]}
        assert not mismatches, (
            "multi-flow emulator diverged from the pinned pre-fast-path "
            f"numerics: {mismatches}"
        )
