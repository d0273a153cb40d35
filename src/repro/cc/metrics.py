"""Running senders over traces and summarizing link-level outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cc.link import TimeVaryingLink
from repro.cc.multiflow import IntervalStats
from repro.cc.network import PacketNetworkEmulator
from repro.cc.protocols.base import Sender
from repro.exec import ResultCache, as_runner, cached_map, make_key
from repro.traces.trace import Trace

__all__ = [
    "CcRunResult",
    "run_sender_on_trace",
    "run_sender_on_traces",
    "summarize_intervals",
]


@dataclass
class CcRunResult:
    """Outcome of one sender playing one congestion-control trace."""

    intervals: list[IntervalStats]
    mean_utilization: float
    mean_throughput_mbps: float
    mean_capacity_mbps: float
    loss_fraction: float
    mean_queue_delay_s: float

    @property
    def capacity_fraction(self) -> float:
        """Average throughput as a fraction of average link capacity.

        This is the paper's headline metric for Figure 5: the adversary
        "can reduce BBR's average throughput to just 45-65% of link
        capacity".
        """
        if self.mean_capacity_mbps <= 0:
            return 0.0
        return self.mean_throughput_mbps / self.mean_capacity_mbps


def summarize_intervals(intervals: list[IntervalStats], sender: Sender) -> CcRunResult:
    """Aggregate per-interval statistics into a run summary."""
    if not intervals:
        raise ValueError("no intervals recorded")
    throughput = np.array([s.throughput_mbps for s in intervals])
    capacity = np.array([s.bandwidth_mbps for s in intervals])
    return CcRunResult(
        intervals=list(intervals),
        mean_utilization=float(np.mean([s.utilization for s in intervals])),
        mean_throughput_mbps=float(throughput.mean()),
        mean_capacity_mbps=float(capacity.mean()),
        loss_fraction=sender.loss_fraction(),
        mean_queue_delay_s=float(np.mean([s.mean_queue_sojourn_s for s in intervals])),
    )


def run_sender_on_trace(
    sender: Sender,
    trace: Trace,
    interval_s: float = 0.030,
    queue_packets: int = 120,
    seed: int = 0,
    warmup_s: float = 0.0,
) -> CcRunResult:
    """Replay a (bandwidth, latency, loss) trace against ``sender``.

    The trace must carry latency and loss schedules.  Conditions update at
    every ``interval_s`` boundary (30 ms in the paper): interval ``i`` runs
    under the trace's conditions at ``i * interval_s``.  ``warmup_s``
    intervals (run under the trace's first conditions) are excluded from
    the summary so slow-start does not dominate short traces.
    """
    if trace.latencies_ms is None or trace.loss_rates is None:
        raise ValueError("congestion-control traces need latency and loss schedules")
    link = TimeVaryingLink(
        bandwidth_mbps=float(trace.bandwidths_mbps[0]),
        latency_ms=float(trace.latencies_ms[0]),
        loss_rate=float(trace.loss_rates[0]),
        queue_packets=queue_packets,
    )
    emulator = PacketNetworkEmulator(sender, link, seed=seed)
    n_warmup = int(round(warmup_s / interval_s))
    for _ in range(n_warmup):
        emulator.run_interval(interval_s)
    measured_from = len(emulator.history)
    # Multiply, not accumulate: a running sum of interval_s drifts below the
    # segment starts of a trace recorded on the interval grid, and those
    # intervals would replay the previous sample.
    i = 0
    while i * interval_s < trace.duration - 1e-9:
        t = i * interval_s
        emulator.set_conditions(
            trace.bandwidth_at(t, loop=False),
            trace.latency_at(t, loop=False),
            trace.loss_at(t, loop=False),
        )
        emulator.run_interval(interval_s)
        i += 1
    return summarize_intervals(emulator.history[measured_from:], sender)


def _replay_task(task) -> CcRunResult:
    sender_factory, trace, interval_s, queue_packets, seed, warmup_s = task
    return run_sender_on_trace(
        sender_factory(), trace, interval_s=interval_s,
        queue_packets=queue_packets, seed=seed, warmup_s=warmup_s,
    )


def run_sender_on_traces(
    sender_factory: Callable[[], Sender],
    traces: Sequence[Trace],
    seeds: Sequence[int],
    interval_s: float = 0.030,
    queue_packets: int = 120,
    warmup_s: float = 0.0,
    workers=None,
    cache=None,
    recorder=None,
) -> list[CcRunResult]:
    """Replay a corpus of traces, one fresh sender per trace.

    Each replay is independent (fresh sender, its own emulator seed), so
    ``workers`` parallelizes them and ``cache`` memoizes each
    :class:`CcRunResult` under a digest of (sender construction state,
    trace samples, emulator seed, replay parameters, schema version).
    Results are in trace order and identical to calling
    :func:`run_sender_on_trace` in a loop.  ``recorder`` (a
    :class:`~repro.obs.MetricsRecorder`) observes the replay timing and
    cache counters; it never changes results.
    """
    traces = list(traces)
    if len(seeds) != len(traces):
        raise ValueError(f"got {len(seeds)} seeds for {len(traces)} traces")
    cache = ResultCache.resolve(cache)
    tasks = [
        (sender_factory, trace, interval_s, queue_packets, int(seed), warmup_s)
        for trace, seed in zip(traces, seeds)
    ]
    keys = None
    if cache is not None:
        keys = [
            make_key(
                "cc-replay", sender_factory(), trace, interval_s,
                queue_packets, int(seed), warmup_s,
            )
            for trace, seed in zip(traces, seeds)
        ]
    with as_runner(workers, recorder=recorder) as runner:
        results = cached_map(_replay_task, tasks, runner, cache=cache, keys=keys)
    if cache is not None and recorder is not None:
        cache.record_metrics(recorder)
    return results
