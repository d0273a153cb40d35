"""Chunk-level ABR streaming simulator.

Re-implementation of the Pensieve simulator (``fixed_env.py`` of Mao et
al.), which the paper used "for training and testing" (section 3).  The
mechanics and constants match the original:

- downloads deliver ``PACKET_PAYLOAD_PORTION`` of the raw link rate,
- every chunk pays one ``LINK_RTT`` of latency,
- the client buffer gains 4 s of content per chunk, drains in real time
  during downloads, rebuffers when it empties, and is capped at 60 s
  (the client sleeps in 500 ms quanta when the cap is exceeded).

Bandwidth comes from a :class:`BandwidthSchedule`.  Two implementations:

- :class:`TraceBandwidth` integrates downloads over a time-indexed
  :class:`~repro.traces.trace.Trace` (the benign-corpus case),
- :class:`ControlledBandwidth` holds a constant rate per download, set
  before each chunk (the online adversary case: "adversaries make
  observations every video chunk" and then fix the next conditions).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.abr.qoe import QoEWeights, chunk_qoe
from repro.abr.video import Video
from repro.traces.trace import Trace

__all__ = [
    "AbrObservation",
    "BandwidthSchedule",
    "ChunkIndexedBandwidth",
    "ChunkResult",
    "ControlledBandwidth",
    "SessionResult",
    "StreamingSession",
    "TraceBandwidth",
]

PACKET_PAYLOAD_PORTION = 0.95
LINK_RTT_S = 0.08
BUFFER_CAP_S = 60.0
SLEEP_QUANTUM_S = 0.5


class BandwidthSchedule:
    """Maps a download request to a download time."""

    def download_time(self, size_bytes: float, t_start: float) -> float:
        """Seconds needed to deliver ``size_bytes`` starting at ``t_start``."""
        raise NotImplementedError


class TraceBandwidth(BandwidthSchedule):
    """Integrates downloads across a piecewise-constant trace.

    Traces shorter than the playback loop (Pensieve's behaviour) unless
    ``loop=False``.  The segment starts, ends and bandwidths are copied
    into Python lists once per schedule (one schedule serves one
    session), so each segment a download crosses costs one
    ``bisect_right`` and a few float ops, with no numpy call.
    """

    def __init__(self, trace: Trace, loop: bool = True) -> None:
        self.trace = trace
        self.loop = loop
        self._t0 = float(trace.timestamps[0])
        self._duration = trace.duration
        self._starts = trace._starts.tolist()
        self._ends = self._starts[1:] + [float(self._duration)]
        self._bandwidths = trace.bandwidths_mbps.tolist()

    def download_time(self, size_bytes: float, t_start: float) -> float:
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        starts, ends, bandwidths = self._starts, self._ends, self._bandwidths
        t0, duration, loop = self._t0, self._duration, self.loop
        remaining = float(size_bytes)
        t = float(t_start)
        elapsed = 0.0
        # Hard cap to avoid infinite loops on pathological all-zero traces.
        max_elapsed = 3600.0
        while remaining > 0:
            offset = t - t0
            if not loop and offset >= duration:
                # Past the end of a non-looping trace: last rate persists.
                bw = bandwidths[-1]
                seg_end = float("inf")
            else:
                if loop:
                    offset %= duration
                elif offset < 0:
                    raise ValueError(f"time {t} outside trace duration {duration}")
                seg = bisect_right(starts, offset) - 1
                seg_end = t + (ends[seg] - offset)
                if seg_end == t:
                    # The rest of the segment is below t's float resolution
                    # (a wrapped offset can land one ulp short of a segment
                    # start).  A zero step would repeat forever, so move
                    # into the next segment.
                    seg += 1
                    if seg == len(starts) and loop:
                        seg = 0
                    if seg < len(starts):
                        seg_end = t + (ends[seg] - starts[seg])
                    else:  # past the end of a non-looping trace
                        seg, seg_end = -1, float("inf")
                bw = bandwidths[seg]
            rate = bw * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION  # bytes/s
            span = seg_end - t
            if rate <= 1e-9:
                delivered = 0.0
            else:
                delivered = rate * span
            if delivered >= remaining and rate > 1e-9:
                dt = remaining / rate
                elapsed += dt
                return elapsed
            remaining -= delivered
            elapsed += span
            t = seg_end
            if elapsed > max_elapsed:
                raise RuntimeError("download exceeded one hour; trace rate is ~zero")
        return elapsed


class ChunkIndexedBandwidth(BandwidthSchedule):
    """One fixed bandwidth per chunk *download*, regardless of wall time.

    This is the replay semantics of the online ABR adversary: it fixes the
    conditions for the duration of each chunk download, so a recorded
    trace is indexed by chunk, not by wall-clock time.  Each call to
    :meth:`download_time` consumes the next entry.

    ``on_exhausted`` selects what a non-cycling schedule does once every
    entry is consumed: ``"raise"`` (the historical behaviour) fails the
    download, ``"hold"`` lets the final bandwidth persist -- mirroring
    :class:`TraceBandwidth`'s ``loop=False`` semantics, where "the last
    rate persists" past the end of the trace.  This matters for ragged
    replays in which a session outlives its recorded schedule (e.g. a
    batched-engine session whose video has more chunks than the trace
    has entries).
    """

    ON_EXHAUSTED = ("raise", "hold")

    def __init__(
        self, bandwidths_mbps, cycle: bool = False, on_exhausted: str = "raise"
    ) -> None:
        self.bandwidths_mbps = [float(b) for b in np.atleast_1d(bandwidths_mbps)]
        if not self.bandwidths_mbps or any(b <= 0 for b in self.bandwidths_mbps):
            raise ValueError("need a non-empty list of positive bandwidths")
        if on_exhausted not in self.ON_EXHAUSTED:
            raise ValueError(
                f"on_exhausted must be one of {self.ON_EXHAUSTED}, got {on_exhausted!r}"
            )
        self.cycle = cycle
        self.on_exhausted = on_exhausted
        self._index = 0
        self._rates = [
            b * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION for b in self.bandwidths_mbps
        ]

    def download_time(self, size_bytes: float, t_start: float) -> float:
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        index = self._index
        if index >= len(self._rates):
            if self.cycle:
                index = 0
            elif self.on_exhausted == "hold":
                return size_bytes / self._rates[-1]
            else:
                raise RuntimeError(
                    f"chunk-indexed schedule exhausted after {index} downloads"
                )
        self._index = index + 1
        return size_bytes / self._rates[index]


class ControlledBandwidth(BandwidthSchedule):
    """A constant download rate, reset by a controller before each chunk."""

    def __init__(self, initial_mbps: float = 1.0) -> None:
        self.set_mbps(initial_mbps)

    def set_mbps(self, bandwidth_mbps: float) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_mbps}")
        self.bandwidth_mbps = float(bandwidth_mbps)

    def download_time(self, size_bytes: float, t_start: float) -> float:
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        rate = self.bandwidth_mbps * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
        return size_bytes / rate


@dataclass(slots=True)
class ChunkResult:
    """Outcome of downloading one chunk."""

    chunk_index: int
    quality: int
    bitrate_kbps: float
    size_bytes: float
    download_seconds: float
    rebuffer_seconds: float
    sleep_seconds: float
    buffer_seconds: float
    qoe: float
    done: bool


@dataclass
class AbrObservation:
    """What an ABR protocol (and the adversary) sees between chunks.

    Matches the observation list in section 3: "the bitrate chosen by the
    protocol for the previous chunk, the client buffer occupancy, the
    possible sizes of the next chunk, the number of remaining chunks, and
    the throughput and download time for the last downloaded video chunk".
    """

    chunk_index: int
    last_quality: int | None
    buffer_seconds: float
    last_chunk_bytes: float
    last_download_seconds: float
    next_chunk_sizes: np.ndarray
    chunks_remaining: int
    throughput_history: list[tuple[float, float]] = field(default_factory=list)

    def last_throughput_mbps(self) -> float:
        """Measured throughput of the last download (0 before any chunk)."""
        if self.last_download_seconds <= 0:
            return 0.0
        return self.last_chunk_bytes * 8.0 / self.last_download_seconds / 1e6


@dataclass
class SessionResult:
    """Full-playback summary."""

    bitrates_kbps: list[float]
    rebuffer_seconds: list[float]
    download_seconds: list[float]
    buffer_seconds: list[float]
    qualities: list[int]
    qoe_total: float
    qoe_mean: float
    total_rebuffer: float
    chunks: list[ChunkResult]


class StreamingSession:
    """One client streaming one video over one bandwidth schedule."""

    def __init__(
        self,
        video: Video,
        bandwidth: BandwidthSchedule,
        weights: QoEWeights = QoEWeights(),
        history_len: int = 8,
    ) -> None:
        self.video = video
        self.bandwidth = bandwidth
        self.weights = weights
        self.history_len = history_len
        # The default linear QoE inlines to three float ops per chunk;
        # other metrics (or QoEWeights subclasses) go through chunk_qoe.
        self._linear_qoe = type(weights) is QoEWeights and weights.metric == "linear"
        self.reset()

    def reset(self) -> None:
        self.chunk_index = 0
        self.buffer_seconds = 0.0
        self.wall_time = 0.0
        self.prev_quality: int | None = None
        self.last_chunk_bytes = 0.0
        self.last_download_seconds = 0.0
        # Bounded ring of (size_bytes, download_seconds) pairs; a deque
        # with ``maxlen`` drops the oldest entry in O(1) where the old
        # ``list.pop(0)`` shifted the whole window every chunk (the same
        # shape fixed for ``MPC._errors``).  Contents are identical to
        # the list implementation at every step.
        self.throughput_history: deque[tuple[float, float]] = deque(
            maxlen=self.history_len
        )
        self.results: list[ChunkResult] = []

    @property
    def done(self) -> bool:
        return self.chunk_index >= self.video.n_chunks

    def observation(self) -> AbrObservation:
        """The protocol-facing state before the next chunk decision."""
        if self.done:
            next_sizes = np.zeros(self.video.n_bitrates)
        else:
            next_sizes = self.video.chunk_sizes_bytes[self.chunk_index].copy()
        return AbrObservation(
            chunk_index=self.chunk_index,
            last_quality=self.prev_quality,
            buffer_seconds=self.buffer_seconds,
            last_chunk_bytes=self.last_chunk_bytes,
            last_download_seconds=self.last_download_seconds,
            next_chunk_sizes=next_sizes,
            chunks_remaining=self.video.n_chunks - self.chunk_index,
            throughput_history=list(self.throughput_history),
        )

    def download_chunk(self, quality: int) -> ChunkResult:
        """Download the next chunk at ladder index ``quality``."""
        video = self.video
        chunk_index = self.chunk_index
        if chunk_index >= video.n_chunks:
            raise RuntimeError("video already finished")
        if not 0 <= quality < video.n_bitrates:
            raise ValueError(f"quality {quality} outside ladder")
        size = video._sizes_rows[chunk_index][quality]
        delay = self.bandwidth.download_time(size, self.wall_time) + LINK_RTT_S
        # `x if x > 0.0 else 0.0` is bitwise max(x, 0.0) (both keep -0.0).
        rebuffer = delay - self.buffer_seconds
        if rebuffer < 0.0:
            rebuffer = 0.0
        buffer = self.buffer_seconds - delay
        if buffer < 0.0:
            buffer = 0.0
        buffer += video.chunk_seconds
        wall_time = self.wall_time + delay

        sleep = 0.0
        if buffer > BUFFER_CAP_S:
            excess = buffer - BUFFER_CAP_S
            sleep = math.ceil(excess / SLEEP_QUANTUM_S) * SLEEP_QUANTUM_S
            buffer -= sleep
            wall_time += sleep
        self.buffer_seconds = buffer
        self.wall_time = wall_time

        bitrate = video._bitrates_f[quality]
        prev_quality = self.prev_quality
        weights = self.weights
        if self._linear_qoe:
            value = bitrate / 1000.0
            qoe = value - weights.rebuffer_penalty * rebuffer
            if prev_quality is not None:
                qoe -= weights.smooth_penalty * abs(
                    value - video._bitrates_f[prev_quality] / 1000.0
                )
        else:
            prev_bitrate = None if prev_quality is None else video._bitrates_f[prev_quality]
            qoe = chunk_qoe(bitrate, rebuffer, prev_bitrate, weights)

        self.prev_quality = quality
        self.last_chunk_bytes = size
        self.last_download_seconds = delay
        # ``maxlen`` evicts the oldest entry automatically (O(1)).
        self.throughput_history.append((size, delay))
        self.chunk_index = chunk_index + 1

        result = ChunkResult(
            chunk_index,
            quality,
            bitrate,
            size,
            delay,
            rebuffer,
            sleep,
            buffer,
            qoe,
            chunk_index + 1 >= video.n_chunks,
        )
        self.results.append(result)
        return result

    def summary(self) -> SessionResult:
        """Summarize the playback so far."""
        if not self.results:
            raise RuntimeError("no chunks downloaded yet")
        qoes = [r.qoe for r in self.results]
        total = float(sum(qoes))
        return SessionResult(
            bitrates_kbps=[r.bitrate_kbps for r in self.results],
            rebuffer_seconds=[r.rebuffer_seconds for r in self.results],
            download_seconds=[r.download_seconds for r in self.results],
            buffer_seconds=[r.buffer_seconds for r in self.results],
            qualities=[r.quality for r in self.results],
            qoe_total=total,
            qoe_mean=total / len(self.results),
            total_rebuffer=float(sum(r.rebuffer_seconds for r in self.results)),
            chunks=list(self.results),
        )
