"""Trace lookups and trace-integrated downloads against the retired search.

``Trace._segment_at`` once rebuilt ``timestamps - timestamps[0]`` and
searched it on every call, and ``TraceBandwidth.download_time`` walked a
download segment by segment through those lookups.  Both are kept here
as the oracle: the stored segment starts and the per-schedule segment
lists must reproduce them bit for bit (compared by ``float.hex``),
including the errors they raise.

The one change to the retired loop is the fix for a stall.  When a
looping download sits at a segment boundary that the float grid of its
wall time cannot resolve (``t + (end - offset) == t``), the retired loop
made no progress and never returned; both loops now move into the next
segment there.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.abr.simulator import PACKET_PAYLOAD_PORTION, TraceBandwidth
from repro.traces.trace import Trace


def reference_segment_at(trace: Trace, t: float, loop: bool) -> int:
    rel = t - trace.timestamps[0]
    if loop:
        rel = rel % trace.duration
    elif rel < 0 or rel >= trace.duration:
        raise ValueError(f"time {t} outside trace duration {trace.duration}")
    return int(np.searchsorted(trace.timestamps - trace.timestamps[0], rel, side="right") - 1)


def reference_segment_end(trace: Trace, index: int) -> float:
    if index < len(trace.timestamps) - 1:
        return float(trace.timestamps[index + 1] - trace.timestamps[0])
    return float(trace.duration)


def reference_download_time(trace: Trace, loop: bool, size_bytes: float, t_start: float) -> float:
    if size_bytes < 0:
        raise ValueError("size must be non-negative")
    remaining = float(size_bytes)
    t = float(t_start)
    elapsed = 0.0
    max_elapsed = 3600.0
    while remaining > 0:
        if not loop and t - trace.timestamps[0] >= trace.duration:
            bw = float(trace.bandwidths_mbps[-1])
            seg_end = float("inf")
        else:
            seg = reference_segment_at(trace, t, loop)
            offset = (t - trace.timestamps[0]) % trace.duration
            seg_end = reference_segment_end(trace, seg)
            seg_end = t + (seg_end - offset)
            if seg_end == t:
                seg += 1
                if seg == len(trace) and loop:
                    seg = 0
                if seg < len(trace):
                    start = trace.timestamps[seg] - trace.timestamps[0]
                    seg_end = t + (reference_segment_end(trace, seg) - start)
                else:
                    seg, seg_end = -1, float("inf")
            bw = float(trace.bandwidths_mbps[seg])
        rate = bw * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
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


def outcome(call) -> str:
    """``float.hex`` of ``call()``, or the error's type and message."""
    try:
        return float(call()).hex()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def traces(draw) -> Trace:
    """1-400 segments of uneven widths, some at zero bandwidth, starting at
    zero or not, with an explicit or an implied duration."""
    n = draw(st.integers(1, 400))
    t0 = draw(st.one_of(st.floats(1e-3, 1e3), st.just(0.0)))
    widths = draw(hnp.arrays(np.float64, n, elements=st.floats(0.01, 5.0)))
    bandwidths = draw(hnp.arrays(
        np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.1, 50.0))
    ))
    # At least one live segment, so a looping download always completes.
    bandwidths[draw(st.integers(0, n - 1))] = draw(st.floats(0.1, 50.0))
    latencies = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 500.0)))
    losses = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    timestamps = t0 + np.concatenate(([0.0], np.cumsum(widths[:-1])))
    explicit = draw(st.booleans())
    return Trace(
        timestamps=timestamps, bandwidths_mbps=bandwidths, latencies_ms=latencies,
        loss_rates=losses, duration=float(timestamps[-1] - t0 + widths[-1]) if explicit else None,
    )


@st.composite
def start_times(draw, trace: Trace) -> float:
    """A segment start, one ulp either side of it, or past the loop wrap."""
    kind = draw(st.sampled_from(["first", "start", "wrap", "end", "uniform"]))
    t0 = float(trace.timestamps[0])
    if kind == "uniform":
        return draw(st.floats(t0 - trace.duration, t0 + 3.0 * trace.duration))
    if kind == "first":
        t = t0
    elif kind == "end":
        t = t0 + trace.duration
    else:
        t = float(trace.timestamps[draw(st.integers(0, len(trace) - 1))])
        if kind == "wrap":
            t += draw(st.integers(1, 3)) * trace.duration
    return math.nextafter(t, draw(st.sampled_from([-math.inf, t, math.inf])))


@given(data=st.data(), trace=traces(), loop=st.booleans())
@settings(max_examples=150, deadline=None)
def test_lookups_match_retired_search(data, trace, loop):
    schedule = TraceBandwidth(trace, loop=loop)
    schedules = {
        "bandwidth_at": trace.bandwidths_mbps,
        "latency_at": trace.latencies_ms,
        "loss_at": trace.loss_rates,
    }
    for _ in range(data.draw(st.integers(1, 6))):
        t = data.draw(start_times(trace))
        for attr, values in schedules.items():
            want = outcome(lambda: values[reference_segment_at(trace, t, loop)])
            assert outcome(lambda: getattr(trace, attr)(t, loop)) == want
        size = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4e5)))
        want = outcome(lambda: reference_download_time(trace, loop, size, t))
        assert outcome(lambda: schedule.download_time(size, t)) == want
    for index in range(len(trace)):
        assert float(trace.segment_end(index)).hex() == reference_segment_end(trace, index).hex()
