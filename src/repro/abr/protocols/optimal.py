"""Offline-optimal ABR given known future per-chunk bandwidth.

Two solvers:

- :func:`optimal_qoe_exhaustive` -- exact maximum QoE over a short window
  by searching every plan.  This computes the adversary's ``r_opt``:
  "the highest possible QoE over the last 4 network changes" (section 3).
  The ``_batch``/``_mixed`` variants solve many windows on the same lattice.
- :func:`optimal_plan_dp` -- full-video optimum by dynamic programming
  over a discretized buffer, used for the "Offline Optimum" overlay in
  Figure 3.

Both assume the per-chunk bandwidth schedule of the online adversary:
conditions are fixed for the duration of each chunk download, which makes
the download time of chunk ``i`` at quality ``q`` simply
``size(i, q) / rate_i + RTT``.
"""

from __future__ import annotations

import numpy as np

from repro.abr.qoe import QoEWeights
from repro.abr.simulator import BUFFER_CAP_S, LINK_RTT_S, PACKET_PAYLOAD_PORTION
from repro.abr.video import Video

__all__ = [
    "optimal_plan_dp",
    "optimal_qoe_exhaustive",
    "optimal_qoe_exhaustive_batch",
    "optimal_qoe_exhaustive_mixed",
]

#: Per-(ladder, weights) quality-score vectors and per-(ladder, weights,
#: window) lattice smoothing rows: pure functions of their key, reused
#: across the millions of solver calls a training run makes.  Unhashable
#: weights (exotic subclasses) skip the cache.
_QUALITY_CACHE: dict[tuple, np.ndarray] = {}
_SMOOTH_CACHE: dict[tuple, tuple] = {}


def _cached(cache: dict, key: tuple, build):
    try:
        value = cache.get(key)
    except TypeError:
        return build()
    if value is None:
        value = cache[key] = build()
    return value


def _quality_table(video: Video, weights: QoEWeights) -> np.ndarray:
    return _cached(
        _QUALITY_CACHE,
        (video.bitrates_kbps, type(weights), weights),
        lambda: np.array([weights.quality(b) for b in video.bitrates_kbps]),
    )


def _smooth_rows(video: Video, weights: QoEWeights, steps: int) -> tuple:
    """The smoothing penalty of each lattice level's last switch.

    Level 0's is an ``(n_bitrates + 1, 1, n_bitrates)`` table indexed by
    the window's previous quality, whose last row (no previous chunk) is 0.
    Level k >= 1 has one entry per column of that level of
    :func:`_plan_values`, ``(c_k, c_{k-1}, older choices)``: the (next,
    previous) penalty table flattened, each entry repeated over the
    ``n_bitrates ** (k - 1)`` older prefixes.
    """

    def build() -> tuple:
        qualities = _quality_table(video, weights)
        # switch[p, c]: the penalty of moving from quality p to quality c.
        switch = weights.smooth_penalty * np.abs(qualities - qualities[:, None])
        first = np.vstack([switch, np.zeros(len(qualities))])[:, None, :]
        return (first,) + tuple(
            np.repeat(switch.T.ravel(), len(qualities) ** (k - 1)) for k in range(1, steps)
        )

    return _cached(
        _SMOOTH_CACHE, (video.bitrates_kbps, type(weights), weights, steps), build
    )


def _download_times(video: Video, start_chunks, bandwidths: np.ndarray) -> np.ndarray:
    """Download times (s), ``(B, steps, n_bitrates)``, of ``B`` windows from
    ``start_chunks`` under per-chunk ``bandwidths`` (Mbps, ``(B, steps)``)."""
    if not np.isfinite(bandwidths).all():
        raise ValueError("bandwidths must be finite")
    rates = bandwidths * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
    if (rates <= 0).any():
        raise ValueError("bandwidths must be positive")
    steps = bandwidths.shape[1]
    starts = np.asarray(start_chunks, dtype=int)
    # One reduction per bound is cheaper on these short rows than an
    # elementwise compare and any(); an empty batch has nothing to check.
    if starts.size:
        if starts.min() < 0:
            raise ValueError("start chunk must be non-negative")
        if starts.max() + steps > video.n_chunks:
            raise ValueError("bandwidth schedule runs past the end of the video")
    sizes = video.chunk_sizes_bytes[starts[:, None] + np.arange(steps)]
    return sizes / rates[:, :, None] + LINK_RTT_S


def _plan_values(
    video: Video,
    start_chunks,
    bandwidths: np.ndarray,
    start_buffers_s,
    prev_qualities,
    weights: QoEWeights,
    cap_buffer: bool = True,
) -> np.ndarray:
    """QoE of every plan for ``B`` equal-length windows: ``(B, n_bitrates ** steps)``.

    The search runs over a *prefix-expanding* lattice: level k holds one
    partial plan per choice prefix ``(c_0, ..., c_k)`` and broadcasts
    each against all next choices into level k+1, so shared prefixes --
    identical buffer states and partial sums -- are computed once instead
    of ``n_bitrates ** (steps - k)`` times.  Each plan's value is still the
    left-to-right per-chunk sum of its QoE terms, exactly as a
    plan-by-plan enumeration computes it.  ``cap_buffer=False`` lets the
    simulated buffer grow past ``BUFFER_CAP_S``, as MPC's lookahead does.

    Level k is laid out as ``(B, c_k, c_{k-1}, ..., c_0)``: each
    expansion puts the newest choice outermost, so every broadcast's
    inner loop runs along the older prefixes (1,296 wide at MPC's 5-chunk
    horizon, 216 at ``r_opt``'s 4-chunk window) instead of along the
    ladder.  Column ``j`` of the result is therefore the plan
    ``(c_0, ..., c_{steps-1})`` with ``j = sum(c_i * n_bitrates ** i)``:
    its first step is ``j % n_bitrates``, and a row reshaped to
    ``(n_bitrates,) * steps`` and transposed is in ``itertools.product``
    order.
    """
    if bandwidths.ndim != 2:
        raise ValueError("bandwidth_windows must be (batch, window)")
    n_batch, steps = bandwidths.shape
    if steps == 0:
        raise ValueError("empty bandwidth window")
    if steps > 8:
        raise ValueError("exhaustive search limited to 8 chunks; use optimal_plan_dp")
    downloads = _download_times(video, start_chunks, bandwidths)
    start_buffers = np.asarray(start_buffers_s, dtype=float)
    if not np.isfinite(start_buffers).all():
        raise ValueError("start buffers must be finite")
    n_b = video.n_bitrates
    if any(q is not None and not 0 <= q < n_b for q in prev_qualities):
        raise ValueError(f"prev_quality must be None or in [0, {n_b})")
    # Row n_b of level 0's smoothing table is the no-previous-chunk row.
    prev_idx = np.array([n_b if q is None else q for q in prev_qualities], dtype=np.intp)

    qualities = _quality_table(video, weights)[:, None]
    smooth = _smooth_rows(video, weights, steps)
    # Buffers and partial sums are carried as (B, 1, width), width =
    # prefixes so far, ready to broadcast against a level's downloads.
    buffer = start_buffers[:, None, None]
    total = np.zeros((n_batch, 1, 1))
    for k in range(steps):
        # Expand every prefix j with every next choice c as a (B, n_b,
        # width) broadcast, flattened so child c * width + j keeps the
        # newest choice outermost.  The in-place ops reuse the level's
        # fresh arrays instead of allocating a temporary per op (the
        # widest level is MBs at MPC's horizon); each element still sees
        # the plan-by-plan op chain, as + and * commute exactly.
        download = downloads[:, k, :, None]
        gain = download - buffer
        np.maximum(gain, 0.0, out=gain)  # rebuffer
        if k < steps - 1:  # nothing reads the last level's buffer
            after = buffer - download
            np.maximum(after, 0.0, out=after)
            after += video.chunk_seconds
            if cap_buffer:
                np.minimum(after, BUFFER_CAP_S, out=after)
            buffer = after.reshape(n_batch, 1, -1)
        gain *= weights.rebuffer_penalty
        np.subtract(qualities, gain, out=gain)
        gain += total
        total = gain.reshape(n_batch, 1, -1)
        total -= smooth[0][prev_idx] if k == 0 else smooth[k]
    return total.reshape(n_batch, -1)


def optimal_qoe_exhaustive(
    video: Video,
    start_chunk: int,
    bandwidths_mbps,
    start_buffer_s: float,
    prev_quality: int | None,
    weights: QoEWeights = QoEWeights(),
) -> tuple[float, list[int]]:
    """Exact max QoE over ``len(bandwidths_mbps)`` chunks; returns (qoe, plan).

    Searches all ``n_bitrates ** window`` plans (windows up to 8 chunks);
    ties go to the first plan in ``itertools.product`` order.
    """
    bandwidths = np.asarray(bandwidths_mbps, dtype=float)
    values = _plan_values(
        video, [start_chunk], bandwidths[None, :], [start_buffer_s], [prev_quality], weights
    )
    # The lattice's axes run c_{steps-1}, ..., c_0: reversed, the row is in
    # itertools.product order and a first-max argmax is the first best plan.
    shape = (video.n_bitrates,) * len(bandwidths)
    ordered = values.reshape(shape).transpose().ravel()
    best = int(np.argmax(ordered))
    return float(ordered[best]), [int(q) for q in np.unravel_index(best, shape)]


def optimal_qoe_exhaustive_batch(
    video: Video,
    start_chunks,
    bandwidth_windows,
    start_buffers_s,
    prev_qualities,
    weights: QoEWeights = QoEWeights(),
) -> np.ndarray:
    """Exact max QoE for a *batch* of equal-length windows; returns ``(B,)``.

    Vectorized across ``B`` independent windows (one per parallel env) on
    the lattice of :func:`optimal_qoe_exhaustive`.  Each row b solves the
    same problem as::

        optimal_qoe_exhaustive(video, start_chunks[b], bandwidth_windows[b],
                               start_buffers_s[b], prev_qualities[b], weights)[0]

    and produces the identical value, bit for bit: every op of the
    lattice is elementwise, so a row's values do not depend on the rows
    beside it.  ``prev_qualities`` entries may be ``None`` (no previous
    chunk, i.e. an episode's first window).
    """
    return _plan_values(
        video,
        start_chunks,
        np.asarray(bandwidth_windows, dtype=float),
        start_buffers_s,
        prev_qualities,
        weights,
    ).max(axis=1)


def optimal_qoe_exhaustive_mixed(
    video: Video,
    start_chunks,
    bandwidth_windows,
    start_buffers_s,
    prev_qualities,
    weights: QoEWeights = QoEWeights(),
) -> np.ndarray:
    """Exact max QoE for a batch of *ragged* windows; returns ``(B,)``.

    Generalizes :func:`optimal_qoe_exhaustive_batch` to windows of mixed
    lengths.  Windows are grouped by length and each group runs one
    lattice sweep; results come back in input order, each entry bitwise
    equal to::

        optimal_qoe_exhaustive(video, start_chunks[b], bandwidth_windows[b],
                               start_buffers_s[b], prev_qualities[b], weights)[0]
    """
    n = len(bandwidth_windows)
    values = np.empty(n)
    by_len: dict[int, list[int]] = {}
    for i, window in enumerate(bandwidth_windows):
        by_len.setdefault(len(window), []).append(i)
    for idxs in by_len.values():
        values[idxs] = optimal_qoe_exhaustive_batch(
            video,
            start_chunks=[start_chunks[i] for i in idxs],
            bandwidth_windows=[bandwidth_windows[i] for i in idxs],
            start_buffers_s=[start_buffers_s[i] for i in idxs],
            prev_qualities=[prev_qualities[i] for i in idxs],
            weights=weights,
        )
    return values


def optimal_plan_dp(
    video: Video,
    bandwidths_mbps,
    weights: QoEWeights = QoEWeights(),
    buffer_step_s: float = 0.25,
    start_buffer_s: float = 0.0,
) -> tuple[float, list[int]]:
    """Full-video offline optimum via backward DP over (chunk, prev, buffer).

    The buffer is discretized to ``buffer_step_s`` (new buffers round
    *down*, so the returned value is a slightly conservative bound and the
    plan is feasible).  Returns ``(total_qoe, plan)``.
    """
    bandwidths = np.asarray(bandwidths_mbps, dtype=float)
    if len(bandwidths) != video.n_chunks:
        raise ValueError(
            f"need one bandwidth per chunk ({video.n_chunks}), got {len(bandwidths)}"
        )
    downloads = _download_times(video, [0], bandwidths[None, :])[0]
    qualities = _quality_table(video, weights)
    nq = video.n_bitrates
    grid = np.arange(0.0, BUFFER_CAP_S + buffer_step_s, buffer_step_s)
    nb = len(grid)

    # value[p, b]: best attainable QoE from the current chunk onward, given
    # previous quality p (nq == "no previous chunk" sentinel) and buffer b.
    value = np.zeros((nq + 1, nb))
    choice = np.zeros((video.n_chunks, nq + 1, nb), dtype=np.int8)
    for i in reversed(range(video.n_chunks)):
        # gains[q, b]: quality & rebuffer part + future value, before smoothness.
        gains = np.empty((nq, nb))
        for q in range(nq):
            dl = downloads[i, q]
            rebuffer = np.maximum(dl - grid, 0.0)
            new_buffer = np.minimum(np.maximum(grid - dl, 0.0) + video.chunk_seconds,
                                    BUFFER_CAP_S)
            idx = np.minimum((new_buffer / buffer_step_s).astype(int), nb - 1)
            gains[q] = (
                qualities[q] - weights.rebuffer_penalty * rebuffer + value[q, idx]
            )
        new_value = np.empty((nq + 1, nb))
        for p in range(nq + 1):
            if p < nq:
                smooth = weights.smooth_penalty * np.abs(qualities - qualities[p])
            else:
                smooth = np.zeros(nq)
            scored = gains - smooth[:, None]
            best_q = np.argmax(scored, axis=0)
            new_value[p] = scored[best_q, np.arange(nb)]
            choice[i, p] = best_q
        value = new_value

    # Forward pass: execute the stored decisions with the *exact* buffer.
    plan: list[int] = []
    buffer = float(start_buffer_s)
    prev = nq
    total = 0.0
    prev_bitrate: float | None = None
    for i in range(video.n_chunks):
        b_idx = min(int(buffer / buffer_step_s), nb - 1)
        q = int(choice[i, prev, b_idx])
        dl = downloads[i, q]
        rebuffer = max(dl - buffer, 0.0)
        buffer = min(max(buffer - dl, 0.0) + video.chunk_seconds, BUFFER_CAP_S)
        gain = qualities[q] - weights.rebuffer_penalty * rebuffer
        if prev_bitrate is not None:
            gain -= weights.smooth_penalty * abs(qualities[q] - prev_bitrate)
        total += gain
        prev_bitrate = qualities[q]
        plan.append(q)
        prev = q
    return float(total), plan
