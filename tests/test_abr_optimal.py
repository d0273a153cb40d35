"""Tests for the offline-optimal solvers (repro.abr.protocols.optimal)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.protocols import (
    MPC,
    BufferBased,
    RateBased,
    optimal_plan_dp,
    optimal_qoe_exhaustive,
    run_session,
)
from repro.abr.protocols.optimal import (
    _download_times,
    optimal_qoe_exhaustive_batch,
    optimal_qoe_exhaustive_mixed,
)
from repro.abr.qoe import QoEWeights, chunk_qoe
from repro.abr.simulator import BUFFER_CAP_S, LINK_RTT_S, PACKET_PAYLOAD_PORTION
from repro.abr.video import Video
from repro.traces.trace import Trace


@pytest.fixture
def video():
    return Video.synthetic(n_chunks=12, seed=0)


def simulate_plan(video, plan, bandwidths, start_buffer=0.0, prev_quality=None,
                  weights=QoEWeights()):
    """Reference simulation of a fixed plan under per-chunk bandwidth."""
    buffer = start_buffer
    prev = prev_quality
    total = 0.0
    for k, q in enumerate(plan):
        rate = bandwidths[k] * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
        dl = video.chunk_size(k, q) / rate + LINK_RTT_S
        rebuf = max(dl - buffer, 0.0)
        buffer = min(max(buffer - dl, 0.0) + video.chunk_seconds, BUFFER_CAP_S)
        prev_kbps = None if prev is None else float(video.bitrates_kbps[prev])
        total += chunk_qoe(float(video.bitrates_kbps[q]), rebuf, prev_kbps, weights)
        prev = q
    return total


def reference_exhaustive(video, start_chunk, bandwidths, start_buffer, prev_quality,
                         weights=QoEWeights()):
    """The retired plan-by-plan solver: the oracle for the lattice.

    Builds the full ``itertools.product`` plan table and accumulates each
    plan's QoE chunk by chunk; ``argmax`` keeps the first of equal plans.
    """
    bandwidths = np.asarray(bandwidths, dtype=float)
    steps = len(bandwidths)
    rates = bandwidths * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
    sizes = video.chunk_sizes_bytes[start_chunk : start_chunk + steps]
    downloads = sizes / rates[:, None] + LINK_RTT_S
    qualities = np.array([weights.quality(b) for b in video.bitrates_kbps])
    combos = np.array(
        list(itertools.product(range(video.n_bitrates), repeat=steps)), dtype=int
    )
    n = combos.shape[0]
    buffer = np.full(n, float(start_buffer))
    total = np.zeros(n)
    prev = None if prev_quality is None else np.full(n, qualities[prev_quality])
    for k in range(steps):
        download = downloads[k, combos[:, k]]
        rebuffer = np.maximum(download - buffer, 0.0)
        buffer = np.minimum(
            np.maximum(buffer - download, 0.0) + video.chunk_seconds, BUFFER_CAP_S
        )
        quality = qualities[combos[:, k]]
        total += quality - weights.rebuffer_penalty * rebuffer
        if prev is not None:
            total -= weights.smooth_penalty * np.abs(quality - prev)
        prev = quality
    best = int(np.argmax(total))
    return float(total[best]), combos[best].tolist()


#: Two ladders x two weightings, solved interleaved so a level-table cache
#: keyed on the wrong fields would hand one problem another's tables.
ORACLE_VIDEOS = (
    Video.synthetic(n_chunks=16, seed=1),
    Video.synthetic(n_chunks=16, seed=2, bitrates_kbps=(200, 400, 800, 1600, 3200, 6400)),
)
ORACLE_WEIGHTS = (
    QoEWeights(),
    QoEWeights(rebuffer_penalty=7.0, smooth_penalty=2.5, metric="log"),
)


#: The three public r_opt entry points, each solving one window.
SOLVERS = {
    "scalar": lambda v, s, bw, buf, prev: optimal_qoe_exhaustive(v, s, bw, buf, prev),
    "batch": lambda v, s, bw, buf, prev: optimal_qoe_exhaustive_batch(
        v, [s], [bw], [buf], [prev]
    ),
    "mixed": lambda v, s, bw, buf, prev: optimal_qoe_exhaustive_mixed(
        v, [s], [bw], [buf], [prev]
    ),
}


class TestExhaustive:
    def test_matches_brute_force(self, video):
        bandwidths = np.array([1.0, 3.5, 0.9])
        best, plan = optimal_qoe_exhaustive(video, 0, bandwidths, 2.0, 1)
        brute = max(
            simulate_plan(video, p, bandwidths, 2.0, 1)
            for p in itertools.product(range(video.n_bitrates), repeat=3)
        )
        assert best == pytest.approx(brute)
        assert simulate_plan(video, plan, bandwidths, 2.0, 1) == pytest.approx(best)

    def test_rejects_empty_and_long_windows(self, video):
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, 0, [], 0.0, None)
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, 0, np.ones(9), 0.0, None)

    def test_rejects_nonpositive_bandwidth(self, video):
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, 0, [1.0, 0.0], 0.0, None)

    def test_rejects_window_past_video_end(self, video):
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, video.n_chunks - 1, [1.0, 1.0], 0.0, None)

    @given(
        st.lists(st.floats(0.8, 4.8), min_size=4, max_size=4),
        st.floats(0.0, 30.0),
        st.sampled_from([None, 0, 2, 5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimum_dominates_any_fixed_plan(self, bandwidths, buffer, prev):
        """The claimed optimum is >= any specific plan (here: constant plans)."""
        video = Video.synthetic(n_chunks=8, seed=1)
        best, _ = optimal_qoe_exhaustive(video, 0, bandwidths, buffer, prev)
        for q in range(video.n_bitrates):
            fixed = simulate_plan(video, [q] * 4, bandwidths, buffer, prev)
            assert best >= fixed - 1e-9

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.3, 6.0), min_size=n, max_size=n),
                st.integers(0, 16 - n),
            )
        ),
        st.floats(0.0, 60.0),
        st.sampled_from([None, 0, 1, 2, 3, 4, 5]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_enumeration(self, window, buffer, prev):
        """Value bitwise and plan equal to the plan-by-plan oracle, for
        every (ladder, weights) pair in turn."""
        bandwidths, start = window
        for video in ORACLE_VIDEOS:
            for weights in ORACLE_WEIGHTS:
                expected = reference_exhaustive(
                    video, start, bandwidths, buffer, prev, weights
                )
                value, plan = optimal_qoe_exhaustive(
                    video, start, bandwidths, buffer, prev, weights
                )
                batch = optimal_qoe_exhaustive_batch(
                    video, [start], [bandwidths], [buffer], [prev], weights
                )
                assert np.float64(value).tobytes() == np.float64(expected[0]).tobytes()
                assert np.float64(batch[0]).tobytes() == np.float64(expected[0]).tobytes()
                assert plan == expected[1]

    def test_exact_tie_keeps_first_plan(self):
        """Rungs 1 and 2 are identical, so every plan using rung 2 ties with
        an earlier one using rung 1: the first-max plan never picks 2."""
        base = Video.synthetic(n_chunks=8, seed=6)
        sizes = base.chunk_sizes_bytes.copy()
        sizes[:, 2] = sizes[:, 1]
        video = Video(sizes, bitrates_kbps=(300, 750, 750, 1850, 2850, 4300))
        bandwidths = [0.9, 1.1, 0.9, 1.0]
        value, plan = optimal_qoe_exhaustive(video, 2, bandwidths, 1.0, 2)
        assert (value, plan) == reference_exhaustive(video, 2, bandwidths, 1.0, 2)
        assert 1 in plan and 2 not in plan

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize(
        "start, bandwidths, buffer, prev, match",
        [
            (0, [1.0, np.nan], 0.0, None, "finite"),
            (0, [np.inf, 1.0], 0.0, None, "finite"),
            (0, [1.0, 2.0], np.nan, None, "finite"),
            (0, [1.0, 2.0], np.inf, 1, "finite"),
            (0, [1.0, 2.0], 0.0, -1, "prev_quality"),
            (0, [1.0, 2.0], 0.0, 6, "prev_quality"),
            (-1, [1.0, 2.0], 0.0, None, "non-negative"),
        ],
    )
    def test_rejects_malformed_inputs(self, video, solver, start, bandwidths,
                                      buffer, prev, match):
        with pytest.raises(ValueError, match=match):
            SOLVERS[solver](video, start, bandwidths, buffer, prev)


def reference_download_times(video, start_chunks, bandwidths):
    """``_download_times`` with its start-chunk checks as elementwise
    compares, as they were before they became one min() and one max()."""
    if not np.isfinite(bandwidths).all():
        raise ValueError("bandwidths must be finite")
    rates = bandwidths * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
    if (rates <= 0).any():
        raise ValueError("bandwidths must be positive")
    steps = bandwidths.shape[1]
    starts = np.asarray(start_chunks, dtype=int)
    if (starts < 0).any():
        raise ValueError("start chunk must be non-negative")
    if (starts + steps > video.n_chunks).any():
        raise ValueError("bandwidth schedule runs past the end of the video")
    sizes = video.chunk_sizes_bytes[starts[:, None] + np.arange(steps)]
    return sizes / rates[:, :, None] + LINK_RTT_S


def _outcome(call):
    try:
        return call().tobytes()
    except ValueError as error:
        return str(error)


@given(
    starts=st.lists(st.integers(-2, 13), max_size=4),
    steps=st.integers(1, 5),
    bandwidth=st.sampled_from([1.5, 0.0, -1.0, np.nan, np.inf]),
)
@settings(max_examples=200, deadline=None)
def test_download_time_checks_match_elementwise_checks(starts, steps, bandwidth):
    video = Video.synthetic(n_chunks=12, seed=0)
    bandwidths = np.full((len(starts), steps), bandwidth)
    want = _outcome(lambda: reference_download_times(video, starts, bandwidths))
    assert _outcome(lambda: _download_times(video, starts, bandwidths)) == want


class TestDP:
    def test_plan_value_consistent(self):
        video = Video.synthetic(n_chunks=16, seed=2)
        rng = np.random.default_rng(0)
        bandwidths = rng.uniform(0.8, 4.8, video.n_chunks)
        total, plan = optimal_plan_dp(video, bandwidths)
        # The reported total must equal the exact simulation of the plan.
        assert total == pytest.approx(simulate_plan(video, plan, bandwidths))

    def test_dp_close_to_exhaustive_on_short_video(self):
        video = Video.synthetic(n_chunks=6, seed=3)
        bandwidths = np.array([1.0, 4.0, 0.9, 3.0, 2.0, 1.5])
        exact, _ = optimal_qoe_exhaustive(video, 0, bandwidths, 0.0, None)
        dp_total, _ = optimal_plan_dp(video, bandwidths, buffer_step_s=0.1)
        assert dp_total <= exact + 1e-9  # DP is a feasible (conservative) plan
        assert dp_total >= exact - 0.5  # ... and close to it

    def test_wrong_bandwidth_count_rejected(self):
        video = Video.synthetic(n_chunks=5, seed=0)
        with pytest.raises(ValueError):
            optimal_plan_dp(video, np.ones(3))

    def test_nan_bandwidth_rejected(self):
        video = Video.synthetic(n_chunks=5, seed=0)
        with pytest.raises(ValueError, match="finite"):
            optimal_plan_dp(video, [1.0, 2.0, np.nan, 1.0, 1.0])

    def test_optimal_beats_all_protocols(self):
        """r_opt >= r_protocol: the foundation of the adversary's reward."""
        video = Video.synthetic(n_chunks=24, seed=4)
        rng = np.random.default_rng(1)
        bandwidths = rng.uniform(0.8, 4.8, video.n_chunks)
        trace = Trace.from_steps(bandwidths, video.chunk_seconds)
        opt, _ = optimal_plan_dp(video, bandwidths)
        for policy in (MPC(), BufferBased(), RateBased()):
            result = run_session(video, trace, policy)
            assert opt >= result.qoe_total - 1e-6

    def test_low_bandwidth_start_strategy(self):
        """On a rising trace, the optimum starts low and climbs (cf. Fig 3)."""
        video = Video.synthetic(n_chunks=12, seed=5)
        bandwidths = np.linspace(0.8, 4.8, 12)
        _total, plan = optimal_plan_dp(video, bandwidths)
        assert plan[0] <= 1
        assert max(plan[-4:]) >= 4
