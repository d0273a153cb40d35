"""Tests for the rule-based ABR protocols (BB, rate-based, MPC)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.batched import BatchedMPC
from repro.abr.protocols import MPC, BufferBased, RateBased, run_session
from repro.abr.protocols.rate_based import harmonic_mean_mbps
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import (
    BUFFER_CAP_S,
    LINK_RTT_S,
    PACKET_PAYLOAD_PORTION,
    AbrObservation,
    ControlledBandwidth,
    StreamingSession,
)
from repro.abr.video import Video
from repro.traces.trace import Trace


@pytest.fixture
def video():
    return Video.synthetic(n_chunks=20, seed=0)


def make_obs(video, buffer_s, history=None, last_quality=None, chunk_index=0):
    return AbrObservation(
        chunk_index=chunk_index,
        last_quality=last_quality,
        buffer_seconds=buffer_s,
        last_chunk_bytes=history[-1][0] if history else 0.0,
        last_download_seconds=history[-1][1] if history else 0.0,
        next_chunk_sizes=video.chunk_sizes_bytes[chunk_index].copy(),
        chunks_remaining=video.n_chunks - chunk_index,
        throughput_history=history or [],
    )


class TestBufferBased:
    def test_below_reservoir_picks_lowest(self, video):
        bb = BufferBased(reservoir_s=5.0, cushion_s=10.0)
        bb.reset(video)
        assert bb.select(make_obs(video, 2.0)) == 0

    def test_above_cushion_picks_highest(self, video):
        bb = BufferBased(reservoir_s=5.0, cushion_s=10.0)
        bb.reset(video)
        assert bb.select(make_obs(video, 15.0)) == video.n_bitrates - 1
        assert bb.select(make_obs(video, 40.0)) == video.n_bitrates - 1

    def test_linear_interpolation_in_band(self, video):
        bb = BufferBased(reservoir_s=5.0, cushion_s=10.0)
        bb.reset(video)
        picks = [bb.select(make_obs(video, b)) for b in np.linspace(5.0, 14.99, 25)]
        assert picks == sorted(picks)  # monotone in buffer
        assert picks[0] == 0 and picks[-1] == video.n_bitrates - 2

    def test_switching_band(self):
        bb = BufferBased(reservoir_s=10.0, cushion_s=5.0)
        assert bb.switching_band == (10.0, 15.0)

    def test_requires_reset(self, video):
        with pytest.raises(RuntimeError):
            BufferBased().select(make_obs(video, 5.0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BufferBased(reservoir_s=-1.0)
        with pytest.raises(ValueError):
            BufferBased(cushion_s=0.0)


class TestRateBased:
    def test_no_history_picks_lowest(self, video):
        rb = RateBased()
        rb.reset(video)
        assert rb.select(make_obs(video, 5.0)) == 0

    def test_picks_highest_under_prediction(self, video):
        rb = RateBased()
        rb.reset(video)
        # History at exactly 2 Mbps -> highest ladder rate <= 2000 kbps is 1850.
        history = [(2.0e6 / 8.0, 1.0)] * 5
        choice = rb.select(make_obs(video, 5.0, history=history))
        assert video.bitrates_kbps[choice] == 1850

    def test_safety_factor(self, video):
        rb = RateBased(safety=0.5)
        rb.reset(video)
        history = [(2.0e6 / 8.0, 1.0)] * 5
        choice = rb.select(make_obs(video, 5.0, history=history))
        assert video.bitrates_kbps[choice] == 750  # <= 1000 kbps

    def test_invalid_safety(self):
        with pytest.raises(ValueError):
            RateBased(safety=0.0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_invalid_window(self, window):
        with pytest.raises(ValueError, match="window"):
            RateBased(window=window)
        # A window of 0 would average the whole history, -1 all but the
        # oldest sample.
        with pytest.raises(ValueError, match="window"):
            harmonic_mean_mbps([(1e6, 1.0), (2e6, 1.0)], window)


class TestMPC:
    def test_first_decision_is_conservative(self, video):
        mpc = MPC()
        mpc.reset(video)
        assert mpc.select(make_obs(video, 0.0)) == 0

    def test_high_throughput_high_buffer_picks_high(self, video):
        mpc = MPC()
        mpc.reset(video)
        history = [(5.0e6 / 8.0, 1.0)] * 5  # 5 Mbps measured
        choice = mpc.select(
            make_obs(video, 25.0, history=history, last_quality=5, chunk_index=5)
        )
        assert choice >= 4

    def test_low_throughput_picks_low(self, video):
        mpc = MPC()
        mpc.reset(video)
        history = [(0.4e6 / 8.0, 1.0)] * 5  # 0.4 Mbps measured
        choice = mpc.select(
            make_obs(video, 2.0, history=history, last_quality=0, chunk_index=5)
        )
        assert choice == 0

    def test_robust_discount_reduces_choice(self, video):
        """After a large prediction error, robust MPC is more conservative."""
        plain = MPC(robust=False)
        robust = MPC(robust=True)
        for mpc in (plain, robust):
            mpc.reset(video)
            # First call installs a prediction of ~4 Mbps.
            mpc.select(make_obs(video, 10.0, history=[(4.0e6 / 8.0, 1.0)] * 5,
                                last_quality=2, chunk_index=3))
        # Actual throughput then measured far below the prediction.
        obs = make_obs(video, 10.0, history=[(4.0e6 / 8.0, 1.0)] * 4 + [(1.0e6 / 8.0, 1.0)],
                       last_quality=2, chunk_index=4)
        assert robust.select(obs) <= plain.select(obs)

    def test_requires_reset(self, video):
        with pytest.raises(RuntimeError):
            MPC().select(make_obs(video, 5.0))

    def test_invalid_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            MPC(horizon=0)
        # 6^9 plans per decision: rejected up front, not at the first
        # decision with the r_opt solver's message.
        with pytest.raises(ValueError, match="horizon"):
            MPC(horizon=9)

    @pytest.mark.parametrize("window", [0, -1])
    def test_invalid_window(self, window):
        with pytest.raises(ValueError, match="window"):
            MPC(window=window)

    def test_horizon_truncated_at_video_end(self, video):
        mpc = MPC(horizon=5)
        mpc.reset(video)
        obs = make_obs(video, 10.0, history=[(2e6 / 8, 1.0)] * 5,
                       last_quality=2, chunk_index=video.n_chunks - 2)
        assert 0 <= mpc.select(obs) < video.n_bitrates


class TestProtocolOrdering:
    def test_mpc_beats_bb_on_benign_traces(self):
        """On stable traces, lookahead control should dominate BB."""
        video = Video.synthetic(n_chunks=48, seed=3)
        trace = Trace.constant(3.0, 500.0)
        mpc_q = run_session(video, trace, MPC()).qoe_mean
        bb_q = run_session(video, trace, BufferBased()).qoe_mean
        assert mpc_q > bb_q

    def test_all_protocols_complete_on_harsh_trace(self):
        video = Video.synthetic(n_chunks=20, seed=4)
        trace = Trace.from_steps([0.2, 3.0, 0.1, 4.0] * 10, 4.0)
        for policy in (MPC(), BufferBased(), RateBased()):
            result = run_session(video, trace, policy)
            assert len(result.qualities) == video.n_chunks


def reference_mpc_choice(video, weights, obs, horizon, window=5, buffer_cap_s=None):
    """The retired flat plan scan: the oracle for MPC's lookahead.

    Scores every ``n_bitrates ** steps`` plan, listed in
    ``itertools.product`` order, chunk by chunk against the throughput a
    fresh MPC predicts from ``obs`` (the harmonic mean, undiscounted), and
    returns the first step of the first-max plan.  MPC's lookahead never
    caps the buffer; ``buffer_cap_s`` adds the simulator's cap to show
    states where that matters.
    """
    predicted = harmonic_mean_mbps(obs.throughput_history, window)
    if predicted <= 0:
        return 0
    steps = min(horizon, obs.chunks_remaining)
    combos = np.array(
        list(itertools.product(range(video.n_bitrates), repeat=steps)), dtype=int
    )
    n = combos.shape[0]
    rate = predicted * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
    qualities = np.array([weights.quality(b) for b in video.bitrates_kbps])
    buffer = np.full(n, obs.buffer_seconds)
    total = np.zeros(n)
    prev = None if obs.last_quality is None else np.full(n, qualities[obs.last_quality])
    for k in range(steps):
        sizes = video.chunk_sizes_bytes[obs.chunk_index + k, combos[:, k]]
        download = sizes / rate + LINK_RTT_S
        rebuffer = np.maximum(download - buffer, 0.0)
        buffer = np.maximum(buffer - download, 0.0) + video.chunk_seconds
        if buffer_cap_s is not None:
            buffer = np.minimum(buffer, buffer_cap_s)
        quality = qualities[combos[:, k]]
        total += quality - weights.rebuffer_penalty * rebuffer
        if prev is not None:
            total -= weights.smooth_penalty * np.abs(quality - prev)
        prev = quality
    return int(combos[int(np.argmax(total)), 0])


class _StubSession:
    """The session surface BatchedMPC reads: a video and one observation."""

    def __init__(self, video, obs):
        self.video = video
        self._obs = obs

    def observation(self):
        return self._obs


def batched_mpc_choices(policy, states):
    """One BatchedMPC round over ``(video, observation)`` lanes."""
    adapter = BatchedMPC(policy)
    sessions = [_StubSession(video, obs) for video, obs in states]
    for lane, session in enumerate(sessions):
        adapter.start(lane, session, np.random.default_rng(lane))
    return [int(a) for a in adapter.select(list(range(len(states))), sessions)]


#: Short videos, so random chunk positions often truncate the lookahead
#: at the video tail; a 6- and a 3-bitrate ladder, mixed within batches.
ORACLE_VIDEOS = (
    Video.synthetic(n_chunks=10, seed=1),
    Video.synthetic(n_chunks=10, seed=2, bitrates_kbps=(300, 1200, 4300)),
)
ORACLE_WEIGHTS = (
    QoEWeights(),
    QoEWeights(rebuffer_penalty=7.0, smooth_penalty=2.5, metric="log"),
)


@st.composite
def mpc_states(draw):
    video = draw(st.sampled_from(ORACLE_VIDEOS))
    chunk = draw(st.integers(0, video.n_chunks - 1))
    buffer = draw(st.floats(0.0, 60.0))
    predicted = draw(st.floats(0.05, 8.0))
    last = draw(st.sampled_from([None, *range(video.n_bitrates)]))
    history = [(predicted * 1e6 / 8.0, 1.0)]
    obs = make_obs(video, buffer, history=history, last_quality=last, chunk_index=chunk)
    return video, obs


class TestMpcOracle:
    """Serial and batched MPC pick the flat scan's choice, bit for bit."""

    @given(
        horizon=st.integers(1, 5),
        weights=st.sampled_from(ORACLE_WEIGHTS),
        state=mpc_states(),
    )
    @settings(max_examples=80, deadline=None)
    def test_serial_matches_reference(self, horizon, weights, state):
        video, obs = state
        mpc = MPC(horizon=horizon, weights=weights)
        mpc.reset(video)
        assert mpc.select(obs) == reference_mpc_choice(video, weights, obs, horizon)

    @given(
        width=st.sampled_from([1, 7, 32]),
        horizon=st.integers(1, 5),
        weights=st.sampled_from(ORACLE_WEIGHTS),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_matches_reference(self, width, horizon, weights, data):
        states = data.draw(st.lists(mpc_states(), min_size=width, max_size=width))
        choices = batched_mpc_choices(MPC(horizon=horizon, weights=weights), states)
        assert choices == [
            reference_mpc_choice(video, weights, obs, horizon) for video, obs in states
        ]

    @pytest.mark.parametrize("width", [1, 7, 32])
    def test_exact_tie_keeps_first_plan(self, width):
        """Rungs 1 and 2 are identical, so every plan starting on rung 2
        ties exactly with the same plan starting on rung 1: the first step
        of the first best plan is never 2, serially or at any lane width."""
        base = Video.synthetic(n_chunks=8, seed=6)
        sizes = base.chunk_sizes_bytes.copy()
        sizes[:, 2] = sizes[:, 1]
        video = Video(sizes, bitrates_kbps=(300, 750, 750, 1850, 2850, 4300))
        rng = np.random.default_rng(20)
        states = []
        for _ in range(64):
            chunk = int(rng.integers(0, video.n_chunks))
            predicted = float(rng.uniform(0.6, 2.0))
            last = [None, *range(video.n_bitrates)][int(rng.integers(0, 7))]
            obs = make_obs(video, float(rng.uniform(0.0, 12.0)),
                           history=[(predicted * 1e6 / 8.0, 1.0)],
                           last_quality=last, chunk_index=chunk)
            states.append((video, obs))
        for horizon in (1, 3, 5):
            for weights in ORACLE_WEIGHTS:
                expected = [
                    reference_mpc_choice(video, weights, obs, horizon) for _, obs in states
                ]
                assert 1 in expected and 2 not in expected
                serial = []
                for _, obs in states:
                    mpc = MPC(horizon=horizon, weights=weights)
                    mpc.reset(video)
                    serial.append(mpc.select(obs))
                assert serial == expected
                batched = []
                for lo in range(0, len(states), width):
                    batched += batched_mpc_choices(
                        MPC(horizon=horizon, weights=weights), states[lo : lo + width]
                    )
                assert batched == expected

    @pytest.mark.parametrize(
        "video, chunk, predicted, buffer, last",
        [
            (Video.synthetic(n_chunks=20, seed=0), 0, 0.5, 59.0, 0),
            (Video.synthetic(n_chunks=20, seed=0), 5, 0.65, 58.5, 0),
            (ORACLE_VIDEOS[1], 1, 0.55, 58.0, 0),
        ],
        ids=["6-bitrate-start", "6-bitrate-mid", "3-bitrate"],
    )
    def test_lookahead_buffer_is_uncapped(self, video, chunk, predicted, buffer, last):
        """A lookahead that capped the buffer at BUFFER_CAP_S picks another
        action in these near-full-buffer, low-throughput states."""
        obs = make_obs(video, buffer, history=[(predicted * 1e6 / 8.0, 1.0)],
                       last_quality=last, chunk_index=chunk)
        weights = QoEWeights()
        expected = reference_mpc_choice(video, weights, obs, 5)
        assert expected != reference_mpc_choice(
            video, weights, obs, 5, buffer_cap_s=BUFFER_CAP_S
        )
        mpc = MPC()
        mpc.reset(video)
        assert mpc.select(obs) == expected
        assert batched_mpc_choices(MPC(), [(video, obs)] * 3) == [expected] * 3


class TestMpcLadderSwitch:
    """Regression: a reset onto a video with another bitrate count must
    not reuse the previous ladder's plan state (stale 6-bitrate plans
    indexed past a 3-bitrate ladder)."""

    def test_choices_follow_the_ladder(self, video):
        narrow = Video.synthetic(n_chunks=20, seed=1, bitrates_kbps=(300, 750, 1200))
        mpc = MPC(horizon=3, robust=False)
        history = [(5.0e6 / 8.0, 1.0)] * 5
        for current in (video, narrow, video):
            mpc.reset(current)
            for chunk in (5, 12, current.n_chunks - 2, current.n_chunks - 1):
                obs = make_obs(current, 15.0, history=history, last_quality=2,
                               chunk_index=chunk)
                choice = mpc.select(obs)
                assert 0 <= choice < current.n_bitrates
                assert choice == reference_mpc_choice(current, mpc.weights, obs, 3)
