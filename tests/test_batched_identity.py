"""Differential identity layer: batched engine vs serial path, bitwise.

The contract under test (see ``repro/abr/batched.py``): for every ABR
protocol, playing a frozen corpus through the
:class:`~repro.abr.batched.BatchedSessionEngine` at any batch width
produces :class:`~repro.abr.simulator.SessionResult`s whose every float
is **byte-for-byte** equal to the serial :func:`run_session` loop --
including ragged batches where sessions finish at different chunk
counts and lanes are refilled mid-run.

Float comparisons go through ``tobytes()`` so that even a sign-flipped
zero or an off-by-one-ulp drift fails loudly.
"""

import numpy as np
import pytest

from repro.abr.batched import (
    BatchedSessionEngine,
    SessionSpec,
    resolve_batch_size,
    run_batched_sessions,
)
from repro.abr.features import feature_dim
from repro.abr.protocols import MPC, BufferBased, RateBased, run_session
from repro.abr.protocols.bola import Bola
from repro.abr.protocols.pensieve import PensieveAgent
from repro.abr.video import Video
from repro.rl.policy import ActorCritic
from repro.rl.running_stat import RunningMeanStd
from repro.rl.spaces import Discrete
from repro.traces.trace import Trace

BATCH_SIZES = (1, 2, 7, 32)

# -- frozen corpus -----------------------------------------------------------
#
# Three videos of different lengths (so sessions retire at different
# chunk rounds: the ragged case) x six traces, half replayed
# chunk-indexed, half by wall-clock time.


@pytest.fixture(scope="module")
def videos():
    return [
        Video.synthetic(n_chunks=20, seed=0),
        Video.synthetic(n_chunks=13, seed=1),
        Video.synthetic(n_chunks=20, seed=2),
    ]


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(7)
    return [
        Trace.from_steps(rng.uniform(0.4, 5.5, size=12), 4.0, name=f"t{i}")
        for i in range(6)
    ]


@pytest.fixture(scope="module")
def corpus(videos, traces):
    return [
        SessionSpec(
            video=video, bandwidth=trace, chunk_indexed=(i % 2 == 0)
        )
        for i, trace in enumerate(traces)
        for video in videos
    ]


def make_pensieve(deterministic: bool = True) -> PensieveAgent:
    policy = ActorCritic(
        feature_dim(6), Discrete(6), hidden=(64, 32),
        rng=np.random.default_rng(3),
    )
    obs_rms = RunningMeanStd(shape=(feature_dim(6),))
    obs_rms.update(np.random.default_rng(4).uniform(0.0, 3.0, size=(64, feature_dim(6))))
    return PensieveAgent(policy, obs_rms=obs_rms, deterministic=deterministic)


class TopRung(BufferBased):
    """A BB subclass with a rule of its own: always the top rung."""

    def reset(self, video: Video) -> None:
        super().reset(video)
        self.top = video.n_bitrates - 1

    def select(self, observation) -> int:
        return self.top


PROTOCOLS = {
    "bb": BufferBased,
    "bb-subclass": TopRung,  # must not be served by BB's vectorized adapter
    "bola": Bola,
    "mpc": lambda: MPC(horizon=4),
    "rb": RateBased,  # exercises the GenericBatched fallback adapter
    "pensieve": make_pensieve,
}


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_sessions_identical(a, b) -> None:
    """Bitwise SessionResult equality (floats compared as raw bytes)."""
    assert a.qualities == b.qualities
    assert _bytes(a.bitrates_kbps) == _bytes(b.bitrates_kbps)
    assert _bytes(a.rebuffer_seconds) == _bytes(b.rebuffer_seconds)
    assert _bytes(a.download_seconds) == _bytes(b.download_seconds)
    assert _bytes(a.buffer_seconds) == _bytes(b.buffer_seconds)
    assert _bytes([a.qoe_total, a.qoe_mean, a.total_rebuffer]) == _bytes(
        [b.qoe_total, b.qoe_mean, b.total_rebuffer]
    )
    assert len(a.chunks) == len(b.chunks)
    for ca, cb in zip(a.chunks, b.chunks):
        assert (ca.chunk_index, ca.quality, ca.done) == (cb.chunk_index, cb.quality, cb.done)
        assert _bytes(
            [ca.bitrate_kbps, ca.size_bytes, ca.download_seconds,
             ca.rebuffer_seconds, ca.sleep_seconds, ca.buffer_seconds, ca.qoe]
        ) == _bytes(
            [cb.bitrate_kbps, cb.size_bytes, cb.download_seconds,
             cb.rebuffer_seconds, cb.sleep_seconds, cb.buffer_seconds, cb.qoe]
        )


def serial_reference(corpus, factory):
    policy = factory()
    return [
        run_session(
            spec.video, spec.bandwidth, policy,
            weights=spec.weights, chunk_indexed=spec.chunk_indexed,
        )
        for spec in corpus
    ]


class TestSerialBatchedIdentity:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_bitwise_equal_at_every_width(self, corpus, name, batch_size):
        serial = serial_reference(corpus, PROTOCOLS[name])
        batched = run_batched_sessions(corpus, PROTOCOLS[name](), batch_size)
        for a, b in zip(serial, batched):
            assert_sessions_identical(a, b)

    def test_corpus_is_ragged(self, corpus):
        """The fixture really exercises uneven retirement + lane refill."""
        lengths = {spec.video.n_chunks for spec in corpus}
        assert len(lengths) > 1


class TestBatchInvariance:
    """Session results are independent of batch composition and order."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_solo_equals_shuffled_batch(self, corpus, name):
        solo = [
            run_batched_sessions([spec], PROTOCOLS[name](), 1)[0]
            for spec in corpus
        ]
        for perm_seed in (0, 1, 2):
            order = np.random.default_rng(perm_seed).permutation(len(corpus))
            shuffled = [corpus[i] for i in order]
            batched = run_batched_sessions(shuffled, PROTOCOLS[name](), 7)
            for pos, i in enumerate(order):
                assert_sessions_identical(solo[i], batched[pos])

    def test_stochastic_rng_streams_never_cross_contaminate(self, corpus):
        """Per-session RNG streams depend only on the session's seed.

        A stochastic Pensieve session must consume exactly its own
        stream: evaluating it alone, or inside any permutation of the
        full batch, yields identical bytes.  (The serial reference for
        stochastic batched evaluation is the engine at batch size 1 --
        the serial ``PensieveAgent`` threads one generator across all
        sessions, which no batch order could or should reproduce.)
        """
        seeded = [
            SessionSpec(
                video=spec.video, bandwidth=spec.bandwidth,
                chunk_indexed=spec.chunk_indexed, weights=spec.weights,
                seed=100 + i,
            )
            for i, spec in enumerate(corpus)
        ]
        factory = lambda: make_pensieve(deterministic=False)  # noqa: E731
        solo = [run_batched_sessions([spec], factory(), 1)[0] for spec in seeded]
        for perm_seed in (0, 1):
            order = np.random.default_rng(perm_seed).permutation(len(seeded))
            batched = run_batched_sessions([seeded[i] for i in order], factory(), 5)
            for pos, i in enumerate(order):
                assert_sessions_identical(solo[i], batched[pos])

    def test_engine_batch1_matches_serial_pensieve_stochastic(self, videos, traces):
        """At width 1 the engine is bitwise-serial even for sampling.

        ``SessionSpec.seed = s`` spins up ``default_rng(SeedSequence(s))``
        -- the same stream ``PensieveAgent(seed=s)`` draws from -- and a
        one-lane forward has the exact serial shapes.
        """
        spec = SessionSpec(video=videos[0], bandwidth=traces[0], seed=42)
        agent = make_pensieve(deterministic=False)
        agent._rng = np.random.default_rng(42)
        serial = run_session(spec.video, spec.bandwidth, agent)
        batched = run_batched_sessions(
            [spec], make_pensieve(deterministic=False), 1
        )[0]
        assert_sessions_identical(serial, batched)


class TestEngineBasics:
    def test_resolve_batch_size(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        assert resolve_batch_size(None) == 0
        assert resolve_batch_size(4) == 4
        monkeypatch.setenv("REPRO_BATCH_SIZE", "16")
        assert resolve_batch_size(None) == 16
        assert resolve_batch_size(2) == 2
        monkeypatch.setenv("REPRO_BATCH_SIZE", "nope")
        with pytest.raises(ValueError):
            resolve_batch_size(None)
        with pytest.raises(ValueError):
            resolve_batch_size(-1)

    def test_resolve_batch_size_env_errors_name_the_variable(self, monkeypatch):
        # A malformed or negative $REPRO_BATCH_SIZE must blame the
        # environment variable, not some callsite argument.
        for bad in ("2.5", "nan", "16x", "- 1"):
            monkeypatch.setenv("REPRO_BATCH_SIZE", bad)
            with pytest.raises(ValueError, match=r"\$REPRO_BATCH_SIZE"):
                resolve_batch_size(None)
        monkeypatch.setenv("REPRO_BATCH_SIZE", "-3")
        with pytest.raises(ValueError, match=r"\$REPRO_BATCH_SIZE must be >= 0"):
            resolve_batch_size(None)
        # ... while a bad explicit argument is reported as such.
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        with pytest.raises(ValueError, match="batch size must be >= 0"):
            resolve_batch_size(-3)
        # Whitespace and an explicit argument win over the environment.
        monkeypatch.setenv("REPRO_BATCH_SIZE", "  12  ")
        assert resolve_batch_size(None) == 12
        monkeypatch.setenv("REPRO_BATCH_SIZE", "nope")
        assert resolve_batch_size(8) == 8

    def test_engine_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            BatchedSessionEngine(BufferBased(), batch_size=0)

    def test_results_in_spec_order(self, corpus):
        results = run_batched_sessions(corpus, BufferBased(), 4)
        for spec, result in zip(corpus, results):
            assert len(result.chunks) == spec.video.n_chunks

    def test_pensieve_rejects_mismatched_ladder(self, traces):
        video = Video.synthetic(n_chunks=6, seed=9)
        agent = make_pensieve()
        bad = Video(
            chunk_sizes_bytes=video.chunk_sizes_bytes[:, :4],
            bitrates_kbps=video.bitrates_kbps[:4],
        )
        with pytest.raises(ValueError):
            run_batched_sessions(
                [SessionSpec(video=bad, bandwidth=traces[0])], agent, 2
            )
