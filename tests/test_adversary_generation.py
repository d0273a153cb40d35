"""Tests for adversarial trace generation (repro.adversary.generation)."""

import numpy as np
import pytest

from repro.abr.protocols import MPC, BufferBased, run_session
from repro.abr.video import Video
from repro.adversary import (
    generate_abr_traces,
    generate_cc_traces,
    rollout_abr_adversary,
    rollout_cc_adversary,
    train_abr_adversary,
    train_cc_adversary,
)
from repro.cc import BBRSender
from repro.rl.ppo import PPOConfig
from tests.test_batched_identity import make_pensieve

LOCKSTEP_TARGETS = {
    "bb": BufferBased,
    "mpc": lambda: MPC(horizon=4),
    "pensieve": lambda: make_pensieve(deterministic=True),
}


@pytest.fixture(scope="module")
def abr_setup():
    video = Video.synthetic(n_chunks=10, seed=0)
    cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(8,))
    result = train_abr_adversary(BufferBased(), video, total_steps=128, seed=0, config=cfg)
    return video, result


@pytest.fixture(scope="module")
def cc_setup():
    cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(4,))
    return train_cc_adversary(BBRSender, total_steps=128, seed=0, config=cfg,
                              episode_intervals=25)


class TestAbrGeneration:
    def test_trace_has_one_segment_per_chunk(self, abr_setup):
        video, result = abr_setup
        roll = rollout_abr_adversary(result.trainer, result.env)
        assert len(roll.trace) == video.n_chunks
        assert roll.trace.duration == pytest.approx(video.duration)

    def test_trace_within_action_space(self, abr_setup):
        _video, result = abr_setup
        roll = rollout_abr_adversary(result.trainer, result.env)
        assert np.all(roll.trace.bandwidths_mbps >= 0.8)
        assert np.all(roll.trace.bandwidths_mbps <= 4.8)

    def test_deterministic_rollouts_identical(self, abr_setup):
        _video, result = abr_setup
        a = rollout_abr_adversary(result.trainer, result.env, deterministic=True)
        b = rollout_abr_adversary(result.trainer, result.env, deterministic=True)
        np.testing.assert_array_equal(a.trace.bandwidths_mbps, b.trace.bandwidths_mbps)

    def test_stochastic_rollouts_differ(self, abr_setup):
        _video, result = abr_setup
        a = rollout_abr_adversary(result.trainer, result.env, deterministic=False)
        b = rollout_abr_adversary(result.trainer, result.env, deterministic=False)
        assert not np.array_equal(a.trace.bandwidths_mbps, b.trace.bandwidths_mbps)

    def test_replaying_trace_reproduces_target_qoe(self, abr_setup):
        """Core claim of section 2.1: recorded traces reproduce the result
        without re-running the adversary."""
        video, result = abr_setup
        roll = rollout_abr_adversary(result.trainer, result.env)
        replay = run_session(video, roll.trace, BufferBased(), chunk_indexed=True)
        assert replay.qoe_mean == pytest.approx(roll.target_qoe_mean, abs=1e-9)

    def test_corpus_generation(self, abr_setup):
        _video, result = abr_setup
        rolls = generate_abr_traces(result.trainer, result.env, 3)
        assert len(rolls) == 3
        assert len({r.trace.name for r in rolls}) == 3
        with pytest.raises(ValueError):
            generate_abr_traces(result.trainer, result.env, 0)


@pytest.fixture(scope="module", params=sorted(LOCKSTEP_TARGETS))
def lockstep_setup(request):
    video = Video.synthetic(n_chunks=10, seed=1)
    cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(8,))
    return train_abr_adversary(
        LOCKSTEP_TARGETS[request.param](), video, total_steps=128, seed=2,
        config=cfg,
    )


def _rollout_bytes(rolls):
    """Everything a corpus consumer reads, as exact bytes / hex floats."""
    return [
        (
            r.trace.name,
            r.trace.bandwidths_mbps.tobytes(),
            list(map(int, r.qualities)),
            float(r.target_qoe_mean).hex(),
            float(r.adversary_return).hex(),
        )
        for r in rolls
    ]


class TestLockstepGeneration:
    """``batch_size >= 2`` (lanes in lockstep) must equal the serial loop."""

    N_TRACES = 5  # ragged last group at every batch size below

    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("batch_size", [2, 4, 8])
    def test_matches_serial_bitwise(self, lockstep_setup, batch_size, deterministic):
        result = lockstep_setup
        seed = None if deterministic else 17
        serial, lockstep = (
            generate_abr_traces(
                result.trainer, result.env, self.N_TRACES,
                deterministic=deterministic, seed=seed, batch_size=bs,
            )
            for bs in (0, batch_size)
        )
        assert _rollout_bytes(lockstep) == _rollout_bytes(serial)

    def test_parallel_lockstep_matches_serial_bitwise(self, lockstep_setup):
        result = lockstep_setup
        serial = generate_abr_traces(
            result.trainer, result.env, self.N_TRACES, seed=5, batch_size=0
        )
        parallel = generate_abr_traces(
            result.trainer, result.env, self.N_TRACES, seed=5, batch_size=2,
            workers=2,
        )
        assert _rollout_bytes(parallel) == _rollout_bytes(serial)

    def test_stochastic_lockstep_requires_seed(self, abr_setup):
        _video, result = abr_setup
        with pytest.raises(ValueError, match="seed"):
            generate_abr_traces(result.trainer, result.env, 3, batch_size=2)


class TestCcGeneration:
    def test_trace_carries_all_three_schedules(self, cc_setup):
        roll = rollout_cc_adversary(cc_setup.trainer, cc_setup.env)
        assert roll.trace.latencies_ms is not None
        assert roll.trace.loss_rates is not None
        assert len(roll.trace) == 25

    def test_trace_within_table1(self, cc_setup):
        roll = rollout_cc_adversary(cc_setup.trainer, cc_setup.env)
        t = roll.trace
        assert np.all((t.bandwidths_mbps >= 6.0) & (t.bandwidths_mbps <= 24.0))
        assert np.all((t.latencies_ms >= 15.0) & (t.latencies_ms <= 60.0))
        assert np.all((t.loss_rates >= 0.0) & (t.loss_rates <= 0.10))

    def test_raw_actions_recorded(self, cc_setup):
        roll = rollout_cc_adversary(cc_setup.trainer, cc_setup.env, deterministic=True)
        assert roll.raw_actions.shape == (25, 3)

    def test_capacity_fraction_consistent(self, cc_setup):
        roll = rollout_cc_adversary(cc_setup.trainer, cc_setup.env)
        throughput = np.mean([s.throughput_mbps for s in roll.intervals])
        capacity = np.mean([s.bandwidth_mbps for s in roll.intervals])
        assert roll.capacity_fraction == pytest.approx(throughput / capacity)

    def test_corpus_generation(self, cc_setup):
        rolls = generate_cc_traces(cc_setup.trainer, cc_setup.env, 2)
        assert len(rolls) == 2
        with pytest.raises(ValueError):
            generate_cc_traces(cc_setup.trainer, cc_setup.env, -1)
