"""Tests for the section-5 extensions: constrained adversaries, alternative
goals, and the adversarial regression suite."""

import numpy as np
import pytest

from repro.abr.protocols import BufferBased, RateBased
from repro.abr.video import Video
from repro.adversary.abr_env import AbrAdversaryEnv
from repro.adversary.cc_env import CcAdversaryEnv
from repro.adversary.constrained import PerturbationAdversaryEnv
from repro.adversary.regression import (
    AdversarialRegressionSuite,
    RegressionCase,
    suite_mean_threshold,
)
from repro.cc import BBRSender
from repro.traces.random_traces import random_abr_traces
from repro.traces.trace import Trace


@pytest.fixture
def video():
    return Video.synthetic(n_chunks=10, seed=0)


@pytest.fixture
def base_trace():
    return Trace.from_steps([2.0, 3.0, 1.5, 2.5, 2.0], 4.0, name="base")


class TestPerturbationAdversary:
    def test_bandwidth_stays_within_band(self, video, base_trace):
        env = PerturbationAdversaryEnv(
            BufferBased(), video, base_trace, max_relative=0.25
        )
        env.reset()
        rng = np.random.default_rng(0)
        done = False
        i = 0
        while not done:
            _o, _r, done, info = env.step(rng.uniform(-3, 3, 1))
            base = base_trace.bandwidths_mbps[i % len(base_trace)]
            assert abs(info["bandwidth_mbps"] - base) <= 0.25 * base + 1e-9
            i += 1

    def test_extreme_actions_hit_band_edges(self, video, base_trace):
        env = PerturbationAdversaryEnv(
            BufferBased(), video, base_trace, max_relative=0.2
        )
        env.reset()
        assert env.action_to_bandwidth(np.array([1.0])) == pytest.approx(2.0 * 1.2)
        assert env.action_to_bandwidth(np.array([-1.0])) == pytest.approx(2.0 * 0.8)

    def test_deviation_metric(self, video, base_trace):
        env = PerturbationAdversaryEnv(
            BufferBased(), video, base_trace, max_relative=0.5
        )
        env.reset()
        env.step(np.array([1.0]))
        env.step(np.array([0.0]))
        assert env.deviation_from_base() == pytest.approx(0.25)

    def test_validation(self, video, base_trace):
        with pytest.raises(ValueError):
            PerturbationAdversaryEnv(BufferBased(), video, base_trace, max_relative=0.0)
        with pytest.raises(ValueError):
            PerturbationAdversaryEnv(BufferBased(), video, base_trace, max_relative=1.5)

    def test_lockstep_generation_matches_serial(self, video, base_trace):
        # The batched backend reproduces AbrAdversaryEnv's own step, not
        # the perturbation mapping: lockstep generation must still give
        # the serial corpus, and the batched backend must refuse the env.
        from repro.adversary.generation import generate_abr_traces
        from repro.rl.ppo import PPO, PPOConfig

        env = PerturbationAdversaryEnv(BufferBased(), video, base_trace)
        trainer = PPO(env, PPOConfig(n_steps=32, batch_size=32, hidden=(8,)), seed=0)
        serial, lockstep = (
            generate_abr_traces(trainer, env, 3, seed=4, batch_size=bs)
            for bs in (0, 2)
        )
        for a, b in zip(serial, lockstep):
            assert a.trace.bandwidths_mbps.tobytes() == b.trace.bandwidths_mbps.tobytes()
            assert a.adversary_return == b.adversary_return
        with pytest.raises(ValueError, match="batched"):
            env.batched_vec_env(2)

    def test_reward_still_equation_1(self, video, base_trace):
        env = PerturbationAdversaryEnv(BufferBased(), video, base_trace)
        env.reset()
        _o, reward, _d, info = env.step(np.array([0.5]))
        assert reward == pytest.approx(
            info["r_opt"] - info["r_protocol"] - info["smoothing"]
        )


class TestAlternativeGoals:
    def test_abr_rebuffer_goal_reward(self, video):
        env = AbrAdversaryEnv(BufferBased(), video, goal="rebuffer")
        env.reset()
        _o, reward, _d, info = env.step(np.array([0.0]))
        assert reward == pytest.approx(info["rebuffer"] - info["smoothing"])

    def test_abr_unknown_goal_rejected(self, video):
        with pytest.raises(ValueError):
            AbrAdversaryEnv(BufferBased(), video, goal="chaos")

    def test_cc_congestion_goal_reward(self):
        env = CcAdversaryEnv(BBRSender, episode_intervals=10, goal="congestion")
        env.reset()
        _o, reward, _d, info = env.step(np.zeros(3))
        congestion = min(info["queue_delay_s"] / env.CONGESTION_REF_DELAY_S, 1.0)
        assert reward == pytest.approx(
            congestion - info["loss_rate"] - 0.01 * info["smoothing"]
        )

    def test_cc_unknown_goal_rejected(self):
        with pytest.raises(ValueError):
            CcAdversaryEnv(BBRSender, goal="mayhem")


class TestRegressionSuite:
    def test_record_and_check_pass(self, video):
        suite = AdversarialRegressionSuite(video, margin=0.1)
        traces = random_abr_traces(3, seed=0, n_segments=video.n_chunks)
        for t in traces:
            suite.record(t, BufferBased())
        report = suite.check(BufferBased())
        assert report.ok
        assert len(report.passed) == 3

    def test_worse_protocol_fails(self, video):
        """Thresholds recorded from a good protocol catch a worse one."""
        suite = AdversarialRegressionSuite(video, margin=0.0)
        # A descending-bandwidth trace punishes the no-history rate rule.
        trace = Trace.from_steps(
            np.linspace(4.5, 0.9, video.n_chunks), 4.0, name="descending"
        )
        suite.record(trace, BufferBased())

        class GreedyPolicy(RateBased):
            """Always requests the top rate."""

            def select(self, observation):
                return 5

        greedy = GreedyPolicy()
        report = suite.check(greedy)
        assert not report.ok
        assert "descending" in report.failed[0][0]
        assert "FAIL" in report.summary()

    def test_empty_suite_rejected(self, video):
        with pytest.raises(RuntimeError):
            AdversarialRegressionSuite(video).check(BufferBased())

    def test_save_load_roundtrip(self, video, tmp_path):
        suite = AdversarialRegressionSuite(video, margin=0.2)
        for t in random_abr_traces(2, seed=1, n_segments=video.n_chunks):
            suite.record(t, BufferBased())
        path = tmp_path / "suite.json"
        suite.save(path)
        restored = AdversarialRegressionSuite(video)
        restored.load(path)
        assert len(restored.cases) == 2
        assert restored.margin == 0.2
        np.testing.assert_allclose(
            restored.cases[0].trace.bandwidths_mbps,
            suite.cases[0].trace.bandwidths_mbps,
        )

    def test_refresh_adds_worst_cases(self, video):
        suite = AdversarialRegressionSuite(video)
        added = suite.refresh(
            BufferBased(), adversary_steps=512, n_traces=4, keep_worst=2, seed=0
        )
        assert len(added) == 2
        assert all(c.origin == "refresh" for c in added)
        assert len(suite.cases) == 2
        # Current protocol passes its own freshly recorded thresholds.
        assert suite.check(BufferBased()).ok

    def test_worst_cases_and_threshold(self, video):
        suite = AdversarialRegressionSuite(video)
        suite.cases = [
            RegressionCase(trace=random_abr_traces(1, seed=i, n_segments=10)[0],
                           min_qoe=float(i))
            for i in range(4)
        ]
        assert [c.min_qoe for c in suite.worst_cases(2)] == [0.0, 1.0]
        assert suite_mean_threshold(suite) == pytest.approx(1.5)
