"""Component micro-benchmarks: per-operation latency of the substrates.

These are conventional pytest-benchmark timings (many rounds) rather than
experiment reproductions; they track the cost of the hot paths that the
adversary training loop exercises millions of times.
"""

import numpy as np

from repro.abr.protocols import MPC, BufferBased
from repro.abr.simulator import ControlledBandwidth, StreamingSession
from repro.cc.link import TimeVaryingLink
from repro.cc.network import PacketNetworkEmulator
from repro.cc.protocols.bbr import BBRSender
from repro.nn.network import MLP
from repro.rl.env import Env
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box, Discrete


class _ToyEnv(Env):
    """Minimal env for timing the PPO update path."""

    observation_space = Box([0.0], [1.0])
    action_space = Discrete(2)

    def __init__(self):
        self._t = 0

    def reset(self, *, seed=None):
        self._t = 0
        return np.array([0.5])

    def step(self, action):
        self._t += 1
        return np.array([0.5]), float(action), self._t >= 16, {}


def test_bench_mlp_forward(benchmark):
    rng = np.random.default_rng(0)
    net = MLP((110, 32, 16, 1), rng)
    x = rng.standard_normal((64, 110))
    benchmark(net.forward, x)


def test_bench_mpc_decision(benchmark, video48):
    """One robust-MPC decision: all 6^5 = 7776 plans scored on the prefix
    lattice it shares with r_opt."""
    mpc = MPC()
    mpc.reset(video48)
    session = StreamingSession(video48, ControlledBandwidth(2.0))
    for _ in range(6):
        session.download_chunk(mpc.select(session.observation()))
    obs = session.observation()
    benchmark(mpc.select, obs)


def test_bench_bb_decision(benchmark, video48):
    bb = BufferBased()
    bb.reset(video48)
    session = StreamingSession(video48, ControlledBandwidth(2.0))
    session.download_chunk(0)
    obs = session.observation()
    benchmark(bb.select, obs)


def test_bench_full_video_playback(benchmark, video48):
    """48 chunks of simulator mechanics under BB."""

    def play():
        session = StreamingSession(video48, ControlledBandwidth(2.0))
        bb = BufferBased()
        bb.reset(video48)
        while not session.done:
            session.download_chunk(bb.select(session.observation()))
        return session.summary().qoe_mean

    benchmark(play)


def test_bench_emulator_second_of_bbr(benchmark):
    """One simulated second of BBR at 12 Mbps (~1000 packets)."""

    def run():
        link = TimeVaryingLink(12.0, 40.0, 0.0)
        emulator = PacketNetworkEmulator(BBRSender(), link, seed=0)
        emulator.run_until(1.0)
        return link.bytes_delivered

    benchmark(run)


def test_bench_ppo_update(benchmark):
    """One PPO rollout-and-update cycle on a trivial env."""
    ppo = PPO(_ToyEnv(), PPOConfig(n_steps=256, n_epochs=4), seed=0)

    def iteration():
        last_value = ppo.collect_rollout()
        ppo.buffer.compute_gae(last_value, ppo.cfg.gamma, ppo.cfg.gae_lambda)
        return ppo.update()

    benchmark(iteration)
