"""The adaptive-video-streaming adversary environment (section 3).

Per time step (one video chunk):

1. the adversary chooses the link bandwidth for the next chunk download
   (action in [0.8, 4.8] Mbps -- the policy acts in normalized [-1, 1]
   units which the environment clips and scales, matching the paper's
   note that "exploration and clipping done by PPO will return the
   actions to the acceptable range"),
2. the frozen target protocol picks a bitrate from its own observation,
3. the chunk downloads at the chosen bandwidth, and
4. the adversary is rewarded with Equation 1, where ``r_opt`` is "the
   highest possible QoE over the last 4 network changes", ``r_protocol``
   the QoE the protocol actually obtained over those chunks, and
   ``p_smoothing`` "the absolute difference between the last two chosen
   bandwidths".

The adversary observes "the bitrate chosen by the protocol for the
previous chunk, the client buffer occupancy, the possible sizes of the
next chunk, the number of remaining chunks, and the throughput and
download time for the last downloaded video chunk", stacked over the last
10 steps.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.optimal import optimal_qoe_exhaustive_batch
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import ControlledBandwidth, StreamingSession
from repro.abr.video import Video
from repro.adversary.reward import AdversaryReward, LastActionSmoothing
from repro.obs.metrics import MetricsRecorder
from repro.rl.env import Env
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box
from repro.rl.vec_env import SubprocVecEnv, VecEnv

__all__ = ["AbrAdversaryEnv", "AbrAdversaryResult", "train_abr_adversary"]

#: The paper's ABR adversary action range (section 3).
ABR_BW_LOW_MBPS = 0.8
ABR_BW_HIGH_MBPS = 4.8

#: "The adversary's state is the history of the last 10 observations."
HISTORY_LEN = 10

#: "r_opt is the highest possible QoE over the last 4 network changes."
OPT_WINDOW = 4


def check_adversary_config(
    bw_low_mbps: float,
    bw_high_mbps: float,
    history_len: int,
    opt_window: int,
    goal: str,
) -> None:
    """Reject a malformed ABR adversary configuration with a named error.

    Shared by the serial :class:`AbrAdversaryEnv` and the batched
    :class:`~repro.adversary.batched_env.BatchedAbrVecEnv`, so both refuse
    exactly the same configurations.
    """
    if bw_low_mbps <= 0 or bw_high_mbps <= bw_low_mbps:
        raise ValueError("need 0 < bw_low < bw_high")
    if history_len < 1:
        raise ValueError(f"history_len must be >= 1, got {history_len}")
    if opt_window < 1:
        raise ValueError(f"opt_window must be >= 1, got {opt_window}")
    goals = AbrAdversaryEnv.GOALS
    if goal not in goals:
        raise ValueError(f"unknown goal {goal!r}; choose from {goals}")


class AbrAdversaryEnv(Env):
    """An RL environment whose agent is the network, not the protocol."""

    #: Supported adversarial goals (section 5, "Different adversarial
    #: goals"): the default QoE-regret objective of Equation 1, or a
    #: rebuffering-specific objective ("an ABR adversary could be created
    #: with the specific goal of causing rebuffering").
    GOALS = ("qoe_regret", "rebuffer")

    def __init__(
        self,
        target: AbrPolicy,
        video: Video,
        weights: QoEWeights = QoEWeights(),
        smoothing_weight: float = 1.0,
        bw_low_mbps: float = ABR_BW_LOW_MBPS,
        bw_high_mbps: float = ABR_BW_HIGH_MBPS,
        history_len: int = HISTORY_LEN,
        opt_window: int = OPT_WINDOW,
        goal: str = "qoe_regret",
    ) -> None:
        check_adversary_config(
            bw_low_mbps, bw_high_mbps, history_len, opt_window, goal
        )
        self.goal = goal
        self.target = target
        self.video = video
        self.weights = weights
        self.history_len = history_len
        self.opt_window = opt_window
        self.reward_fn = AdversaryReward(smoothing_weight=smoothing_weight)
        self.smoothing = LastActionSmoothing()
        self.bw_box = Box([bw_low_mbps], [bw_high_mbps])
        self.action_space = Box([-1.0], [1.0])
        self._frame_dim = 5 + video.n_bitrates
        dim = self._frame_dim * history_len
        self.observation_space = Box([-1e6] * dim, [1e6] * dim)
        self._session: StreamingSession | None = None
        self._bandwidth = ControlledBandwidth()
        # The last history_len frames, oldest first, with zero rows before
        # an episode's first frame: flattened, it is the observation.
        self._ring = np.zeros((history_len, self._frame_dim))
        # Per-chunk records needed to evaluate r_opt windows.
        self._chosen_bw: list[float] = []
        self._buffer_before: list[float] = []
        self._prev_quality_before: list[int | None] = []
        self._protocol_qoe: list[float] = []

    # -- featurization ----------------------------------------------------------

    def _push_frame(self) -> None:
        """Shift the frame ring and write the newest frame into its last row.

        A frame is the target's view of the session: the last chunk's
        bitrate, the buffer, the share of chunks left, the last chunk's
        throughput and download time, and the next chunk's sizes.  It is
        read off the session's fields with the formulas of
        :class:`~repro.abr.simulator.AbrObservation`, so a step builds one
        observation (the target's), not two.
        """
        session = self._session
        assert session is not None
        video = self.video
        ring = self._ring
        quality = session.prev_quality
        last_bitrate = (
            0.0 if quality is None
            else video.bitrates_kbps[quality] / float(video.bitrates_kbps[-1])
        )
        delay = session.last_download_seconds
        throughput_mbps = 0.0 if delay <= 0 else session.last_chunk_bytes * 8.0 / delay / 1e6
        ring[:-1] = ring[1:]
        frame = ring[-1]
        frame[:5] = (
            last_bitrate,
            session.buffer_seconds / 10.0,
            (video.n_chunks - session.chunk_index) / max(video.n_chunks, 1),
            throughput_mbps / 10.0,
            delay / 10.0,
        )
        if session.done:
            frame[5:] = 0.0
        else:
            np.divide(video.chunk_sizes_bytes[session.chunk_index], 1e6, out=frame[5:])

    # -- env API -------------------------------------------------------------------

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        self._bandwidth = ControlledBandwidth()
        self._session = StreamingSession(self.video, self._bandwidth, weights=self.weights)
        self.target.reset(self.video)
        self.smoothing.reset()
        self._chosen_bw = []
        self._buffer_before = []
        self._prev_quality_before = []
        self._protocol_qoe = []
        self._ring.fill(0.0)
        self._push_frame()
        return self._ring.flatten()

    def action_to_bandwidth(self, action) -> float:
        """Map a raw (possibly out-of-range) policy action to Mbps."""
        return float(self.bw_box.scale_from_unit(np.asarray(action, dtype=float))[0])

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        session = self._session
        if session is None:
            raise RuntimeError("call reset() before step()")
        if session.done:
            raise RuntimeError("episode finished; call reset()")
        bandwidth = self.action_to_bandwidth(action)
        smoothing = self.smoothing(np.array([bandwidth]))
        self._bandwidth.set_mbps(bandwidth)

        self._buffer_before.append(session.buffer_seconds)
        self._prev_quality_before.append(session.prev_quality)
        self._chosen_bw.append(bandwidth)

        quality = self.target.select(session.observation())
        result = session.download_chunk(quality)
        self._protocol_qoe.append(result.qoe)
        self._push_frame()

        # Equation 1 over the last min(opt_window, chunks so far) chunks.
        # Only the value is read, so the window is solved as a one-row
        # batch: the same lattice, without decoding the best plan.
        start = len(self._chosen_bw) - min(self.opt_window, len(self._chosen_bw))
        r_opt = float(optimal_qoe_exhaustive_batch(
            self.video,
            start_chunks=[start],
            bandwidth_windows=[self._chosen_bw[start:]],
            start_buffers_s=[self._buffer_before[start]],
            prev_qualities=[self._prev_quality_before[start]],
            weights=self.weights,
        )[0])
        r_protocol = float(sum(self._protocol_qoe[start:]))
        if self.goal == "rebuffer":
            # Specific goal: cause stalls the optimum would have avoided.
            reward = self.reward_fn(result.rebuffer_seconds, 0.0, smoothing)
        else:
            reward = self.reward_fn(r_opt, r_protocol, smoothing)
        info = {
            "bandwidth_mbps": bandwidth,
            "quality": quality,
            "chunk_qoe": result.qoe,
            "r_opt": r_opt,
            "r_protocol": r_protocol,
            "smoothing": smoothing,
            "rebuffer": result.rebuffer_seconds,
        }
        return self._ring.flatten(), reward, session.done, info

    # -- conveniences -----------------------------------------------------------------

    def chosen_bandwidths(self) -> list[float]:
        """The bandwidths chosen so far this episode (one per chunk)."""
        return list(self._chosen_bw)

    def batched_vec_env(self, n_envs: int, seed: int | None = None) -> VecEnv:
        """The ``"batched"`` vec backend: this env's world, fully vectorized.

        Returns a :class:`~repro.adversary.batched_env.BatchedAbrVecEnv`
        configured like this env (same target/video/weights/goal/bounds)
        that advances ``n_envs`` worlds per step with one batched target
        call -- rollouts bitwise identical to
        ``SyncVecEnv([this env] * n_envs)``.  This instance itself is not
        consumed; it stays usable as a serial env.  Only this class's own
        step is reproduced, so a subclass that changes it (such as
        :class:`~repro.adversary.constrained.PerturbationAdversaryEnv`)
        raises ``ValueError``.
        """
        if type(self) is not AbrAdversaryEnv:
            raise ValueError(
                f"the 'batched' backend reproduces AbrAdversaryEnv, not "
                f"{type(self).__name__}; use the 'sync' backend"
            )
        from repro.adversary.batched_env import BatchedAbrVecEnv

        return BatchedAbrVecEnv(
            self.target,
            self.video,
            n_envs,
            weights=self.weights,
            smoothing_weight=self.reward_fn.smoothing_weight,
            bw_low_mbps=float(self.bw_box.low[0]),
            bw_high_mbps=float(self.bw_box.high[0]),
            history_len=self.history_len,
            opt_window=self.opt_window,
            goal=self.goal,
            seed=seed,
        )


@dataclass
class AbrAdversaryResult:
    """A trained ABR adversary with its environment and learning curve."""

    trainer: PPO
    env: AbrAdversaryEnv
    history: list[dict]


def default_abr_adversary_config() -> PPOConfig:
    """PPO defaults for the ABR adversary.

    The network is the paper's: "two fully connected hidden layers, the
    first with 32 neurons and the second with 16 neurons"; the learning
    rate is constant (the paper's one deviation from stable-baselines
    defaults).
    """
    return PPOConfig(
        n_steps=384,
        batch_size=96,
        n_epochs=4,
        learning_rate=7e-4,
        ent_coef=0.01,
        hidden=(32, 16),
        init_log_std=-0.3,
    )


def train_abr_adversary(
    target: AbrPolicy,
    video: Video,
    total_steps: int = 40_000,
    seed: int = 0,
    config: PPOConfig | None = None,
    smoothing_weight: float = 1.0,
    weights: QoEWeights = QoEWeights(),
    callback: Callable[[PPO, dict], None] | None = None,
    goal: str = "qoe_regret",
    n_envs: int = 1,
    vec_backend: str = "sync",
    recorder: MetricsRecorder | None = None,
) -> AbrAdversaryResult:
    """Train an adversary against a frozen ABR protocol.

    Rollouts always go through one vectorized env of ``n_envs`` worlds;
    the run is fully determined by ``seed``.  One env steps in-process
    against the caller's ``target`` itself.  Wider runs give every env its
    own copy of the frozen target, and ``vec_backend`` picks how they
    step: ``"sync"`` (default) in-process, ``"subproc"`` one worker
    process per shard, ``"batched"`` all worlds inside one fully
    vectorized :class:`~repro.adversary.batched_env.BatchedAbrVecEnv` --
    a single batched target-policy call, one ``r_opt`` solve and one
    frame-ring scatter per step, the fastest choice by a wide margin (see
    ``benchmarks/bench_vec_rollout.py``).  All three backends produce the
    same rollouts bit for bit.  The returned ``env`` is env 0 on the
    in-process ``"sync"`` path and an unstepped local instance otherwise.
    ``recorder`` receives the trainer's per-update diagnostics (see
    :class:`~repro.rl.ppo.PPO`); it never alters results.
    """
    cfg = config or default_abr_adversary_config()
    if n_envs != 1 or vec_backend != "sync":
        cfg = replace(cfg, n_envs=n_envs, vec_backend=vec_backend)
    # One env trains against the caller's target itself; a wider run
    # gets a private copy, which PPO's make_vec_env copies once per env.
    env = AbrAdversaryEnv(
        target if cfg.n_envs == 1 else copy.deepcopy(target), video,
        weights=weights, smoothing_weight=smoothing_weight, goal=goal,
    )
    trainer = PPO(env, cfg, seed=seed, recorder=recorder)
    try:
        history = trainer.learn(total_steps, callback=callback)
    finally:
        # An exception mid-training must not strand forked workers.
        if isinstance(trainer.vec_env, SubprocVecEnv):
            trainer.close()
    return AbrAdversaryResult(trainer=trainer, env=env, history=history)
