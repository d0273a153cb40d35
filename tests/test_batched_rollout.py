"""The batched adversary rollout backend, tested against the sync path.

Contract (``repro/adversary/batched_env.py``): at every batch width the
:class:`~repro.adversary.batched_env.BatchedAbrVecEnv` advances its
worlds in lockstep with one batched target-policy call per step and
returns observations, rewards, dones and infos **byte-for-byte** equal
to a :class:`~repro.rl.vec_env.SyncVecEnv` of serial
:class:`~repro.adversary.abr_env.AbrAdversaryEnv` copies -- including
across episode auto-resets, for every supported target family, for the
rebuffer goal, and for heterogeneous target batches.

All float comparisons go through ``tobytes()``.
"""

import numpy as np
import pytest

from repro.abr.protocols import MPC, BufferBased
from repro.abr.protocols.bola import Bola
from repro.abr.protocols.optimal import (
    optimal_qoe_exhaustive,
    optimal_qoe_exhaustive_mixed,
)
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import AbrObservation
from repro.abr.video import Video
from repro.adversary.abr_env import AbrAdversaryEnv, train_abr_adversary
from repro.adversary.batched_env import BatchedAbrVecEnv
from repro.adversary.cc_env import train_cc_adversary
from repro.attacks import AttackConfig, AttackedPensieve
from repro.cc import BBRSender
from repro.rl.ppo import PPOConfig
from repro.rl.vec_env import SyncVecEnv, make_vec_env

from .test_batched_identity import TopRung, make_pensieve
from .test_flat_identity import _checkpoint_digest
from .toy_envs import TargetPointEnv

VIDEO = Video.synthetic(n_chunks=10, seed=5)

TARGETS = {
    "bb": lambda: BufferBased(),
    "bb-subclass": TopRung,
    "mpc": lambda: MPC(horizon=4),
    "bola": lambda: Bola(),
    "pensieve": lambda: make_pensieve(deterministic=True),
    # Served through its own __batched_adapter__ hook.
    "pensieve-attacked": lambda: AttackedPensieve(
        make_pensieve(deterministic=True), AttackConfig(kind="fgsm", eps=0.05)
    ),
}


def make_pair(factory, n_envs, goal="qoe_regret", video=VIDEO):
    mk = lambda: AbrAdversaryEnv(factory(), video, goal=goal)  # noqa: E731
    sync = SyncVecEnv([mk for _ in range(n_envs)], seed=0)
    batched = mk().batched_vec_env(n_envs, seed=0)
    return sync, batched


def assert_lockstep_equal(sync, batched, n_envs, steps, seed=99):
    """Drive both backends with one action stream; everything must match."""
    obs_s = sync.reset(seed=123)
    obs_b = batched.reset(seed=123)
    assert obs_s.tobytes() == obs_b.tobytes()
    rng = np.random.default_rng(seed)
    for t in range(steps):
        acts = rng.uniform(-1.2, 1.2, size=(n_envs, 1))
        obs_s, rew_s, done_s, info_s = sync.step(acts)
        obs_b, rew_b, done_b, info_b = batched.step(acts)
        assert obs_s.tobytes() == obs_b.tobytes(), f"t={t}: obs"
        assert (
            np.asarray(rew_s, float).tobytes() == np.asarray(rew_b, float).tobytes()
        ), f"t={t}: rewards"
        assert list(done_s) == list(done_b), f"t={t}: dones"
        for i, (a, b) in enumerate(zip(info_s, info_b)):
            assert set(a) == set(b), f"t={t} env{i}: info keys"
            for k in a:
                va, vb = np.asarray(a[k], float), np.asarray(b[k], float)
                assert va.tobytes() == vb.tobytes(), f"t={t} env{i}: info[{k}]"
    sync.close()
    batched.close()


# -- bitwise identity --------------------------------------------------------


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("n_envs", [1, 4, 16])
def test_bitwise_identity_vs_sync(target, n_envs):
    # 25 steps on a 10-chunk video crosses at least two auto-resets.
    sync, batched = make_pair(TARGETS[target], n_envs)
    assert_lockstep_equal(sync, batched, n_envs, steps=25)


def test_bitwise_identity_rebuffer_goal():
    sync, batched = make_pair(TARGETS["bb"], 4, goal="rebuffer")
    assert_lockstep_equal(sync, batched, 4, steps=25)


def test_stochastic_pensieve_matches_sync():
    # The non-deterministic agent exercises the persistent serial-lane
    # adapter: each lane's sampling RNG must advance exactly like the
    # sync path's per-env deepcopy, across episode boundaries.
    sync, batched = make_pair(lambda: make_pensieve(deterministic=False), 4)
    assert_lockstep_equal(sync, batched, 4, steps=25)


def test_mixed_target_batch_matches_sync():
    # One heterogeneous width-6 batch: the backend groups lanes by
    # target and dispatches each group through its own adapter.
    protos = ["bb", "bb", "mpc", "bola", "pensieve", "pensieve"]
    mks = [
        (lambda p=p: AbrAdversaryEnv(TARGETS[p](), VIDEO)) for p in protos
    ]
    sync = SyncVecEnv(mks, seed=0)
    batched = BatchedAbrVecEnv(
        TARGETS[protos[0]](), VIDEO, len(protos),
        targets=[TARGETS[p]() for p in protos],
    )
    assert_lockstep_equal(sync, batched, len(protos), steps=25)


def test_batch_composition_invariance():
    # A lane's trajectory must not depend on who shares the batch: lane 0
    # driven with the same actions produces identical streams at widths
    # 1, 4 and 16.
    def lane0_stream(n_envs):
        vec = AbrAdversaryEnv(BufferBased(), VIDEO).batched_vec_env(n_envs)
        dim = vec.observation_space.low.shape[0]
        obs = vec.reset(seed=0)
        chunks = [obs[0].tobytes()]
        rng = np.random.default_rng(42)
        for _ in range(15):
            lane0_act = rng.uniform(-1.0, 1.0)
            acts = np.full((n_envs, 1), 0.25)
            acts[0, 0] = lane0_act
            obs, rew, done, _ = vec.step(acts)
            chunks.append(obs[0].tobytes())
            chunks.append(np.float64(rew[0]).tobytes())
            chunks.append(bytes([int(done[0])]))
        vec.close()
        return b"".join(chunks)

    ref = lane0_stream(1)
    assert lane0_stream(4) == ref
    assert lane0_stream(16) == ref


# -- end-to-end PPO training -------------------------------------------------


def test_ppo_training_digest_matches_sync():
    # Full collect/update loop: the batched backend must leave the
    # trained checkpoint bitwise identical to the sync backend's.
    cfg = PPOConfig(n_steps=16, batch_size=32, n_epochs=2, hidden=(8, 8))
    digests = []
    for backend in ("sync", "batched"):
        result = train_abr_adversary(
            BufferBased(), VIDEO, total_steps=128, seed=3, config=cfg,
            n_envs=4, vec_backend=backend,
        )
        digests.append(_checkpoint_digest(result.trainer))
    assert digests[0] == digests[1]


# -- mixed-window r_opt solver -----------------------------------------------


def test_mixed_window_solver_matches_scalar():
    video = Video.synthetic(n_chunks=24, seed=2)
    rng = np.random.default_rng(8)
    weights = QoEWeights(rebuffer_penalty=7.0, smooth_penalty=1.5)
    widths = [1, 4, 2, 4, 3, 1, 4]
    starts = [int(rng.integers(0, video.n_chunks - w + 1)) for w in widths]
    windows = [rng.uniform(0.5, 5.0, size=w) for w in widths]
    buffers = [float(rng.uniform(0.0, 8.0)) for _ in widths]
    prevs = [None, 2, 0, None, 5, 1, 3]
    batch = optimal_qoe_exhaustive_mixed(
        video, starts, windows, buffers, prevs, weights
    )
    for i, w in enumerate(widths):
        scalar, _ = optimal_qoe_exhaustive(
            video, starts[i], windows[i], buffers[i], prevs[i], weights
        )
        assert np.float64(scalar).tobytes() == np.float64(batch[i]).tobytes()


# -- MPC error-window rollover -----------------------------------------------


def test_mpc_error_window_rollover():
    # The deque(maxlen=window) must keep exactly the last `window`
    # prediction errors -- same values the old list.pop(0) kept.
    mpc = MPC(horizon=3, window=4)
    mpc.reset(VIDEO)
    reference: list[float] = []
    rng = np.random.default_rng(0)
    history: list[tuple[float, float]] = []
    for step in range(10):
        history.append((float(rng.uniform(2e5, 8e5)), float(rng.uniform(0.5, 2.0))))
        obs = AbrObservation(
            chunk_index=0,
            last_quality=1,
            buffer_seconds=4.0,
            last_chunk_bytes=history[-1][0],
            last_download_seconds=history[-1][1],
            next_chunk_sizes=VIDEO.chunk_sizes_bytes[0],
            chunks_remaining=VIDEO.n_chunks,
            throughput_history=list(history),
        )
        last_prediction = mpc._last_prediction
        mpc._predict_throughput(obs)
        if last_prediction is not None:
            actual = obs.last_throughput_mbps()
            reference.append(abs(last_prediction - actual) / actual)
            reference = reference[-4:]  # what list.pop(0) maintained
        assert list(mpc._errors) == reference, f"step {step}"
    assert len(mpc._errors) == 4


# -- backend validation ------------------------------------------------------


def test_ppo_config_accepts_batched_backend():
    PPOConfig(vec_backend="batched").validate()
    with pytest.raises(ValueError, match="vec_backend"):
        PPOConfig(vec_backend="bogus").validate()


def test_make_vec_env_rejects_env_without_hook():
    with pytest.raises(ValueError, match="batched"):
        make_vec_env(TargetPointEnv(), 4, backend="batched")


def test_cc_adversary_rejects_batched_backend():
    with pytest.raises(ValueError, match="batched"):
        train_cc_adversary(BBRSender, total_steps=64, vec_backend="batched")
