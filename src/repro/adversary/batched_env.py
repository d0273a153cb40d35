"""Batched adversary rollouts: all envs advanced by one vectorized step.

:class:`BatchedAbrVecEnv` is a third rollout-collection backend
(``vec_backend="batched"``) beside :class:`~repro.rl.vec_env.SyncVecEnv`
and :class:`~repro.rl.vec_env.SubprocVecEnv`.  Where the sync backend
steps ``n_envs`` independent :class:`~repro.adversary.abr_env.AbrAdversaryEnv`
instances -- n serial ``target.select()`` calls plus per-env Python frame
stacking per vec-step -- this backend owns the worlds directly and runs
one vectorized pass over all of them:

- the frozen target's bitrate decisions are served by **one** call of
  its protocol's lane kernel per step through the
  :mod:`repro.abr.batched` adapters, so a Pensieve target costs one
  ``(n_envs, d)`` MLP forward instead of ``n_envs`` width-1 forwards;
- observations live in a persistent ``(n_envs, history_len, d)`` frame
  ring written with a single vectorized scatter per step, so the serial
  path's per-env list-append + pad + concatenate becomes one reshape;
- action scaling, smoothing penalties, the ``r_opt`` exhaustive search
  (one :func:`~repro.abr.protocols.optimal.optimal_qoe_exhaustive_batch`
  call per step) and reward assembly are all batched.

Equivalence contract
--------------------

Rollouts are bitwise identical to the ``"sync"`` backend at every width
(the PR 1/2/5/6 contract; pinned by ``tests/test_batched_rollout.py``):

- Every lane owns a private :class:`~repro.abr.simulator.StreamingSession`
  downloading through the ordinary ``download_chunk`` -- the simulator
  math is untouched.
- Every vectorized expression replays the serial op order elementwise
  (``Box.scale_from_unit`` clip+affine, the ``_push_frame()`` formulas, the
  left-associated Equation 1 assembly), so identical inputs give
  identical bytes per element.
- The r_opt batch solver is bitwise equal to the scalar solver row by
  row (PR 1), and seeding runs the identical ``VecEnv._spawn_seeds``
  (per-env seeds are drawn with the same side effects and -- exactly like
  the sync path -- discarded, because ``AbrAdversaryEnv.reset`` ignores
  them).
- Target decisions: BB/BOLA/MPC kernels are bitwise by construction;
  deterministic Pensieve rests on the PR 6 argmax-stability contract
  (bitwise at width 1, where the batched forward degenerates to the
  serial shape).  Adapters are picked by the target's exact class.
  Stochastic targets and classes without a vectorized adapter
  (subclasses included) fall back to one persistent deep-copied policy
  per lane -- the exact arrangement the sync backend's per-env target
  copies produce, RNG streams included.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.abr.batched import BatchedAbrPolicy, vectorized_adapter
from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.optimal import optimal_qoe_exhaustive_batch
from repro.abr.protocols.pensieve import PensieveAgent
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import ControlledBandwidth, StreamingSession
from repro.abr.video import Video
from repro.adversary.abr_env import check_adversary_config
from repro.rl.spaces import Box
from repro.rl.vec_env import VecEnv

__all__ = ["BatchedAbrVecEnv", "adapter_for_target"]


class _SerialLaneAdapter(BatchedAbrPolicy):
    """Persistent per-lane policy clones, stepped serially.

    The fallback for targets the batched adapters cannot reproduce
    bitwise -- stochastic Pensieve (whose action noise is drawn from the
    *policy's own* RNG stream) and classes without a vectorized adapter.
    Unlike :class:`~repro.abr.batched.GenericBatched`, clones persist across
    episodes: the sync backend deep-copies the target once per env at
    construction and only ``reset(video)``s it between episodes, so any
    cross-episode state (e.g. ``PensieveAgent._rng``) must survive here
    too for the streams to match.
    """

    def __init__(self, prototype: AbrPolicy) -> None:
        self._prototype = prototype
        self._clones: dict[int, AbrPolicy] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        clone = self._clones.get(lane)
        if clone is None:
            clone = copy.deepcopy(self._prototype)
            self._clones[lane] = clone
        clone.reset(session.video)

    def select(self, lanes, sessions):
        return [
            int(self._clones[lane].select(session.observation()))
            for lane, session in zip(lanes, sessions)
        ]


def adapter_for_target(target: AbrPolicy) -> BatchedAbrPolicy:
    """Pick the batched adapter that reproduces ``target`` bitwise.

    :func:`~repro.abr.batched.vectorized_adapter`'s exact-class rule picks
    the adapter, as for the session engine.  Stochastic Pensieve and the
    classes that rule does not serve get :class:`_SerialLaneAdapter`
    (correct for any policy, no batching benefit).
    """
    if isinstance(target, PensieveAgent) and not target.deterministic:
        return _SerialLaneAdapter(target)
    return vectorized_adapter(target) or _SerialLaneAdapter(target)


class BatchedAbrVecEnv(VecEnv):
    """``n_envs`` ABR-adversary worlds advanced in lockstep, vectorized.

    Same interface and auto-reset/seeding semantics as
    :class:`~repro.rl.vec_env.SyncVecEnv`, but no per-env ``Env``
    instances exist: the backend holds the per-lane sessions and rings
    directly.  Build one via
    :meth:`AbrAdversaryEnv.batched_vec_env <repro.adversary.abr_env.AbrAdversaryEnv.batched_vec_env>`
    or ``make_vec_env(env, n, backend="batched")``.

    Parameters mirror :class:`~repro.adversary.abr_env.AbrAdversaryEnv`;
    ``targets`` optionally gives each env its own frozen target prototype
    (envs sharing a prototype share one adapter call per step), which is
    how a mixed pensieve/mpc/bb population trains in one batch.
    """

    def __init__(
        self,
        target: AbrPolicy,
        video: Video,
        n_envs: int,
        *,
        targets: list[AbrPolicy] | None = None,
        weights: QoEWeights = QoEWeights(),
        smoothing_weight: float = 1.0,
        bw_low_mbps: float = 0.8,
        bw_high_mbps: float = 4.8,
        history_len: int = 10,
        opt_window: int = 4,
        goal: str = "qoe_regret",
        seed: int | None = None,
    ) -> None:
        if n_envs <= 0:
            raise ValueError("n_envs must be positive")
        check_adversary_config(
            bw_low_mbps, bw_high_mbps, history_len, opt_window, goal
        )
        if targets is not None and len(targets) != n_envs:
            raise ValueError(f"need {n_envs} targets, got {len(targets)}")
        super().__init__(n_envs, seed=seed)
        self.video = video
        self.weights = weights
        self.goal = goal
        self.smoothing_weight = float(smoothing_weight)
        self.history_len = int(history_len)
        self.opt_window = int(opt_window)
        self.bw_box = Box([bw_low_mbps], [bw_high_mbps])
        self.action_space = Box([-1.0], [1.0])
        self._frame_dim = 5 + video.n_bitrates
        dim = self._frame_dim * self.history_len
        self.observation_space = Box([-1e6] * dim, [1e6] * dim)

        #: One (adapter, lane list) per distinct target prototype; the
        #: common single-prototype case is one group spanning every lane.
        self._groups: list[tuple[BatchedAbrPolicy, list[int]]] = []
        prototypes = targets if targets is not None else [target] * n_envs
        by_proto: dict[int, list[int]] = {}
        order: list[AbrPolicy] = []
        for i, proto in enumerate(prototypes):
            if id(proto) not in by_proto:
                order.append(proto)
            by_proto.setdefault(id(proto), []).append(i)
        for proto in order:
            self._groups.append((adapter_for_target(proto), by_proto[id(proto)]))

        n = n_envs
        self._sessions: list[StreamingSession | None] = [None] * n
        # Observation frame ring, oldest first; reshape(n, -1) IS the
        # serial env's flattened ring (zero rows = the front pad).
        self._ring = np.zeros((n, self.history_len, self._frame_dim))
        # r_opt window rings, one column per chunk, newest last.  Shifted
        # left each step; zero columns in an episode's first chunks are
        # never read because the window slice excludes them.
        self._bw_ring = np.zeros((n, self.opt_window))
        self._buf_ring = np.zeros((n, self.opt_window))
        self._qoe_ring = np.zeros((n, self.opt_window))
        self._pq_ring = np.full((n, self.opt_window), -1, dtype=int)  # -1 == None
        self._steps = np.zeros(n, dtype=int)
        self._last_bw = np.zeros(n)
        self._has_last = np.zeros(n, dtype=bool)
        self._was_reset = False
        # Adapter-API rngs for unseeded resets; replaced by VecEnv.rngs
        # after a seeded reset.  Never consulted by any routed adapter
        # (the stochastic-Pensieve path goes through _SerialLaneAdapter),
        # so their state cannot affect results.
        self._fallback_rngs = [np.random.default_rng(i) for i in range(n)]
        # First frame of every episode: nothing downloaded yet, full
        # video remaining, chunk 0's sizes on offer.
        self._frame0 = np.concatenate(
            [
                [0.0, 0.0, video.n_chunks / max(video.n_chunks, 1), 0.0, 0.0],
                video.chunk_sizes_bytes[0] / 1e6,
            ]
        )
        self._ladder_f = np.asarray(video.bitrates_kbps, dtype=float)
        self._max_bitrate = float(video.bitrates_kbps[-1])

    # -- lifecycle --------------------------------------------------------------

    def _adapter_rng(self, i: int) -> np.random.Generator:
        return self.rngs[i] if self.rngs is not None else self._fallback_rngs[i]

    def _reset_env(self, i: int) -> None:
        session = StreamingSession(self.video, ControlledBandwidth(), weights=self.weights)
        self._sessions[i] = session
        for adapter, lanes in self._groups:
            if i in lanes:
                adapter.start(i, session, self._adapter_rng(i))
                break
        self._ring[i] = 0.0
        self._ring[i, -1] = self._frame0
        self._bw_ring[i] = 0.0
        self._buf_ring[i] = 0.0
        self._qoe_ring[i] = 0.0
        self._pq_ring[i] = -1
        self._steps[i] = 0
        self._last_bw[i] = 0.0
        self._has_last[i] = False

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        """Reset every env; returns stacked observations ``(n_envs, obs_dim)``.

        Seeding side effects are exactly :meth:`SyncVecEnv.reset`'s: the
        same SeedSequence spawn populates :attr:`rngs` and draws the same
        per-env integers -- which are then discarded, because the
        underlying env's ``reset`` ignores its seed on the sync path too.
        """
        self._spawn_seeds(self._consume_seed(seed))
        for i in range(self.n_envs):
            self._reset_env(i)
        self._was_reset = True
        return self._ring.reshape(self.n_envs, -1).copy()

    def close(self) -> None:
        pass

    # -- stepping ---------------------------------------------------------------

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Advance every world one chunk; same contract as ``SyncVecEnv.step``."""
        if not self._was_reset:
            raise RuntimeError("call reset() before step()")
        actions = self._check_actions(actions)
        n = self.n_envs
        video = self.video
        sessions = self._sessions

        # 1. action -> bandwidth, elementwise scale_from_unit (clip+affine).
        unit = np.asarray(actions, dtype=float).reshape(n, -1)
        bw = self.bw_box.scale_from_unit(unit)[:, 0]

        # 2. smoothing penalty |bw_t - bw_{t-1}|, zero on an episode's
        #    first action (LastActionSmoothing on a 1-D action).
        pen = np.abs(bw - self._last_bw)
        pen[~self._has_last] = 0.0
        self._last_bw = bw
        self._has_last[:] = True

        # 3. Record the pre-download world state the r_opt window needs
        #    (buffer and prev-quality *before* this chunk), then set each
        #    lane's controlled link rate.
        self._bw_ring[:, :-1] = self._bw_ring[:, 1:]
        self._buf_ring[:, :-1] = self._buf_ring[:, 1:]
        self._pq_ring[:, :-1] = self._pq_ring[:, 1:]
        self._qoe_ring[:, :-1] = self._qoe_ring[:, 1:]
        self._bw_ring[:, -1] = bw
        for i in range(n):
            session = sessions[i]
            assert session is not None
            session.bandwidth.set_mbps(bw[i])
            self._buf_ring[i, -1] = session.buffer_seconds
            self._pq_ring[i, -1] = (
                -1 if session.prev_quality is None else session.prev_quality
            )

        # 4. One batched target decision per adapter group.
        qualities = np.zeros(n, dtype=int)
        for adapter, lanes in self._groups:
            picked = adapter.select(lanes, [sessions[i] for i in lanes])
            qualities[lanes] = np.asarray(picked, dtype=int)

        # 5. Downloads (the untouched serial simulator, one per lane).
        results = [sessions[i].download_chunk(int(qualities[i])) for i in range(n)]
        self._qoe_ring[:, -1] = [r.qoe for r in results]
        for adapter, lanes in self._groups:
            adapter.observe_round(
                lanes, [sessions[i] for i in lanes], [results[i] for i in lanes]
            )

        # 6. Frame ring: shift, then write the newest frame for all lanes
        #    with the serial `_push_frame()` formulas vectorized (delays always
        #    include LINK_RTT_S, so the throughput division is safe).
        ring = self._ring
        ring[:, :-1] = ring[:, 1:]
        frame = ring[:, -1]
        chunk_idx = np.asarray([s.chunk_index for s in sessions])
        delays = np.asarray([r.download_seconds for r in results])
        sizes_b = np.asarray([r.size_bytes for r in results])
        done_mask = chunk_idx >= video.n_chunks
        frame[:, 0] = self._ladder_f[qualities] / self._max_bitrate
        frame[:, 1] = np.asarray([s.buffer_seconds for s in sessions]) / 10.0
        frame[:, 2] = (video.n_chunks - chunk_idx) / max(video.n_chunks, 1)
        frame[:, 3] = sizes_b * 8.0 / delays / 1e6 / 10.0
        frame[:, 4] = delays / 10.0
        next_sizes = video.chunk_sizes_bytes[np.where(done_mask, 0, chunk_idx)] / 1e6
        if done_mask.any():
            next_sizes[done_mask] = 0.0
        frame[:, 5:] = next_sizes

        # 7. r_opt over the last min(opt_window, steps) chunks, one batch
        #    solve over ring slices.  reset() resets every lane and all
        #    lanes play the one video a chunk per step, so they finish and
        #    auto-reset on the same step: every lane's window has the same
        #    length.
        self._steps += 1
        widths = np.minimum(self._steps, self.opt_window)
        o0 = self.opt_window - int(widths[0])
        r_opt = optimal_qoe_exhaustive_batch(
            video,
            start_chunks=self._steps - widths,
            bandwidth_windows=self._bw_ring[:, o0:],
            start_buffers_s=self._buf_ring[:, o0],
            prev_qualities=[None if q < 0 else int(q) for q in self._pq_ring[:, o0]],
            weights=self.weights,
        )

        # 8. Equation 1, left-associated exactly like AdversaryReward:
        #    (first - second) - w*smoothing.  Zero-padded qoe columns make
        #    np.add.reduce over the full ring equal the serial
        #    sum(qoe[start:]) (sequential at this width).
        r_protocol = np.add.reduce(self._qoe_ring, axis=1)
        if self.goal == "rebuffer":
            first = np.asarray([r.rebuffer_seconds for r in results])
            second = np.zeros(n)
        else:
            first = r_opt
            second = r_protocol
        rewards = (first - second) - self.smoothing_weight * pen

        infos: list[dict] = [
            {
                "bandwidth_mbps": float(bw[i]),
                "quality": int(qualities[i]),
                "chunk_qoe": results[i].qoe,
                "r_opt": float(r_opt[i]),
                "r_protocol": float(r_protocol[i]),
                "smoothing": float(pen[i]),
                "rebuffer": results[i].rebuffer_seconds,
            }
            for i in range(n)
        ]

        # 9. Auto-reset finished lanes, stashing the terminal observation.
        dones = done_mask.copy()
        for i in np.flatnonzero(dones):
            infos[i]["terminal_observation"] = ring[i].reshape(-1).copy()
            self._reset_env(i)
        return ring.reshape(n, -1).copy(), rewards, dones, infos

    def __repr__(self) -> str:
        return f"BatchedAbrVecEnv({self.n_envs} lanes, {len(self._groups)} target group(s))"
