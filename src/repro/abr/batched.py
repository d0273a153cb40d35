"""Batched ABR session evaluation: K sessions advanced in lockstep.

The serial evaluation path (:func:`repro.abr.protocols.run_session`) plays
one video at a time: observe, select, download, repeat.  This module runs
``K`` independent :class:`~repro.abr.simulator.StreamingSession`s
side-by-side and serves all their bitrate decisions with **one** call of
the protocol's lane kernel per chunk round.  Each protocol module holds
its kernel -- :func:`~repro.abr.protocols.buffer_based.bb_actions`,
:func:`~repro.abr.protocols.bola.bola_actions`, MPC's plan-lattice
search and :func:`~repro.abr.protocols.pensieve.pensieve_actions` -- and
its serial ``select`` is the kernel's one-lane call; the adapters here
only gather lane state into the kernel's arrays.  Sessions retire
independently as they finish and free lanes are refilled from the work
queue, so ragged batches (sessions with different chunk counts) keep all
lanes busy.

Equivalence contract
--------------------

The simulator math is untouched: every lane owns a private
:class:`StreamingSession` and chunks are downloaded through the ordinary
``download_chunk``.  A batched run therefore produces bitwise-identical
:class:`~repro.abr.simulator.SessionResult`s to the serial path whenever
the *action sequence* is identical, and the adapters below guarantee
that:

- The BB, BOLA and MPC kernels are elementwise, so a lane sees
  bitwise-identical floats at any batch width -- identity **by
  construction**.
- Pensieve's batched ``(K, d)`` forward is *not* bitwise equal to K
  single-row forwards (BLAS GEMM results depend on the batch dimension
  in the last ulp), so its identity rests on **argmax stability**: the
  logit gaps of a trained policy are many orders of magnitude above ulp
  noise.  ``tests/test_batched_identity.py`` pins this empirically for
  every batch width the suite exercises; at ``batch_size == 1`` the
  forward is the exact serial shape and identity is again bitwise by
  construction.
- :func:`as_batched` picks an adapter by the policy's exact class, so a
  subclass that overrides ``select`` is never served by its parent's
  kernel.

RNG-stream layout
-----------------

Each session gets its own ``np.random.Generator`` derived as
``SeedSequence(engine_seed, spawn_key=(session_index,))`` (or from
``SessionSpec.seed`` when set).  The stream depends only on the session's
identity -- never on batch width, lane placement, or which sessions it
shares a round with -- so results are invariant to batch composition and
per-session streams cannot cross-contaminate.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field

import numpy as np

from repro.abr.features import advance_features, build_features, feature_dim
from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.bola import Bola, bola_actions, bola_tables
from repro.abr.protocols.buffer_based import BufferBased, bb_actions
from repro.abr.protocols.mpc import MPC, _lookahead_actions
from repro.abr.protocols.pensieve import PensieveAgent, pensieve_actions
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import (
    BandwidthSchedule,
    ChunkIndexedBandwidth,
    ChunkResult,
    SessionResult,
    StreamingSession,
    TraceBandwidth,
)
from repro.abr.video import Video
from repro.obs import NULL_RECORDER, MetricsRecorder
from repro.traces.trace import Trace

__all__ = [
    "BatchedAbrPolicy",
    "BatchedBola",
    "BatchedBufferBased",
    "BatchedMPC",
    "BatchedPensieve",
    "BatchedSessionEngine",
    "GenericBatched",
    "SessionSpec",
    "as_batched",
    "resolve_batch_size",
    "run_batched_sessions",
    "vectorized_adapter",
]

_BATCH_ENV = "REPRO_BATCH_SIZE"


def resolve_batch_size(batch_size: int | None) -> int:
    """Resolve a batch-size setting against ``$REPRO_BATCH_SIZE``.

    ``None`` defers to the environment variable; absent both, the result
    is 0, which every caller treats as "use the serial path exactly as
    before".
    """
    from_env = False
    if batch_size is None:
        raw = os.environ.get(_BATCH_ENV, "").strip()
        if not raw:
            return 0
        try:
            batch_size = int(raw)
        except ValueError as exc:
            raise ValueError(f"${_BATCH_ENV} must be an integer, got {raw!r}") from exc
        from_env = True
    batch_size = int(batch_size)
    if batch_size < 0:
        # Name the setting's origin: a bad environment variable should
        # point at the environment variable, not at some callsite arg.
        source = f"${_BATCH_ENV}" if from_env else "batch size"
        raise ValueError(f"{source} must be >= 0, got {batch_size}")
    return batch_size


@dataclass
class SessionSpec:
    """One session of work for the batched engine.

    Mirrors the arguments of :func:`~repro.abr.protocols.run_session`:
    ``bandwidth`` may be a :class:`Trace` (wrapped exactly as the serial
    runner wraps it, honouring ``chunk_indexed``) or a ready
    :class:`BandwidthSchedule` (which must not be shared between specs --
    schedules are stateful).  ``seed`` optionally overrides the engine's
    derived per-session RNG stream.
    """

    video: Video
    bandwidth: Trace | BandwidthSchedule
    chunk_indexed: bool = False
    weights: QoEWeights = field(default_factory=QoEWeights)
    seed: int | None = None

    def make_schedule(self) -> BandwidthSchedule:
        if isinstance(self.bandwidth, Trace):
            if self.chunk_indexed:
                return ChunkIndexedBandwidth(self.bandwidth.bandwidths_mbps, cycle=True)
            return TraceBandwidth(self.bandwidth)
        return self.bandwidth


# ---------------------------------------------------------------------------
# Adapter interface
# ---------------------------------------------------------------------------


class BatchedAbrPolicy:
    """Serves bitrate decisions for many lockstep sessions at once.

    Lanes are stable integer slots ``0..K-1``; the engine calls
    :meth:`start` when a session enters a lane, :meth:`select` once per
    chunk round with the currently active lanes, :meth:`observe_round`
    after every round of downloads (so adapters can track state
    incrementally), and :meth:`finish` when a session retires.
    """

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        """A new session entered ``lane``."""

    def select(
        self, lanes: list[int], sessions: list[StreamingSession]
    ) -> np.ndarray | list[int]:
        """Return one ladder index per active lane (aligned with ``lanes``)."""
        raise NotImplementedError

    def observe_round(
        self,
        lanes: list[int],
        sessions: list[StreamingSession],
        results: list[ChunkResult],
    ) -> None:
        """Each of ``lanes``' sessions downloaded the chunk in ``results``."""

    def finish(self, lane: int) -> None:
        """``lane``'s session completed; the slot may be reused."""


def _by_video(sessions: list[StreamingSession]) -> list[list[int]]:
    """Positions of ``sessions`` grouped by the video they play."""
    groups: dict[int, list[int]] = {}
    for pos, session in enumerate(sessions):
        groups.setdefault(id(session.video), []).append(pos)
    return list(groups.values())


class GenericBatched(BatchedAbrPolicy):
    """Fallback adapter: an independent deep-copied policy per lane.

    Works for any :class:`AbrPolicy`; each lane replays the exact serial
    code path, so results are bitwise identical by construction (no
    vectorization benefit).
    """

    def __init__(self, prototype: AbrPolicy) -> None:
        self._prototype = prototype
        self._clones: dict[int, AbrPolicy] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        clone = copy.deepcopy(self._prototype)
        clone.reset(session.video)
        self._clones[lane] = clone

    def select(self, lanes, sessions):
        return [
            int(self._clones[lane].select(session.observation()))
            for lane, session in zip(lanes, sessions)
        ]

    def finish(self, lane: int) -> None:
        self._clones.pop(lane, None)


class BatchedBufferBased(BatchedAbrPolicy):
    """BBA-0: one :func:`~repro.abr.protocols.buffer_based.bb_actions` call."""

    def __init__(self, policy: BufferBased) -> None:
        self.policy = policy

    def select(self, lanes, sessions):
        return bb_actions(
            np.array([s.buffer_seconds for s in sessions]),
            np.array([s.video.n_bitrates for s in sessions]),
            self.policy.reservoir_s,
            self.policy.cushion_s,
        )


class BatchedBola(BatchedAbrPolicy):
    """BOLA: one :func:`~repro.abr.protocols.bola.bola_actions` call per
    video group, over the tables built when each session starts."""

    def __init__(self, policy: Bola) -> None:
        self.policy = policy
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        self._tables[lane] = bola_tables(
            session.video, self.policy.buffer_target_s, self.policy.gamma_p
        )

    def select(self, lanes, sessions):
        actions = np.zeros(len(lanes), dtype=int)
        buffers = np.array([s.buffer_seconds for s in sessions])
        for positions in _by_video(sessions):
            chunk_seconds = sessions[positions[0]].video.chunk_seconds
            actions[positions] = bola_actions(
                *self._tables[lanes[positions[0]]], buffers[positions] / chunk_seconds
            )
        return actions

    def finish(self, lane: int) -> None:
        self._tables.pop(lane, None)


class BatchedMPC(BatchedAbrPolicy):
    """Vectorized robust MPC.

    Throughput prediction is sequential per-lane state (error window,
    last prediction) and cheap, so each lane keeps a private MPC clone
    and runs the *serial* ``_predict_throughput``.  The expensive part --
    the exhaustive plan search -- is batched: lanes sharing a (video,
    lookahead-steps) pair are scored by one call of the lattice kernel
    serial :meth:`MPC.select` makes with one lane, whose ops are
    elementwise, so every lane's plan values are bitwise the serial ones.
    """

    def __init__(self, policy: MPC) -> None:
        self._prototype = policy
        self._clones: dict[int, MPC] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        p = self._prototype
        clone = MPC(horizon=p.horizon, window=p.window, robust=p.robust, weights=p.weights)
        clone.reset(session.video)
        self._clones[lane] = clone

    def select(self, lanes, sessions):
        actions = np.zeros(len(lanes), dtype=int)
        members = []
        for pos, (lane, session) in enumerate(zip(lanes, sessions)):
            obs = session.observation()
            predicted = self._clones[lane]._predict_throughput(obs)
            # Without a prediction the lane keeps action 0, as serial MPC
            # starts conservative.
            if predicted > 0:
                members.append((pos, session.video, obs, predicted))
        self._solve(members, actions)
        return actions

    def _solve(self, members: list[tuple], actions: np.ndarray) -> None:
        """Write the best first step of each ``(position, video, observation,
        predicted Mbps)`` lane into ``actions``: one lattice call per
        (video, lookahead steps) group."""
        groups: dict[tuple[int, int], list[tuple]] = {}
        for member in members:
            _, video, obs, _ = member
            steps = min(self._prototype.horizon, obs.chunks_remaining)
            groups.setdefault((id(video), steps), []).append(member)
        for (_, steps), group in groups.items():
            positions, videos, observations, predicted = zip(*group)
            actions[list(positions)] = _lookahead_actions(
                videos[0], self._prototype.weights, steps, observations, predicted
            )

    def finish(self, lane: int) -> None:
        self._clones.pop(lane, None)


class BatchedPensieve(BatchedAbrPolicy):
    """Pensieve: one :func:`~repro.abr.protocols.pensieve.pensieve_actions`
    call per chunk round.

    Each lane's feature row starts as ``build_features`` of its first
    observation and is brought forward by
    :func:`~repro.abr.features.advance_features` after every download, so
    a round builds no observation objects.  Stochastic selection draws
    from each lane's private RNG stream, so the consumed stream does not
    depend on batch composition.  See the module docstring for the
    argmax-stability caveat on the batched forward.
    """

    def __init__(self, agent: PensieveAgent) -> None:
        self.agent = agent
        self._features: np.ndarray | None = None
        self._rngs: dict[int, np.random.Generator] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        video = session.video
        d = feature_dim(video.n_bitrates)
        if d != self.agent.policy.obs_dim:
            raise ValueError(
                f"video has {video.n_bitrates} bitrates -> feature dim {d}, "
                f"but the policy expects obs_dim {self.agent.policy.obs_dim}"
            )
        if self._features is None:
            self._features = np.zeros((lane + 1, d))
        elif lane >= self._features.shape[0]:
            grown = np.zeros((lane + 1, d))
            grown[: self._features.shape[0]] = self._features
            self._features = grown
        self._features[lane] = build_features(session.observation(), video)
        self._rngs[lane] = rng

    def observe_round(self, lanes, sessions, results):
        rows = np.asarray(lanes)
        qualities = np.array([r.quality for r in results])
        buffers = np.array([s.buffer_seconds for s in sessions])
        sizes = np.array([r.size_bytes for r in results])
        delays = np.array([r.download_seconds for r in results])
        indices = np.array([s.chunk_index for s in sessions])
        groups = _by_video(sessions)
        for positions in groups:
            # One video (the corpus-sweep case) advances every lane at once.
            at = slice(None) if len(groups) == 1 else np.asarray(positions)
            advance_features(
                self._features, rows[at], sessions[positions[0]].video,
                qualities[at], buffers[at], sizes[at], delays[at], indices[at],
            )

    def select(self, lanes, sessions):
        agent = self.agent
        rngs = None if agent.deterministic else [self._rngs[lane] for lane in lanes]
        return pensieve_actions(agent.policy.policy_net, agent.obs_rms, self._features[lanes], rngs)

    def finish(self, lane: int) -> None:
        self._rngs.pop(lane, None)


#: The vectorized adapter of each protocol class, by exact class.
_ADAPTERS: dict[type, type[BatchedAbrPolicy]] = {
    BufferBased: BatchedBufferBased,
    Bola: BatchedBola,
    MPC: BatchedMPC,
    PensieveAgent: BatchedPensieve,
}


def vectorized_adapter(policy: AbrPolicy) -> BatchedAbrPolicy | None:
    """The adapter that serves ``policy`` with its lane kernel, or ``None``.

    Dispatch is on the exact class: a subclass may override ``select``,
    and its parent's kernel would then serve a rule the subclass does not
    have.  A class outside this module registers its own adapter by
    defining ``__batched_adapter__() -> BatchedAbrPolicy`` (for example
    ``repro.attacks.AttackedPensieve``; the hook avoids importing
    higher-level packages from here).  Subclasses do not inherit the hook.
    """
    hook = vars(type(policy)).get("__batched_adapter__")
    if hook is not None:
        adapter = hook(policy)
        if not isinstance(adapter, BatchedAbrPolicy):
            raise TypeError(
                f"{type(policy).__name__}.__batched_adapter__ returned "
                f"{type(adapter).__name__}, expected a BatchedAbrPolicy"
            )
        return adapter
    factory = _ADAPTERS.get(type(policy))
    return None if factory is None else factory(policy)


def as_batched(policy: AbrPolicy | BatchedAbrPolicy) -> BatchedAbrPolicy:
    """Wrap a serial :class:`AbrPolicy` with its batched adapter.

    :func:`vectorized_adapter` picks the adapter; anything it does not
    serve falls back to :class:`GenericBatched` (correct for every
    policy, no speedup).
    """
    if isinstance(policy, BatchedAbrPolicy):
        return policy
    return vectorized_adapter(policy) or GenericBatched(policy)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class BatchedSessionEngine:
    """Advances up to ``batch_size`` sessions in lockstep chunk rounds.

    Each round: one batched :meth:`BatchedAbrPolicy.select` over the
    active lanes, then one ``download_chunk`` per lane.  Finished
    sessions retire immediately and their lanes are refilled from the
    remaining work queue, so a long session never stalls the batch and
    ragged corpora keep full occupancy until the queue drains.
    """

    def __init__(
        self,
        policy: AbrPolicy | BatchedAbrPolicy,
        batch_size: int,
        seed: int = 0,
        recorder: MetricsRecorder = NULL_RECORDER,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.adapter = as_batched(policy)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.recorder = recorder

    def _session_rng(self, index: int, spec: SessionSpec) -> np.random.Generator:
        if spec.seed is not None:
            return np.random.default_rng(np.random.SeedSequence(spec.seed))
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        )

    def run(self, specs: list[SessionSpec]) -> list[SessionResult]:
        """Play every spec to completion; results are in spec order."""
        results: list[SessionResult | None] = [None] * len(specs)
        queue = iter(enumerate(specs))
        lanes: list[int] = []  # active lane ids, stable order
        owners: dict[int, tuple[int, StreamingSession]] = {}
        free = list(range(self.batch_size - 1, -1, -1))  # pop() yields lane 0 first
        chunks_done = 0
        rounds = 0

        def refill() -> None:
            while free:
                try:
                    index, spec = next(queue)
                except StopIteration:
                    return
                lane = free.pop()
                session = StreamingSession(spec.video, spec.make_schedule(), weights=spec.weights)
                owners[lane] = (index, session)
                lanes.append(lane)
                self.adapter.start(lane, session, self._session_rng(index, spec))

        refill()
        sessions = [owners[lane][1] for lane in lanes]
        with self.recorder.timer("batched.run", batch_size=self.batch_size):
            while lanes:
                actions = self.adapter.select(lanes, sessions)
                if isinstance(actions, np.ndarray):
                    actions = actions.tolist()
                chunks = [
                    session.download_chunk(action)
                    for session, action in zip(sessions, actions)
                ]
                self.adapter.observe_round(lanes, sessions, chunks)
                chunks_done += len(lanes)
                rounds += 1
                retired = False
                for lane, chunk in zip(lanes, chunks):
                    if chunk.done:
                        index, session = owners.pop(lane)
                        results[index] = session.summary()
                        self.adapter.finish(lane)
                        free.append(lane)
                        retired = True
                if retired:
                    lanes = [lane for lane in lanes if lane in owners]
                    refill()
                    lanes.sort()
                    sessions = [owners[lane][1] for lane in lanes]
        self.recorder.count("batched.chunks", chunks_done, batch_size=self.batch_size)
        self.recorder.count("batched.sessions", len(specs), batch_size=self.batch_size)
        self.recorder.record("batched.rounds", rounds, batch_size=self.batch_size)
        return results  # type: ignore[return-value]


def run_batched_sessions(
    specs: list[SessionSpec],
    policy: AbrPolicy | BatchedAbrPolicy,
    batch_size: int,
    seed: int = 0,
    recorder: MetricsRecorder = NULL_RECORDER,
) -> list[SessionResult]:
    """Convenience wrapper: build an engine and play ``specs`` through it."""
    engine = BatchedSessionEngine(policy, batch_size, seed=seed, recorder=recorder)
    return engine.run(specs)
