"""Batched ABR session evaluation: K sessions advanced in lockstep.

The serial evaluation path (:func:`repro.abr.protocols.run_session`) plays
one video at a time: observe, select, download, repeat.  This module runs
``K`` independent :class:`~repro.abr.simulator.StreamingSession`s
side-by-side and serves all their bitrate decisions with **one** batched
policy evaluation per chunk round -- a single flat-NN forward for
Pensieve, one call of MPC's plan-lattice kernel per (video, lookahead)
group, and one broadcast rule evaluation for BB/BOLA.  Sessions retire
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

- BB and BOLA are replayed with elementwise/broadcast numpy ops in
  exactly the serial op order, and MPC runs the very kernel serial
  ``MPC.select`` calls with one lane, so every comparison and argmax
  sees bitwise-identical floats regardless of batch width -- identity
  **by construction**.
- Pensieve's batched ``(K, d)`` forward is *not* bitwise equal to K
  single-row forwards (BLAS GEMM results depend on the batch dimension
  in the last ulp), so its identity rests on **argmax stability**: the
  logit gaps of a trained policy are many orders of magnitude above ulp
  noise.  ``tests/test_batched_identity.py`` pins this empirically for
  every batch width the suite exercises; at ``batch_size == 1`` the
  forward is the exact serial shape and identity is again bitwise by
  construction.

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

from repro.abr.features import N_HISTORY, feature_dim
from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.bola import Bola
from repro.abr.protocols.buffer_based import BufferBased
from repro.abr.protocols.mpc import MPC, _lookahead_actions
from repro.abr.protocols.pensieve import PensieveAgent
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
    chunk round with the currently active lanes, :meth:`observe` after
    every download (so adapters can track state incrementally), and
    :meth:`finish` when a session retires.
    """

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        """A new session entered ``lane``."""

    def select(
        self, lanes: list[int], sessions: list[StreamingSession]
    ) -> np.ndarray | list[int]:
        """Return one ladder index per active lane (aligned with ``lanes``)."""
        raise NotImplementedError

    def observe(self, lane: int, session: StreamingSession, result: ChunkResult) -> None:
        """``lane``'s session downloaded a chunk."""

    def observe_round(
        self,
        lanes: list[int],
        sessions: list[StreamingSession],
        results: list[ChunkResult],
    ) -> None:
        """One whole chunk round downloaded; adapters may vectorize this."""
        for lane, session, result in zip(lanes, sessions, results):
            self.observe(lane, session, result)

    def finish(self, lane: int) -> None:
        """``lane``'s session completed; the slot may be reused."""


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
    """Vectorized BBA-0: the rule evaluated for all lanes in one sweep.

    Elementwise float64 arithmetic is shape-independent, so each lane's
    comparison/floor sees bytes identical to the serial scalar rule.
    """

    def __init__(self, policy: BufferBased) -> None:
        self.reservoir_s = policy.reservoir_s
        self.cushion_s = policy.cushion_s
        self._n: dict[int, int] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        self._n[lane] = session.video.n_bitrates

    def select(self, lanes, sessions):
        buffers = np.array([s.buffer_seconds for s in sessions])
        n = np.array([self._n[lane] for lane in lanes])
        frac = (buffers - self.reservoir_s) / self.cushion_s
        mid = np.floor(frac * (n - 1)).astype(int)
        return np.where(
            buffers < self.reservoir_s,
            0,
            np.where(buffers >= self.reservoir_s + self.cushion_s, n - 1, mid),
        )

    def finish(self, lane: int) -> None:
        self._n.pop(lane, None)


class BatchedBola(BatchedAbrPolicy):
    """Vectorized BOLA: one broadcast score matrix per video group.

    Serial BOLA computes ``(v*(u+gamma_p) - Q) / s`` with a scalar buffer
    level; broadcasting the same expression over a ``(L, n)`` grid applies
    the identical op sequence per element, and a row-wise argmax matches
    the serial 1-D argmax (same first-max tie break).
    """

    def __init__(self, policy: Bola) -> None:
        self.buffer_target_s = policy.buffer_target_s
        self.gamma_p = policy.gamma_p
        #: lane -> (video-identity key, chunk_seconds)
        self._lane_video: dict[int, tuple[int, float]] = {}
        #: video-identity key -> (v*(u+gamma_p), relative sizes)
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        video = session.video
        key = id(video)
        if key not in self._tables:
            bitrates = np.asarray(video.bitrates_kbps, dtype=float)
            utilities = np.log(bitrates / bitrates[0])
            q_target = self.buffer_target_s / video.chunk_seconds
            v = q_target / (utilities[-1] + self.gamma_p)
            relative_sizes = bitrates / bitrates[0]
            self._tables[key] = (v * (utilities + self.gamma_p), relative_sizes)
        self._lane_video[lane] = (key, video.chunk_seconds)

    def select(self, lanes, sessions):
        actions = np.zeros(len(lanes), dtype=int)
        groups: dict[int, list[int]] = {}
        for pos, lane in enumerate(lanes):
            groups.setdefault(self._lane_video[lane][0], []).append(pos)
        buffers = np.array([s.buffer_seconds for s in sessions])
        for key, positions in groups.items():
            vu, relative_sizes = self._tables[key]
            chunk_seconds = self._lane_video[lanes[positions[0]]][1]
            buffer_chunks = buffers[positions] / chunk_seconds
            scores = (vu[None, :] - buffer_chunks[:, None]) / relative_sizes[None, :]
            actions[positions] = np.argmax(scores, axis=1)
        return actions

    def finish(self, lane: int) -> None:
        self._lane_video.pop(lane, None)


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
    """Pensieve served by one batched policy-net forward per chunk round.

    The engine's per-download :meth:`observe` hook keeps a ``(K, d)``
    feature matrix incrementally up to date (each slot written with the
    exact :func:`~repro.abr.features.build_features` formula, then
    shifted byte-for-byte), so a round costs one normalize + one MLP
    forward + one argmax for all lanes -- no per-lane observation
    dataclasses, no value-net or log-prob work (serial ``act`` discards
    both).

    See the module docstring for the (documented, test-pinned) argmax
    -stability caveat on batched GEMM.  Stochastic selection draws each
    lane's Gumbel noise from that lane's private RNG stream with the same
    ``(1, n)`` shape the serial agent uses, so the consumed stream is
    batch-composition independent.
    """

    _T0 = 2  # throughput history slots start
    _D0 = 2 + N_HISTORY  # delay history slots start
    _S0 = 2 + 2 * N_HISTORY  # next-chunk-size slots start

    def __init__(
        self,
        policy,
        obs_rms=None,
        deterministic: bool = True,
    ) -> None:
        self.policy = policy
        self.obs_rms = obs_rms
        self.deterministic = deterministic
        self._features: np.ndarray | None = None
        #: lane -> (video, max bitrate, rng stream, ladder as an int array)
        self._lane_info: dict[
            int, tuple[Video, float, np.random.Generator, np.ndarray]
        ] = {}

    @classmethod
    def from_agent(cls, agent: PensieveAgent) -> "BatchedPensieve":
        return cls(agent.policy, obs_rms=agent.obs_rms, deterministic=agent.deterministic)

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        video = session.video
        d = feature_dim(video.n_bitrates)
        if d != self.policy.obs_dim:
            raise ValueError(
                f"video has {video.n_bitrates} bitrates -> feature dim {d}, "
                f"but the policy expects obs_dim {self.policy.obs_dim}"
            )
        if self._features is None:
            self._features = np.zeros((lane + 1, d))
        elif lane >= self._features.shape[0]:
            grown = np.zeros((lane + 1, d))
            grown[: self._features.shape[0]] = self._features
            self._features = grown
        row = self._features[lane]
        row[:] = 0.0
        row[self._S0 : self._S0 + video.n_bitrates] = video.chunk_sizes_bytes[0] / 1e6
        row[self._S0 + video.n_bitrates] = video.n_chunks / max(video.n_chunks, 1)
        self._lane_info[lane] = (
            video,
            float(video.bitrates_kbps[-1]),
            rng,
            np.asarray(video.bitrates_kbps),
        )

    def observe(self, lane: int, session: StreamingSession, result: ChunkResult) -> None:
        video, max_bitrate = self._lane_info[lane][:2]
        row = self._features[lane]
        n = video.n_bitrates
        size, dl = result.size_bytes, result.download_seconds
        row[0] = video.bitrates_kbps[result.quality] / max_bitrate
        row[1] = session.buffer_seconds / 10.0
        # History slots are newest-first: shift, then write slot 0 with
        # the exact build_features formulas.
        t0, d0, s0 = self._T0, self._D0, self._S0
        row[t0 + 1 : t0 + N_HISTORY] = row[t0 : t0 + N_HISTORY - 1]
        row[d0 + 1 : d0 + N_HISTORY] = row[d0 : d0 + N_HISTORY - 1]
        if dl > 0:
            row[t0] = (size * 8.0 / dl / 1e6) / 10.0
            row[d0] = dl / 10.0
        else:
            row[t0] = 0.0
            row[d0] = 0.0
        if session.done:
            row[s0 : s0 + n] = 0.0
        else:
            row[s0 : s0 + n] = video.chunk_sizes_bytes[session.chunk_index] / 1e6
        row[s0 + n] = (video.n_chunks - session.chunk_index) / max(video.n_chunks, 1)

    def observe_round(self, lanes, sessions, results):
        """Vectorized :meth:`observe`: one fancy-indexed update per round.

        Elementwise float64 ops in the same order as the scalar formulas
        are bitwise-identical per element, so this is pure bookkeeping
        speed -- the per-lane Python observe dominates the batched
        engine's cost otherwise.  ``download_chunk`` delays always
        include ``LINK_RTT_S``, so the serial ``dl > 0`` guard cannot
        fire here and the divisions are safe.
        """
        m = len(lanes)
        if m == 1:
            self.observe(lanes[0], sessions[0], results[0])
            return
        info = self._lane_info
        video, max_bitrate, _, ladder = info[lanes[0]]
        for lane in lanes[1:]:
            if info[lane][0] is not video:
                self._observe_round_mixed(lanes, sessions, results)
                return
        # Fast path: every lane plays the same video (the corpus-sweep
        # case).  An observe rewrites every feature slot, so the round
        # builds one fresh (m, d) block and scatters it with a single
        # advanced-index assignment -- two gathers (the history shifts,
        # which read the pre-round rows) and one scatter total.
        n = video.n_bitrates
        n_chunks = video.n_chunks
        quality = np.asarray([result.quality for result in results])
        indices = np.asarray([session.chunk_index for session in sessions])
        live = indices < n_chunks
        # The fancy gather copies, so zeroing retired rows is safe.
        next_sizes = video.chunk_sizes_bytes[np.where(live, indices, 0)]
        if not live.all():
            next_sizes[~live] = 0.0
        features = self._features
        rows = np.asarray(lanes)
        t0, d0, s0 = self._T0, self._D0, self._S0
        block = np.empty((m, features.shape[1]))
        block[:, t0 + 1 : t0 + N_HISTORY] = features[rows, t0 : t0 + N_HISTORY - 1]
        block[:, d0 + 1 : d0 + N_HISTORY] = features[rows, d0 : d0 + N_HISTORY - 1]
        block[:, 0] = ladder[quality] / max_bitrate
        block[:, 1] = np.asarray([s.buffer_seconds for s in sessions]) / 10.0
        delays = np.asarray([result.download_seconds for result in results])
        sizes = np.asarray([result.size_bytes for result in results])
        block[:, t0] = (sizes * 8.0 / delays / 1e6) / 10.0
        block[:, d0] = delays / 10.0
        block[:, s0 : s0 + n] = next_sizes / 1e6
        block[:, s0 + n] = (n_chunks - indices) / max(n_chunks, 1)
        features[rows] = block

    def _observe_round_mixed(self, lanes, sessions, results):
        """Vectorized update for lanes playing different videos."""
        m = len(lanes)
        info = self._lane_info
        n = sessions[0].video.n_bitrates  # uniform: start() pins obs_dim
        bitrates = []
        max_bitrates = []
        buffers = []
        sizes = []
        delays = []
        remaining = []
        totals = []
        next_sizes = np.zeros((m, n))
        for i, (lane, session, result) in enumerate(zip(lanes, sessions, results)):
            video, max_bitrate = info[lane][:2]
            chunk_index = session.chunk_index
            bitrates.append(video.bitrates_kbps[result.quality])
            max_bitrates.append(max_bitrate)
            buffers.append(session.buffer_seconds)
            sizes.append(result.size_bytes)
            delays.append(result.download_seconds)
            if chunk_index < video.n_chunks:
                next_sizes[i] = video.chunk_sizes_bytes[chunk_index]
            remaining.append(video.n_chunks - chunk_index)
            totals.append(max(video.n_chunks, 1))
        features = self._features
        rows = np.asarray(lanes)
        t0, d0, s0 = self._T0, self._D0, self._S0
        features[rows, t0 + 1 : t0 + N_HISTORY] = features[rows, t0 : t0 + N_HISTORY - 1]
        features[rows, d0 + 1 : d0 + N_HISTORY] = features[rows, d0 : d0 + N_HISTORY - 1]
        features[rows, 0] = np.asarray(bitrates) / np.asarray(max_bitrates)
        features[rows, 1] = np.asarray(buffers) / 10.0
        delays_arr = np.asarray(delays)
        features[rows, t0] = (np.asarray(sizes) * 8.0 / delays_arr / 1e6) / 10.0
        features[rows, d0] = delays_arr / 10.0
        features[rows, s0 : s0 + n] = next_sizes / 1e6
        features[rows, s0 + n] = np.asarray(remaining) / np.asarray(totals)

    def select(self, lanes, sessions):
        features = self._features[lanes]
        if self.obs_rms is not None:
            features = self.obs_rms.normalize(features)
        logits = self.policy.policy_net.forward(features)
        if self.deterministic:
            return np.argmax(logits, axis=-1)
        actions = np.empty(len(lanes), dtype=int)
        for i, lane in enumerate(lanes):
            rng = self._lane_info[lane][2]
            row = logits[i : i + 1]
            gumbel = -np.log(-np.log(rng.uniform(size=row.shape) + 1e-12) + 1e-12)
            actions[i] = np.argmax(row + gumbel, axis=-1)[0]
        return actions

    def finish(self, lane: int) -> None:
        self._lane_info.pop(lane, None)


def as_batched(policy: AbrPolicy | BatchedAbrPolicy) -> BatchedAbrPolicy:
    """Wrap a serial :class:`AbrPolicy` with its batched adapter.

    Known policies get a vectorized adapter; anything else falls back to
    :class:`GenericBatched` (correct for every policy, no speedup).
    Policies outside this module can register their own adapter by
    defining ``__batched_adapter__() -> BatchedAbrPolicy`` (e.g.
    ``repro.attacks.AttackedPensieve`` -- the hook avoids importing
    higher-level packages from here).
    """
    if isinstance(policy, BatchedAbrPolicy):
        return policy
    adapter_factory = getattr(policy, "__batched_adapter__", None)
    if adapter_factory is not None:
        adapter = adapter_factory()
        if not isinstance(adapter, BatchedAbrPolicy):
            raise TypeError(
                f"{type(policy).__name__}.__batched_adapter__ returned "
                f"{type(adapter).__name__}, expected a BatchedAbrPolicy"
            )
        return adapter
    if isinstance(policy, BufferBased):
        return BatchedBufferBased(policy)
    if isinstance(policy, Bola):
        return BatchedBola(policy)
    if isinstance(policy, MPC):
        return BatchedMPC(policy)
    if isinstance(policy, PensieveAgent):
        return BatchedPensieve.from_agent(policy)
    return GenericBatched(policy)


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
