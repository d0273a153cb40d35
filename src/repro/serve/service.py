"""The decision service: session lifecycle + coalesced batched serving.

:class:`DecisionService` fronts a set of named ABR protocols over one
video.  Requests flow through the :class:`~repro.serve.coalescer.Coalescer`;
each window is processed synchronously on the event loop: sessions are
created/validated/advanced, the window is grouped by protocol, and every
group is served with **one** call of its protocol's lane kernel through
the :func:`~repro.abr.batched.as_batched` adapter -- a single flat-NN
forward for Pensieve, one plan-lattice call per lookahead group for
MPC, one elementwise rule sweep for BB/BOLA.  The adapters only read the
session surface that :class:`~repro.serve.state.RemoteSession` mirrors,
so the serial/batched identity contract -- served decision == inline
policy call -- carries over to the network boundary.

Serving modes (``batch_size``):

- ``1``: the *inline* baseline: windows of one request, so every
  decision is the kernel's one-lane call, the arithmetic of serial
  ``AbrPolicy.select``.  This is the reference the coalesced mode is
  benchmarked against.
- ``>= 2``: coalesced windows of up to ``batch_size`` requests.

With a :class:`~repro.exec.cache.ResultCache`, MPC's exhaustive plan
search -- a pure function of (video, QoE weights, lookahead, chunk index,
predicted rate, buffer, previous quality) -- is memoized content-
addressed, so repeat decision states (players on the same trace corpus
hit identical states constantly) skip the search entirely.  The
stateful throughput predictor still runs per request, which is what
keeps cached and uncached decision sequences bitwise identical.
"""

from __future__ import annotations

import time

import numpy as np

from repro.abr.features import feature_dim
from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.bola import Bola
from repro.abr.protocols.buffer_based import BufferBased
from repro.abr.protocols.mpc import MPC
from repro.abr.protocols.pensieve import PensieveAgent
from repro.abr.protocols.rate_based import RateBased
from repro.abr.batched import BatchedAbrPolicy, BatchedMPC, as_batched
from repro.abr.simulator import PACKET_PAYLOAD_PORTION
from repro.abr.video import Video
from repro.exec.cache import ResultCache, fingerprint, make_key
from repro.obs import Histogram, NULL_RECORDER, MetricsRecorder
from repro.rl.policy import ActorCritic
from repro.rl.running_stat import RunningMeanStd
from repro.rl.spaces import Discrete
from repro.serve.coalescer import Coalescer
from repro.serve.protocol import (
    CONTENT_BINARY,
    CONTENT_JSON,
    DecisionRequest,
    DecisionResponse,
    ServeError,
    decode_request,
    encode_error,
    encode_response,
)
from repro.serve.state import RemoteSession, SessionState, SessionStore, chunk_result_from

__all__ = [
    "CachedBatchedMPC",
    "DecisionService",
    "default_protocols",
    "make_demo_pensieve",
]


class CachedBatchedMPC(BatchedMPC):
    """:class:`BatchedMPC` with the pure plan search memoized.

    The stateful half of MPC -- the robust throughput predictor, which
    mutates the per-session error window -- always runs, so cached and
    uncached decision *sequences* stay bitwise identical.  The stateless
    half -- the exhaustive lookahead search -- is a pure function of its
    content-addressed key and its winning first step is served from the
    :class:`ResultCache` on repeat states.
    """

    def __init__(self, policy: MPC, cache: ResultCache) -> None:
        super().__init__(policy)
        self._cache = cache
        self._video_fps: dict[int, str] = {}
        # Write-through in-process memo over the disk store: players on a
        # shared trace corpus hit identical decision states every window,
        # and a dict probe is ~100x cheaper than a file read + unpickle.
        # The ResultCache stays the cross-process source of truth.
        self._memo: dict[str, int] = {}
        # The QoE weights are constant for this adapter's lifetime; hash
        # them once so per-request keys only digest scalars.
        self._weights_fp = fingerprint(policy.weights)

    def _video_fp(self, video: Video) -> str:
        fp = self._video_fps.get(id(video))
        if fp is None:
            fp = fingerprint(video)
            self._video_fps[id(video)] = fp
        return fp

    def select(self, lanes, sessions):
        actions = np.zeros(len(lanes), dtype=int)
        members: list[tuple] = []
        # key -> window positions sharing that decision state.  Players on
        # the same trace sit in identical states, so a 64-wide window often
        # holds only a handful of distinct plan problems -- solve each once
        # and fan the winning first step out to every sharer.
        pending: dict[str, list[int]] = {}
        for pos, (lane, session) in enumerate(zip(lanes, sessions)):
            clone = self._clones[lane]
            obs = session.observation()
            predicted = clone._predict_throughput(obs)
            if predicted <= 0:
                actions[pos] = 0
                continue
            steps = min(clone.horizon, obs.chunks_remaining)
            rate = predicted * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
            key = make_key(
                "serve-mpc-plan",
                self._video_fp(session.video), self._weights_fp,
                steps, obs.chunk_index, rate, obs.buffer_seconds, obs.last_quality,
            )
            memoized = self._memo.get(key)
            if memoized is not None:
                actions[pos] = memoized
                continue
            sharers = pending.get(key)
            if sharers is not None:
                sharers.append(pos)
                continue
            hit, value = self._cache.lookup(key)
            if hit:
                self._memo[key] = int(value)
                actions[pos] = value
                continue
            pending[key] = [pos]
            members.append((pos, session.video, obs, predicted))
        self._solve(members, actions)
        for key, positions in pending.items():
            action = int(actions[positions[0]])
            self._memo[key] = action
            self._cache.put(key, action)
            for pos in positions[1:]:
                actions[pos] = action
        return actions


def make_demo_pensieve(
    n_bitrates: int = 6,
    hidden: tuple[int, ...] = (64, 32),
    seed: int = 11,
) -> PensieveAgent:
    """A frozen-seed deterministic Pensieve head for serving demos/benches.

    Same construction as the benchmark suite's reference agent: a seeded
    actor-critic plus an obs-normalizer warmed on seeded data, so every
    process that builds it with the same arguments gets bitwise the same
    policy -- which lets an HTTP loadgen verify the served decisions
    against a locally constructed inline reference.
    """
    d = feature_dim(n_bitrates)
    policy = ActorCritic(
        d, Discrete(n_bitrates), hidden=tuple(hidden),
        rng=np.random.default_rng(seed),
    )
    obs_rms = RunningMeanStd(shape=(d,))
    obs_rms.update(np.random.default_rng(seed + 1).uniform(0.0, 3.0, size=(64, d)))
    return PensieveAgent(policy, obs_rms=obs_rms, deterministic=True)


def default_protocols(
    n_bitrates: int = 6,
    pensieve_hidden: tuple[int, ...] = (64, 32),
    pensieve_seed: int = 11,
) -> dict[str, AbrPolicy]:
    """The full protocol lineup a demo server fronts."""
    return {
        "bb": BufferBased(),
        "bola": Bola(),
        "mpc": MPC(robust=False),
        "robust-mpc": MPC(),
        "rb": RateBased(),
        "pensieve": make_demo_pensieve(
            n_bitrates, hidden=pensieve_hidden, seed=pensieve_seed
        ),
    }


class _Group:
    """One served protocol: its adapter plus lane bookkeeping."""

    __slots__ = ("name", "adapter", "free", "n_lanes", "decisions")

    def __init__(self, name: str, adapter: BatchedAbrPolicy) -> None:
        self.name = name
        self.adapter = adapter
        self.free: list[int] = []
        self.n_lanes = 0
        self.decisions = 0

    def alloc(self) -> int:
        if self.free:
            return self.free.pop()
        lane = self.n_lanes
        self.n_lanes += 1
        return lane


class DecisionService:
    """Session store + coalescer + batched protocol backends."""

    def __init__(
        self,
        video: Video,
        protocols: dict[str, AbrPolicy],
        batch_size: int = 64,
        max_wait_us: float = 0.0,
        max_sessions: int = 65_536,
        seed: int = 0,
        cache: ResultCache | None = None,
        recorder: MetricsRecorder = NULL_RECORDER,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        if not protocols:
            raise ValueError("need at least one protocol to serve")
        self.video = video
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.cache = cache
        self.recorder = recorder
        self.store = SessionStore(max_sessions=max_sessions)
        self._groups: dict[str, _Group] = {}
        for name, proto in protocols.items():
            if type(proto) is MPC and cache is not None:
                adapter: BatchedAbrPolicy = CachedBatchedMPC(proto, cache)
            else:
                adapter = as_batched(proto)
            self._groups[name] = _Group(name, adapter)
        self.coalescer = Coalescer(
            self._process_window, max_batch=self.batch_size,
            max_wait_us=max_wait_us, recorder=recorder,
        )
        self.latency = Histogram()
        self.requests = 0
        self.decisions = 0
        self.errors = 0
        self.closes = 0
        self._started = time.time()

    @property
    def mode(self) -> str:
        return "inline" if self.batch_size == 1 else "coalesced"

    @property
    def protocol_names(self) -> list[str]:
        return sorted(self._groups)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        await self.coalescer.start()

    async def close(self) -> None:
        """Drain every in-flight request, then flush telemetry."""
        await self.coalescer.close()
        self.record_metrics()

    async def __aenter__(self) -> "DecisionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- request entry points ----------------------------------------------

    async def decide(self, request: DecisionRequest) -> DecisionResponse:
        """Serve one decoded request (raises :class:`ServeError`)."""
        return await self.coalescer.submit(request)

    async def handle_raw(
        self, body: bytes, content_type: str = CONTENT_JSON
    ) -> tuple[int, bytes, str]:
        """The transport-facing path: bytes in, ``(status, bytes, type)`` out.

        Responses use the request's codec; unknown content types are
        answered with a JSON 415.
        """
        t0 = time.perf_counter()
        self.requests += 1
        base = content_type.split(";", 1)[0].strip().lower()
        out_type = CONTENT_BINARY if base == CONTENT_BINARY else CONTENT_JSON
        try:
            request = decode_request(body, content_type)
        except ServeError as exc:
            self.errors += 1
            self.latency.record(time.perf_counter() - t0)
            return exc.status, encode_error(exc, out_type), out_type
        try:
            response = await self.decide(request)
            payload = encode_response(response, out_type)
            status = 200
        except ServeError as exc:  # counted where it was raised
            payload = encode_error(exc, out_type)
            status = exc.status
        self.latency.record(time.perf_counter() - t0)
        return status, payload, out_type

    # -- window processing (synchronous, on the event loop) ----------------

    def _process_window(self, batch: list[DecisionRequest]) -> list:
        out: list[DecisionResponse | ServeError | None] = [None] * len(batch)
        seen: set[str] = set()
        group_entries: dict[str, list[tuple[int, SessionState, bool]]] = {}
        for i, req in enumerate(batch):
            try:
                if req.session in seen:
                    raise ServeError(
                        409, "concurrent-session",
                        f"another request for session {req.session!r} is already "
                        "in flight; a session must be driven one request at a time",
                    )
                seen.add(req.session)
                state = self.store.get(req.session)
                if req.close:
                    if state is None:
                        raise ServeError(
                            404, "unknown-session",
                            f"cannot close unknown session {req.session!r}",
                        )
                    self._retire(state)
                    self.closes += 1
                    out[i] = DecisionResponse(session=req.session, closed=True)
                    continue
                obs = req.observation
                if state is None:
                    if obs.chunk_index != 0:
                        raise ServeError(
                            404, "unknown-session",
                            f"session {req.session!r} is unknown; new sessions "
                            "must start at chunk 0",
                        )
                    state = self._create_session(req)
                    fresh = True
                else:
                    if req.protocol is not None and req.protocol != state.protocol:
                        raise ServeError(
                            409, "protocol-mismatch",
                            f"session {req.session!r} is served by "
                            f"{state.protocol!r}, not {req.protocol!r}",
                        )
                    if obs.chunk_index != state.next_chunk:
                        raise ServeError(
                            409, "out-of-order",
                            f"session {req.session!r} expects chunk "
                            f"{state.next_chunk}, got {obs.chunk_index}",
                        )
                    state.remote.update(obs)
                    fresh = False
                group_entries.setdefault(state.protocol, []).append((i, state, fresh))
            except ServeError as exc:
                self.errors += 1
                out[i] = exc
            except Exception as exc:  # one bad request must not kill the window
                self.errors += 1
                out[i] = ServeError(500, "internal", f"{type(exc).__name__}: {exc}")
        for name, entries in group_entries.items():
            group = self._groups[name]
            try:
                self._serve_group(group, entries, out)
            except Exception as exc:
                err = ServeError(500, "internal", f"{type(exc).__name__}: {exc}")
                for i, _state, _fresh in entries:
                    if out[i] is None:
                        self.errors += 1
                        out[i] = err
        return out

    def _create_session(self, req: DecisionRequest) -> SessionState:
        name = req.protocol
        if name is None:
            if len(self._groups) != 1:
                raise ServeError(
                    400, "protocol-required",
                    "a session's first request must name a protocol: "
                    + ", ".join(self.protocol_names),
                )
            name = next(iter(self._groups))
        group = self._groups.get(name)
        if group is None:
            raise ServeError(
                404, "unknown-protocol",
                f"unknown protocol {name!r}; serving "
                + ", ".join(self.protocol_names),
            )
        if len(self.store) >= self.store.max_sessions:
            raise ServeError(
                503, "at-capacity",
                f"server at its {self.store.max_sessions}-session capacity",
            )
        remote = RemoteSession(self.video)
        remote.update(req.observation)  # validates before any allocation
        # Same stream construction as BatchedSessionEngine._session_rng:
        # the per-session stream depends only on the session's identity.
        if req.seed is not None:
            rng = np.random.default_rng(np.random.SeedSequence(req.seed))
        else:
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=self.seed, spawn_key=(self.store.next_index(),)
            ))
        lane = group.alloc()
        group.adapter.start(lane, remote, rng)
        state = SessionState(sid=req.session, protocol=name, lane=lane, remote=remote)
        self.store.add(state)
        return state

    def _serve_group(
        self,
        group: _Group,
        entries: list[tuple[int, SessionState, bool]],
        out: list,
    ) -> None:
        # Continuing sessions first report their finished download -- the
        # engine's observe_round step, reconstructed from the client's
        # observation.  Fresh sessions were initialized by start().
        continuing = [state for _i, state, fresh in entries if not fresh]
        if continuing:
            group.adapter.observe_round(
                [s.lane for s in continuing],
                [s.remote for s in continuing],
                [chunk_result_from(s.remote.observation(), self.video)
                 for s in continuing],
            )
        actions = group.adapter.select(
            [state.lane for _i, state, _fresh in entries],
            [state.remote for _i, state, _fresh in entries],
        )
        if isinstance(actions, np.ndarray):
            actions = actions.tolist()
        for (i, state, _fresh), action in zip(entries, actions):
            quality = int(action)
            obs = state.remote.observation()
            out[i] = DecisionResponse(
                session=state.sid,
                chunk_index=obs.chunk_index,
                quality=quality,
                bitrate_kbps=float(self.video.bitrates_kbps[quality]),
            )
            state.next_chunk = obs.chunk_index + 1
            state.decisions += 1
            group.decisions += 1
            self.decisions += 1
            if obs.chunks_remaining <= 1:
                # That was the video's last decision: the lane frees now.
                self._retire(state)

    def _retire(self, state: SessionState) -> None:
        group = self._groups[state.protocol]
        group.adapter.finish(state.lane)
        group.free.append(state.lane)
        self.store.retire(state.sid)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """The ``GET /stats`` payload (JSON-safe plain types)."""
        cache_stats = None
        if self.cache is not None:
            cache_stats = {k: int(v) for k, v in self.cache.stats().items()}
            cache_stats["hit_rate"] = self.cache.hit_rate()
        return {
            "uptime_seconds": time.time() - self._started,
            "mode": self.mode,
            "batch_size": self.batch_size,
            "video": {"n_chunks": self.video.n_chunks,
                      "n_bitrates": self.video.n_bitrates},
            "protocols": {
                name: {"decisions": g.decisions, "lanes": g.n_lanes}
                for name, g in sorted(self._groups.items())
            },
            "requests": {"total": self.requests, "decisions": self.decisions,
                         "errors": self.errors, "closed": self.closes},
            "sessions": {"active": len(self.store), "created": self.store.created,
                         "retired": self.store.retired},
            "coalescer": self.coalescer.stats(),
            "latency_seconds": self.latency.summary(),
            "cache": cache_stats,
        }

    def record_metrics(self) -> None:
        """Flush serving telemetry into the recorder (metrics.jsonl)."""
        rec = self.recorder
        if not rec.enabled:
            return
        self.coalescer.record_metrics()
        rec.record("serve/requests", self.requests)
        rec.record("serve/decisions", self.decisions)
        rec.record("serve/errors", self.errors)
        rec.record("serve/sessions_created", self.store.created)
        rec.record_dict(self.latency.summary(), prefix="serve/latency_")
        if self.cache is not None:
            self.cache.record_metrics(rec, prefix="serve/cache/")
