"""Each protocol's lane kernel against its serial ``select``.

BB, BOLA and Pensieve decide through one plain function over a batch of
lanes in their protocol modules.  Serial ``select(observation)`` is the
kernel's one-lane call, and the :mod:`repro.abr.batched` adapters only
gather lane state into the kernel's arrays.  These properties hold that
seam: serial ``select`` equals the kernel's one-lane result and row i of
a K-lane call, at the inputs where a rule switches (BB's band edges and
one ulp either side, BOLA's score ties).  Pensieve's incremental feature
writer is held to the stateless ``build_features`` after every chunk,
across lanes playing different videos and lanes that retired.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.batched import BatchedPensieve
from repro.abr.features import build_features, feature_dim
from repro.abr.protocols.bola import Bola, bola_actions, bola_tables
from repro.abr.protocols.buffer_based import BufferBased, bb_actions
from repro.abr.protocols.pensieve import PensieveAgent, pensieve_actions
from repro.abr.simulator import AbrObservation, ChunkIndexedBandwidth, StreamingSession
from repro.abr.video import Video
from repro.rl.policy import ActorCritic
from repro.rl.running_stat import RunningMeanStd
from repro.rl.spaces import Discrete

LADDERS = [
    (300, 750, 1200, 1850, 2850, 4300),
    (200, 1000),
    (350, 600, 1000, 2000, 3000, 4500, 6000, 8000),
]


def fresh_observation(video: Video, buffer_s: float) -> AbrObservation:
    return AbrObservation(
        chunk_index=0,
        last_quality=None,
        buffer_seconds=buffer_s,
        last_chunk_bytes=0.0,
        last_download_seconds=0.0,
        next_chunk_sizes=video.chunk_sizes_bytes[0].copy(),
        chunks_remaining=video.n_chunks,
    )


def around(x: float):
    """``x`` or the float one ulp either side of it."""
    return st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])


@given(
    data=st.data(),
    reservoir=st.floats(0.0, 20.0),
    cushion=st.floats(0.1, 30.0),
)
@settings(max_examples=200, deadline=None)
def test_bb_select_is_the_kernels_one_lane_call(data, reservoir, cushion):
    policy = BufferBased(reservoir, cushion)
    edges = st.sampled_from([reservoir, reservoir + cushion]).flatmap(around)
    lanes = data.draw(st.lists(
        st.tuples(st.sampled_from(LADDERS), st.one_of(edges, st.floats(0.0, 60.0))),
        min_size=1, max_size=8,
    ))
    n_bitrates = np.array([len(ladder) for ladder, _ in lanes])
    buffers = np.array([buffer for _, buffer in lanes])
    batch = bb_actions(buffers, n_bitrates, reservoir, cushion)
    for i, (ladder, buffer) in enumerate(lanes):
        video = Video.synthetic(n_chunks=2, seed=0, bitrates_kbps=ladder)
        policy.reset(video)
        one = bb_actions(buffers[i : i + 1], n_bitrates[i : i + 1], reservoir, cushion)
        assert policy.select(fresh_observation(video, buffer)) == one[0] == batch[i]


@given(
    data=st.data(),
    target=st.floats(1.0, 60.0),
    gamma_p=st.floats(0.1, 20.0),
    ladder=st.sampled_from(LADDERS),
    chunk_seconds=st.sampled_from([1.0, 2.0, 4.0]),
)
@settings(max_examples=200, deadline=None)
def test_bola_select_is_the_kernels_one_lane_call(data, target, gamma_p, ladder, chunk_seconds):
    video = Video.synthetic(n_chunks=2, seed=0, bitrates_kbps=ladder, chunk_seconds=chunk_seconds)
    policy = Bola(target, gamma_p)
    policy.reset(video)
    vu, sizes = bola_tables(video, target, gamma_p)
    # The buffer levels (seconds) at which adjacent qualities score equal.
    ties = [
        (sizes[q + 1] * vu[q] - sizes[q] * vu[q + 1]) / (sizes[q + 1] - sizes[q]) * chunk_seconds
        for q in range(len(ladder) - 1)
    ]
    buffers = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(ties).flatmap(around), st.floats(0.0, 2.0 * target)),
        min_size=1, max_size=8,
    )))
    batch = bola_actions(vu, sizes, buffers / chunk_seconds)
    for i, buffer in enumerate(buffers):
        one = bola_actions(vu, sizes, buffers[i : i + 1] / chunk_seconds)
        assert policy.select(fresh_observation(video, buffer)) == one[0] == batch[i]


def make_agent(n_bitrates: int, seed: int, deterministic: bool = True) -> PensieveAgent:
    d = feature_dim(n_bitrates)
    policy = ActorCritic(d, Discrete(n_bitrates), hidden=(16,), rng=np.random.default_rng(seed))
    obs_rms = RunningMeanStd(shape=(d,))
    obs_rms.update(np.random.default_rng(seed + 1).uniform(0.0, 3.0, size=(32, d)))
    return PensieveAgent(policy, obs_rms=obs_rms, deterministic=deterministic)


def played_observations(data, video: Video, count: int) -> list[AbrObservation]:
    """Observations of sessions played to a drawn chunk at drawn qualities."""
    observations = []
    for _ in range(count):
        rates = data.draw(st.lists(st.floats(0.2, 8.0), min_size=1, max_size=4))
        session = StreamingSession(video, ChunkIndexedBandwidth(rates, cycle=True))
        for _ in range(data.draw(st.integers(0, video.n_chunks - 1))):
            session.download_chunk(data.draw(st.integers(0, video.n_bitrates - 1)))
        observations.append(session.observation())
    return observations


@given(data=st.data(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_pensieve_select_is_the_kernels_one_row_call(data, seed):
    video = Video.synthetic(n_chunks=12, seed=seed)
    agent = make_agent(video.n_bitrates, seed)
    agent.reset(video)
    observations = played_observations(data, video, data.draw(st.integers(1, 8)))
    features = np.array([build_features(obs, video) for obs in observations])
    net, rms = agent.policy.policy_net, agent.obs_rms
    # The batched forward may differ from one-row forwards in the last
    # ulp; row i agrees through argmax stability, not by construction.
    batch = pensieve_actions(net, rms, features)
    for i, obs in enumerate(observations):
        one = pensieve_actions(net, rms, features[i : i + 1])[0]
        assert agent.select(obs) == one == batch[i]


@given(
    data=st.data(),
    seed=st.integers(0, 2**16),
    n_lanes=st.integers(1, 6),
    refills=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_pensieve_feature_writer_matches_build_features(data, seed, n_lanes, refills):
    # Videos of different lengths share one ladder width (the policy's
    # obs_dim), so one round mixes videos and lanes retire at different
    # rounds; a retired lane's row must match its final observation, and
    # a refilled lane's row must forget the session it held.
    videos = [Video.synthetic(n_chunks=n, seed=seed + n) for n in (3, 5, 9)]
    adapter = BatchedPensieve(make_agent(videos[0].n_bitrates, seed))
    sessions = {}

    def start(lane):
        video = data.draw(st.sampled_from(videos))
        rates = data.draw(st.lists(st.floats(0.2, 8.0), min_size=1, max_size=4))
        sessions[lane] = StreamingSession(video, ChunkIndexedBandwidth(rates, cycle=True))
        adapter.start(lane, sessions[lane], np.random.default_rng(lane))

    for lane in range(n_lanes):
        start(lane)
    while sessions:
        lanes = sorted(sessions)
        for lane in lanes:
            want = build_features(sessions[lane].observation(), sessions[lane].video)
            assert adapter._features[lane].tobytes() == want.tobytes()
        active = [sessions[lane] for lane in lanes]
        results = [
            session.download_chunk(data.draw(st.integers(0, session.video.n_bitrates - 1)))
            for session in active
        ]
        adapter.observe_round(lanes, active, results)
        for lane, result in zip(lanes, results):
            if result.done:
                session = sessions.pop(lane)
                want = build_features(session.observation(), session.video)
                assert adapter._features[lane].tobytes() == want.tobytes()
                adapter.finish(lane)
                if refills:
                    refills -= 1
                    start(lane)
