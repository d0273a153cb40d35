"""Tests for white-box observation attacks (repro.attacks).

Covers the numerical core (finite-difference validation of the input
gradient on both backward paths, budget/envelope projection), the
decision-time wrappers (eps=0 no-op, seeded determinism across runs and
worker counts, serial-vs-batched bitwise identity, cache behaviour) and
the regression guards for the two hot-path hazards fixed alongside this
subsystem (``dout`` in-place scaling, ``flat_grads`` clobbering).
"""

import numpy as np
import pytest

from repro.abr.batched import run_batched_sessions, SessionSpec
from repro.abr.features import feature_dim
from repro.abr.protocols import run_session
from repro.abr.protocols.pensieve import PensieveAgent
from repro.abr.video import Video
from repro.attacks import (
    AttackConfig,
    AttackedPensieve,
    BatchedAttackedPensieve,
    attack_decision,
    feature_envelope,
    input_gradient,
    perturb_features,
)
from repro.exec import ResultCache
from repro.experiments.abr_suite import evaluate_protocols
from repro.nn.network import MLP
from repro.rl.policy import ActorCritic
from repro.rl.running_stat import RunningMeanStd
from repro.rl.spaces import Discrete
from repro.traces.trace import Trace

N_BITRATES = 6
FEAT_DIM = feature_dim(N_BITRATES)


def make_agent(seed: int = 3, deterministic: bool = True) -> PensieveAgent:
    policy = ActorCritic(
        FEAT_DIM, Discrete(N_BITRATES), hidden=(16, 8),
        rng=np.random.default_rng(seed),
    )
    obs_rms = RunningMeanStd(shape=(FEAT_DIM,))
    obs_rms.update(
        np.random.default_rng(seed + 50).uniform(0.0, 3.0, size=(64, FEAT_DIM))
    )
    return PensieveAgent(policy, obs_rms=obs_rms, deterministic=deterministic)


@pytest.fixture(scope="module")
def video():
    return Video.synthetic(n_chunks=12, seed=0)


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(7)
    return [
        Trace.from_steps(rng.uniform(0.4, 5.5, size=10), 4.0, name=f"t{i}")
        for i in range(4)
    ]


# -- config ------------------------------------------------------------------


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="bim")
        with pytest.raises(ValueError):
            AttackConfig(norm="l1")
        with pytest.raises(ValueError):
            AttackConfig(eps=-0.1)
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd", steps=0)
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd", step_size=0.0)
        with pytest.raises(ValueError):
            AttackConfig(target_action=-1)

    def test_fgsm_is_single_full_step(self):
        config = AttackConfig(kind="fgsm", eps=0.3, steps=40, step_size=0.001)
        assert config.resolved_steps == 1
        assert config.resolved_step_size == 0.3

    def test_pgd_default_schedule(self):
        config = AttackConfig(kind="pgd", eps=0.1, steps=10)
        assert config.resolved_steps == 10
        assert config.resolved_step_size == pytest.approx(2.5 * 0.1 / 10)

    def test_labels(self):
        assert AttackConfig(kind="fgsm", eps=0.05).label() == "fgsm-linf-0.05"
        assert (
            AttackConfig(kind="pgd", norm="l2", eps=0.3, steps=7,
                         targeted=True, target_action=2).label()
            == "pgd7-l2-0.3-t2"
        )


# -- input gradient: finite differences on both backward paths ---------------


def _objective(net, obs_rms, x, reference, config):
    """The scalar the attack ascends, recomputed from scratch."""
    z = obs_rms.normalize(x) if obs_rms is not None else x
    logits = net.forward(np.asarray(z, dtype=float).reshape(1, -1))[0]
    shifted = logits - logits.max()
    logp = shifted - np.log(np.sum(np.exp(shifted)))
    if config.targeted:
        return float(logp[config.target_action])
    return float(-logp[reference])


def _fd_check(net, obs_rms, x, reference, config):
    _, grad = input_gradient(net, obs_rms, x, reference, config)
    eps = 1e-6
    for i in range(x.size):
        up = x.copy()
        up[i] += eps
        down = x.copy()
        down[i] -= eps
        numeric = (
            _objective(net, obs_rms, up, reference, config)
            - _objective(net, obs_rms, down, reference, config)
        ) / (2 * eps)
        assert abs(numeric - grad[i]) < 1e-6


class TestInputGradient:
    @pytest.mark.parametrize("targeted", [False, True])
    def test_finite_differences_through_normalization(self, targeted):
        agent = make_agent(seed=11)
        net = agent.policy.policy_net
        x = np.random.default_rng(5).uniform(0.2, 2.0, size=FEAT_DIM)
        config = AttackConfig(kind="pgd", targeted=targeted, target_action=1)
        _fd_check(net, agent.obs_rms, x, reference=2, config=config)

    def test_finite_differences_without_normalization(self):
        agent = make_agent(seed=12)
        net = agent.policy.policy_net
        x = np.random.default_rng(6).uniform(-1.0, 1.0, size=FEAT_DIM)
        _fd_check(net, None, x, reference=0, config=AttackConfig())

    def test_clip_saturated_slots_get_zero_gradient(self):
        agent = make_agent(seed=13)
        rms = agent.obs_rms
        x = np.random.default_rng(8).uniform(0.2, 2.0, size=FEAT_DIM)
        # Push one slot far past the +-10 normalization clip: locally flat.
        x[3] = rms.mean[3] + 100.0 * np.sqrt(rms.var[3] + 1e-8)
        _, grad = input_gradient(
            agent.policy.policy_net, rms, x, 0, AttackConfig()
        )
        assert grad[3] == 0.0
        assert np.any(grad != 0.0)

    def test_byteswapped_dout_matches_native(self):
        """``MLP.backward`` coerces a byte-swapped (``>f8``) dout to native
        float64, so its input gradient equals a native dout's bit for bit."""
        rng = np.random.default_rng(2)
        net = MLP((5, 8, 3), rng)
        x = rng.standard_normal((1, 5))
        dout = rng.standard_normal((1, 3))
        net.forward(x)
        native = net.backward(dout.copy(), need_input_grad=True).copy()
        net.forward(x)
        swapped = net.backward(dout.astype(">f8"), need_input_grad=True)
        assert swapped.dtype == np.float64
        assert swapped.tobytes() == native.tobytes()

    def test_byteswapped_dout_finite_differences(self):
        rng = np.random.default_rng(3)
        net = MLP((4, 6, 2), rng, activation="tanh")
        x = rng.standard_normal((1, 4))
        w = rng.standard_normal((1, 2))

        def loss(xv):
            return float(np.sum(net.forward(xv) * w))

        net.forward(x)
        grad = np.asarray(
            net.backward(w.astype(">f8"), need_input_grad=True), dtype=float
        )[0]
        eps = 1e-6
        for i in range(x.size):
            up = x.copy()
            up[0, i] += eps
            down = x.copy()
            down[0, i] -= eps
            assert abs((loss(up) - loss(down)) / (2 * eps) - grad[i]) < 1e-6


class TestBackwardInputGradHazards:
    def test_dout_not_mutated(self):
        """Regression: fast-path activations scale dout in place;
        backward_input_grad must leave the caller's array untouched."""
        rng = np.random.default_rng(4)
        net = MLP((5, 8, 3), rng, activation="tanh")
        x = rng.standard_normal((2, 5))
        dout = rng.standard_normal((2, 3))
        snapshot = dout.copy()
        net.forward(x)
        net.backward_input_grad(dout)
        np.testing.assert_array_equal(dout, snapshot)

    def test_result_survives_later_passes(self):
        """The plain backward return aliases first-layer scratch; the
        copying entry point's result must not change under later passes."""
        rng = np.random.default_rng(5)
        net = MLP((5, 8, 3), rng)
        x1, x2 = rng.standard_normal((2, 2, 5))
        d1, d2 = rng.standard_normal((2, 2, 3))
        net.forward(x1)
        g1 = net.backward_input_grad(d1)
        frozen = g1.copy()
        net.forward(x2)
        net.backward_input_grad(d2)
        np.testing.assert_array_equal(g1, frozen)

    def test_matches_plain_backward(self):
        rng = np.random.default_rng(6)
        net = MLP((5, 8, 3), rng)
        x = rng.standard_normal((3, 5))
        dout = rng.standard_normal((3, 3))
        net.forward(x)
        reference = net.backward(dout.copy(), need_input_grad=True).copy()
        net.forward(x)
        np.testing.assert_array_equal(net.backward_input_grad(dout), reference)


# -- crafting: budget, envelope, purity --------------------------------------


CONFIGS = [
    AttackConfig(kind="fgsm", norm="linf", eps=0.05),
    AttackConfig(kind="fgsm", norm="l2", eps=0.3),
    AttackConfig(kind="pgd", norm="linf", eps=0.05, steps=5),
    AttackConfig(kind="pgd", norm="l2", eps=0.3, steps=5),
    AttackConfig(kind="pgd", norm="linf", eps=0.05, steps=5, targeted=True),
    AttackConfig(kind="pgd", norm="linf", eps=0.05, steps=5, rand_init=True),
]


class TestPerturbFeatures:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label())
    def test_budget_and_envelope_respected(self, config, video):
        agent = make_agent(seed=21)
        lo, hi = feature_envelope(video)
        x0 = np.random.default_rng(9).uniform(0.1, 1.5, size=FEAT_DIM)
        x0 = np.clip(x0, lo, np.minimum(hi, 10.0))
        rng = np.random.default_rng(config.seed) if config.rand_init else None
        x_adv = perturb_features(
            agent.policy.policy_net, agent.obs_rms, x0, config, lo, hi, rng
        )
        assert np.all(x_adv >= lo) and np.all(x_adv <= hi)
        delta = x_adv - x0
        if config.norm == "linf":
            assert np.max(np.abs(delta)) <= config.eps + 1e-12
        else:
            assert np.sqrt(np.sum(delta * delta)) <= config.eps + 1e-12
        assert np.any(delta != 0.0)  # the attack actually moved

    def test_eps_zero_is_identity_copy(self, video):
        agent = make_agent(seed=22)
        lo, hi = feature_envelope(video)
        x0 = np.random.default_rng(10).uniform(0.1, 1.5, size=FEAT_DIM)
        out = perturb_features(
            agent.policy.policy_net, agent.obs_rms, x0,
            AttackConfig(eps=0.0), lo, hi,
        )
        assert out is not x0
        np.testing.assert_array_equal(out, x0)

    def test_input_features_never_mutated(self, video):
        agent = make_agent(seed=23)
        lo, hi = feature_envelope(video)
        x0 = np.random.default_rng(11).uniform(0.1, 1.5, size=FEAT_DIM)
        snapshot = x0.copy()
        perturb_features(
            agent.policy.policy_net, agent.obs_rms, x0,
            AttackConfig(kind="pgd", steps=5), lo, hi,
        )
        np.testing.assert_array_equal(x0, snapshot)

    def test_flat_grads_restored_after_crafting(self, video):
        """Regression: crafting once zeroed the policy's gradient buffer,
        permanently changing the agent's content fingerprint (cache keys
        stopped matching after the first attacked session)."""
        agent = make_agent(seed=24)
        net = agent.policy.policy_net
        marker = np.arange(1.0, net.flat_grads.size + 1.0)
        net.flat_grads[:] = marker
        lo, hi = feature_envelope(video)
        x0 = np.random.default_rng(12).uniform(0.1, 1.5, size=FEAT_DIM)
        perturb_features(
            net, agent.obs_rms, x0, AttackConfig(kind="pgd", steps=5), lo, hi
        )
        np.testing.assert_array_equal(net.flat_grads, marker)

    def test_rand_init_requires_rng(self, video):
        agent = make_agent(seed=25)
        lo, hi = feature_envelope(video)
        x0 = np.random.default_rng(13).uniform(0.1, 1.5, size=FEAT_DIM)
        with pytest.raises(ValueError):
            perturb_features(
                agent.policy.policy_net, agent.obs_rms, x0,
                AttackConfig(kind="pgd", rand_init=True), lo, hi,
            )

    def test_rand_init_seeded_reproducible(self, video):
        agent = make_agent(seed=26)
        lo, hi = feature_envelope(video)
        x0 = np.random.default_rng(14).uniform(0.1, 1.5, size=FEAT_DIM)
        config = AttackConfig(kind="pgd", rand_init=True, seed=9, steps=3)
        runs = [
            perturb_features(
                agent.policy.policy_net, agent.obs_rms, x0, config, lo, hi,
                np.random.default_rng(config.seed),
            )
            for _ in range(2)
        ]
        assert runs[0].tobytes() == runs[1].tobytes()


class TestAttackDecision:
    def test_eps_zero_matches_clean_agent(self, video):
        agent = make_agent(seed=31)
        lo, hi = feature_envelope(video)
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, size=FEAT_DIM)
            action, x_adv = attack_decision(
                agent.policy.policy_net, agent.obs_rms,
                agent.policy.policy_net, agent.obs_rms,
                x, AttackConfig(eps=0.0), lo, hi,
            )
            z = agent.obs_rms.normalize(x)
            clean = agent.policy.act(z, np.random.default_rng(0), deterministic=True)
            assert action == clean
            np.testing.assert_array_equal(x_adv, x)

    def test_untargeted_flips_some_decisions(self, video):
        agent = make_agent(seed=32)
        lo, hi = feature_envelope(video)
        rng = np.random.default_rng(16)
        config = AttackConfig(kind="pgd", eps=0.5, steps=10)
        flipped = 0
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, size=FEAT_DIM)
            clean, _ = attack_decision(
                agent.policy.policy_net, agent.obs_rms,
                agent.policy.policy_net, agent.obs_rms,
                x, AttackConfig(eps=0.0), lo, hi,
            )
            attacked, _ = attack_decision(
                agent.policy.policy_net, agent.obs_rms,
                agent.policy.policy_net, agent.obs_rms,
                x, config, lo, hi,
            )
            flipped += attacked != clean
        assert flipped > 0


# -- decision-time wrappers --------------------------------------------------


def _session_bytes(result) -> bytes:
    parts = [np.asarray(result.qualities, dtype=float)]
    parts += [
        np.asarray(v, dtype=float)
        for v in (result.bitrates_kbps, result.rebuffer_seconds,
                  result.buffer_seconds, [result.qoe_total, result.qoe_mean])
    ]
    return b"".join(p.tobytes() for p in parts)


class TestAttackedPensieve:
    def test_rejects_stochastic_victim(self):
        agent = make_agent(deterministic=False)
        with pytest.raises(ValueError):
            AttackedPensieve(agent, AttackConfig())

    def test_rejects_out_of_range_target(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            AttackedPensieve(
                agent, AttackConfig(targeted=True, target_action=N_BITRATES)
            )

    def test_eps_zero_session_matches_clean(self, video, traces):
        agent = make_agent(seed=41)
        wrapped = AttackedPensieve(agent, AttackConfig(eps=0.0))
        for trace in traces:
            clean = run_session(video, trace, agent)
            attacked = run_session(video, trace, wrapped)
            assert _session_bytes(clean) == _session_bytes(attacked)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label())
    def test_seeded_runs_bitwise_reproducible(self, config, video, traces):
        agent = make_agent(seed=42)
        runs = [
            [
                run_session(video, t, AttackedPensieve(agent, config))
                for t in traces
            ]
            for _ in range(2)
        ]
        for a, b in zip(*runs):
            assert _session_bytes(a) == _session_bytes(b)

    def test_determinism_across_worker_counts(self, video, traces):
        agent = make_agent(seed=43)
        config = AttackConfig(kind="pgd", eps=0.05, steps=3, rand_init=True)
        protocols = {"atk": AttackedPensieve(agent, config)}
        serial = evaluate_protocols(video, traces, protocols, cache=False)
        fanned = evaluate_protocols(
            video, traces, protocols, workers=2, cache=False
        )
        assert np.asarray(serial["atk"]).tobytes() == np.asarray(
            fanned["atk"]
        ).tobytes()

    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_serial_batched_bitwise_identity(self, batch_size, video, traces):
        agent = make_agent(seed=44)
        config = AttackConfig(kind="pgd", eps=0.05, steps=3, rand_init=True)
        wrapped = AttackedPensieve(agent, config)
        corpus = [
            SessionSpec(video=video, bandwidth=t, chunk_indexed=(i % 2 == 0))
            for i, t in enumerate(traces)
        ]
        serial = [
            run_session(
                s.video, s.bandwidth, wrapped, chunk_indexed=s.chunk_indexed
            )
            for s in corpus
        ]
        batched = run_batched_sessions(corpus, wrapped, batch_size)
        for a, b in zip(serial, batched):
            assert _session_bytes(a) == _session_bytes(b)

    def test_batched_adapter_hook(self):
        from repro.abr.batched import GenericBatched, as_batched

        wrapped = AttackedPensieve(make_agent(), AttackConfig())
        adapter = as_batched(wrapped)
        assert isinstance(adapter, BatchedAttackedPensieve)
        assert adapter.wrapper is wrapped

        # A subclass does not inherit the hook: it may decide differently.
        class Relabelled(AttackedPensieve):
            pass

        assert type(as_batched(Relabelled(make_agent(), AttackConfig()))) is GenericBatched

    def test_cache_hit_on_rerun(self, video, traces, tmp_path):
        agent = make_agent(seed=45)
        wrapped = AttackedPensieve(agent, AttackConfig(kind="fgsm", eps=0.05))
        cache = ResultCache(tmp_path)
        first = evaluate_protocols(video, traces, {"atk": wrapped}, cache=cache)
        misses = cache.misses
        # Fresh wrapper instance: keys must depend on content, not identity.
        again = evaluate_protocols(
            video, traces,
            {"atk": AttackedPensieve(agent, AttackConfig(kind="fgsm", eps=0.05))},
            cache=cache,
        )
        assert cache.misses == misses  # second pass fully served from cache
        assert first == again

    def test_cache_state_distinguishes_configs_and_surrogates(self):
        agent = make_agent(seed=46)
        other = make_agent(seed=47)
        self_attack = AttackedPensieve(agent, AttackConfig(eps=0.05))
        assert self_attack.__cache_state__()["surrogate"] is None
        transfer = AttackedPensieve(agent, AttackConfig(eps=0.05), surrogate=other)
        assert transfer.__cache_state__()["surrogate"] is other
        assert (
            AttackedPensieve(agent, AttackConfig(eps=0.1)).__cache_state__()
            != self_attack.__cache_state__()
        )

    def test_fingerprint_stable_across_attacked_sessions(self, video, traces):
        """Regression: an attacked run must not change the shared agent's
        cache identity (the flat_grads clobbering bug)."""
        from repro.exec.cache import make_key

        agent = make_agent(seed=48)
        agent.policy.policy_net.flat_grads[:] = 0.25  # leftover training grads
        wrapped = AttackedPensieve(agent, AttackConfig(kind="pgd", steps=3))
        before = make_key("probe", wrapped)
        run_session(video, traces[0], wrapped)
        assert make_key("probe", wrapped) == before
