"""The four benchmark workloads: the paper's pipelines as batch jobs.

Each workload is one in-process caller driving a closed loop of public
``repro`` entry points with no concurrency (``workers=0``, no pool).  It
has three parts:

- ``setup(seed, sizes)`` builds every input from the seed through
  ``np.random.SeedSequence`` (video, corpora, trained targets, configs);
- ``run(inputs, sizes)`` is the timed pipeline pass and returns its
  outputs;
- ``check(inputs, outputs, sizes)`` reads only public results and returns
  ``(name, ok)`` pairs; ``summary(outputs)`` is what the output digest
  covers.

Library entry points are called through their modules
(``abr_suite.evaluate_protocols``) so the ``--trace`` wrappers see them.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.abr.protocols import MPC, BufferBased
from repro.abr.protocols import pensieve
from repro.abr.video import Video
from repro.adversary import abr_env, cc_env, generation
from repro.cc import matrix
from repro.cc.protocols.bbr import BBRSender
from repro.exec import ResultCache, spawn_seeds
from repro.experiments import abr_suite, cc_suite
from repro.rl.ppo import PPOConfig
from repro.traces.random_traces import random_abr_traces
from repro.traces.synthetic import make_dataset

#: The ABR adversary's action range (section 3 of the paper), in Mbps.
ABR_BW_RANGE = (0.8, 4.8)

WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    smoke: dict
    setup: Callable[[int, dict], Any]
    run: Callable[[Any, dict], Any]
    check: Callable[[Any, Any, dict], list[tuple[str, bool]]]
    summary: Callable[[Any], Any]


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _within(values, lo: float, hi: float) -> bool:
    arr = np.asarray(values, dtype=float)
    return bool(np.all((arr >= lo) & (arr <= hi)))


# ---------------------------------------------------------------------------
# abr_attack: Pensieve target -> ABR adversaries -> traces -> Fig. 1/2 eval.
# ---------------------------------------------------------------------------


def _abr_attack_setup(seed: int, sizes: dict) -> dict:
    s = spawn_seeds(seed, 9)
    video = Video.synthetic(n_chunks=sizes["chunks"], seed=s[0])
    corpus = make_dataset("broadband", sizes["train_traces"], seed=s[1]) + make_dataset(
        "3g", sizes["train_traces"], seed=s[2]
    )
    target = pensieve.train_pensieve(
        corpus, video, total_steps=sizes["pensieve_steps"], seed=s[3]
    )
    return {
        "video": video,
        "target": target.agent,
        "random": random_abr_traces(sizes["traces"], seed=s[4], n_segments=sizes["chunks"]),
        "adv_seeds": s[5:7],
        "trace_seeds": s[7:9],
    }


def _abr_protocols(inputs: dict) -> dict:
    return {"pensieve": inputs["target"], "mpc": MPC(robust=False), "bb": BufferBased()}


def _abr_attack_run(inputs: dict, sizes: dict) -> dict:
    video = inputs["video"]
    targets = {"anti-mpc": MPC(robust=False), "anti-pensieve": inputs["target"]}
    steps = {"anti-mpc": sizes["mpc_adv_steps"], "anti-pensieve": sizes["pensieve_adv_steps"]}
    config = replace(
        abr_env.default_abr_adversary_config(),
        n_steps=sizes["adv_rollout"], batch_size=sizes["adv_batch"],
    )
    corpora = {}
    for (name, target), adv_seed, trace_seed in zip(
        targets.items(), inputs["adv_seeds"], inputs["trace_seeds"]
    ):
        adversary = abr_env.train_abr_adversary(
            target, video, total_steps=steps[name], seed=adv_seed,
            config=config, n_envs=sizes["n_envs"], vec_backend="batched",
        )
        rollouts = generation.generate_abr_traces(
            adversary.trainer, adversary.env, sizes["traces"], name_prefix=name,
            seed=trace_seed, workers=0, batch_size=sizes["n_envs"],
        )
        corpora[name] = [r.trace for r in rollouts]
    corpora["random"] = inputs["random"]
    qoe = {
        name: abr_suite.evaluate_protocols(
            video, traces, _abr_protocols(inputs), chunk_indexed=True,
            workers=0, cache=False, batch_size=sizes["eval_batch"],
        )
        for name, traces in corpora.items()
    }
    return {"corpora": corpora, "qoe": qoe}


def _abr_attack_check(inputs: dict, out: dict, sizes: dict) -> list[tuple[str, bool]]:
    checks = []
    for corpus, per_protocol in out["qoe"].items():
        for protocol, values in per_protocol.items():
            checks.append((f"qoe_finite[{corpus}/{protocol}]", _finite(values)))
        sample = out["corpora"][corpus][: sizes["replay_sample"]]
        serial = abr_suite.evaluate_protocols(
            inputs["video"], sample, _abr_protocols(inputs), chunk_indexed=True,
            workers=0, cache=False, batch_size=0,
        )
        for protocol, values in serial.items():
            batched = per_protocol[protocol][: len(sample)]
            checks.append((f"serial_equals_batched[{corpus}/{protocol}]", values == batched))
    for corpus in ("anti-mpc", "anti-pensieve"):
        bandwidths = [t.bandwidths_mbps for t in out["corpora"][corpus]]
        checks.append((f"bandwidth_in_range[{corpus}]", _within(bandwidths, *ABR_BW_RANGE)))
    return checks


def _abr_attack_summary(out: dict) -> dict:
    return {
        "qoe": out["qoe"],
        "bandwidths": {
            name: [t.bandwidths_mbps.tolist() for t in traces]
            for name, traces in out["corpora"].items()
        },
    }


# ---------------------------------------------------------------------------
# abr_robustify: the Fig. 4 pipeline on the library's serial defaults.
# ---------------------------------------------------------------------------


def _abr_robustify_setup(seed: int, sizes: dict) -> dict:
    s = spawn_seeds(seed, 6)
    n = sizes["train_traces"]
    return {
        "video": Video.synthetic(n_chunks=sizes["chunks"], seed=s[0]),
        "train": make_dataset("broadband", n, seed=s[1]) + make_dataset("3g", n, seed=s[2]),
        "test": {
            "broadband": make_dataset("broadband", sizes["test_traces"], seed=s[3]),
            "3g": make_dataset("3g", sizes["test_traces"], seed=s[4]),
        },
        "seed": s[5],
    }


def _abr_robustify_run(inputs: dict, sizes: dict):
    return abr_suite.run_robustness_experiment(
        inputs["video"], inputs["train"], inputs["test"], "mixed",
        total_steps=sizes["pensieve_steps"], adversary_steps=sizes["adv_steps"],
        n_adversarial_traces=sizes["adv_traces"], switch_fractions=(0.7, 0.9),
        seed=inputs["seed"], workers=0, cache=False, batch_size=0,
        pensieve_config=replace(
            pensieve.default_pensieve_config(),
            n_steps=sizes["pensieve_rollout"], batch_size=sizes["pensieve_batch"],
        ),
        adversary_config=replace(
            abr_env.default_abr_adversary_config(),
            n_steps=sizes["adv_rollout"], batch_size=sizes["adv_batch"],
        ),
    )


def _abr_robustify_check(inputs: dict, out, sizes: dict) -> list[tuple[str, bool]]:
    checks = [
        (f"trace_count[{variant}]", count == sizes["adv_traces"])
        for variant, count in out.adversarial_trace_count.items()
    ]
    checks.append(("variants", sorted(out.qoe) == ["adv@70%", "adv@90%", "without"]))
    for variant, per_set in out.qoe.items():
        checks.append((f"qoe_finite[{variant}]", _finite(list(per_set.values()))))
    return checks


def _abr_robustify_summary(out) -> dict:
    return {"qoe": out.qoe, "traces": out.adversarial_trace_count}


# ---------------------------------------------------------------------------
# cc_attack: CC adversary vs BBR -> the Fig. 5 online runs and replays.
# ---------------------------------------------------------------------------


def _cc_config(sizes: dict) -> PPOConfig:
    # The tuned CC-adversary settings the experiment benches use: gamma
    # 0.997 spans BBR's ~10 s probing horizon in 30 ms intervals.
    return PPOConfig(
        n_steps=sizes["rollout"], batch_size=256, n_epochs=6, learning_rate=3e-4,
        ent_coef=0.001, hidden=(4,), init_log_std=-0.7, target_kl=0.03,
        gamma=0.997, gae_lambda=0.97,
    )


def _cc_attack_setup(seed: int, sizes: dict) -> dict:
    adv_seed, rollout_seed, replay_seed = spawn_seeds(seed, 3)
    return {"adv_seed": adv_seed, "rollout_seed": rollout_seed, "replay_seed": replay_seed}


def _cc_attack_run(inputs: dict, sizes: dict) -> dict:
    adversary = cc_env.train_cc_adversary(
        BBRSender, total_steps=sizes["adv_steps"], seed=inputs["adv_seed"],
        config=_cc_config(sizes), episode_intervals=sizes["episode_intervals"],
    )
    experiment = cc_suite.run_bbr_adversarial_experiment(
        adversary.trainer, adversary.env, n_online=sizes["rollouts"],
        n_replay=sizes["rollouts"], replay_seed=inputs["replay_seed"],
        rollout_seed=inputs["rollout_seed"], workers=0, cache=False,
    )
    return {"adversary": adversary, "experiment": experiment}


def _cc_attack_check(inputs: dict, out: dict, sizes: dict) -> list[tuple[str, bool]]:
    exp = out["experiment"]
    runs = {f"replay{i}": r.intervals for i, r in enumerate(exp.replayed)}
    runs["deterministic"] = exp.deterministic.intervals
    fractions = exp.online_capacity_fractions + [r.capacity_fraction for r in exp.replayed]
    checks = [
        ("online_count", len(exp.online_capacity_fractions) == sizes["rollouts"]),
        ("capacity_fraction_in_unit", _within(fractions, 0.0, 1.0)),
    ]
    for name, intervals in runs.items():
        checks.append((f"utilization_in_unit[{name}]",
                       _within([s.utilization for s in intervals], 0.0, 1.0)))
        checks.append((f"drops_nonnegative[{name}]", all(
            s.drops_loss >= 0 and s.drops_queue >= 0 for s in intervals
        )))
    return checks


def _cc_attack_summary(out: dict) -> dict:
    exp = out["experiment"]
    return {
        "online": exp.online_capacity_fractions,
        "replayed": [[r.mean_utilization, r.mean_throughput_mbps, r.loss_fraction]
                     for r in exp.replayed],
        "deterministic": exp.deterministic.capacity_fraction,
        "probes": exp.deterministic_probe_times_s,
        "returns": [h["mean_episode_reward"] for h in out["adversary"].history],
    }


# ---------------------------------------------------------------------------
# cc_contention: the contended-link scenario matrix, cold then warm cache.
# ---------------------------------------------------------------------------


def _cc_contention_setup(seed: int, sizes: dict) -> dict:
    seeds = spawn_seeds(seed, 2 * sizes["grids"])
    return {"grids": [(seeds[2 * i], seeds[2 * i + 1]) for i in range(sizes["grids"])]}


def _cc_contention_run(inputs: dict, sizes: dict) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    try:
        cache = ResultCache(root)
        passes = {}
        for phase in ("cold", "warm"):
            hits, misses = cache.hits, cache.misses
            passes[phase] = [
                matrix.run_cc_matrix(
                    n_intervals=sizes["intervals"], seed=grid_seed,
                    schedule_seed=schedule_seed, workers=0, cache=cache,
                )
                for grid_seed, schedule_seed in inputs["grids"]
            ]
            lookups = cache.hits - hits + cache.misses - misses
            passes[phase + "_hit_ratio"] = (cache.hits - hits) / lookups
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return passes


def _cells(grid) -> list:
    return [
        [c.protocol, c.scenario, list(c.flows), list(c.start_times), list(c.throughput_mbps),
         c.capacity_mbps, c.capacity_fraction, c.fairness]
        for c in grid.cells + grid.adversarial_variants
    ]


def _cc_contention_check(inputs: dict, out: dict, sizes: dict) -> list[tuple[str, bool]]:
    checks = [
        ("warm_hit_ratio", out["warm_hit_ratio"] == 1.0),
        ("cold_all_misses", out["cold_hit_ratio"] == 0.0),
    ]
    for i, (cold, warm) in enumerate(zip(out["cold"], out["warm"])):
        cells = cold.cells + cold.adversarial_variants
        checks += [
            (f"warm_equals_cold[{i}]", _cells(cold) == _cells(warm)),
            (f"capacity_fraction_in_unit[{i}]",
             _within([c.capacity_fraction for c in cells], 0.0, 1.0)),
            (f"fairness_in_unit[{i}]", _within([c.fairness for c in cells], 0.0, 1.0)),
            (f"link_not_oversubscribed[{i}]", all(
                sum(c.throughput_mbps) <= c.capacity_mbps * (1 + 1e-9) for c in cells
            )),
        ]
    return checks


def _cc_contention_summary(out: dict) -> list:
    return [_cells(grid) for grid in out["cold"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "abr_attack",
            full=dict(chunks=48, train_traces=30, pensieve_steps=3072, mpc_adv_steps=1536,
                      pensieve_adv_steps=6144, n_envs=16, adv_rollout=96, adv_batch=96,
                      traces=8, eval_batch=64, replay_sample=4),
            smoke=dict(chunks=12, train_traces=2, pensieve_steps=384, mpc_adv_steps=96,
                       pensieve_adv_steps=96, n_envs=4, adv_rollout=24, adv_batch=48,
                       traces=2, eval_batch=4, replay_sample=1),
            setup=_abr_attack_setup, run=_abr_attack_run,
            check=_abr_attack_check, summary=_abr_attack_summary,
        ),
        Workload(
            "abr_robustify",
            # The rollout and minibatch sizes of the full run are the
            # library's default Pensieve and adversary PPO settings.
            full=dict(chunks=48, train_traces=20, test_traces=8, pensieve_steps=3072,
                      pensieve_rollout=384, pensieve_batch=96, adv_steps=768,
                      adv_rollout=384, adv_batch=96, adv_traces=4),
            smoke=dict(chunks=12, train_traces=2, test_traces=2, pensieve_steps=160,
                       pensieve_rollout=48, pensieve_batch=48, adv_steps=48,
                       adv_rollout=48, adv_batch=48, adv_traces=2),
            setup=_abr_robustify_setup, run=_abr_robustify_run,
            check=_abr_robustify_check, summary=_abr_robustify_summary,
        ),
        Workload(
            "cc_attack",
            full=dict(rollout=2048, adv_steps=4096, episode_intervals=1000, rollouts=2),
            smoke=dict(rollout=256, adv_steps=256, episode_intervals=100, rollouts=1),
            setup=_cc_attack_setup, run=_cc_attack_run,
            check=_cc_attack_check, summary=_cc_attack_summary,
        ),
        Workload(
            "cc_contention",
            full=dict(grids=3, intervals=100),
            smoke=dict(grids=1, intervals=20),
            setup=_cc_contention_setup, run=_cc_contention_run,
            check=_cc_contention_check, summary=_cc_contention_summary,
        ),
    )
}
