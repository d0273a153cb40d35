"""Figure 6: the CC adversary's deterministic actions over 30 seconds.

"Figure 6 shows the adversary's deterministic actions (i.e., before
exploration noise from training is added) over a 30 second trace, split
into 1000 intervals of 30ms.  The rapid fluctuations in bandwidth and
latency correspond exactly to the probing phases of BBR... Note that the
raw actions of the adversary may appear to be outside of the parameter
range, but exploration and clipping done by PPO will return the actions
to the acceptable range."

Reproduced shape: the deterministic action series varies substantially
more inside windows around BBR's probing epochs (~every 10 s) than in
between them.
"""

import numpy as np
from conftest import write_results

from repro.analysis import ascii_timeseries, format_table
from repro.experiments import run_bbr_adversarial_experiment


def action_variation(actions: np.ndarray, mask: np.ndarray) -> float:
    """Mean |step-to-step change| of the (bw, latency) actions under mask."""
    steps = np.abs(np.diff(actions[:, :2], axis=0)).sum(axis=1)
    selected = steps[mask[1:]]
    return float(selected.mean()) if selected.size else 0.0


def test_fig6_deterministic_actions(benchmark, cc_adversary_vs_bbr):
    experiment = benchmark.pedantic(
        run_bbr_adversarial_experiment,
        args=(cc_adversary_vs_bbr.trainer, cc_adversary_vs_bbr.env),
        kwargs={"n_online": 1, "n_replay": 1},
        rounds=1,
        iterations=1,
    )
    roll = experiment.deterministic
    actions = roll.raw_actions
    interval_s = cc_adversary_vs_bbr.env.interval_s
    n = actions.shape[0]
    times = np.arange(n) * interval_s

    # Windows of +-0.75 s around each PROBE_RTT entry of the attacked BBR.
    probe_mask = np.zeros(n, dtype=bool)
    for t_probe in experiment.deterministic_probe_times_s:
        probe_mask |= np.abs(times - t_probe) <= 0.75
    probing_var = action_variation(actions, probe_mask)
    steady_var = action_variation(actions, ~probe_mask)

    lines = ["Figure 6 -- deterministic adversary actions (raw, unclipped)\n"]
    for dim, name in enumerate(("bandwidth", "latency", "loss rate")):
        lines.append(f"raw {name} action:")
        lines.append(ascii_timeseries(actions[:, dim], label="30 ms intervals ->"))
    lines.append("")
    lines.append(
        format_table(
            ["where", "mean |action step| (bw+lat)"],
            [
                ["around BBR probing epochs", probing_var],
                ["between probes", steady_var],
            ],
        )
    )
    lines.append(
        f"\nBBR PROBE_RTT epochs at: "
        f"{[round(t, 1) for t in experiment.deterministic_probe_times_s]} s"
    )
    # Which policy this figure analyses: the deterministic (mean) actions,
    # not the stochastic rollouts Fig. 5 measures.
    lines.append(
        f"BBR capacity fraction: {roll.capacity_fraction:.3f} under these "
        f"deterministic actions, "
        f"{experiment.online_capacity_fractions[0]:.3f} in the stochastic "
        f"online rollout"
    )

    # Shape assertions: BBR probes under attack, and the adversary's
    # deterministic actions fluctuate more around those probing epochs
    # than in between (Figure 6's visual signature).  A strong adversary
    # partially *suppresses* probing (it keeps restamping the min-RTT
    # filter), so we require at least one epoch and, when several occur,
    # the ~10 s cadence.
    assert len(experiment.deterministic_probe_times_s) >= 1
    gaps = np.diff(experiment.deterministic_probe_times_s)
    assert np.all((gaps > 7.0) & (gaps < 16.0))
    assert probing_var > steady_var

    benchmark.extra_info["probing_variation"] = probing_var
    benchmark.extra_info["steady_variation"] = steady_var
    benchmark.extra_info["deterministic_capacity_fraction"] = roll.capacity_fraction
    text = "\n".join(lines)
    write_results("fig6_adversary_actions", text)
    print("\n" + text)
