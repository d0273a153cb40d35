"""Synthetic stand-ins for the paper's external trace datasets.

The paper trains Pensieve "once on the FCC broadband traces and once on
the 3G/HSDPA mobile dataset of traces collected in Norway" (section 3.3).
Both datasets are external artifacts; we generate statistically matched
synthetic corpora instead:

- :func:`fcc_broadband_like` -- wired broadband: relatively high mean
  bandwidth, mild mean-reverting variation, occasional short dips.
- :func:`hsdpa_3g_like` -- mobile 3G: low mean bandwidth, bursty
  Markov-modulated variation, outage periods close to zero throughput
  (the Norway traces were collected on commutes through tunnels).

What matters for reproducing Figure 4 is the *distribution shift*: the
broadband corpus lacks the deep-fade challenges of the 3G corpus, so a
Pensieve trained on broadband under-performs on 3G -- exactly the gap the
adversarial traces close.
"""

from __future__ import annotations

import numpy as np

from repro.traces.trace import Trace

__all__ = ["fcc_broadband_like", "hsdpa_3g_like", "make_dataset"]


def _ou_process(
    rng: np.random.Generator,
    n: int,
    mean: float,
    theta: float,
    sigma: float,
    x0: float | None = None,
) -> np.ndarray:
    """A discretized Ornstein-Uhlenbeck (mean-reverting) process.

    Stepped in Python floats, which round every op as float64 array
    elements would, at a fraction of the cost of ndarray scalar indexing.
    """
    noise = rng.standard_normal(n).tolist()
    x = float(mean if x0 is None else x0)
    path = [x]
    for t in range(1, n):
        x = x + theta * (mean - x) + sigma * noise[t]
        path.append(x)
    return np.array(path)


def fcc_broadband_like(
    rng: np.random.Generator,
    duration: float = 320.0,
    step_seconds: float = 1.0,
    name: str = "fcc-like",
) -> Trace:
    """One synthetic broadband trace (bandwidth-only, for ABR).

    Mean link rates are drawn log-normally around ~2.8 Mbps (the FCC 2016
    corpus as pre-processed for Pensieve concentrates in 0.2--6 Mbps);
    short-timescale variation is mild.
    """
    n = max(2, int(round(duration / step_seconds)))
    base = float(np.clip(rng.lognormal(mean=np.log(2.8), sigma=0.45), 0.6, 6.0))
    bw = _ou_process(rng, n, mean=base, theta=0.08, sigma=0.12 * base)
    # Occasional brief dips (heavy cross traffic), a few per trace.
    n_dips = rng.poisson(duration / 120.0)
    for _ in range(n_dips):
        start = int(rng.integers(0, n))
        width = int(rng.integers(2, 8))
        bw[start : start + width] *= rng.uniform(0.3, 0.7)
    bw = np.clip(bw, 0.2, 8.0)
    return Trace.from_steps(bw, step_seconds, name=name)


def hsdpa_3g_like(
    rng: np.random.Generator,
    duration: float = 320.0,
    step_seconds: float = 1.0,
    name: str = "hsdpa-like",
) -> Trace:
    """One synthetic 3G/HSDPA mobility trace (bandwidth-only, for ABR).

    A three-state Markov chain (good / degraded / outage) modulates a noisy
    rate process, reproducing the deep fades and near-outages of the
    Norway commute dataset.
    """
    n = max(2, int(round(duration / step_seconds)))
    base = float(np.clip(rng.lognormal(mean=np.log(1.3), sigma=0.5), 0.3, 4.0))
    # State transition matrix rows: good, degraded, outage.
    transition = np.array(
        [
            [0.92, 0.07, 0.01],
            [0.15, 0.78, 0.07],
            [0.10, 0.30, 0.60],
        ]
    )
    state_gain = np.array([1.0, 0.35, 0.12])
    # ``rng.choice(3, p=row)`` draws one uniform u and returns the number of
    # entries of ``row.cumsum() / row.sum()`` that are <= u; one block of
    # uniforms walked through the three rows' cdfs draws the same chain
    # without re-validating ``p`` per sample.
    cdf = transition.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    bounds = cdf[:, :2].tolist()
    states = [0]
    for u in rng.random(n - 1).tolist():
        low, high = bounds[states[-1]]
        states.append(0 if u < low else 1 if u < high else 2)
    noise = _ou_process(rng, n, mean=1.0, theta=0.25, sigma=0.25)
    bw = base * state_gain[states] * np.clip(noise, 0.1, 2.5)
    bw = np.clip(bw, 0.08, 6.0)
    return Trace.from_steps(bw, step_seconds, name=name)


def make_dataset(
    kind: str,
    n_traces: int,
    seed: int = 0,
    duration: float = 320.0,
    step_seconds: float = 1.0,
) -> list[Trace]:
    """Generate a corpus of ``n_traces`` traces of the given ``kind``.

    ``kind`` is ``"broadband"`` (FCC-like) or ``"3g"`` (HSDPA-like).
    """
    generators = {"broadband": fcc_broadband_like, "3g": hsdpa_3g_like}
    if kind not in generators:
        raise ValueError(f"unknown dataset kind {kind!r}; choose from {sorted(generators)}")
    rng = np.random.default_rng(seed)
    gen = generators[kind]
    return [
        gen(rng, duration=duration, step_seconds=step_seconds, name=f"{kind}-{i:03d}")
        for i in range(n_traces)
    ]
