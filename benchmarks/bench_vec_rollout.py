"""Benchmark: vectorized rollout collection throughput vs n_envs.

Measures raw adversary-env steps/sec at ``n_envs`` in
{1, 4, 8, 16, 32, 64} for two vec-env backends over two targets:

- *sync*: :class:`~repro.rl.vec_env.SyncVecEnv` stepping ``n_envs``
  independent :class:`~repro.adversary.abr_env.AbrAdversaryEnv` worlds
  one after another -- the serial reference: per env per step, one
  target-policy ``select`` and one scalar ``r_opt`` solve.
- *batched*: :class:`~repro.adversary.batched_env.BatchedAbrVecEnv`,
  which advances every world in lockstep with ONE batched target-policy
  evaluation and one vectorized ``r_opt`` solve per step.

Targets: ``bb`` (BufferBased -- a near-free target, so the gap is the
batched ``r_opt`` solve and the frame ring) and ``pensieve`` (a frozen
NN policy -- the headline case, where the batched backend also folds
``n_envs`` MLP forwards into one GEMM).

Both backends are driven with the identical action stream and each
timed pair is first verified bitwise: observations, rewards, dones.
Interleaved repeats with a per-cell median keep common-mode host drift
out of the speedup ratios.

Guards: batched >= 3x sync at n_envs=16 on the Pensieve target
(the PR acceptance bar); ``--quick`` (CI) runs a reduced grid with a
>= 2x floor to absorb loaded-box jitter.

Run standalone (no pytest needed):

    PYTHONPATH=src python benchmarks/bench_vec_rollout.py [--quick]
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

import numpy as np

from repro.abr.protocols import BufferBased
from repro.abr.video import Video
from repro.adversary.abr_env import AbrAdversaryEnv
from repro.rl.vec_env import SyncVecEnv
from repro.serve import make_demo_pensieve

N_ENVS_GRID = (1, 4, 8, 16, 32, 64)
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

TARGETS = {
    "bb": lambda: BufferBased(),
    "pensieve": lambda: make_demo_pensieve(),
}


def make_backends(target: str, n_envs: int, video: Video):
    factory = TARGETS[target]
    mk = lambda: AbrAdversaryEnv(factory(), video)  # noqa: E731
    sync = SyncVecEnv([mk for _ in range(n_envs)], seed=0)
    batched = mk().batched_vec_env(n_envs, seed=0)
    return sync, batched


def verify_bitwise(target: str, n_envs: int, video: Video, steps: int = 40) -> None:
    """Assert the two backends agree bit for bit on a short rollout."""
    sync, batched = make_backends(target, n_envs, video)
    obs_s = sync.reset(seed=7)
    obs_b = batched.reset(seed=7)
    assert obs_s.tobytes() == obs_b.tobytes(), f"{target} n={n_envs}: reset obs differ"
    rng = np.random.default_rng(13)
    for t in range(steps):
        acts = rng.uniform(-1.0, 1.0, size=(n_envs, 1))
        os_, rs, ds, _ = sync.step(acts)
        ob_, rb, db, _ = batched.step(acts)
        assert os_.tobytes() == ob_.tobytes(), f"{target} n={n_envs} t={t}: obs differ"
        assert np.asarray(rs, float).tobytes() == np.asarray(rb, float).tobytes(), (
            f"{target} n={n_envs} t={t}: rewards differ"
        )
        assert list(ds) == list(db), f"{target} n={n_envs} t={t}: dones differ"
    sync.close()
    batched.close()


def time_rollout(vec, n_envs: int, steps: int) -> float:
    """Wall-clock env-steps/sec of `steps` lockstep rounds."""
    vec.reset(seed=0)
    acts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(steps, n_envs, 1))
    start = time.perf_counter()
    for t in range(steps):
        vec.step(acts[t])
    return steps * n_envs / (time.perf_counter() - start)


def measure(target: str, n_envs: int, video: Video, steps: int, repeats: int):
    """Interleaved sync/batched medians -> (sync steps/s, batched steps/s)."""
    sync, batched = make_backends(target, n_envs, video)
    # Warm-up: obs-rms-free here, but primes the plan/quality caches and
    # the allocator so the first timed pass is not an outlier.
    time_rollout(sync, n_envs, min(steps, 16))
    time_rollout(batched, n_envs, min(steps, 16))
    s_rates, b_rates = [], []
    for _ in range(repeats):
        s_rates.append(time_rollout(sync, n_envs, steps))
        b_rates.append(time_rollout(batched, n_envs, steps))
    sync.close()
    batched.close()
    return statistics.median(s_rates), statistics.median(b_rates)


def render_table(rows) -> str:
    lines = [
        "Vectorized adversary rollout backends (sync vs batched, steps/sec)",
        "",
        f"{'target':<10} {'n_envs':>7} {'sync':>10} {'batched':>10} {'speedup':>9}",
    ]
    for target, n_envs, s, b in rows:
        lines.append(
            f"{target:<10} {n_envs:>7} {s:>10.0f} {b:>10.0f} {b / s:>8.2f}x"
        )
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-test sizes (CI): pensieve only, widths (1, 16), >=2x floor",
    )
    args = parser.parse_args()
    steps = 64 if args.quick else 256
    repeats = 1 if args.quick else 3
    grid = (1, 16) if args.quick else N_ENVS_GRID
    targets = ("pensieve",) if args.quick else tuple(TARGETS)
    floor = 2.0 if args.quick else 3.0

    video = Video.synthetic(n_chunks=48, seed=1)
    for target in targets:
        verify_bitwise(target, min(4, max(grid)), video)
    print("bitwise identity sync == batched: verified")

    rows = []
    for target in targets:
        for n_envs in grid:
            s, b = measure(target, n_envs, video, steps, repeats)
            rows.append((target, n_envs, s, b))
            print(f"{target:<10} n_envs={n_envs:<3d} sync {s:>8.0f}  "
                  f"batched {b:>8.0f}  ({b / s:.2f}x)")

    table = render_table(rows)
    if not args.quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / "bench_vec_rollout.txt"
        out.write_text(table)
        print(f"\nwrote {out}")

    # Acceptance bar: batched >= 3x sync at n_envs=16 on the Pensieve
    # target (>= 2x in --quick, where CI jitter on a loaded box is real).
    cell = {(t, n): b / s for t, n, s, b in rows}
    speedup16 = cell.get(("pensieve", 16), 0.0)
    if speedup16 < floor:
        print(f"FAIL: pensieve n_envs=16 batched speedup {speedup16:.2f}x "
              f"below {floor:.0f}x floor")
        return 1
    print(f"pensieve n_envs=16 speedup {speedup16:.2f}x (floor {floor:.0f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
