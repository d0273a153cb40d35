"""Benchmark: parallel session evaluation and the content-addressed cache.

Measures ``evaluate_protocols`` -- the replay loop behind Figures 1-2 and
the Figure 4 evaluation sweep -- in three configurations:

1. *serial cold*: the historical in-process loop (``workers=0``, no
   cache).  This is the baseline every other mode must reproduce
   bitwise.
2. *parallel cold*: the same sessions fanned over a persistent
   ``ProcessPoolExecutor`` (``repro.exec.ParallelMap``).  Sessions are
   independent replays, so the ideal speedup is the worker count.
3. *warm cache*: every session served from ``repro.exec.ResultCache``
   hits (a prior cold pass populated the store), measuring the
   replay-free floor for re-running an experiment.

Guards (CI runs ``--smoke``):

- all modes must return bitwise-identical results (enforced always);
- the second cached pass must serve 100% of sessions from the cache
  (enforced always);
- warm cache must be >= 10x serial in full mode (enforced always: disk
  reads vs MPC replays do not need spare cores);
- parallel >= serial at 2 workers in smoke mode, and >= 3x at 4 workers
  in full mode, are *parallelism* criteria, enforced only on hosts with
  at least 2 (resp. 4) cores -- on fewer cores the pool time-slices one
  CPU and pays pickling for nothing, which is exactly why ``workers=0``
  stays the default.

Run standalone (no pytest needed):

    PYTHONPATH=src python benchmarks/bench_parallel_eval.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from pathlib import Path

from repro.abr.protocols import MPC, BufferBased
from repro.abr.video import Video
from repro.exec import ResultCache
from repro.experiments.abr_suite import evaluate_protocols
from repro.traces.random_traces import random_abr_traces

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def build_workload(smoke: bool):
    """A corpus evaluation dominated by MPC's per-chunk plan search."""
    video = Video.synthetic(n_chunks=48, seed=1)
    n_traces = 12 if smoke else 40
    traces = random_abr_traces(n_traces, seed=0)
    protocols = {"robust-mpc": MPC()}
    if not smoke:
        protocols["mpc"] = MPC(robust=False)
        protocols["bb"] = BufferBased()
    return video, traces, protocols


def measure(video, traces, protocols, workers, cache):
    start = time.perf_counter()
    result = evaluate_protocols(
        video, traces, protocols, chunk_indexed=True,
        workers=workers, cache=cache,
    )
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke-test sizes (CI): fewer traces and protocols, 2 workers",
    )
    args = parser.parse_args()
    video, traces, protocols = build_workload(args.smoke)
    n_workers = 2 if args.smoke else 4
    n_sessions = len(traces) * len(protocols)

    cores = os.cpu_count() or 1
    lines = [
        "Parallel corpus evaluation + content-addressed result cache",
        f"host cores: {cores}",
        f"workload: {len(traces)} traces x {len(protocols)} protocols "
        f"({n_sessions} sessions, 48-chunk video, chunk-indexed)",
        "",
    ]

    serial_t, serial = measure(video, traces, protocols, workers=0, cache=False)
    par_t, par = measure(video, traces, protocols, workers=n_workers, cache=False)
    if par != serial:
        print("FAIL: parallel results differ from the serial loop")
        return 1

    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        cache = ResultCache(tmp)
        cold_t, cold = measure(video, traces, protocols, workers=0, cache=cache)
        warm_t, warm = measure(video, traces, protocols, workers=0, cache=cache)
        warm_hits, warm_misses = cache.hits, cache.misses - n_sessions
        cache_line = cache.summary()
    if cold != serial or warm != serial:
        print("FAIL: cached results differ from the serial loop")
        return 1

    par_speedup = serial_t / par_t
    warm_speedup = serial_t / warm_t
    lines += [
        f"{'mode':>24} {'seconds':>9} {'sessions/s':>11} {'speedup':>8}",
        f"{'serial cold':>24} {serial_t:>9.3f} {n_sessions / serial_t:>11.0f} "
        f"{1.0:>7.2f}x",
        f"{f'parallel x{n_workers} cold':>24} {par_t:>9.3f} "
        f"{n_sessions / par_t:>11.0f} {par_speedup:>7.2f}x",
        f"{'cold + cache stores':>24} {cold_t:>9.3f} "
        f"{n_sessions / cold_t:>11.0f} {serial_t / cold_t:>7.2f}x",
        f"{'warm cache':>24} {warm_t:>9.3f} {n_sessions / warm_t:>11.0f} "
        f"{warm_speedup:>7.2f}x",
        "",
        cache_line,
    ]
    print("\n".join(lines))

    if cores < max(n_workers, 2):
        note = [
            "",
            f"note: parallel x{n_workers} at {par_speedup:.2f}x on a "
            f"{cores}-core host -- the pool time-slices one CPU, so the",
            "speedup bars apply to multi-core hosts (see module docstring);",
            "the warm-cache bar is core-independent and enforced here.",
        ]
        lines += note
        print("\n".join(note))

    table = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "bench_parallel_eval.txt"
    out.write_text(table)
    print(f"\nwrote {out}")

    status = 0
    if warm_misses != 0 or warm_hits != n_sessions:
        print(
            f"FAIL: warm pass served {warm_hits}/{n_sessions} sessions "
            f"({warm_misses} misses) -- expected a 100% hit rate"
        )
        status = 1
    if args.smoke:
        if par_t > serial_t and cores >= 2:
            print(
                f"FAIL: parallel x{n_workers} ({par_t:.3f}s) slower than "
                f"serial ({serial_t:.3f}s) on a {cores}-core host"
            )
            status = 1
    else:
        if par_speedup < 3.0 and cores >= 4:
            print(f"FAIL: parallel x{n_workers} speedup {par_speedup:.2f}x below 3x")
            status = 1
        if warm_speedup < 10.0:
            print(f"FAIL: warm-cache speedup {warm_speedup:.2f}x below 10x")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
