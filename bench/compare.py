#!/usr/bin/env python3
"""Compare two sets of benchmark runs: medians, quartiles, bounds and claims.

    python3 bench/compare.py parent.json change.json
    python3 bench/compare.py bench/results/baseline.json   # its first two sets

Each file is a record written by ``bench/run.py --out``; A is the first
side (the parent), B the second (the change).  One row per workload and
metric gives each side's median and quartiles over its runs.  For the
end-to-end metrics, with their bounds from ``BENCHMARK.json``:

- ``WORSE``: B's median is worse than A's by more than the bound;
- ``unresolved``: either side's spread (quartile distance over median)
  exceeds the bound, unless every run of B reads better than every run
  of A;
- ``claim``: with at least 10 pairs (runs paired in order, alternating
  which side ran first), B claims a gain only if it wins at least 9 of
  every 10 pairs, ties counting for neither, and the medians differ by
  more than A's quartile distance.

Output digests are compared per seed, and failed/attempted checks per
side.  Exits 1 on a WORSE metric, a digest mismatch or more failed checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_sides(paths: list[Path]) -> tuple[list[dict], list[dict]]:
    docs = [json.loads(p.read_text())["runs"] for p in paths]
    if len(docs) == 2:
        return docs[0], docs[1]
    sets = sorted({run["set"] for run in docs[0]})
    if len(sets) < 2:
        sys.exit(f"error: {paths[0]} holds {len(sets)} set(s); give two files or two sets")
    return ([r for r in docs[0] if r["set"] == sets[0]],
            [r for r in docs[0] if r["set"] == sets[1]])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(x: float, y: float, direction: str) -> bool:
    """True when ``x`` reads strictly better than ``y``."""
    return x < y if direction == "lower" else x > y


def verdict(a: list[float], b: list[float], bound: float, direction: str) -> tuple[str, str]:
    """(bound verdict, claim) of B against A for one end-to-end metric."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    worse = (bm - am) / am if direction == "lower" else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound:
        every = all(better(y, x, direction) for x in a for y in b)
        status = "better(every run)" if every else "unresolved"
    else:
        status = "WORSE" if worse > bound else "ok"
    pairs = list(zip(a, b))
    if len(pairs) < MIN_PAIRS:
        claim = f"-(<{MIN_PAIRS} pairs)"
    else:
        wins = sum(better(y, x, direction) for x, y in pairs)
        gain = (wins >= WIN_SHARE * len(pairs) and better(bm, am, direction)
                and abs(bm - am) > a3 - a1)
        claim = f"{'gain' if gain else 'none'}({wins}/{len(pairs)})"
    return status, claim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="A.json B.json, or one two-set file")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two record files")
    side_a, side_b = load_sides(args.files)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    for label, runs in (("A", side_a), ("B", side_b)):
        shas = sorted({str(r["git_sha"])[:12] for r in runs})
        hosts = sorted({f"{r['host']} nproc={r['nproc']}" for r in runs})
        print(f"{label}: {len(runs)} runs, git {', '.join(shas)}, {'; '.join(hosts)}")
    print(f"{'workload':14s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict  claim")
    bad = False
    workloads = [w for w in dict.fromkeys(r["workload"] for r in side_a)
                 if any(r["workload"] == w for r in side_b)]
    for workload in workloads:
        a_runs = [r for r in side_a if r["workload"] == workload]
        b_runs = [r for r in side_b if r["workload"] == workload]
        for metric, (bound, direction) in bounds.items():
            a = [r["metrics"][metric] for r in a_runs]
            b = [r["metrics"][metric] for r in b_runs]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            status, claim = verdict(a, b, bound, direction)
            bad |= status == "WORSE"
            print(f"{workload:14s} {metric:12s} {am:12.4f} [{a1:.4f}, {a3:.4f}]"
                  f" {bm:12.4f} [{b1:.4f}, {b3:.4f}] {100 * (bm - am) / am:+7.1f}%"
                  f"  {status} (bound {bound:.0%})  {claim}")
        for seed in sorted({r["seed"] for r in a_runs} & {r["seed"] for r in b_runs}):
            digests = {r["output_digest"] for r in a_runs + b_runs if r["seed"] == seed}
            same = len(digests) == 1
            bad |= not same
            print(f"{workload:14s} output_digest seed {seed}: "
                  f"{'identical' if same else 'DIFFERS'} ({len(digests)} distinct)")
        errors = [
            (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in (a_runs, b_runs)
        ]
        rates = [failed / attempted for failed, attempted in errors]
        bad |= rates[1] > rates[0]
        print(f"{workload:14s} error_rate: A {errors[0][0]}/{errors[0][1]}, "
              f"B {errors[1][0]}/{errors[1][1]}" + ("  MORE FAILURES" if rates[1] > rates[0] else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
