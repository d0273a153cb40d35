#!/usr/bin/env python3
"""Pipeline benchmark: the paper's attack, robustify and contention pipelines.

One workload, measured in this process (what a benchmark driver calls)::

    python3 bench/run.py --workload abr_attack --seed 0 --seconds 20 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics, or with ``--trace 1``
the per-layer ones.  Without ``--workload``, or with ``--repeats N > 1``,
each run is made in a fresh subprocess and the medians are printed.
``--out FILE`` appends the full run records (host, git SHA, versions,
seed, constants fingerprint, output digest, every pass time) to FILE as
one set; ``bench/compare.py`` reads such files.  See ``bench/README.md``.
"""

import os

# One process, one compute thread: pin the BLAS pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# The workloads fix worker counts, batch widths, caching and logging.
for _var in ("REPRO_WORKERS", "REPRO_BATCH_SIZE", "REPRO_CACHE_DIR", "REPRO_LOG_DIR"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WORKLOAD_NAMES = ("abr_attack", "abr_robustify", "cc_attack", "cc_contention")
DEFAULT_SECONDS = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time the pipeline for at least this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, each in a fresh subprocess")
    parser.add_argument("--smoke", action="store_true", help="tiny fixed sizes (self-test)")
    parser.add_argument("--out", type=Path, help="append run records to this JSON file")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds < 0:
        parser.error("--repeats must be >= 1 and --seconds >= 0")
    return args


def import_harness():
    """Import the harness with this checkout's ``src`` first on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} is missing; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness

    return harness


def run_here(args) -> int:
    harness = import_harness()
    record = harness.run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke
    )
    line = harness.result_line(record)
    if record["trace"]:
        print(harness.layer_table(record))
    else:
        for name, metric in line["metrics"].items():
            print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"checks: {record['attempted'] - record['failed']}/{record['attempted']} passed"
          + (f"; failed: {', '.join(record['failed_checks'])}" if record["failed"] else "")
          + f"; output_digest {record['output_digest'][:16]}")
    if args.out:
        harness.append_runs(args.out, [record])
    print(json.dumps(line), flush=True)
    return 0 if record["correct"] else 1


def run_children(args) -> int:
    """Each run in a fresh subprocess; print per-workload medians."""
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    harness = import_harness()
    from workloads import WORK_DIR

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        collected = Path(tmp) / "runs.json"
        status = 0
        for workload in workloads:
            for _ in range(args.repeats):
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(collected)]
                if args.smoke:
                    cmd.append("--smoke")
                status |= subprocess.run(cmd, check=False).returncode
        runs = json.loads(collected.read_text())["runs"] if collected.exists() else []
    if args.out and runs:
        harness.append_runs(args.out, runs)
    summary = {"correct": status == 0 and all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {}}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for name, unit in harness.END_TO_END.items() if mine else ():
            value = statistics.median(r["metrics"][name] for r in mine)
            summary["metrics"][f"{workload}.{name}"] = {"value": value, "unit": unit}
            print(f"{workload} {name} median of {len(mine)} runs = {value:.6g} {unit}")
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload and args.repeats == 1:
        return run_here(args)
    return run_children(args)


if __name__ == "__main__":
    sys.exit(main())
