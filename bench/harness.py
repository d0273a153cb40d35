"""Measurement loop: set-up, timed passes, checks and the run record.

One run of a workload, in the calling process:

1. set-up is repeated :data:`SETUPS` times and reported as the median.  It
   builds the inputs from the seed and then makes one warm-up pass at smoke
   size, so lazy tables and caches are filled before timing;
2. timed passes repeat until ``seconds`` have elapsed and at least
   :data:`MIN_PASSES` are done; ``pipeline_s`` is their median.  A trace run
   alternates untraced and traced passes: layer metrics come from the
   traced ones and the overhead is the difference of the two medians;
3. the checks run on the last pass, outside the timed region, and every
   pass must produce the same output digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from repro.exec import fingerprint
from spans import EXTRA_METRICS, SPANS, SpanRecorder, per_layer_spec
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"

SETUPS = 3
MIN_PASSES = 3

#: The end-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def digest(obj) -> str:
    """SHA-256 of a canonical JSON encoding (floats keep every bit)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def constants_fingerprint(name: str, sizes: dict) -> str:
    return digest({"workload": name, "sizes": sizes, "setups": SETUPS,
                   "min_passes": MIN_PASSES})[:16]


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(
    name: str, seed: int, seconds: float, trace: bool = False, smoke: bool = False
) -> dict:
    """One run of one workload; returns the run record."""
    wl = WORKLOADS[name]
    sizes = wl.smoke if smoke else wl.full
    clock = time.perf_counter

    setup_s, setup_prints = [], []
    for _ in range(SETUPS):
        t0 = clock()
        inputs = wl.setup(seed, sizes)
        wl.run(inputs, wl.smoke)
        setup_s.append(clock() - t0)
        setup_prints.append(fingerprint(inputs))

    recorder = SpanRecorder() if trace else None
    pass_s: list[float] = []
    traced_s: list[float] = []
    digests: list[str] = []
    deadline = clock() + seconds
    while True:
        if recorder is not None and len(traced_s) < len(pass_s):
            with recorder.installed(), recorder.root(len(traced_s)):
                t0 = clock()
                out = wl.run(inputs, sizes)
                traced_s.append(clock() - t0)
        else:
            t0 = clock()
            out = wl.run(inputs, sizes)
            pass_s.append(clock() - t0)
            last = out
            if len(pass_s) == MIN_PASSES:
                # After a fixed amount of work, so that a slow host (fewer
                # passes in the run) does not read as less memory.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests.append(digest(wl.summary(out)))
        done = len(pass_s) >= MIN_PASSES and (recorder is None or len(traced_s) >= MIN_PASSES)
        if done and clock() >= deadline:
            break

    checks = wl.check(inputs, last, sizes)
    checks += [
        ("deterministic_setup", len(set(setup_prints)) == 1),
        ("deterministic_passes", len(set(digests)) == 1),
    ]
    failed = [check for check, ok in checks if not ok]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "fingerprint": constants_fingerprint(name, sizes),
        **host_info(),
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "output_digest": digests[0],
        "setup_s": setup_s,
        "pass_s": pass_s,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "pipeline_s": statistics.median(pass_s),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if recorder is not None:
        layers = recorder.layer_metrics(len(traced_s))
        layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(pass_s)
        record["traced_pass_s"] = traced_s
        record["missing"] = recorder.missing
        record["layers"] = layers
        record["trace_file"] = str(
            (RESULTS / f"trace_{name}_{seed}.json").relative_to(ROOT)
        )
        recorder.write(ROOT / record["trace_file"], {"workload": name, "seed": seed})
    return record


def result_line(record: dict) -> dict:
    """The benchmark's final stdout line: e2e metrics, or layers when traced."""
    if record["trace"]:
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        values = record["layers"]
    else:
        units, values = END_TO_END, record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def layer_table(record: dict) -> str:
    """Human-readable per-layer table of a trace run, busiest spans first."""
    layers = record["layers"]
    pipeline = layers["bench.pipeline.s"]
    spans = sorted(SPANS, key=lambda s: -layers[f"{s}.s"])
    lines = [
        f"per-layer breakdown, {record['workload']} seed {record['seed']} "
        f"({len(record['traced_pass_s'])} traced passes, values per pass)",
        f"{'span':44s} {'calls':>9s} {'s':>9s} {'self_s':>9s} {'self%':>6s}"
        f" {'p50_ms':>9s} {'p90_ms':>9s}",
    ]
    for span in spans:
        if layers[f"{span}.calls"] == 0:
            continue
        p50 = layers.get(f"{span}.p50_ms", 0.0)
        p90 = layers.get(f"{span}.p90_ms", 0.0)
        lines.append(
            f"{span:44s} {layers[f'{span}.calls']:9.0f} {layers[f'{span}.s']:9.4f}"
            f" {layers[f'{span}.self_s']:9.4f}"
            f" {100 * layers[f'{span}.self_s'] / pipeline:6.1f}"
            f" {p50:9.4f} {p90:9.4f}"
        )
    for metric in EXTRA_METRICS:
        lines.append(f"{metric['name']:44s} {layers[metric['name']]:.6g} {metric['unit']}")
    untraced = statistics.median(record["pass_s"])
    traced = statistics.median(record["traced_pass_s"])
    lines.append(
        f"median untraced pass {untraced:.4f} s, traced {traced:.4f} s, overhead "
        f"{layers['trace.overhead_s']:.4f} s ({100 * layers['trace.overhead_s'] / untraced:.1f}%)"
    )
    if record["missing"]:
        lines.append("missing wrap targets: " + ", ".join(record["missing"]))
    return "\n".join(lines)


def append_runs(path: Path, runs: list[dict]) -> None:
    """Append ``runs`` to a record file as one new set."""
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    set_id = 1 + max((r["set"] for r in doc["runs"]), default=-1)
    for run in runs:
        run["set"] = set_id
    doc["runs"] += runs
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
