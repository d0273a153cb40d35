"""Benchmark: the coalescing decision service (repro.serve).

A closed-loop load generator drives concurrent simulated players --
each owning a real client-side ``StreamingSession`` and asking the
service for every chunk decision -- against the serving stack in two
modes per workload:

1. *batch=1 (inline)*: windows of one request, each answered by the
   protocol's lane kernel called with one lane -- the arithmetic of
   serial ``AbrPolicy.select``.  This is the per-request baseline.
2. *coalesced*: concurrent requests drained in windows and served with
   ONE kernel call per window (the ``as_batched`` adapters), plus
   -- for MPC -- the content-addressed plan cache.

Workloads: Pensieve policy heads at production size (1024x512; the
headline row, where per-request NN forwards dominate) and suite size
(64x32; where fixed per-request codec/session cost dominates), and MPC
(where coalescing scores a window's lanes with one plan-lattice call
per lookahead group, and plan memoization skips repeat states).
Transports: in-process (the serving strategy minus kernel sockets) and
real HTTP over the binary codec.

Guards (CI runs ``--smoke``):

- every row verifies bitwise against the inline reference replay
  (``mismatches == 0`` -- the serve-layer identity contract);
- coalesced req/s >= 5x batch=1 (>= 3x in smoke mode) for the
  production Pensieve head, in-process.

Run standalone (no pytest needed):

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
"""

from __future__ import annotations

import os

# One compute thread: pin the BLAS pools before numpy loads, so the
# batch=1 and coalesced rows compare on the same footing on any host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.abr.protocols.mpc import MPC  # noqa: E402
from repro.abr.video import Video  # noqa: E402
from repro.exec import ResultCache  # noqa: E402
from repro.serve import (  # noqa: E402
    CONTENT_BINARY,
    DecisionService,
    HttpServer,
    HttpTransport,
    InprocTransport,
    make_demo_pensieve,
    run_loadgen,
)
from repro.traces.random_traces import random_abr_traces  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

HEADS = {
    "pensieve-prod": lambda: make_demo_pensieve(hidden=(1024, 512)),
    "pensieve-suite": lambda: make_demo_pensieve(hidden=(64, 32)),
    "mpc": lambda: MPC(robust=False),
}


def build_rows(smoke: bool):
    """(label, head, batch_size, transport, cached) per benchmark row."""
    batch = 64
    rows = [
        ("prod  batch=1    inproc", "pensieve-prod", 1, "inproc", False),
        ("prod  coalesced  inproc", "pensieve-prod", batch, "inproc", False),
        ("prod  batch=1    http", "pensieve-prod", 1, "http", False),
        ("prod  coalesced  http", "pensieve-prod", batch, "http", False),
        ("suite batch=1    inproc", "pensieve-suite", 1, "inproc", False),
        ("suite coalesced  inproc", "pensieve-suite", batch, "inproc", False),
        ("mpc   batch=1    inproc", "mpc", 1, "inproc", False),
        ("mpc   coalesced  inproc", "mpc", batch, "inproc", False),
        ("mpc   coalesced+cache", "mpc", batch, "inproc", True),
    ]
    if smoke:
        keep = {"prod  batch=1    inproc", "prod  coalesced  inproc",
                "prod  coalesced  http", "mpc   coalesced+cache"}
        rows = [r for r in rows if r[0] in keep]
    return rows


async def run_row(video, traces, head, batch_size, transport_kind, cached,
                  players):
    protocol = "mpc" if head == "mpc" else "pensieve"
    cache = ResultCache(tempfile.mkdtemp(prefix="bench_serve_")) if cached else None
    service = DecisionService(
        video, {protocol: HEADS[head]()}, batch_size=batch_size, cache=cache
    )
    reference = HEADS[head]()
    if transport_kind == "http":
        server = HttpServer(service)
        await server.start()
        transport = HttpTransport("127.0.0.1", server.port, connections=64)
        try:
            return await run_loadgen(
                transport, video, traces, protocol, players,
                content_type=CONTENT_BINARY, reference=reference,
            )
        finally:
            await transport.close()
            await server.close()
    await service.start()
    try:
        return await run_loadgen(
            InprocTransport(service), video, traces, protocol, players,
            content_type=CONTENT_BINARY, reference=reference,
        )
    finally:
        await service.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke-test sizes (CI): fewer players/rows, >=3x guard",
    )
    args = parser.parse_args()

    players = 128 if args.smoke else 1000
    n_chunks = 8 if args.smoke else 16
    n_traces = 16 if args.smoke else 64
    floor = 3.0 if args.smoke else 5.0
    repeats = 2 if args.smoke else 3

    video = Video.synthetic(n_chunks=n_chunks, seed=1)
    traces = random_abr_traces(n_traces, seed=0, n_segments=n_chunks)
    rows = build_rows(args.smoke)

    # Interleaved repeats: each pass runs every row back to back, so
    # common-mode host drift lands on both sides of every speedup ratio;
    # the per-row median then drops outlier passes.
    rps: dict[str, list[float]] = {label: [] for label, *_ in rows}
    reports = {}
    mismatches = 0
    errors = 0
    for _ in range(repeats):
        for label, head, batch_size, transport_kind, cached in rows:
            report = asyncio.run(run_row(
                video, traces, head, batch_size, transport_kind, cached,
                players,
            ))
            rps[label].append(report.requests_per_second)
            if label not in reports or (
                report.requests_per_second == statistics.median(rps[label])
            ):
                reports[label] = report
            mismatches += max(report.mismatches, 0)
            errors += report.errors

    n_requests = players * n_chunks
    lines = [
        "Coalescing ABR decision service (repro.serve)",
        f"host cores: {os.cpu_count() or 1}",
        f"workload: {players} concurrent players x {n_chunks}-chunk video "
        f"({n_requests} requests/row, {n_traces} traces, binary codec)",
        f"timing: interleaved median of {repeats} repeats per row; every row "
        "verified bitwise against the inline reference replay",
        "",
        f"{'row':<26} {'req/s':>8} {'p50 ms':>8} {'p99 ms':>8} {'occupancy':>10}",
    ]
    for label, *_ in rows:
        report = reports[label]
        med = statistics.median(rps[label])
        lat = report.latency_seconds
        occ = (report.server_stats or {}).get("coalescer", {}).get(
            "mean_occupancy", 0.0)
        lines.append(
            f"{label:<26} {med:>8,.0f} {lat['p50'] * 1e3:>8.3f} "
            f"{lat['p99'] * 1e3:>8.3f} {occ:>10.1f}"
        )

    speedup = (statistics.median(rps["prod  coalesced  inproc"])
               / statistics.median(rps["prod  batch=1    inproc"]))
    lines += [
        "",
        f"decision mismatches across all rows: {mismatches}",
        f"request errors across all rows: {errors}",
        f"coalesced vs batch=1 (prod head, inproc): {speedup:.2f}x "
        f"(floor {floor:.0f}x)",
    ]
    if "mpc   coalesced  inproc" in rps and "mpc   batch=1    inproc" in rps:
        # Tracks the batched plan search: uncached coalesced MPC scores a
        # window's lanes in one lattice call per (video, lookahead) group.
        mpc_speedup = (statistics.median(rps["mpc   coalesced  inproc"])
                       / statistics.median(rps["mpc   batch=1    inproc"]))
        lines.append(
            f"coalesced vs batch=1 (mpc, inproc, uncached): {mpc_speedup:.2f}x"
        )
    print("\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "bench_serve.txt"
    out.write_text("\n".join(lines) + "\n")
    latency_out = RESULTS_DIR / "bench_serve_latency.json"
    latency_out.write_text(json.dumps(
        {
            "smoke": args.smoke,
            "players": players,
            "speedup_prod_inproc": speedup,
            "rows": {label: reports[label].summary_dict() for label, *_ in rows},
        },
        indent=2,
    ) + "\n")
    print(f"\nwrote {out} and {latency_out}")

    if mismatches or errors:
        print(f"FAIL: {mismatches} mismatches / {errors} errors "
              "(served decisions must be bitwise identical to inline)")
        return 1
    if speedup < floor:
        print(f"FAIL: coalesced speedup {speedup:.2f}x below {floor:.0f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
