"""Self-test of the pipeline benchmark at ``--smoke`` sizes.

    python -m pytest bench

Every workload runs once traced (its untraced passes give the end-to-end
metrics), and the cheapest checks of the command line go through
``bench/run.py`` itself.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return harness.run_workload(request.param, seed=0, seconds=0, trace=True, smoke=True)


def test_spec_lists_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["per_layer"] == spans.per_layer_spec()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert len(SPEC["per_layer"]) < 128


def test_workload_checks_pass(traced):
    assert traced["correct"], traced["failed_checks"]
    assert traced["attempted"] > 2 and traced["failed"] == 0
    assert traced["missing"] == []


def test_result_lines_carry_every_metric_with_its_unit(traced):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = harness.result_line({**traced, "trace": trace})
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }
    e2e = harness.result_line({**traced, "trace": False})["metrics"]
    assert all(m["value"] > 0 for m in e2e.values())


def test_spans_nest(traced):
    doc = json.loads((ROOT / traced["trace_file"]).read_text())
    s = {k: np.asarray(v) for k, v in doc["spans"].items()}
    child = s["parent"] >= 0
    parent = s["parent"][child]
    assert np.all(s["start_s"][child] >= s["start_s"][parent])
    assert np.all(s["end_s"][child] <= s["end_s"][parent])
    dur = s["end_s"] - s["start_s"]
    covered = np.bincount(parent, weights=dur[child], minlength=len(dur))
    assert np.all(covered <= dur + 1e-6)
    layers = traced["layers"]
    assert all(layers[f"{span}.self_s"] >= -1e-9 for span in spans.SPANS)
    # One root span per traced pass, lasting as long as the timed pass, so
    # its self time plus its children account for the traced pipeline_s.
    roots = np.flatnonzero(~child)
    assert len(roots) == len(traced["traced_pass_s"])
    assert np.allclose(dur[roots], traced["traced_pass_s"], atol=1e-3)
    assert layers["bench.pipeline.calls"] == 1


def test_missing_target_is_reported_not_raised(monkeypatch):
    bogus = ("cc.network.run_interval", "repro.cc.gone", "Emulator.run_interval", None)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [bogus])
    recorder = spans.SpanRecorder()
    with recorder.installed():
        pass
    assert recorder.missing == ["repro.cc.gone.Emulator.run_interval"]
    assert recorder.layer_metrics(1)["trace.missing_targets"] == 1


def test_digest_depends_on_the_seed_only(traced):
    name, seed = traced["workload"], traced["seed"]
    again = harness.run_workload(name, seed=seed, seconds=0, smoke=True)
    other = harness.run_workload(name, seed=seed + 1, seconds=0, smoke=True)
    assert again["output_digest"] == traced["output_digest"]
    assert other["output_digest"] != traced["output_digest"]
    assert again["fingerprint"] == other["fingerprint"] == traced["fingerprint"]


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cc_contention", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_command_fails_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cc_attack", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
