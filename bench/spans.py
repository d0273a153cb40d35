"""Span recorder for ``--trace`` runs: per-layer time from outside the program.

The recorder wraps public functions and methods of :mod:`repro` at the
layer boundaries listed in :data:`TARGETS`.  A module-level function is
replaced in every ``repro`` module namespace that holds it, so callers that
imported it by name (``from repro.abr.protocols.optimal import
optimal_qoe_exhaustive_batch``) are traced too; a method is replaced on its
class and, for ``+`` targets, on every loaded subclass that overrides it.
Each call records one span -- name, start, end, parent span and run id --
in memory; :meth:`SpanRecorder.write` saves them when the run ends.

A target that no longer exists is listed in :attr:`SpanRecorder.missing`
instead of raising, so deleting code (a retired emulator, a serial copy of
a protocol) leaves the benchmark runnable; the span then reads 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import numpy as np

Counter = Callable[[tuple, dict, Any], float]


def _rows(args, kwargs, result) -> float:
    # The scalar solver returns (qoe, plan) for one window; the batch
    # solvers return one value per window.
    return 1 if isinstance(result, tuple) else len(result)


def _lanes(args, kwargs, result) -> float:
    return len(args[1] if len(args) > 1 else kwargs["lanes"])


def _dt(args, kwargs, result) -> float:
    return args[1] if len(args) > 1 else kwargs["dt"]


def _hit(args, kwargs, result) -> float:
    return 1.0 if result[0] else 0.0


#: (span, module, attribute path, counter).  ``Class.method+`` also
#: patches every loaded subclass that defines its own ``method``.
TARGETS: list[tuple[str, str, str, Counter | None]] = [
    ("experiments.evaluate_protocols", "repro.experiments.abr_suite", "evaluate_protocols", None),
    ("experiments.run_robustness_experiment", "repro.experiments.abr_suite",
     "run_robustness_experiment", None),
    ("experiments.run_bbr_adversarial_experiment", "repro.experiments.cc_suite",
     "run_bbr_adversarial_experiment", None),
    ("adversary.train_abr_adversary", "repro.adversary.abr_env", "train_abr_adversary", None),
    ("adversary.train_cc_adversary", "repro.adversary.cc_env", "train_cc_adversary", None),
    ("adversary.generate_abr_traces", "repro.adversary.generation", "generate_abr_traces", None),
    ("adversary.generate_cc_traces", "repro.adversary.generation", "generate_cc_traces", None),
    ("adversary.batched_env.step", "repro.adversary.batched_env", "BatchedAbrVecEnv.step", None),
    ("adversary.abr_env.step", "repro.adversary.abr_env", "AbrAdversaryEnv.step", None),
    ("adversary.cc_env.step", "repro.adversary.cc_env", "CcAdversaryEnv.step", None),
    ("rl.ppo.collect_rollout", "repro.rl.ppo", "PPO.collect_rollout", None),
    ("rl.ppo.update", "repro.rl.ppo", "PPO.update", None),
    ("rl.policy.act", "repro.rl.policy", "ActorCritic.act", None),
    ("rl.policy.act_batch", "repro.rl.policy", "ActorCritic.act_batch", None),
    ("abr.pensieve.train", "repro.abr.protocols.pensieve", "train_pensieve", None),
    ("abr.env.step", "repro.abr.env", "AbrTrainingEnv.step", None),
    ("abr.optimal.solve", "repro.abr.protocols.optimal", "optimal_qoe_exhaustive", _rows),
    ("abr.optimal.solve", "repro.abr.protocols.optimal", "optimal_qoe_exhaustive_batch", _rows),
    ("abr.optimal.solve", "repro.abr.protocols.optimal", "optimal_qoe_exhaustive_mixed", _rows),
    ("abr.protocols.select", "repro.abr.protocols.base", "AbrPolicy.select+", None),
    ("abr.batched.select", "repro.abr.batched", "BatchedAbrPolicy.select+", _lanes),
    ("abr.batched.run_batched_sessions", "repro.abr.batched", "run_batched_sessions", None),
    ("abr.simulator.download_chunk", "repro.abr.simulator", "StreamingSession.download_chunk",
     None),
    ("cc.network.run_interval", "repro.cc.network", "PacketNetworkEmulator.run_interval", None),
    ("cc.multiflow.run_interval", "repro.cc.multiflow", "MultiFlowEmulator.run_interval", _dt),
    ("cc.metrics.run_sender_on_traces", "repro.cc.metrics", "run_sender_on_traces", None),
    ("cc.matrix.run_matrix_task", "repro.cc.matrix", "run_matrix_task", None),
    ("exec.cache.lookup", "repro.exec.cache", "ResultCache.lookup", _hit),
    ("exec.cache.put", "repro.exec.cache", "ResultCache.put", None),
    ("exec.runner.map", "repro.exec.runner", "ParallelMap.map", None),
]

#: The span around one whole timed pipeline pass.
ROOT = "bench.pipeline"

#: Spans called often enough on some workload to report latency quantiles.
HOT = (
    "adversary.batched_env.step",
    "adversary.abr_env.step",
    "adversary.cc_env.step",
    "rl.policy.act",
    "rl.policy.act_batch",
    "abr.env.step",
    "abr.optimal.solve",
    "abr.protocols.select",
    "abr.batched.select",
    "abr.simulator.download_chunk",
    "cc.network.run_interval",
    "cc.multiflow.run_interval",
    "cc.matrix.run_matrix_task",
    "exec.cache.lookup",
    "exec.cache.put",
)

#: Quantiles need this many samples: p90 then has ten samples beyond it.
MIN_QUANTILE_SAMPLES = 100

SPANS = [ROOT] + list(dict.fromkeys(span for span, *_ in TARGETS))

#: Layer metrics beyond each span's calls/s/self_s/quantiles.
EXTRA_METRICS = [
    {"name": "abr.optimal.solve.rows", "unit": "count", "better": "lower"},
    {"name": "abr.batched.select.lanes", "unit": "count", "better": "higher"},
    {"name": "cc.multiflow.run_interval.emulated_s_per_s", "unit": "s/s", "better": "higher"},
    {"name": "exec.cache.hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    {"name": "trace.missing_targets", "unit": "count", "better": "lower"},
]


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a trace run reports: name, unit, direction."""
    spec = []
    for span in SPANS:
        spec += [
            {"name": f"{span}.calls", "unit": "count", "better": "lower"},
            {"name": f"{span}.s", "unit": "s", "better": "lower"},
            {"name": f"{span}.self_s", "unit": "s", "better": "lower"},
        ]
        if span in HOT:
            spec += [
                {"name": f"{span}.p50_ms", "unit": "ms", "better": "lower"},
                {"name": f"{span}.p90_ms", "unit": "ms", "better": "lower"},
            ]
    return spec + EXTRA_METRICS


class SpanRecorder:
    """In-memory span log with patch-based instrumentation of :data:`TARGETS`."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.run_id = -1
        self._names = list(SPANS)
        self._index = {name: i for i, name in enumerate(self._names)}
        self._name: list[int] = []
        self._parent: list[int] = []
        self._run: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack = [-1]
        self._counts = np.zeros(len(self._names))
        self._patches: list[tuple[Any, str, Any]] = []

    # -- instrumentation ---------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        self.missing = []
        for span, module_name, path, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
                *owners, attr = path.rstrip("+").split(".")
                owner = module
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if owner is module:
                self._patch_function(span, module_name, attr, original, counter)
            else:
                classes = [owner] + (_subclasses(owner) if path.endswith("+") else [])
                for cls in classes:
                    if attr in vars(cls):
                        self._patch(cls, attr, self._wrap(span, vars(cls)[attr], counter))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches = []

    def _patch_function(self, span, module_name, attr, original, counter) -> None:
        wrapper = self._wrap(span, original, counter)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if vars(module).get(attr) is original:
                self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn, counter: Counter | None):
        ix = self._index[span]
        names, parents, runs = self._name, self._parent, self._run
        starts, ends, stack, counts = self._start, self._end, self._stack, self._counts
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parent = stack[-1]
            names.append(ix)
            parents.append(parent)
            runs.append(recorder.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            # Re-entrant calls (the mixed r_opt solver calling the batch
            # one) count once, at the outermost span of the name.
            if counter is not None and (parent < 0 or names[parent] != ix):
                counts[ix] += counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def root(self, run_id: int):
        """Record one timed pass as the root span of run ``run_id``."""
        self.run_id = run_id
        i = len(self._start)
        self._name.append(self._index[ROOT])
        self._parent.append(-1)
        self._run.append(run_id)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[i] = time.perf_counter()
            self._stack.pop()

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Columnar span table: name index, parent index, run, start, end."""
        return {
            "name": np.asarray(self._name, dtype=np.int64),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "run": np.asarray(self._run, dtype=np.int64),
            "start": np.asarray(self._start, dtype=float),
            "end": np.asarray(self._end, dtype=float),
        }

    def layer_metrics(self, n_runs: int) -> dict[str, float]:
        """Per-pass layer metrics, as listed by :func:`per_layer_spec`.

        ``.s`` and ``.calls`` count outermost spans of a name (a re-entrant
        call is part of its caller); ``.self_s`` is a span's duration minus
        the time its child spans cover, summed over every span of the name.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_t = dur - child
        outer = ~has_parent
        outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        per = 1.0 / max(n_runs, 1)
        k = len(self._names)
        calls = np.bincount(name[outer], minlength=k)
        total = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self_total = np.bincount(name, weights=self_t, minlength=k)
        metrics: dict[str, float] = {}
        for ix, span in enumerate(self._names):
            metrics[f"{span}.calls"] = calls[ix] * per
            metrics[f"{span}.s"] = total[ix] * per
            metrics[f"{span}.self_s"] = self_total[ix] * per
            if span in HOT:
                samples = dur[outer & (name == ix)] * 1e3
                enough = len(samples) >= MIN_QUANTILE_SAMPLES
                p50, p90 = np.percentile(samples, [50, 90]) if enough else (0.0, 0.0)
                metrics[f"{span}.p50_ms"] = float(p50)
                metrics[f"{span}.p90_ms"] = float(p90)
        solve = self._index["abr.optimal.solve"]
        select = self._index["abr.batched.select"]
        emulator = self._index["cc.multiflow.run_interval"]
        lookup = self._index["exec.cache.lookup"]
        metrics["abr.optimal.solve.rows"] = self._counts[solve] * per
        metrics["abr.batched.select.lanes"] = _ratio(self._counts[select], calls[select])
        metrics["cc.multiflow.run_interval.emulated_s_per_s"] = _ratio(
            self._counts[emulator], total[emulator]
        )
        metrics["exec.cache.hit_ratio"] = _ratio(self._counts[lookup], calls[lookup])
        metrics["trace.missing_targets"] = float(len(self.missing))
        return {key: float(value) for key, value in metrics.items()}

    def write(self, path: Path, extra: dict) -> None:
        """Save the span table (times in seconds from the first span)."""
        a = self.arrays()
        origin = a["start"].min() if len(a["start"]) else 0.0
        doc = {
            "names": self._names,
            "missing": self.missing,
            "spans": {
                "name": a["name"].tolist(),
                "parent": a["parent"].tolist(),
                "run": a["run"].tolist(),
                "start_s": np.round(a["start"] - origin, 7).tolist(),
                "end_s": np.round(a["end"] - origin, 7).tolist(),
            },
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def _subclasses(cls) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found += [sub] + _subclasses(sub)
    return list(dict.fromkeys(found))
