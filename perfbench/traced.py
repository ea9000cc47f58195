"""The traced run: per-layer figures from spans around each layer's public functions.

The spans are recorded from the benchmark's side: each function below is
replaced, for the length of the run, by a wrapper that records a span (name,
start, end, parent span) and the counts the layer's metrics need.  The run
first measures the workload's rate untraced, then traced, and reports the
gap as its own overhead.  Spans stay in memory; those of the set-up and the
first traced round are written to ``perfbench/.out`` at the end.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import detection
import training
from chainwatch import corpus, engine, fingerprints, mlp, trace
from chainwatch.encoder import FeatureEncoder
from chainwatch.monitor import StateTable

OUT = Path(__file__).resolve().parent / ".out"

# Per-layer metric -> unit.  A layer the workload does not run reads 0.
UNITS = {
    "trace.parse_us": "us",
    "encoder.encode_us": "us",
    "encoder.repeat_share": "ratio",
    "mlp.nominate_us": "us",
    "mlp.candidates_per_call": "count",
    "monitor.step_us": "us",
    "monitor.comparisons_per_call": "count",
    "monitor.match_share": "ratio",
    "engine.self_us": "us",
    "engine.events_retained": "count",
    "encoder.load_s": "s",
    "fingerprints.load_s": "s",
    "mlp.load_s": "s",
    "corpus.load_split_s": "s",
    "corpus.build_xy_s": "s",
    "mlp.train_step_us": "us",
    "mlp.train_cpu_per_wall": "ratio",
    "corpus.distinct_row_share": "ratio",
    "tracing.untraced_calls_per_s": "1/s",
    "tracing.traced_calls_per_s": "1/s",
    "tracing.overhead_share": "ratio",
}

# Spans whose encode children are the workload's own encoding, not set-up.
WORK_PARENTS = ("engine.run_detection", "corpus.build_xy")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, note]
        self.kept: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs), idx
        finally:
            self.spans[idx][1:3] = start, time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        raw = vars(owner)[attr]
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result, idx = self.call(name, original, *args, **kwargs)
            if note is not None:
                self.spans[idx][4] = note(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_nominate(self) -> None:
        """Spans around the function ``engine.classifier_candidates`` returns."""
        original = engine.classifier_candidates

        def candidates(*args, **kwargs):
            nominate = original(*args, **kwargs)

            def traced(x):
                result, idx = self.call("mlp.nominate", nominate, x)
                self.spans[idx][4] = len(result)
                return result

            return traced

        engine.classifier_candidates = candidates
        self._patches.append((engine, "classifier_candidates", original))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def flush(self, keep: bool) -> list[list]:
        """Hand over the spans so far; keep a copy for the span file if asked."""
        spans, self.spans = self.spans, []
        if keep:
            self.kept.extend([s[0], s[1], s[2], s[3]] for s in spans)
        return spans


class Totals:
    """Sums over every traced span, turned into the per-layer metrics."""

    def __init__(self):
        self.n = defaultdict(int)
        self.ns = defaultdict(int)
        self.values = defaultdict(float)

    def add(self, spans: list[list]) -> None:
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        distinct, encoded = set(), 0
        for idx, (name, start, end, parent, note) in enumerate(spans):
            if name == "encoder.encode":
                if parent < 0 or spans[parent][0] not in WORK_PARENTS:
                    continue
                distinct.add(note)
                encoded += 1
            self.n[name] += 1
            self.ns[name] += end - start
            if name == "mlp.nominate":
                self.values["candidates"] += note
            elif name == "monitor.step":
                self.values["comparisons"] += note[0]
                self.values["matches"] += note[1]
            elif name == "engine.run_detection":
                self.values["calls"] += note[0]
                self.values["events_max"] = max(self.values["events_max"], note[1])
                self.values["self_ns"] += end - start - child_ns[idx]
        # A repeat is an encode of a call already encoded in the same round.
        self.values["repeats"] += encoded - len(distinct)

    def mean_us(self, name: str) -> float:
        return self.ns[name] / self.n[name] / 1e3 if self.n[name] else 0.0

    def seconds(self, name: str) -> float:
        return self.ns[name] / 1e9

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


def install(tracer: Tracer) -> None:
    tracer.wrap(trace, "parse_trace_record", "trace.parse")
    tracer.wrap(FeatureEncoder, "encode", "encoder.encode",
                lambda args, _: args[1])
    tracer.wrap(FeatureEncoder, "from_paths", "encoder.load")
    tracer.wrap(fingerprints, "load_fingerprints", "fingerprints.load")
    tracer.wrap(mlp, "load_model", "mlp.load")
    tracer.wrap_nominate()
    tracer.wrap(StateTable, "step", "monitor.step",
                lambda _, events: (len(events), sum(e.kind.name != "NO_MATCH" for e in events)))
    tracer.wrap(engine, "run_detection", "engine.run_detection",
                lambda _, result: (result.summary.total_calls, len(result.events)))
    tracer.wrap(corpus, "load_split", "corpus.load_split")
    tracer.wrap(corpus, "build_xy", "corpus.build_xy")
    tracer.wrap(mlp, "loss_and_grads", "mlp.train_step")


def metrics(t: Totals, extra: dict) -> dict:
    v = t.values
    values = {
        "trace.parse_us": t.mean_us("trace.parse"),
        "encoder.encode_us": t.mean_us("encoder.encode"),
        "encoder.repeat_share": t.ratio(v["repeats"], t.n["encoder.encode"]),
        "mlp.nominate_us": t.mean_us("mlp.nominate"),
        "mlp.candidates_per_call": t.ratio(v["candidates"], t.n["mlp.nominate"]),
        "monitor.step_us": t.mean_us("monitor.step"),
        "monitor.comparisons_per_call": t.ratio(v["comparisons"], t.n["encoder.encode"]),
        "monitor.match_share": t.ratio(v["matches"], v["comparisons"]),
        "engine.self_us": t.ratio(v["self_ns"] / 1e3, v["calls"]),
        "engine.events_retained": v["events_max"],
        "encoder.load_s": t.seconds("encoder.load"),
        "fingerprints.load_s": t.seconds("fingerprints.load"),
        "mlp.load_s": t.seconds("mlp.load"),
        "corpus.load_split_s": t.seconds("corpus.load_split"),
        "corpus.build_xy_s": t.seconds("corpus.build_xy"),
        "mlp.train_step_us": t.mean_us("mlp.train_step"),
        "mlp.train_cpu_per_wall": 0.0,
        "corpus.distinct_row_share": 0.0,
    }
    values.update(extra)
    values["tracing.overhead_share"] = 1.0 - (
        values["tracing.traced_calls_per_s"] / values["tracing.untraced_calls_per_s"]
    )
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in UNITS.items()}


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    fields = ("name", "start_ns", "end_ns", "parent")
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for span in tracer.kept:
            fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def run_detection(name: str, seed: int, seconds: float, digest: str, tracer, totals):
    wl = detection.Workload(name, seed, digest)
    ctx = detection.Context(wl.model_path)
    totals.add(tracer.flush(keep=True))
    tally = detection.Tally()
    tracer.restore()
    units, index = detection.timed_rounds(wl, ctx, seconds / 2, 0, tally)
    untraced = detection.pooled_rate(units)
    install(tracer)
    traced_units = []
    while not traced_units or sum(secs for _, secs, _ in traced_units) < seconds / 2:
        units, index = detection.timed_rounds(wl, ctx, 0.0, index, tally)
        totals.add(tracer.flush(keep=not traced_units))
        traced_units += units
    traced = detection.pooled_rate(traced_units)
    correct = wl.max_foreign_cosine(ctx) < detection.COSINE_LIMIT
    return correct, tally.attempted, tally.failed, {
        "tracing.untraced_calls_per_s": untraced,
        "tracing.traced_calls_per_s": traced,
    }


def run_training(seed: int, seconds: float, tracer, totals):
    corpus_dir = training.prepared(seed)
    try:
        rounds = training.Rounds(*training.load(corpus_dir))
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    totals.add(tracer.flush(keep=True))
    tracer.restore()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    untraced = detection.pooled_rate(training.timed_rounds(rounds, seconds / 2, min_rounds=1))
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    install(tracer)
    traced = detection.pooled_rate(training.timed_rounds(rounds, seconds / 2, min_rounds=1))
    totals.add(tracer.flush(keep=False))
    n = rounds.x.shape[0]
    return True, rounds.attempted, rounds.failed, {
        "tracing.untraced_calls_per_s": untraced,
        "tracing.traced_calls_per_s": traced,
        "mlp.train_cpu_per_wall": cpu_share,
        "corpus.distinct_row_share": np.unique(rounds.x, axis=0).shape[0] / n,
    }


def run(name: str, seed: int, seconds: float, digest: str) -> dict:
    tracer = Tracer()
    totals = Totals()
    install(tracer)
    try:
        if name == "cwe79-train":
            correct, attempted, failed, extra = run_training(seed, seconds, tracer, totals)
        else:
            correct, attempted, failed, extra = run_detection(name, seed, seconds, digest, tracer, totals)
    finally:
        tracer.restore()
    write_spans(tracer, name, seed)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics(totals, extra),
    }
