"""The two detection workloads: cwe79-replay and cwe79-naive.

The timed work per trace is what ``chainwatch detect`` does after set-up:
``read_trace`` over the JSONL text, held in memory, then ``engine.detect`` (or
``engine.detect_naive``) with a fresh state table.  A round scans every trace
of the test split once.
"""

from __future__ import annotations

import io
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import inputs
import oracle
from chainwatch import engine, fingerprints, mlp, trace
from chainwatch.encoder import FeatureEncoder

COSINE_LIMIT = 0.9  # the engine's default cosine threshold
SETUP_REPEATS = 7
PEAK_TRACES = 20
WINDOW_S = 0.25


class ProbeWhiteList(fingerprints.WhiteList):
    """White-list that stamps the clock on each membership test.

    ``run_detection`` tests every call against the white-list first, once, so
    consecutive stamps bound each call's time inside the shipped loop.
    """

    def __init__(self, names=()):
        super().__init__(names)
        self.stamps: list[int] = []

    def __contains__(self, api_name: str) -> bool:
        self.stamps.append(time.perf_counter_ns())
        return super().__contains__(api_name)


@dataclass
class Item:
    """One trace to scan, with what its alarms are checked against."""

    name: str
    text: str
    scored: np.ndarray  # per call: passes the white-list
    expected: list  # the oracle's alarms
    truth: list  # exploit ids the corpus manifest plants in the trace
    keys: list  # oracle call keys, one per call


def make_item(name, text, truth, chain_oracle) -> Item:
    keys = oracle.keys_of_text(text)
    return Item(
        name=name,
        text=text,
        scored=np.array([k[0] not in chain_oracle.skip_names for k in keys]),
        expected=chain_oracle.scan(keys),
        truth=truth,
        keys=keys,
    )


class Context:
    """Set-up objects of one detection run, loaded the way the CLI loads them."""

    def __init__(self, model_path, whitelist_cls=ProbeWhiteList):
        self.encoder = FeatureEncoder.from_paths()
        self.db = fingerprints.load_fingerprints(inputs.FINGERPRINTS, self.encoder)
        self.whitelist = whitelist_cls.from_file(inputs.WHITELIST)
        self.model = mlp.load_model(model_path)

    def detect(self, parsed, naive: bool):
        if naive:
            return engine.detect_naive(parsed, self.encoder, self.whitelist, self.db)
        return engine.detect(parsed, self.encoder, self.whitelist, self.db, self.model)


def setup_seconds(model_path) -> float:
    """Median wall time of the detection set-up, each in a fresh interpreter
    with the imports done before the clock starts."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import detection\n"
        "t0 = time.perf_counter()\n"
        f"detection.Context({str(model_path)!r}, detection.fingerprints.WhiteList)\n"
        "print(time.perf_counter() - t0)\n"
    )
    return statistics.median(float(inputs.run_child(["-c", code])) for _ in range(SETUP_REPEATS))


class Workload:
    """The traces of one round, and what each trace's alarms are checked against."""

    def __init__(self, name: str, seed: int, digest: str):
        self.naive = name == "cwe79-naive"
        self.model_path = inputs.model_path(digest)
        self.oracle = oracle.ChainOracle(
            oracle.read_chains(inputs.FINGERPRINTS), oracle.read_whitelist(inputs.WHITELIST)
        )
        self.items = [
            make_item(t["name"], t["text"], t["true_exploits"], self.oracle)
            for t in inputs.test_split(seed, digest)
        ]

    def max_foreign_cosine(self, ctx: Context) -> float:
        """The matcher-exactness condition, measured with the program's encoder."""
        vectors = {}
        templates = set()
        for eid in ctx.db.exploit_ids:
            for call, vec in zip(ctx.db[eid].templates, ctx.db[eid].template_vectors):
                key = (call.api_name, call.category, call.scope, call.package,
                       call.inputs, call.outputs)
                vectors[key] = vec
                templates.add(key)
        worst = oracle.max_foreign_cosine(vectors, templates)
        for item in self.items:
            parsed = trace.read_trace(io.StringIO(item.text), ctx.encoder.vocabs)
            for key, call, scored in zip(item.keys, parsed.calls, item.scored):
                if scored and key not in vectors:
                    vectors[key] = ctx.encoder.encode(call)
        return max(worst, oracle.max_foreign_cosine(vectors, templates))


def scan(ctx: Context, item: Item, naive: bool):
    """One trace through the timed path; returns (result, seconds, scored call ns)."""
    stamps = ctx.whitelist.stamps
    stamps.clear()
    t0 = time.perf_counter_ns()
    parsed = trace.read_trace(io.StringIO(item.text), ctx.encoder.vocabs, source_id=item.name)
    result = ctx.detect(parsed, naive)
    t1 = time.perf_counter_ns()
    if len(stamps) != len(item.scored):
        raise SystemExit(
            f"{item.name}: {len(stamps)} white-list tests for {len(item.scored)} calls;"
            " the per-call probe no longer matches run_detection"
        )
    stamps.append(t1)
    per_call = np.diff(np.array(stamps, dtype=np.int64))
    return result, (t1 - t0) / 1e9, per_call[item.scored]


def alarms_of(result) -> list[tuple[int, int]]:
    return sorted((a.offset, a.exploit_id) for a in result.alarms)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, item: Item, result) -> None:
        flags = oracle.failed_segments([alarms_of(result)], [item.expected], [item.truth])
        self.attempted += len(flags)
        self.failed += sum(flags)


def peak_heap_mb(ctx: Context, items: list[Item], naive: bool) -> float:
    """Median over the ``PEAK_TRACES`` longest traces of the tracemalloc peak
    of scanning each, as the CLI scans them, one trace at a time.

    The longest traces need the most memory.  The median of their peaks
    changes less from seed to seed than the largest one, which is set by the
    single longest trace the seed happens to draw; and tracing every
    allocation of a whole naive round would take minutes.
    """
    longest = sorted(items, key=lambda item: (-len(item.scored), item.name))[:PEAK_TRACES]
    peaks = []
    tracemalloc.start()
    try:
        for item in longest:
            tracemalloc.reset_peak()
            parsed = trace.read_trace(io.StringIO(item.text), ctx.encoder.vocabs, source_id=item.name)
            result = ctx.detect(parsed, naive)
            peaks.append(tracemalloc.get_traced_memory()[1])
            ctx.whitelist.stamps.clear()
            del parsed, result
    finally:
        tracemalloc.stop()
    return float(np.median(peaks)) / 2**20


def timed_rounds(wl: Workload, ctx: Context, seconds: float, first_round: int, tally: Tally):
    """Whole rounds until ``seconds`` of scanning have been timed.

    Returns one unit per scan, ``(calls, seconds, scored calls' times in us)``,
    and the index of the next round.
    """
    units = []
    busy = 0.0
    index = first_round
    while busy < seconds or index == first_round:
        for item in wl.items:
            result, secs, ns = scan(ctx, item, wl.naive)
            tally.check(item, result)
            busy += secs
            units.append((len(item.scored), secs, ns / 1e3))
        index += 1
    return units, index


def pooled_rate(units) -> float:
    return sum(n for n, _, _ in units) / sum(secs for _, secs, _ in units)


def slow_quartile(units) -> tuple[float, float]:
    """The timed end-to-end metrics of a run, as its slower windows show them.

    Consecutive units are grouped into windows of at least ``WINDOW_S`` of
    timed work.  Each window gets its rate and its p50; the run reports
    the 25th percentile of the rates and the 75th of the p50s, the
    figure that three windows in four sustain.  The shared host runs some
    stretches of a second or more up to twice as fast; a median over the run
    then falls on whichever speed held for more of it, while the slower
    quartile moves only when fast stretches fill most of the run.
    """
    windows, current, busy = [], [], 0.0
    for unit in units:
        current.append(unit)
        busy += unit[1]
        if busy >= WINDOW_S:
            windows.append(current)
            current, busy = [], 0.0
    if current:
        if windows:
            windows[-1].extend(current)
        else:
            windows.append(current)
    samples = [np.concatenate([us for _, _, us in w]) for w in windows]
    return (
        float(np.percentile([pooled_rate(w) for w in windows], 25)),
        float(np.percentile([np.percentile(s, 50) for s in samples], 75)),
    )


def makeup(items: list[Item]) -> dict:
    """What one round's input is made of."""
    keys = [key for item in items for key in item.keys]
    scored = np.concatenate([item.scored for item in items])
    return {
        "traces": len(items),
        "calls": len(keys),
        "distinct_share": len(set(keys)) / len(keys),
        "whitelisted_share": 1.0 - float(scored.mean()),
        "scored_distinct": len({k for k, s in zip(keys, scored) if s}),
        "planted_chains": sum(len(item.truth) for item in items),
    }


def run(name: str, seed: int, seconds: float, digest: str) -> dict:
    wl = Workload(name, seed, digest)
    oracle.self_test([item.expected for item in wl.items], [item.truth for item in wl.items])
    setup_s = setup_seconds(wl.model_path)
    ctx = Context(wl.model_path)
    peak = peak_heap_mb(ctx, wl.items, wl.naive)
    tally = Tally()
    units, next_round = timed_rounds(wl, ctx, seconds, 1, tally)
    scored_us = np.concatenate([us for _, _, us in units])
    worst = wl.max_foreign_cosine(ctx)
    cps, p50 = slow_quartile(units)
    return {
        "correct": worst < COSINE_LIMIT,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "calls_per_s": {"value": cps, "unit": "1/s"},
            "scored_call_us.p50": {"value": p50, "unit": "us"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_heap_mb": {"value": peak, "unit": "MB"},
        },
        "info": {
            **makeup(wl.items),
            "rounds": next_round - 1,
            "scored_samples": int(scored_us.size),
            "p90": np.percentile(scored_us, 90),
            "p95": np.percentile(scored_us, 95),
            "p99": np.percentile(scored_us, 99),
            "max_foreign_cosine": worst,
        },
    }
