"""Latency and comparison-count benchmark: filtered engine vs naive scan.

Both modes run the shipped pipeline, ``engine.detect`` and
``engine.detect_naive``, over every trace with a fresh state table.  One
warm-up pass per mode runs outside the clock and supplies the comparison and
alarm counts, which are deterministic; then each measured repetition replays
every trace.

Per-call times come from a white-list that stamps a nanosecond counter on
each membership test.  ``run_detection`` tests every call once, before any
other work, so a call's time is the gap from its stamp to the next one (to the
return of ``detect`` for a trace's last call).  Latency statistics cover only
scored calls, those that pass the white-list: a white-listed call costs one
set lookup and would pull the median down to it.

A ratio of naive to engine cost counts only when the engine raises every
alarm the naive scan raises.  The two alarm sets, keyed on
``(trace, offset, exploit_id)``, are compared; when the engine misses any,
or makes no comparisons at all, both ratios are ``None``.
"""

from __future__ import annotations

import time

import numpy as np

from . import mlp
from .encoder import FeatureEncoder
from .engine import detect, detect_naive
from .fingerprints import FingerprintDb, WhiteList
from .trace import Trace


def latency_stats(samples_ns) -> dict:
    """Count, min, median, 99th percentile and mean of ``samples_ns``, in microseconds."""
    us = np.asarray(samples_ns, dtype=np.float64) / 1000.0
    return {
        "calls": len(us),
        "min_us": float(np.min(us)),
        "median_us": float(np.median(us)),
        "p99_us": float(np.percentile(us, 99)),
        "mean_us": float(np.mean(us)),
    }


class _StampingWhiteList(WhiteList):
    """Wraps a white-list and stamps the clock on each membership test."""

    def __init__(self, inner: WhiteList):
        super().__init__()
        self._inner = inner
        self.stamps: list[int] = []

    def __contains__(self, api_name: str) -> bool:
        self.stamps.append(time.perf_counter_ns())
        return api_name in self._inner


def _measure(traces: list[Trace], whitelist: WhiteList, run, repetitions: int):
    """Times ``run(trace, whitelist)`` over every scored call of every trace; returns
    the mode's report and its alarm keys, ``(trace, offset, exploit_id)``."""
    results = [run(trace, whitelist) for trace in traces]  # warm-up, off the clock
    scored_calls = sum(r.summary.encoded_calls for r in results)
    if scored_calls == 0:
        raise ValueError("no call passes the white-list, so there is nothing to time")
    scored = [
        np.array([call.api_name not in whitelist for call in trace.calls], dtype=bool)
        for trace in traces
    ]
    stamped = _StampingWhiteList(whitelist)
    samples: list[np.ndarray] = []
    for _ in range(repetitions):
        for trace, mask in zip(traces, scored):
            stamped.stamps.clear()
            run(trace, stamped)
            end = time.perf_counter_ns()
            if len(stamped.stamps) != mask.size:
                raise RuntimeError(
                    f"{trace.source_id}: {len(stamped.stamps)} white-list tests for {mask.size} "
                    "calls; run_detection no longer tests each call once"
                )
            per_call = np.diff(np.array(stamped.stamps + [end], dtype=np.int64))
            samples.append(per_call[mask])

    comparisons = sum(r.summary.comparisons for r in results)
    return {
        "latency": latency_stats(np.concatenate(samples)),
        "total_comparisons": comparisons,
        "non_whitelisted_calls": scored_calls,
        "comparisons_per_call": comparisons / scored_calls,
        "alarms": sum(len(r.alarms) for r in results),
    }, {(i, a.offset, a.exploit_id) for i, r in enumerate(results) for a in r.alarms}


def _ratio(naive: float, engine: float, agree: bool) -> float | None:
    return naive / engine if agree and engine else None


def run_bench(traces: list[Trace], encoder: FeatureEncoder, whitelist: WhiteList,
              db: FingerprintDb, model: mlp.MlpModel, repetitions: int = 3) -> dict:
    """Both modes at the default ``EngineConfig``, the CLI's defaults, as the JSON
    object ``chainwatch bench --json-out`` writes.  ``agreement`` counts the naive
    alarms the engine did not raise (``missed``) and the converse (``extra``)."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    engine, engine_keys = _measure(
        traces, whitelist, lambda trace, wl: detect(trace, encoder, wl, db, model), repetitions
    )
    naive, naive_keys = _measure(
        traces, whitelist, lambda trace, wl: detect_naive(trace, encoder, wl, db), repetitions
    )

    missed = len(naive_keys - engine_keys)
    per_call = naive["comparisons_per_call"], engine["comparisons_per_call"]
    median = naive["latency"]["median_us"], engine["latency"]["median_us"]
    return {
        "engine": engine,
        "naive": naive,
        "agreement": {"missed": missed, "extra": len(engine_keys - naive_keys)},
        "comparison_ratio": _ratio(*per_call, missed == 0),
        "latency_ratio": _ratio(*median, missed == 0),
        "param_count": mlp.PARAM_COUNT,
        "repetitions": repetitions,
    }
