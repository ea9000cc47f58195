import numpy as np
import pytest

from chainwatch.bench import latency_stats, run_bench
from chainwatch.engine import detect, detect_naive
from chainwatch.fingerprints import WhiteList
from chainwatch.mlp import init_model
from chainwatch.trace import Trace

from .synthgen import mixed_trace


def test_latency_stats_from_ns():
    stats = latency_stats([1000, 2000, 3000, 4000])
    assert list(stats) == ["calls", "min_us", "median_us", "p99_us", "mean_us"]
    assert stats["calls"] == 4
    assert stats["min_us"] == 1.0
    assert stats["median_us"] == 2.5
    assert stats["mean_us"] == 2.5
    assert stats["p99_us"] == pytest.approx(3.97)


@pytest.fixture(scope="module")
def bench_traces(small_world):
    rng = np.random.default_rng(60)
    return [
        Trace(f"bench{i}", mixed_trace(small_world, rng, length=40, plant=2))
        for i in range(4)
    ]


def test_run_bench_counters_deterministic(small_world, small_db, encoder, whitelist, bench_traces):
    """Comparison and alarm counts are timing-independent and match direct runs."""
    model = init_model(0)
    report = run_bench(
        bench_traces, encoder, whitelist, small_db, model, repetitions=1
    )
    assert list(report) == ["engine", "naive", "agreement", "comparison_ratio",
                            "latency_ratio", "param_count", "repetitions"]
    assert list(report["engine"]) == list(report["naive"]) == [
        "latency", "total_comparisons", "non_whitelisted_calls", "comparisons_per_call", "alarms"
    ]
    # naive mode: every non-whitelisted call compares against all 6 exploits
    assert report["naive"]["comparisons_per_call"] == pytest.approx(6.0)
    keys = {}
    for name, run in (
        ("naive", lambda t: detect_naive(t, encoder, whitelist, small_db)),
        ("engine", lambda t: detect(t, encoder, whitelist, small_db, model)),
    ):
        mode = report[name]
        results = [run(trace) for trace in bench_traces]
        assert mode["total_comparisons"] == sum(r.summary.comparisons for r in results)
        assert mode["alarms"] == sum(len(r.alarms) for r in results)
        assert mode["non_whitelisted_calls"] == sum(r.summary.encoded_calls for r in results)
        keys[name] = {
            (i, a.offset, a.exploit_id) for i, r in enumerate(results) for a in r.alarms
        }
    # the untrained model misses some of the naive scan's alarms on these traces
    assert report["agreement"] == {
        "missed": len(keys["naive"] - keys["engine"]),
        "extra": len(keys["engine"] - keys["naive"]),
    }
    assert report["agreement"]["missed"] > 0
    assert report["comparison_ratio"] is None
    assert report["param_count"] == 45879


def test_ratios_when_alarms_agree(small_db, encoder, whitelist, bench_traces):
    """A model that nominates every exploit raises every naive alarm."""
    model = init_model(0)
    model.b3[:] = 1000.0
    report = run_bench(bench_traces, encoder, whitelist, small_db, model, repetitions=1)
    engine, naive = report["engine"], report["naive"]
    assert engine["alarms"] == naive["alarms"] > 0
    assert report["agreement"] == {"missed": 0, "extra": 0}
    assert report["comparison_ratio"] == pytest.approx(
        naive["comparisons_per_call"] / engine["comparisons_per_call"]
    )
    assert report["comparison_ratio"] == pytest.approx(1.0)
    assert report["latency_ratio"] == pytest.approx(
        naive["latency"]["median_us"] / engine["latency"]["median_us"]
    )


def test_run_bench_latency_fields_sane(small_db, encoder, whitelist, bench_traces):
    report = run_bench(bench_traces, encoder, whitelist, small_db, init_model(0), repetitions=2)
    for mode in (report["engine"], report["naive"]):
        latency = mode["latency"]
        assert latency["calls"] == 2 * mode["non_whitelisted_calls"]
        assert 0 <= latency["min_us"] <= latency["median_us"] <= latency["p99_us"]


def test_latency_counts_only_scored_calls(small_db, encoder, bench_traces):
    """White-listed calls are left out of the latency statistics."""
    names = sorted({call.api_name for trace in bench_traces for call in trace.calls})
    half = WhiteList(names[::2])
    total = sum(len(trace.calls) for trace in bench_traces)
    skipped = sum(call.api_name in half for trace in bench_traces for call in trace.calls)
    assert 0.25 < skipped / total < 0.75

    model = init_model(0)
    report = run_bench(bench_traces, encoder, half, small_db, model, repetitions=2)
    scored = sum(
        detect(t, encoder, half, small_db, model).summary.encoded_calls for t in bench_traces
    )
    assert scored == total - skipped
    for mode in (report["engine"], report["naive"]):
        assert mode["non_whitelisted_calls"] == scored
        assert mode["latency"]["calls"] == 2 * scored


def test_missed_alarms_give_no_ratio(small_db, encoder, whitelist, bench_traces):
    """An engine that nominates nothing misses every naive alarm: no ratio."""
    model = init_model(0)
    model.b3[:] = -1000.0
    report = run_bench(bench_traces, encoder, whitelist, small_db, model, repetitions=1)
    assert report["engine"]["total_comparisons"] == 0
    assert report["naive"]["alarms"] > 0
    assert report["agreement"] == {"missed": report["naive"]["alarms"], "extra": 0}
    assert report["comparison_ratio"] is None
    assert report["latency_ratio"] is None


def test_run_bench_validates_repetitions(small_db, encoder, whitelist, bench_traces):
    with pytest.raises(ValueError):
        run_bench(bench_traces, encoder, whitelist, small_db, init_model(0), repetitions=0)


def test_run_bench_needs_a_scored_call(small_db, encoder, bench_traces):
    names = {call.api_name for trace in bench_traces for call in trace.calls}
    with pytest.raises(ValueError, match="white-list"):
        run_bench(bench_traces, encoder, WhiteList(names), small_db, init_model(0), repetitions=1)
