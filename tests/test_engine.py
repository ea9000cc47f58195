"""Pipeline-order and bookkeeping behavior of the streaming engine."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from chainwatch.encoder import FeatureEncoder
from chainwatch.engine import (
    AlarmRecord,
    EngineConfig,
    SessionSummary,
    classifier_candidates,
    detect,
    detect_naive,
    run_detection,
)
from chainwatch.fingerprints import WhiteList, load_fingerprints
from chainwatch.mlp import init_model
from chainwatch.monitor import StateTable
from chainwatch.trace import Trace

from .conftest import DATA_DIR, FIXTURES, next_index
from .oracles import NaiveChainMatcher
from .synthgen import mixed_trace


def test_config_validation():
    EngineConfig()  # defaults are legal
    EngineConfig(threshold_cosine=1.0)
    with pytest.raises(ValueError):
        EngineConfig(threshold_classify=0.0)
    with pytest.raises(ValueError):
        EngineConfig(threshold_classify=1.0)
    with pytest.raises(ValueError):
        EngineConfig(threshold_cosine=0.0)
    with pytest.raises(ValueError):
        EngineConfig(threshold_cosine=1.1)


def test_alarm_record_json():
    rec = AlarmRecord("t0", 5, 3, "CWE-89", 1.0)
    assert rec.to_json_obj() == {
        "trace": "t0",
        "offset": 5,
        "exploit_id": 3,
        "cwe_id": "CWE-89",
        "similarity": 1.0,
    }


def test_naive_detects_planted_chain(sql_db, encoder):
    trace = Trace("demo", list(sql_db[0].templates))
    result = detect_naive(trace, encoder, WhiteList(), sql_db)
    assert len(result.alarms) == 1
    alarm = result.alarms[0]
    assert alarm.exploit_id == 0
    assert alarm.cwe_id == "CWE-89"
    assert alarm.offset == 2
    assert alarm.similarity == pytest.approx(1.0, abs=1e-12)
    assert result.summary.trace_id == "demo"
    assert result.summary.alarms == 1
    assert result.summary.classifier_invocations == 0  # naive mode


def test_whitelist_short_circuits(sql_db, encoder, small_world, recorded_steps):
    """A whitelisted call is dropped before encoding, nomination and matching."""
    wl = WhiteList(["readLine"])  # whitelist the chain's own source
    trace = Trace("demo", list(sql_db[0].templates))
    result = detect_naive(trace, encoder, wl, sql_db)
    s = result.summary
    assert s.total_calls == 3
    assert s.whitelisted_calls == 1
    assert s.encoded_calls == 2
    assert s.monitor_steps == 2
    # no step is taken at the white-listed offset 0
    assert recorded_steps == [(1, 1), (2, 1)]
    # source never seen, so the chain cannot complete
    assert result.alarms == []


def test_empty_candidates_skip_monitor(sql_db, encoder, recorded_steps):
    trace = Trace("demo", list(sql_db[0].templates))
    table = StateTable(sql_db)
    result = run_detection(
        trace, encoder, WhiteList(), table,
        candidate_fn=lambda x: frozenset(),
        config=EngineConfig(),
    )
    s = result.summary
    assert s.encoded_calls == 3
    assert s.monitor_steps == 0
    assert s.comparisons == 0
    assert recorded_steps == []
    assert next_index(table, 0) == 0


def test_halt_on_alarm(sql_db, encoder):
    templates = list(sql_db[0].templates)
    trace = Trace("demo", templates + templates)  # chain twice
    keep_going = detect_naive(trace, encoder, WhiteList(), sql_db)
    assert len(keep_going.alarms) == 2
    assert not keep_going.summary.halted

    halted = detect_naive(
        trace, encoder, WhiteList(), sql_db, config=EngineConfig(halt_on_alarm=True)
    )
    assert len(halted.alarms) == 1
    assert halted.summary.halted
    assert halted.summary.total_calls == 3  # stopped right at the first alarm


def test_naive_matches_equality_oracle(small_world, small_db, encoder, whitelist):
    """Engine alarms == oracle matcher alarms, including white-list skipping."""
    skip = frozenset(
        n for n in ("getCaughtException", "toString", "hashCode", "equals",
                    "valueOf", "println", "flush", "close")
    )
    for seed in (31, 32, 33):
        rng = np.random.default_rng(seed)
        calls = mixed_trace(small_world, rng, length=100, plant=3)
        result = detect_naive(Trace(f"t{seed}", calls), encoder, whitelist, small_db)
        got = [(a.exploit_id, a.offset) for a in result.alarms]
        expect = NaiveChainMatcher(small_world.chains).run(calls, skip_names=skip)
        assert got == expect, seed


def test_perfect_stub_filtering_keeps_all_alarms(small_world, small_db, encoder, whitelist):
    """Gating on exact call labels loses no alarms and only cuts comparisons.

    The stub plays the role of an ideal classifier: it nominates exactly the
    exploits whose fingerprints contain the call anywhere.  Advancing exploit
    e requires equality with one of e's templates, so the stub never filters
    out a comparison that would have advanced.
    """
    from chainwatch.corpus import trigger_index

    index = trigger_index(small_db)
    by_bytes = {}
    for chain in small_world.chains.values():
        for call in chain:
            key = (call.api_name, call.category, call.package)
            by_bytes[encoder.encode(call).tobytes()] = frozenset(index.get(key, ()))
    stub = lambda x: by_bytes.get(x.tobytes(), frozenset())

    rng = np.random.default_rng(77)
    calls = mixed_trace(small_world, rng, length=120, plant=4)
    trace = Trace("stub", calls)

    naive = detect_naive(trace, encoder, whitelist, small_db)
    gated_table = StateTable(small_db)
    gated = run_detection(
        trace, encoder, whitelist, gated_table, stub, EngineConfig()
    )

    assert [(a.exploit_id, a.offset) for a in gated.alarms] == [
        (a.exploit_id, a.offset) for a in naive.alarms
    ]
    assert gated.summary.comparisons < naive.summary.comparisons
    assert gated.summary.monitor_steps <= naive.summary.monitor_steps


def test_classifier_candidates_intersects_db(sql_db):
    """Predicted labels outside the database never reach the monitor."""
    model = init_model(0)
    nominate = classifier_candidates(model, sql_db, threshold=0.5)
    # zero vector gives probability exactly 0.5 on every label -> all predicted
    got = nominate(np.zeros(151))
    assert got == frozenset({0})  # only exploit 0 is stored


def test_detect_with_model_smoke(sql_db, encoder):
    """Untrained model end-to-end: bookkeeping stays consistent."""
    trace = Trace("smoke", list(sql_db[0].templates))
    result = detect(trace, encoder, WhiteList(), sql_db, init_model(0))
    s = result.summary
    assert s.total_calls == 3
    assert s.encoded_calls == 3
    assert s.classifier_invocations == 3
    assert s.monitor_steps == s.comparisons  # single-exploit db
    assert s.alarms == len(result.alarms)
    assert s.advanced_events + s.no_match_events + s.alarms == s.comparisons


def test_naive_comparisons_match_events(small_world, small_db, encoder, whitelist, recorded_steps):
    """Naive mode counts one comparison per exploit on every step, on a
    multi-exploit database; each is advanced, alarmed or not matched."""
    rng = np.random.default_rng(41)
    calls = mixed_trace(small_world, rng, length=100, plant=3)
    result = detect_naive(Trace("n", calls), encoder, whitelist, small_db)
    s = result.summary
    assert len(small_db) > 1
    assert s.alarms > 0
    assert len(recorded_steps) == s.monitor_steps
    assert s.comparisons == sum(n for _, n in recorded_steps) == s.monitor_steps * len(small_db)
    assert s.advanced_events + s.no_match_events + s.alarms == s.comparisons


def test_naive_steps_with_the_db_exploit_set(small_db, small_world, encoder, monkeypatch):
    """Naive mode hands ``step`` the database's one exploit set, not a new set per trace."""
    seen = []
    step = StateTable.step

    def spy(self, candidates, *args, **kwargs):
        seen.append(candidates)
        return step(self, candidates, *args, **kwargs)

    monkeypatch.setattr(StateTable, "step", spy)
    calls = mixed_trace(small_world, np.random.default_rng(4), length=20, plant=1)
    for _ in range(2):
        detect_naive(Trace("t", calls), encoder, WhiteList(), small_db)
    assert seen and all(c is small_db.exploit_set for c in seen)


def test_shared_table_carries_state_across_traces(sql_db, encoder):
    """Passing one state table to two runs resumes chain progress mid-stream."""
    templates = list(sql_db[0].templates)
    table = StateTable(sql_db)

    def scan(trace):
        return run_detection(trace, encoder, WhiteList(), table, None, EngineConfig())

    first = scan(Trace("a", templates[:2]))
    assert first.alarms == []
    assert next_index(table, 0) == 2
    second = scan(Trace("b", templates[2:]))
    assert len(second.alarms) == 1
    assert second.alarms[0].offset == 0  # offsets are per-trace


def test_accepts_bare_call_iterable(sql_db, encoder):
    result = detect_naive(list(sql_db[0].templates), encoder, WhiteList(), sql_db)
    assert result.summary.trace_id == "<calls>"
    assert len(result.alarms) == 1


def _novel_calls(n, base, words):
    """``n`` calls like ``base``, each named from three embedding-table words.

    No two calls share a name, and every name token is in the table, so the
    bounded ``hash_embed`` cache stays out of the measurement.
    """
    k = len(words)
    for i in range(n):
        a, b, c = words[i % k], words[i // k % k], words[i // (k * k) % k]
        yield dataclasses.replace(base, api_name=a + b.title() + c.title())


@pytest.mark.parametrize("naive", [False, True], ids=["detect", "detect_naive"])
def test_heap_stays_flat_over_a_call_stream(naive, encoder):
    """Detection holds no per-call state: a generator twice as long peaks no
    higher, give or take 64 KB."""
    db = load_fingerprints(FIXTURES / "cwe79.fp", encoder)
    model = init_model(seed=0)
    table_file = DATA_DIR / "embeddings" / "demo10d.txt"
    words = [line.split()[0] for line in table_file.read_text().splitlines() if line.strip()]
    words = [w for w in words if w.isalpha() and w.islower()]
    base = db[0].templates[0]

    def run(n):
        calls = _novel_calls(n, base, words)
        if naive:
            return detect_naive(calls, encoder, WhiteList(), db)
        return detect(calls, encoder, WhiteList(), db, model)

    def peak(n):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run(n)
            grown = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert result.summary.total_calls == result.summary.encoded_calls == n
        return grown

    run(200)  # first-call allocations stay out of both peaks
    assert peak(8000) <= peak(4000) + 64 * 1024


class _CountingCandidates:
    """A candidate function that nominates every stored exploit and counts its calls."""

    def __init__(self, db):
        self.every = db.exploit_set
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.every


@pytest.mark.parametrize("naive", (True, False))
def test_summary_of_an_empty_trace(sql_db, encoder, naive):
    nominate = None if naive else _CountingCandidates(sql_db)
    result = run_detection(Trace("e", []), encoder, WhiteList(), StateTable(sql_db), nominate,
                           EngineConfig(halt_on_alarm=True))
    assert result.summary == SessionSummary(trace_id="e")
    assert result.alarms == []


@pytest.mark.parametrize("naive", (True, False))
def test_summary_of_an_all_white_listed_trace(sql_db, encoder, recorded_steps, naive,
                                              monkeypatch):
    encoded = []
    encode = FeatureEncoder.encode
    monkeypatch.setattr(FeatureEncoder, "encode",
                        lambda self, call: encoded.append(call) or encode(self, call))
    templates = list(sql_db[0].templates)
    wl = WhiteList({call.api_name for call in templates})
    nominate = None if naive else _CountingCandidates(sql_db)
    result = run_detection(Trace("w", templates * 2), encoder, wl, StateTable(sql_db), nominate,
                           EngineConfig())
    assert result.summary == SessionSummary(trace_id="w", total_calls=6, whitelisted_calls=6)
    assert encoded == recorded_steps == []
    assert nominate is None or nominate.calls == 0


@pytest.mark.parametrize("naive", (True, False))
@pytest.mark.parametrize("lead", (0, 1, 4))
def test_halt_counts_calls_up_to_the_alarm(sql_db, encoder, naive, lead):
    """Halting at the alarm on offset k counts k + 1 calls: the white-listed
    ones, and the rest encoded and, unless naive, each nominated once."""
    templates = list(sql_db[0].templates)
    filler = dataclasses.replace(templates[0], api_name="flush")
    calls = [filler] * lead + templates + templates
    k = lead + len(templates) - 1
    nominate = None if naive else _CountingCandidates(sql_db)
    result = run_detection(Trace("h", calls), encoder, WhiteList(["flush"]), StateTable(sql_db),
                           nominate, EngineConfig(halt_on_alarm=True))
    s = result.summary
    assert [a.offset for a in result.alarms] == [k]
    assert s.halted
    assert s.total_calls == k + 1
    assert s.whitelisted_calls == lead
    assert s.encoded_calls == len(templates)
    assert s.classifier_invocations == (0 if naive else len(templates))
    assert nominate is None or nominate.calls == len(templates)
    assert s.monitor_steps == s.comparisons == len(templates)
    assert (s.advanced_events, s.no_match_events, s.alarms) == (len(templates) - 1, 0, 1)


def test_summary_counts_match_a_recount(small_world, small_db, encoder, whitelist,
                                        recorded_steps):
    """Every counter equals a recount of what the loop did on a mixed trace."""
    calls = mixed_trace(small_world, np.random.default_rng(5), length=120, plant=3)
    for nominate in (None, _CountingCandidates(small_db)):
        recorded_steps.clear()
        result = run_detection(Trace("m", calls), encoder, whitelist, StateTable(small_db),
                               nominate, EngineConfig())
        s = result.summary
        scored = sum(call.api_name not in whitelist for call in calls)
        assert s.alarms == len(result.alarms) > 0
        assert (s.total_calls, s.whitelisted_calls, s.encoded_calls) == (
            len(calls), len(calls) - scored, scored)
        assert s.classifier_invocations == (0 if nominate is None else nominate.calls)
        assert s.monitor_steps == len(recorded_steps)
        assert s.comparisons == sum(n for _, n in recorded_steps)
        assert s.advanced_events + s.no_match_events + s.alarms == s.comparisons
        assert not s.halted
