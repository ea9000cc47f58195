"""State-table behavior.

The equivalence tests lean on the synthetic-world separation invariant: all
distinct calls encode at cosine <= 0.85 apart, so for thresholds above 0.85 a
cosine match means literal call equality and the equality-based matcher in
tests/oracles.py is an exact oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwatch import monitor
from chainwatch.encoder import VECTOR_DIM
from chainwatch.monitor import (
    DEFAULT_COSINE_THRESHOLD,
    SCREEN_EVERY_ROW_PARTWAY,
    SCREEN_MIN_CANDIDATES,
    SCREEN_NORMS,
    SCREEN_SLACK,
    EventKind,
    MonitorError,
    StateTable,
)
from chainwatch.fingerprints import Fingerprint, FingerprintDb, load_fingerprints

from .conftest import FIXTURES, next_index
from .oracles import NaiveChainMatcher, cosine, reference_step
from .synthgen import mixed_trace


def _alarms(events):
    return sum(e.kind is EventKind.ALARM for e in events)


def test_default_threshold():
    assert DEFAULT_COSINE_THRESHOLD == 0.9


class TestCosine:
    def test_matches_manual_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal(151)
            b = rng.standard_normal(151)
            expect = float(np.dot(a, b)) / (
                math.sqrt(float(np.dot(a, a))) * math.sqrt(float(np.dot(b, b)))
            )
            assert cosine(a, b) == pytest.approx(expect, abs=1e-12)

    def test_zero_norm(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0
        assert cosine(np.ones(4), np.zeros(4)) == 0.0

    def test_identical_vectors(self):
        a = np.random.default_rng(0).standard_normal(151)
        assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)
        assert cosine(a, a) <= 1.0  # clamped

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            cosine(np.zeros((2, 2)), np.zeros((2, 2)))


def test_cosine_basics():
    a = np.array([1.0, 0.0, 0.0])
    assert cosine(a, a) == 1.0
    assert cosine(a, -a) == -1.0
    assert cosine(a, np.array([0.0, 1.0, 0.0])) == 0.0


def test_cosine_zero_norm_is_zero():
    z = np.zeros(5)
    a = np.ones(5)
    assert cosine(z, a) == 0.0
    assert cosine(a, z) == 0.0
    assert cosine(z, z) == 0.0


def test_cosine_clamped():
    # parallel vectors can exceed 1.0 by rounding; must be clamped
    a = np.full(151, 0.1)
    assert -1.0 <= cosine(a, a * 3.0) <= 1.0


def test_empty_db_rejected():
    with pytest.raises(MonitorError, match="empty"):
        StateTable(FingerprintDb(fingerprints={}))


def test_advance_alarm_reset(sql_db):
    """Feeding the exact chain walks 0 -> 1 -> 2 -> alarm -> back to 0."""
    table = StateTable(sql_db)
    vecs = sql_db[0].template_vectors
    assert next_index(table, 0) == 0

    events = table.step([0], vecs[0], trace_offset=0)
    assert [e.kind for e in events] == [EventKind.ADVANCED]
    assert next_index(table, 0) == 1

    events = table.step([0], vecs[1], trace_offset=1)
    assert events[0].kind == EventKind.ADVANCED
    assert next_index(table, 0) == 2

    events = table.step([0], vecs[2], trace_offset=2)
    assert events[0].kind == EventKind.ALARM
    assert events[0].exploit_id == 0
    assert events[0].cwe_id == "CWE-89"
    assert events[0].trace_offset == 2
    assert events[0].similarity == pytest.approx(1.0, abs=1e-12)
    assert next_index(table, 0) == 0  # rewound


def test_repeated_chain_alarms_again(sql_db):
    table = StateTable(sql_db)
    vecs = sql_db[0].template_vectors
    events = []
    for _ in range(3):
        for off, v in enumerate(vecs):
            events += table.step([0], v, off)
    assert _alarms(events) == 3


def test_no_match_leaves_state(sql_db):
    table = StateTable(sql_db)
    vecs = sql_db[0].template_vectors
    assert table.step([0], vecs[2], trace_offset=0) == []  # sink first: wrong order
    assert next_index(table, 0) == 0


def test_out_of_order_chain_never_alarms(sql_db):
    """Sink and middle first match nothing; the source then advances once."""
    table = StateTable(sql_db)
    vecs = sql_db[0].template_vectors
    events = []
    for off, v in enumerate([vecs[2], vecs[1], vecs[0]]):
        events += table.step([0], v, off)
    assert [(e.kind, e.trace_offset) for e in events] == [(EventKind.ADVANCED, 2)]
    assert next_index(table, 0) == 1


def test_non_candidates_untouched(small_db, encoder, small_world):
    table = StateTable(small_db)
    first = small_world.chains[0][0]
    events = table.step([0], encoder.encode(first), 0)
    assert next_index(table, 0) == 1
    assert [e.exploit_id for e in events] == [0]
    for eid in small_db.exploit_ids[1:]:
        assert next_index(table, eid) == 0


def test_events_sorted_and_one_per_candidate(small_db, encoder):
    """Four exploits wait on one template: each advances once, in ascending id
    order.  The ids are ones a set of them does not iterate in order."""
    ids = (2, 9, 33, 40)
    assert list(set(ids)) != sorted(ids)
    base = small_db[3]
    db = FingerprintDb(
        fingerprints={eid: dataclasses.replace(base, exploit_id=eid) for eid in ids}
    )
    table = StateTable(db)
    events = table.step([33, 2, 40, 9], encoder.encode(base.templates[0]), 7)
    assert [e.exploit_id for e in events] == list(ids)
    assert all(e.kind is EventKind.ADVANCED and e.trace_offset == 7 for e in events)
    assert [next_index(table, eid) for eid in ids] == [1, 1, 1, 1]


def test_duplicate_candidates_collapse(small_db, encoder, exact_pairs):
    table = StateTable(small_db)
    x = encoder.encode(small_db[0].templates[0])
    events = table.step([0, 0, 0], x, 0)
    assert [(e.kind, e.exploit_id) for e in events] == [(EventKind.ADVANCED, 0)]
    assert len(exact_pairs) == 1  # one comparison
    assert next_index(table, 0) == 1


def test_unknown_candidate_rejected(sql_db):
    table = StateTable(sql_db)
    with pytest.raises(MonitorError, match="candidate"):
        table.step([42], np.zeros(151), 0)


def test_threshold_validation(sql_db):
    table = StateTable(sql_db)
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(MonitorError, match="threshold"):
            table.step([0], np.zeros(151), 0, threshold=bad)
    # 1.0 is legal (inclusive upper end)
    table.step([0], np.zeros(151), 0, threshold=1.0)


def test_bad_vector_shape(sql_db):
    table = StateTable(sql_db)
    with pytest.raises(MonitorError, match="shape"):
        table.step([0], np.zeros(150), 0)


def test_tables_over_one_db_keep_separate_cursors(sql_db):
    table = StateTable(sql_db)
    other = StateTable(sql_db)
    vecs = sql_db[0].template_vectors
    table.step([0], vecs[0], 0)
    assert next_index(table, 0) == 1
    assert next_index(other, 0) == 0  # unaffected
    other.step([0], vecs[0], 0)
    table.step([0], vecs[1], 1)
    assert next_index(table, 0) == 2
    assert next_index(other, 0) == 1


def test_candidate_filtering_is_sound(small_world, small_db, encoder):
    """Stepping a subset must move those exploits exactly as the full set does.

    This is the property that makes classifier gating safe: per-exploit
    transitions depend only on that exploit's own state and the input vector.
    """
    rng = np.random.default_rng(99)
    calls = mixed_trace(small_world, rng, length=40, plant=2)
    full = StateTable(small_db)
    part = StateTable(small_db)
    subset = [0, 2, 4]
    full_events, part_events = [], []
    for off, call in enumerate(calls):
        x = encoder.encode(call)
        full_events += full.step(small_db.exploit_ids, x, off)
        part_events += part.step(subset, x, off)
    assert _alarms(part_events) > 0  # the property must not pass vacuously
    for eid in subset:
        assert next_index(part, eid) == next_index(full, eid)
        assert [e for e in part_events if e.exploit_id == eid] == [
            e for e in full_events if e.exploit_id == eid
        ]
    assert {e.exploit_id for e in part_events} <= set(subset)
    for eid in set(small_db.exploit_ids) - set(subset):
        assert next_index(part, eid) == 0


def _alarmed_set(world, db, encoder, seed, threshold):
    rng = np.random.default_rng(seed)
    calls = mixed_trace(world, rng, length=60, plant=3)
    table = StateTable(db)
    alarmed = set()
    for off, call in enumerate(calls):
        for ev in table.step(db.exploit_ids, encoder.encode(call), off, threshold=threshold):
            if ev.kind == EventKind.ALARM:
                alarmed.add(ev.exploit_id)
    return alarmed


def test_threshold_antitonicity_of_alarmed_sets(small_world, small_db, encoder):
    """Raising the threshold never alarms a new exploit.

    Stated over the set of alarmed exploits per trace.  The per-offset version
    is false: a sub-threshold match that fails at the higher threshold can
    leave the index mid-chain instead of resetting, shifting later alarm
    offsets around.
    """
    grid = [0.7, 0.8, 0.86, 0.9, 0.95, 1.0]
    saw_any = False
    for seed in range(1000, 1010):
        sets = {th: _alarmed_set(small_world, small_db, encoder, seed, th) for th in grid}
        saw_any = saw_any or any(sets.values())
        for lo, hi in zip(grid, grid[1:]):
            assert sets[hi] <= sets[lo], (seed, lo, hi)
    assert saw_any  # the property must not pass vacuously


def test_matches_equality_oracle_on_separated_world(small_world, small_db, encoder):
    """Cosine monitor == exact-equality matcher when calls are well separated."""
    for seed in (5, 6, 7, 8):
        rng = np.random.default_rng(seed)
        calls = mixed_trace(small_world, rng, length=80, plant=3)
        for threshold in (0.86, 0.9, 0.99):
            table = StateTable(small_db)
            got = []
            for off, call in enumerate(calls):
                for ev in table.step(small_db.exploit_ids, encoder.encode(call), off, threshold=threshold):
                    if ev.kind == EventKind.ALARM:
                        got.append((ev.exploit_id, ev.trace_offset))
            expect = NaiveChainMatcher(small_world.chains).run(calls)
            assert got == expect, (seed, threshold)


ZERO_ROW_ID = 6


@pytest.fixture(scope="module")
def step_db(small_db):
    """The small world plus one exploit whose second template row is all zeros."""
    base = small_db[3]
    vectors = base.template_vectors.copy()
    vectors[1] = 0.0
    zero_row = Fingerprint(
        exploit_id=ZERO_ROW_ID,
        cwe_id="CWE-0",
        label="zero template row",
        templates=base.templates,
        roles=base.roles,
        template_vectors=vectors,
    )
    db = FingerprintDb(fingerprints={**small_db.fingerprints, ZERO_ROW_ID: zero_row})
    assert ZERO_ROW_ID not in small_db
    assert db.template_norms[db.start_rows[db.positions[ZERO_ROW_ID]] + 1] == 0.0
    return db


def _step_compact(table, cursors, candidates, x, offset, threshold):
    """Step the table and the reference alike: the reference's matches, to the bit."""
    got = table.step(candidates, x, offset, threshold=threshold)
    return _assert_matches(got, table, cursors, candidates, x, offset, threshold)


def _assert_matches(got, table, cursors, candidates, x, offset, threshold):
    """``got`` is the reference's ``ADVANCED`` and ``ALARM`` events, similarity
    bits included, and every cursor of ``table`` equals the reference's."""
    want = reference_step(table.db, cursors, candidates, x, offset, threshold)
    matches = [(k, eid, cwe, off, sim.hex()) for k, eid, cwe, off, sim in want if k != "NO_MATCH"]
    assert [
        (e.kind.name, e.exploit_id, e.cwe_id, e.trace_offset, e.similarity.hex()) for e in got
    ] == matches
    assert {eid: next_index(table, eid) for eid in table.db.exploit_ids} == cursors
    return got


def _step_args(db, cursors, candidates=None):
    """One (candidates, x, threshold) draw; x is often a candidate's next template.

    ``candidates`` is a strategy for the candidate list; by default up to
    twice as many ids as the database holds, duplicates included.
    """
    ids = db.exploit_ids
    rows = [row for eid in ids for row in db[eid].template_vectors]
    upcoming = [db[eid].template_vectors[cursors[eid]] for eid in ids]
    scales = st.sampled_from([1.0, 3.0, 0.1, 7.0, 1e3, 1e-3, -1.0]) | st.floats(1e-6, 1e6)
    seeds = st.integers(0, 2**32 - 1)
    vectors = st.one_of(
        st.just(np.zeros(VECTOR_DIM)),
        # scaled copies of templates: the unclamped quotient lands above, on and below 1.0
        st.builds(lambda row, c: c * row, st.sampled_from(upcoming), scales),
        st.builds(lambda row, c: c * row, st.sampled_from(rows), scales),
        st.builds(
            lambda row, seed: row + 1e-9 * np.random.default_rng(seed).standard_normal(VECTOR_DIM),
            st.sampled_from(upcoming),
            seeds,
        ),
        st.builds(lambda seed: np.random.default_rng(seed).standard_normal(VECTOR_DIM), seeds),
    )
    if candidates is None:
        candidates = st.lists(st.sampled_from(ids), max_size=2 * len(ids))
    thresholds = st.sampled_from(
        [1.0, float(np.nextafter(0.9, 1.0)), DEFAULT_COSINE_THRESHOLD, 0.5]
    )
    return st.tuples(candidates, vectors, thresholds)


@settings(deadline=None)
@given(data=st.data())
def test_step_is_bit_equal_to_reference(step_db, data):
    """Matches, similarities to the bit, and cursors follow one cosine() per candidate."""
    table = StateTable(step_db)
    cursors = dict.fromkeys(step_db.exploit_ids, 0)
    for offset in range(data.draw(st.integers(1, 30))):
        candidates, x, threshold = data.draw(_step_args(step_db, cursors))
        _step_compact(table, cursors, candidates, x, offset, threshold)


def test_step_clamps_and_zero_norms_as_reference(step_db):
    """The cases the property test relies on are reached: zero template, zero call, clamp."""
    table = StateTable(step_db)
    cursors = dict.fromkeys(step_db.exploit_ids, 0)

    def step(candidates, x, offset, threshold=DEFAULT_COSINE_THRESHOLD):
        return _step_compact(table, cursors, candidates, x, offset, threshold)

    first = step_db[ZERO_ROW_ID].template_vectors[0]
    assert [e.kind for e in step([ZERO_ROW_ID], first, 0)] == [EventKind.ADVANCED]
    advanced = dict(cursors)
    assert step([ZERO_ROW_ID, ZERO_ROW_ID], first, 1) == []  # a zero row matches nothing
    assert step(step_db.exploit_ids, np.zeros(VECTOR_DIM), 2) == []  # nor does a zero call
    assert cursors == advanced

    clamped = 0
    offset = 3
    for eid in step_db.exploit_ids:
        for row in step_db[eid].template_vectors:
            for c in (1.0, 3.0, 1e3):
                x = c * row
                norms = float(np.sqrt(x @ x)) * float(np.sqrt(row @ row))
                clamped += bool(norms) and float(x @ row) / norms > 1.0
                step([eid], x, offset, threshold=1.0)
                offset += 1
    assert clamped > 0


WIDE_ZERO_ROW_ID = 78


@pytest.fixture(scope="module")
def wide_db(encoder, step_db):
    """cwe79.fp with its exploit 78 swapped for step_db's zero-row exploit: 79
    exploits, so candidate sets fall on both sides of ``SCREEN_MIN_CANDIDATES``."""
    cwe79 = load_fingerprints(FIXTURES / "cwe79.fp", encoder)
    zero = step_db[ZERO_ROW_ID]
    moved = Fingerprint(
        exploit_id=WIDE_ZERO_ROW_ID,
        cwe_id=zero.cwe_id,
        label=zero.label,
        templates=zero.templates,
        roles=zero.roles,
        template_vectors=zero.template_vectors,
    )
    assert WIDE_ZERO_ROW_ID in cwe79
    db = FingerprintDb(fingerprints={**cwe79.fingerprints, WIDE_ZERO_ROW_ID: moved})
    assert len(db) > SCREEN_MIN_CANDIDATES
    return db


def test_compact_step_is_the_references_matches(wide_db, monkeypatch):
    """The screened and the exact path return exactly the reference's ADVANCED
    and ALARM events, and move the cursors alike: with the screens switching
    at ``SCREEN_EVERY_ROW_PARTWAY`` part-way exploits, and with every screen
    over every row."""
    ids = wide_db.exploit_ids
    candidates = st.one_of(
        st.lists(st.sampled_from(ids), max_size=SCREEN_MIN_CANDIDATES - 1),
        st.lists(st.sampled_from(ids), min_size=SCREEN_MIN_CANDIDATES, max_size=2 * len(ids)),
        st.just(list(ids)),
    )
    screened = set()
    part_way = set()

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def steps(data):
        table = StateTable(wide_db)
        cursors = dict.fromkeys(ids, 0)
        for offset in range(data.draw(st.integers(1, 20))):
            cands, x, threshold = data.draw(_step_args(wide_db, cursors, candidates))
            screen = len(set(cands)) >= SCREEN_MIN_CANDIDATES
            screened.add(screen)
            part_way.add(screen and any(cursors[eid] for eid in cands))
            _step_compact(table, cursors, cands, x, offset, threshold)

    for every_row_partway in (SCREEN_EVERY_ROW_PARTWAY, 0):
        monkeypatch.setattr(monitor, "SCREEN_EVERY_ROW_PARTWAY", every_row_partway)
        steps()
    assert screened == {False, True}
    assert True in part_way  # a screened step ran with a candidate part-way through its chain


def _event_bits(events):
    return [(e.kind, e.exploit_id, e.cwe_id, e.trace_offset, e.similarity.hex()) for e in events]


def test_exploit_set_steps_as_the_id_list(wide_db):
    """``db.exploit_set``, taken without sorting, gives the events (similarity
    bits included) and cursors of the equal sorted id list: over drawn calls,
    and over every template in chain order, which reaches every event kind."""
    ids = wide_db.exploit_ids

    def both(by_set, by_list, x, offset, threshold):
        got = by_set.step(wide_db.exploit_set, x, offset, threshold)
        want = by_list.step(list(ids), x, offset, threshold)
        assert _event_bits(got) == _event_bits(want)
        assert np.array_equal(by_set._cursors, by_list._cursors)
        return got

    @settings(deadline=None, max_examples=50)
    @given(data=st.data())
    def steps(data):
        by_set, by_list = StateTable(wide_db), StateTable(wide_db)
        cursors = dict.fromkeys(ids, 0)
        for offset in range(data.draw(st.integers(1, 20))):
            _, x, threshold = data.draw(_step_args(wide_db, cursors, st.just(())))
            both(by_set, by_list, x, offset, threshold)
            cursors = {eid: next_index(by_set, eid) for eid in ids}

    steps()
    kinds = set()
    rows = [row for eid in ids for row in wide_db[eid].template_vectors]
    by_set, by_list = StateTable(wide_db), StateTable(wide_db)
    for offset, row in enumerate(rows):
        got = both(by_set, by_list, row, offset, DEFAULT_COSINE_THRESHOLD)
        kinds.update(e.kind for e in got)
    assert kinds == set(EventKind)


def test_screen_keeps_every_match_at_threshold_one(wide_db):
    """Scaled copies of every template, every exploit a candidate, threshold 1.0:
    the quotient lands on, above and just below 1.0, where a screen without its
    slack would drop pairs the exact path matches."""
    for c in (1.0, 3.0, 0.1, 7.0, 1e3):
        table = StateTable(wide_db)
        cursors = dict.fromkeys(wide_db.exploit_ids, 0)
        offset = 0
        for eid in wide_db.exploit_ids:
            for row in wide_db[eid].template_vectors:
                _step_compact(table, cursors, wide_db.exploit_ids, c * row, offset, 1.0)
                offset += 1


@pytest.fixture
def exact_pairs(monkeypatch):
    """The (norm of x, norm of row) of every pair that took the exact path."""
    pairs = []
    similarity = monitor._similarity

    def spy(dot, norm_a, norm_b):
        pairs.append((norm_a, norm_b))
        return similarity(dot, norm_a, norm_b)

    monkeypatch.setattr(monitor, "_similarity", spy)
    return pairs


def test_screen_edges_take_the_exact_path(wide_db, exact_pairs):
    """A zero call, a non-finite call and a call outside ``SCREEN_NORMS`` compare
    every candidate exactly; a zero template row survives the screen."""
    ids = wide_db.exploit_ids
    low, high = SCREEN_NORMS
    first = wide_db[WIDE_ZERO_ROW_ID].template_vectors[0]
    table = StateTable(wide_db)
    cursors = dict.fromkeys(ids, 0)

    def step(x, offset, candidates=ids):
        exact_pairs.clear()
        got = table.step(candidates, x, offset)
        _assert_matches(got, table, cursors, candidates, x, offset, DEFAULT_COSINE_THRESHOLD)
        return got

    # Inside the guard the screen runs: only pairs that can match are exact.
    assert [e.exploit_id for e in step(first, 0)] == [WIDE_ZERO_ROW_ID]
    assert 1 <= len(exact_pairs) < SCREEN_MIN_CANDIDATES
    # The zero-row exploit now waits on its zero row: that pair is never dropped.
    assert step(first, 1) == []
    assert (float(np.sqrt(first @ first)), 0.0) in exact_pairs
    assert len(exact_pairs) < SCREEN_MIN_CANDIDATES

    # Outside the guard every candidate is exact, and the matches still equal the reference.
    # A zero, a NaN and a partly infinite call, then calls of norm below and above the range.
    edges = [(0.0, 5), (np.nan, 5), (np.inf, 5), (2.0**-210, 5), (2.0**210, 6)]
    for offset, (scale, eid) in enumerate(edges, start=2):
        with np.errstate(invalid="ignore"):
            matched = step(scale * wide_db[eid].template_vectors[next_index(table, eid)], offset)
        assert len(exact_pairs) == len(ids)
        assert not low <= exact_pairs[0][0] <= high
        if np.isfinite(scale) and scale != 0.0:
            assert eid in [e.exploit_id for e in matched]

    # Fewer candidates than the screen's minimum: every one is exact.
    some = ids[:SCREEN_MIN_CANDIDATES - 1]
    step(wide_db[1].template_vectors[0], 7, some)
    assert len(exact_pairs) == len(some)


def _screen_passes(x, row):
    """The screen's test on ``row``, from the cosine; no cosine lies near the
    bound, so rounding cannot decide it."""
    c = cosine(x, row)
    assert abs(c - (DEFAULT_COSINE_THRESHOLD - SCREEN_SLACK)) > 1e-6
    return c >= DEFAULT_COSINE_THRESHOLD - SCREEN_SLACK


def test_screen_compares_a_part_way_exploit_exactly(wide_db, exact_pairs):
    """An exploit part-way through its chain is compared exactly although its
    first template fails the screen; an exploit at its start only when its
    first template passes."""
    ids = wide_db.exploit_ids
    t = DEFAULT_COSINE_THRESHOLD
    eid = next(e for e in ids if len(wide_db[e]) > 2
               and not _screen_passes(wide_db[e].template_vectors[1],
                                      wide_db[e].template_vectors[0]))
    first, second = wide_db[eid].template_vectors[:2]
    table = StateTable(wide_db)
    cursors = dict.fromkeys(ids, 0)
    assert [e.kind for e in _step_compact(table, cursors, [eid], first, 0, t)] == [
        EventKind.ADVANCED
    ]

    exact_pairs.clear()
    got = _step_compact(table, cursors, ids, second, 1, t)
    assert (EventKind.ADVANCED, eid) in [(e.kind, e.exploit_id) for e in got]
    assert next_index(table, eid) == 2
    at_start = [
        e for e in ids if e != eid and _screen_passes(second, wide_db[e].template_vectors[0])
    ]
    assert len(exact_pairs) == 1 + len(at_start)


def test_screen_over_every_row_with_many_exploits_part_way(wide_db, exact_pairs):
    """With ``SCREEN_EVERY_ROW_PARTWAY`` exploits part-way, the screen takes
    every exploit at its cursor's row, so it drops part-way exploits too, and
    the step still gives the reference's events."""
    ids = wide_db.exploit_ids
    t = DEFAULT_COSINE_THRESHOLD
    table = StateTable(wide_db)
    cursors = dict.fromkeys(ids, 0)
    chains = [e for e in ids if len(wide_db[e]) > 2]
    for offset, eid in enumerate(chains[:SCREEN_EVERY_ROW_PARTWAY]):
        _step_compact(table, cursors, [eid], wide_db[eid].template_vectors[0], offset, t)
    part_way = [e for e in ids if cursors[e]]
    assert len(part_way) >= SCREEN_EVERY_ROW_PARTWAY

    eid = part_way[0]
    x = wide_db[eid].template_vectors[cursors[eid]]
    rows = {e: wide_db[e].template_vectors[cursors[e]] for e in ids}
    exact_pairs.clear()
    got = _step_compact(table, cursors, ids, x, len(chains), t)
    assert (EventKind.ADVANCED, eid) in [(e.kind, e.exploit_id) for e in got]
    kept = [e for e in ids if _screen_passes(x, rows[e])]
    assert len(exact_pairs) == len(kept)
    assert any(e not in kept for e in part_way)
