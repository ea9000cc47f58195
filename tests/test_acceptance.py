"""Acceptance gate: one test per release criterion.

Each test measures its own runtime, records a PASS/FAIL line that the
terminal summary prints as one block (see conftest), and then asserts.
Heavy shared assets (generated corpora, trained models) are module-scoped
fixtures; their build time is charged to the first criterion that needs
them, which is also the one whose budget was sized for it.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chainwatch import corpus as corpus_mod
from chainwatch import metrics, mlp
from chainwatch import sdg as sdg_mod
from chainwatch.encoder import (
    CATEGORY_SLICE,
    INPUT_SLICE,
    NAME_SLICE,
    OUTPUT_SLICE,
    PACKAGE_SLICE,
    SCOPE_SLICE,
    VECTOR_DIM,
)
from chainwatch.engine import (
    EngineConfig,
    detect,
    detect_naive,
    run_detection,
)
from chainwatch.bench import run_bench
from chainwatch.fingerprints import WhiteList, load_fingerprints
from chainwatch.monitor import StateTable
from chainwatch.trace import InstructionCall, read_trace
from chainwatch.vocab import CATEGORIES

from .conftest import ACCEPTANCE_LINES, FIXTURES
from .oracles import NaiveChainMatcher, brute_force_flows, grad_check, scalar_metrics
from .synthgen import _call, _random_graph, make_world, mixed_trace


def _record(num: int, title: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict}  criterion {num}: {title} ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _build_assets(stem, encoder, per_sequence, gen_seed, tmp_path_factory):
    """Corpus + trained model for one shipped fixture world."""
    t0 = time.perf_counter()
    db = load_fingerprints(FIXTURES / f"{stem}.fp", encoder)
    graph = sdg_mod.load_sdg(FIXTURES / f"{stem}.sdg", encoder.vocabs)
    with open(FIXTURES / f"{stem}_benign.jsonl") as fh:
        pool = tuple(read_trace(fh, encoder.vocabs, source_id=stem).calls)
    sequences = {}
    for eid in db.exploit_ids:
        matched = sdg_mod.match_query(graph, sdg_mod.lower_fingerprint(db[eid]))
        if matched:
            sequences[eid] = matched
    out = tmp_path_factory.mktemp(f"acc_{stem}")
    padding = corpus_mod.PaddingConfig(
        benign_pool=pool, filler_rate=2.0, per_sequence=per_sequence
    )
    corpus_mod.generate_corpus(
        db, sequences, out, seed=gen_seed, split=0.85, benign_ratio=1.0, padding=padding
    )
    train_items = corpus_mod.load_split(out, "train", encoder.vocabs)
    test_items = corpus_mod.load_split(out, "test", encoder.vocabs)
    x, t = corpus_mod.build_xy(train_items, encoder, mlp.N_LABELS)
    model, _ = mlp.train(x, t, mlp.TrainConfig(learning_rate=2.0, epochs=30, seed=0))
    return SimpleNamespace(
        db=db,
        model=model,
        train_items=train_items,
        test_items=test_items,
        build_seconds=time.perf_counter() - t0,
    )


@pytest.fixture(scope="module")
def synth20_assets(encoder, tmp_path_factory):
    return _build_assets("synth20", encoder, 200, 41, tmp_path_factory)


@pytest.fixture(scope="module")
def cwe79_assets(encoder, tmp_path_factory):
    return _build_assets("cwe79", encoder, 20, 79, tmp_path_factory)


def test_criterion_1_encoding_exactness(encoder, vocabs):
    t0 = time.perf_counter()
    slices = (NAME_SLICE, CATEGORY_SLICE, SCOPE_SLICE, PACKAGE_SLICE, INPUT_SLICE, OUTPUT_SLICE)
    widths = [s.stop - s.start for s in slices]
    layout_ok = VECTOR_DIM == 151 and widths == [70, 9, 2, 22, 24, 24]

    # The category block must be the 9x9 identity, one row per API type in
    # catalogue order.
    onehot_ok = True
    for i, cat in enumerate(CATEGORIES):
        call = InstructionCall("op", cat, "Application", vocabs.packages[0])
        row = encoder.encode(call)[CATEGORY_SLICE]
        expect = np.zeros(9)
        expect[i] = 1.0
        onehot_ok = onehot_ok and bool((row == expect).all())

    # Reference frequency rows over the leading I/O types
    # (String, Level, Throwable, File): log(String, Level, Throwable) and
    # getString(String) count each parameter type once.
    log_call = InstructionCall(
        "log", "invokevirtual", "Application", vocabs.packages[0],
        inputs=("String", "Level", "Throwable"),
    )
    get_call = InstructionCall(
        "getString", "invokevirtual", "Application", vocabs.packages[0],
        inputs=("String",), outputs=("String",),
    )
    freq_ok = (
        (encoder.encode(log_call)[INPUT_SLICE][:4] == [1.0, 1.0, 1.0, 0.0]).all()
        and (encoder.encode(get_call)[INPUT_SLICE][:4] == [1.0, 0.0, 0.0, 0.0]).all()
        and (encoder.encode(get_call)[OUTPUT_SLICE][:4] == [1.0, 0.0, 0.0, 0.0]).all()
    )
    elapsed = time.perf_counter() - t0
    ok = layout_ok and onehot_ok and bool(freq_ok) and elapsed < 1.0
    _record(
        1,
        "encoding exactness",
        ok,
        f"layout {widths}, one-hot identity {onehot_ok}, freq rows {bool(freq_ok)}, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        model = mlp.init_model(seed=100 + i)
        rng = np.random.default_rng(9000 + i)
        x = rng.standard_normal((3, VECTOR_DIM))
        t = (rng.random((3, mlp.N_LABELS)) < 0.3).astype(float)
        worst = max(worst, grad_check(model, x, t, eps=1e-5, seed=i))

    # A deliberately corrupted gradient must land far past the bar.
    model = mlp.init_model(seed=55)
    rng = np.random.default_rng(5555)
    x = rng.standard_normal((3, VECTOR_DIM))
    t = (rng.random((3, mlp.N_LABELS)) < 0.3).astype(float)

    def flipped(m):
        grads = mlp.loss_and_grads(m, x, t)[1]
        grads["w3"] = -grads["w3"]
        return grads

    flip_err = grad_check(model, x, t, eps=1e-5, seed=0, grad_fn=flipped)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and flip_err > 1e-1 and elapsed < 10.0
    _record(
        2,
        "gradient correctness",
        ok,
        f"max rel err {worst:.2e} <= 1e-4 over 20 pairs, sign-flip err {flip_err:.2e} > 1e-1, {elapsed:.2f}s < 10s",
    )


def test_criterion_3_oracle_equivalence(encoder, whitelist):
    t0 = time.perf_counter()
    agree = total_alarms = 0
    worlds = 100
    for i in range(worlds):
        rng = np.random.default_rng(3000 + i)
        n = int(rng.integers(1, 11))
        world = make_world(
            n_exploits=n, seed=3000 + i, encoder=encoder,
            chain_lengths=(2, 6), benign_count=8,
        )
        db = world.db(encoder)
        length = int(rng.integers(50, 201))
        trace = mixed_trace(world, rng, length=length, plant=min(3, n))
        res = run_detection(trace, encoder, whitelist, StateTable(db), None, EngineConfig())
        got = {(a.exploit_id, a.offset) for a in res.alarms}
        skip = frozenset(c.api_name for c in trace if c.api_name in whitelist)
        want = set(NaiveChainMatcher(world.chains).run(trace, skip_names=skip))
        agree += got == want
        total_alarms += len(want)
    elapsed = time.perf_counter() - t0
    ok = agree == worlds and total_alarms > 0 and elapsed < 30.0
    _record(
        3,
        "alarm equivalence vs naive matcher",
        ok,
        f"{agree}/{worlds} randomized databases agree, {total_alarms} alarms exercised, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_end_to_end_learning(encoder, whitelist, synth20_assets):
    t0 = time.perf_counter()
    assets = synth20_assets
    alarmed = []
    for item in assets.test_items:
        res = detect(item.trace, encoder, whitelist, assets.db, assets.model)
        alarmed.append(frozenset(a.exploit_id for a in res.alarms))
    tables = metrics.confusion_tables(
        corpus_mod.label_rows(alarmed, mlp.N_LABELS),
        corpus_mod.label_rows([item.true_exploits for item in assets.test_items], mlp.N_LABELS),
    )
    supported = metrics.supported_labels(tables)
    macro = metrics.macro_average(tables, labels=supported)
    elapsed = assets.build_seconds + (time.perf_counter() - t0)
    ok = (
        len(supported) == len(assets.db.exploit_ids)
        and macro["f1"] >= 0.95
        and elapsed < 300.0
    )
    _record(
        4,
        "held-out detection quality",
        ok,
        f"macro-F1 {macro['f1']:.4f} >= 0.95 over {len(supported)} exploits, "
        f"{len(assets.test_items)} held-out traces, {elapsed:.1f}s < 300s",
    )


def test_criterion_5_comparison_reduction(encoder, whitelist, cwe79_assets):
    t0 = time.perf_counter()
    assets = cwe79_assets
    eng_cmp = nai_cmp = calls = 0
    for item in assets.test_items:
        r_eng = detect(item.trace, encoder, whitelist, assets.db, assets.model)
        r_nai = detect_naive(item.trace, encoder, whitelist, assets.db)
        eng_cmp += r_eng.summary.comparisons
        nai_cmp += r_nai.summary.comparisons
        calls += r_eng.summary.total_calls - r_eng.summary.whitelisted_calls
    ratio = (nai_cmp / calls) / (eng_cmp / calls) if eng_cmp else float("inf")

    # Counters must reproduce exactly on a rerun.
    deterministic = True
    for item in assets.test_items[:5]:
        a = detect(item.trace, encoder, whitelist, assets.db, assets.model)
        b = detect(item.trace, encoder, whitelist, assets.db, assets.model)
        deterministic = deterministic and a.summary.__dict__ == b.summary.__dict__
    elapsed = assets.build_seconds + (time.perf_counter() - t0)
    ok = ratio >= 8.0 and deterministic and elapsed < 60.0
    _record(
        5,
        "monitor comparison reduction",
        ok,
        f"{len(assets.db.exploit_ids)}-exploit database: {eng_cmp / calls:.3f} vs "
        f"{nai_cmp / calls:.1f} comparisons/call, ratio {ratio:.1f}x >= 8x, "
        f"deterministic {deterministic}, {elapsed:.1f}s < 60s",
    )


def test_criterion_6_metrics_correctness():
    # (tp, fp, tn, fn) -> hand-computed accuracy, precision, recall, f1.
    cases = [
        ((2, 1, 1, 1), (0.6, 2 / 3, 2 / 3, 2 / 3)),
        ((0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0)),
        ((5, 0, 0, 0), (1.0, 1.0, 1.0, 1.0)),
        ((0, 3, 7, 0), (0.7, 0.0, 0.0, 0.0)),
        ((0, 0, 7, 3), (0.7, 0.0, 0.0, 0.0)),
        ((8, 2, 6, 4), (0.7, 0.8, 2 / 3, 2 * 0.8 * (2 / 3) / (0.8 + 2 / 3))),
        ((1, 1, 1, 1), (0.5, 0.5, 0.5, 0.5)),
        ((10, 0, 0, 5), (2 / 3, 1.0, 2 / 3, 0.8)),
        ((3, 9, 0, 0), (0.25, 0.25, 1.0, 0.4)),
        ((0, 5, 5, 0), (0.5, 0.0, 0.0, 0.0)),
    ]
    exact = True
    for (tp, fp, tn, fn), (acc, prec, rec, f1) in cases:
        c = metrics.Confusion(tp=tp, fp=fp, tn=tn, fn=fn)
        exact = exact and (
            metrics.accuracy(c) == acc
            and metrics.precision(c) == prec
            and metrics.recall(c) == rec
            and metrics.f1(c) == f1
        )

    # Macro over the full label space against a scalar recomputation.
    rng = np.random.default_rng(6006)
    tables = [
        metrics.Confusion(*(int(v) for v in rng.integers(0, 100, size=4)))
        for _ in range(mlp.N_LABELS)
    ]
    macro = metrics.macro_average(tables)
    drift = 0.0
    for key in ("accuracy", "precision", "recall", "f1"):
        manual = sum(scalar_metrics(c.tp, c.fp, c.tn, c.fn)[key] for c in tables) / len(tables)
        drift = max(drift, abs(macro[key] - manual))
    ok = exact and drift <= 1e-12
    _record(
        6,
        "metric formulas",
        ok,
        f"{len(cases)}/10 fixture matrices exact, macro drift {drift:.1e} <= 1e-12 over {len(tables)} labels",
    )


def test_criterion_7_graph_matching(encoder, sql_db):
    t0 = time.perf_counter()
    graph = sdg_mod.load_sdg(FIXTURES / "sqlinj.sdg", encoder.vocabs)
    sequences = sdg_mod.match_query(graph, sdg_mod.lower_fingerprint(sql_db[0]))
    names = [[c.api_name for c in seq] for seq in sequences]
    fixture_ok = names == [["readLine", "append", "executeQuery"]]

    pool = [_call(f"api{chr(97 + i)}") for i in range(6)]
    rng = np.random.default_rng(7171)
    agree = nonempty = 0
    graphs = 200
    for _ in range(graphs):
        sdg = _random_graph(rng, pool)
        present = [n.call for n in sdg.nodes.values() if n.call is not None]
        if not present:
            agree += 1
            continue
        query = sdg_mod.VulnQuery(
            0,
            sources=(present[int(rng.integers(len(present)))],),
            sinks=(present[int(rng.integers(len(present)))],),
        )
        got = sdg_mod.match_query_detailed(sdg, query)
        expect = brute_force_flows(sdg, query)
        pair_ok = {(s, k) for s, k, _ in got} == set(expect)
        seq_ok = all(seq in expect[(s, k)] for s, k, seq in got)
        agree += pair_ok and seq_ok
        nonempty += bool(got)
    elapsed = time.perf_counter() - t0
    ok = fixture_ok and agree == graphs and nonempty >= 30 and elapsed < 10.0
    _record(
        7,
        "dependence-graph query matching",
        ok,
        f"fixture flow {names}, {agree}/{graphs} random graphs agree with brute force "
        f"({nonempty} nonempty), {elapsed:.2f}s < 10s",
    )


def test_criterion_8_pipeline_ordering(encoder, whitelist, sql_db, vocabs, recorded_steps):
    wl_call = InstructionCall("println", "invokevirtual", "Application", vocabs.packages[0])
    fillers = [
        InstructionCall(name, "invokestatic", "Application", vocabs.packages[1])
        for name in ("alpha", "beta", "gamma")
    ]
    rng = np.random.default_rng(808)
    wl_positions = set(int(p) for p in rng.choice(1000, size=300, replace=False))
    calls = [
        wl_call if i in wl_positions else fillers[i % len(fillers)] for i in range(1000)
    ]
    assert sum(c.api_name in whitelist for c in calls) == 300

    model = mlp.init_model(0)
    s = detect(calls, encoder, whitelist, sql_db, model).summary
    # Every monitor step is recorded with its trace offset and its distinct
    # candidates, so attributing work to white-listed positions is a direct lookup.
    on_whitelisted = sum(n for offset, n in recorded_steps if offset in wl_positions)
    accounting_ok = (
        s.total_calls == 1000
        and s.whitelisted_calls == 300
        and s.classifier_invocations == 700
        and s.encoded_calls == 700
        and s.comparisons == sum(n for _, n in recorded_steps)
        and on_whitelisted == 0
    )

    # Control: with the white-list disabled the same calls do reach the
    # classifier, so the skip above is real work avoided, not dead code.
    control = detect(calls, encoder, WhiteList(), sql_db, model).summary
    control_ok = (
        control.classifier_invocations == 1000
        and control.whitelisted_calls == 0
        and control.comparisons >= s.comparisons
    )
    _record(
        8,
        "white-list short-circuit ordering",
        accounting_ok and control_ok,
        f"1000 calls, 300 white-listed: {s.classifier_invocations} classifier invocations "
        f"(control without white-list: {control.classifier_invocations}), "
        f"{on_whitelisted} monitor comparisons on white-listed calls",
    )


def test_criterion_9_latency_and_work_bound(encoder, whitelist, cwe79_assets):
    assets = cwe79_assets
    traces = [item.trace for item in assets.test_items if item.true_exploits][:24]
    # The default-config runs that run_bench's warm-up makes, one per trace and mode.
    eng = [detect(t, encoder, whitelist, assets.db, assets.model).summary for t in traces]
    nai = [detect_naive(t, encoder, whitelist, assets.db).summary for t in traces]
    strict = len(eng) == len(nai) == len(traces) and all(
        e.comparisons < n.comparisons for e, n in zip(eng, nai)
    )
    report = run_bench(traces, encoder, whitelist, assets.db, assets.model, repetitions=2)
    median = report["engine"]["latency"]["median_us"]
    soft_ok = median < 100.0
    _record(
        9,
        "per-trace work bound, latency reported",
        strict,
        f"engine < naive comparisons on {len(traces)}/{len(traces)} traces; median "
        f"{median:.1f} us per scored call "
        f"({'within' if soft_ok else 'EXCEEDS soft'} 100 us bar)",
    )
