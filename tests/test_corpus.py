import filecmp
import json
import math
import shutil

import numpy as np
import pytest

from chainwatch.corpus import (
    CorpusError,
    MAX_FILLER_RATE,
    PaddingConfig,
    build_xy,
    emit_benign,
    emit_corpus,
    generate_corpus,
    label_rows,
    load_split,
    read_labels,
    read_manifest,
    trigger_index,
)
from chainwatch.trace import InstructionCall, TraceError, parse_trace_record, read_trace

from .synthgen import make_world


def test_trigger_index_sql(sql_db):
    index = trigger_index(sql_db)
    assert index[("readLine", "invokevirtual", "Ljava/io/BufferedReader")] == frozenset({0})
    assert index[("executeQuery", "invokeinterface", "Ljava/sql/Statement")] == frozenset({0})
    assert len(index) == 3


def test_trigger_index_cross_labels(encoder):
    """A source call shared by several chains must carry all their ids."""
    world = make_world(
        n_exploits=3,
        seed=11,
        encoder=encoder,
        cwe_plan=[("CWE-89", 3)],
        share_source_fraction=1.0,
        benign_count=4,
    )
    db = world.db(encoder)
    shared = world.chains[0][0]
    assert world.chains[1][0] == shared and world.chains[2][0] == shared
    index = trigger_index(db)
    key = (shared.api_name, shared.category, shared.package)
    assert index[key] == frozenset({0, 1, 2})


def test_padding_config_validation():
    with pytest.raises(CorpusError):
        PaddingConfig(filler_rate=-1.0)
    with pytest.raises(CorpusError):
        PaddingConfig(per_sequence=0)
    with pytest.raises(CorpusError, match="benign pool"):
        PaddingConfig(filler_rate=2.0, benign_pool=())
    PaddingConfig(filler_rate=0.0)  # zero rate needs no pool


def test_emit_corpus_labels_and_padding(sql_db, small_world):
    index = trigger_index(sql_db)
    padding = PaddingConfig(
        benign_pool=tuple(small_world.benign_pool), filler_rate=1.5, per_sequence=3
    )
    rng = np.random.default_rng(0)
    seq = sql_db[0].templates
    items = emit_corpus([seq], 0, padding, index, rng)
    assert len(items) == 3
    for item in items:
        assert item.true_exploits == frozenset({0})
        assert len(item.calls) == len(item.label_sets)
        assert len(item.calls) >= len(seq)
        # the planted templates appear in order with label {0}
        planted = [c for c in item.calls if c in seq]
        assert planted == list(seq)
        for call, labels in zip(item.calls, item.label_sets):
            if call in seq:
                assert labels == frozenset({0})
            else:
                assert labels == frozenset()  # benign filler from another world


def test_emit_corpus_fallback_label(sql_db):
    """A sequence call with no template match falls back to the emitting id."""
    index = trigger_index(sql_db)
    stray = InstructionCall("strayHelper", "phi", "Application", "Ljava/lang/String")
    rng = np.random.default_rng(0)
    [item] = emit_corpus(
        [(stray,)], 0, PaddingConfig(filler_rate=0.0), index, rng
    )
    assert item.label_sets == [frozenset({0})]


def test_emit_benign(small_world, sql_db):
    index = trigger_index(sql_db)
    padding = PaddingConfig(benign_pool=tuple(small_world.benign_pool), filler_rate=1.0)
    items = emit_benign(5, 8.0, padding, index, np.random.default_rng(1))
    assert len(items) == 5
    for item in items:
        assert item.true_exploits == frozenset()
        assert all(labels == frozenset() for labels in item.label_sets)
        assert len(item.calls) >= 1
    with pytest.raises(CorpusError):
        emit_benign(2, 8.0, PaddingConfig(filler_rate=0.0), index, np.random.default_rng(1))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory, small_world, encoder):
    out = tmp_path_factory.mktemp("corpus")
    db = small_world.db(encoder)
    sequences = {eid: [tuple(chain)] for eid, chain in small_world.chains.items()}
    manifest = generate_corpus(
        db,
        sequences,
        out,
        seed=7,
        split=0.85,
        benign_ratio=1.0,
        padding=PaddingConfig(
            benign_pool=tuple(small_world.benign_pool), filler_rate=2.0, per_sequence=10
        ),
    )
    return out, manifest, db


def test_generate_corpus_split_sizes(small_corpus):
    out, manifest, db = small_corpus
    # 6 exploits x 10 repeats + the same number of benign traces
    total = manifest["counts"]["train"] + manifest["counts"]["test"]
    assert total == 120
    assert manifest["counts"]["train"] == round(0.85 * total)
    assert len(list((out / "train").glob("trace_*.jsonl"))) == manifest["counts"]["train"]
    assert len(list((out / "test").glob("trace_*.jsonl"))) == manifest["counts"]["test"]


def test_generate_corpus_manifest(small_corpus):
    out, manifest, db = small_corpus
    assert read_manifest(out) == manifest
    assert manifest["seed"] == 7
    assert manifest["split"] == 0.85
    assert manifest["n_labels"] == 79
    assert len(manifest["true_exploits"]) == 120
    planted = [v for v in manifest["true_exploits"].values() if v]
    benign = [v for v in manifest["true_exploits"].values() if not v]
    assert len(planted) == 60 and len(benign) == 60


def test_generate_corpus_deterministic(tmp_path, small_world, encoder, small_corpus):
    """Same inputs and seed give byte-identical trees."""
    _, manifest, db = small_corpus
    sequences = {eid: [tuple(chain)] for eid, chain in small_world.chains.items()}
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        generate_corpus(
            db,
            sequences,
            out,
            seed=7,
            split=0.85,
            benign_ratio=1.0,
            padding=PaddingConfig(
                benign_pool=tuple(small_world.benign_pool), filler_rate=2.0, per_sequence=10
            ),
        )
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (b / rel).read_bytes() == (a / rel).read_bytes(), rel
    assert not filecmp.dircmp(a, b).diff_files


def test_load_split_round_trip(small_corpus, vocabs, encoder):
    out, manifest, db = small_corpus
    for split_name in ("train", "test"):
        items = load_split(out, split_name, vocabs)
        assert len(items) == manifest["counts"][split_name]
        for item in items:
            assert len(item.label_sets) == len(item.trace)
            assert item.true_exploits == frozenset(manifest["true_exploits"][item.name])
    # label rows mirror the label sets
    item = load_split(out, "test", vocabs)[0]
    mat = label_rows(item.label_sets, 79)
    assert mat.shape == (len(item.trace), 79)
    for row, labels in zip(mat, item.label_sets):
        assert set(np.nonzero(row)[0]) == set(labels)


def test_build_xy(small_corpus, vocabs, encoder):
    out, manifest, db = small_corpus
    items = load_split(out, "test", vocabs)[:4]
    x, t = build_xy(items, encoder, 79)
    n = sum(len(it.trace) for it in items)
    assert x.shape == (n, 151)
    assert t.shape == (n, 79)
    np.testing.assert_array_equal(x[0], encoder.encode(items[0].trace.calls[0]))


def _reference_xy(corpus_dir, split_name, encoder):
    """X and T with no memo: one parse, one encoding and one label row per line."""
    xs, label_sets = [], []
    for path in sorted((corpus_dir / split_name).glob("trace_*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                xs.append(encoder.encode(parse_trace_record(line.strip(), encoder.vocabs)))
        for line in path.with_suffix(".labels").read_text().splitlines():
            label_sets.append(frozenset(int(p) for p in line.split(",") if p))
    return np.stack(xs), label_rows(label_sets, 79)


@pytest.mark.parametrize("split_name", ["train", "test"])
def test_build_xy_equals_a_memo_free_reference(small_corpus, encoder, split_name):
    out, manifest, db = small_corpus
    x, t = build_xy(load_split(out, split_name, encoder.vocabs), encoder, 79)
    ref_x, ref_t = _reference_xy(out, split_name, encoder)
    for got, want in ((x, ref_x), (t, ref_t)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_equal_lines_in_different_files_share_one_object(small_corpus, vocabs):
    out, manifest, db = small_corpus
    items = load_split(out, "train", vocabs)
    seen_call, seen_labels, files = {}, {}, {}
    for item in items:
        path = out / f"{item.name}.jsonl"
        lines = [line.strip() for line in path.read_text().splitlines() if line.strip()]
        label_lines = path.with_suffix(".labels").read_text().splitlines()
        for line, call in zip(lines, item.trace.calls, strict=True):
            assert seen_call.setdefault(line, call) is call
            files.setdefault(line, set()).add(item.name)
        for line, labels in zip(label_lines, item.label_sets, strict=True):
            assert seen_labels.setdefault(line, labels) is labels
    assert max(len(names) for names in files.values()) > 1


def _corpus_with_a_bad_later_file(small_corpus, tmp_path, bad_suffix, bad_line):
    """A copy of ``small_corpus`` whose second train trace repeats the first
    trace's lines and then, in its ``bad_suffix`` file, ends on ``bad_line``."""
    out, manifest, db = small_corpus
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    first, second = tmp_path / "train" / "trace_00000", tmp_path / "train" / "trace_00001"
    for suffix in (".jsonl", ".labels"):
        lines = first.with_suffix(suffix).read_text().splitlines()
        lines.append(bad_line if suffix == bad_suffix else lines[-1])
        second.with_suffix(suffix).write_text("\n".join(lines) + "\n")
    return second.with_suffix(bad_suffix), len(lines)


@pytest.mark.parametrize(
    "bad_line",
    [
        "{bad",
        '{"api_name":"a b","category":"phi","scope":"Application","package":"x",'
        '"inputs":[],"outputs":[]}',
        '{"api_name":"a","category":"phi","scope":"Application","package":"Lno/Such",'
        '"inputs":[],"outputs":[]}',
    ],
)
def test_bad_record_after_repeated_lines_fails_as_without_the_memo(
    small_corpus, tmp_path, vocabs, bad_line
):
    path, lineno = _corpus_with_a_bad_later_file(small_corpus, tmp_path, ".jsonl", bad_line)
    with pytest.raises(TraceError) as got:
        load_split(tmp_path, "train", vocabs)
    with open(path) as fh, pytest.raises(TraceError) as want:
        read_trace(fh, vocabs, source_id="train/trace_00001")
    assert str(got.value).startswith(f"train/trace_00001 line {lineno}: ")
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("bad_line", ["79", "x", "1, ,2"])
def test_bad_label_line_after_repeated_lines_fails_as_without_the_memo(
    small_corpus, tmp_path, vocabs, bad_line
):
    path, lineno = _corpus_with_a_bad_later_file(small_corpus, tmp_path, ".labels", bad_line)
    with pytest.raises(CorpusError) as got:
        load_split(tmp_path, "train", vocabs)
    with pytest.raises(CorpusError) as want:
        read_labels(path)
    assert str(got.value) == str(want.value)
    assert f"trace_00001.labels line {lineno}: {bad_line.strip()!r}" in str(got.value)


@pytest.mark.parametrize("rate", (1e30, math.inf))
def test_filler_rate_above_the_bound_refused(rate, small_world):
    with pytest.raises(CorpusError, match=r"filler_rate must lie in \[0, 1000\.0\]"):
        PaddingConfig(benign_pool=tuple(small_world.benign_pool), filler_rate=rate)
    PaddingConfig(benign_pool=tuple(small_world.benign_pool), filler_rate=MAX_FILLER_RATE)


def test_nan_rates_refused(tmp_path, small_world, encoder):
    with pytest.raises(CorpusError, match="filler_rate"):
        PaddingConfig(filler_rate=math.nan)
    sequences = {0: [tuple(small_world.chains[0])]}
    with pytest.raises(CorpusError, match="benign_ratio"):
        generate_corpus(small_world.db(encoder), sequences, tmp_path, benign_ratio=math.nan)


def test_generate_corpus_validation(tmp_path, small_world, encoder):
    db = small_world.db(encoder)
    sequences = {0: [tuple(small_world.chains[0])]}
    with pytest.raises(CorpusError, match="split"):
        generate_corpus(db, sequences, tmp_path, split=1.0)
    with pytest.raises(CorpusError, match="benign_ratio"):
        generate_corpus(db, sequences, tmp_path, benign_ratio=-0.1)
    with pytest.raises(CorpusError, match="no sequences"):
        generate_corpus(db, {0: []}, tmp_path, benign_ratio=0.0)


def test_read_manifest_errors(tmp_path):
    with pytest.raises(CorpusError, match="missing manifest"):
        read_manifest(tmp_path)
    (tmp_path / "corpus.json").write_text('{"version": 99}\n')
    with pytest.raises(CorpusError, match="version"):
        read_manifest(tmp_path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n_labels": None}, "n_labels must be 79, got None"),
        ({"true_exploits": None}, "true_exploits must map trace names to lists of ids"),
        ({"n_labels": 80}, "n_labels must be 79, got 80"),
        ({"n_labels": 79.0}, "n_labels must be 79, got 79.0"),
        ({"true_exploits": []}, "true_exploits must map"),
        ({"true_exploits": {"test/trace_00000": 5}}, "true_exploits must map"),
    ],
)
def test_read_manifest_checks_every_key_read(tmp_path, change, message):
    """A key set to None is left out of the file."""
    manifest = {"version": 1, "n_labels": 79, "true_exploits": {}, **change}
    manifest = {k: v for k, v in manifest.items() if v is not None}
    (tmp_path / "corpus.json").write_text(json.dumps(manifest))
    with pytest.raises(CorpusError, match=message.replace("(", r"\(")):
        read_manifest(tmp_path)


def test_read_manifest_rejects_a_non_object(tmp_path):
    (tmp_path / "corpus.json").write_text("[1]\n")
    with pytest.raises(CorpusError, match="expected a JSON object"):
        read_manifest(tmp_path)


def test_read_labels(tmp_path):
    path = tmp_path / "t.labels"
    path.write_text("\n0\n3,78\n 5 , 6 \n")
    assert read_labels(path) == [frozenset(), {0}, {3, 78}, {5, 6}]


def test_read_labels_splits_only_at_line_ends(tmp_path):
    """A form feed is whitespace to strip, not a line end, and a line
    separator inside a line makes it a bad line, named with its file."""
    path = tmp_path / "t.labels"
    path.write_text("1\n2\x0c\n", encoding="utf-8")
    assert read_labels(path) == [{1}, {2}]
    line = "2\u20283"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        read_labels(path)
    assert f"t.labels line 1: {line!r} is not a list of ids" in str(err.value)


@pytest.mark.parametrize("line", ["-1", "79", "2,79", "x", "1.5", "1, ,2"])
def test_read_labels_rejects_ids_outside_the_label_space(tmp_path, line):
    path = tmp_path / "t.labels"
    path.write_text(f"0\n{line}\n")
    with pytest.raises(CorpusError, match=f"t.labels line 2: .* not a list of ids in \\[0, 79\\)"):
        read_labels(path)


def test_load_split_errors(tmp_path, vocabs):
    (tmp_path / "corpus.json").write_text('{"version": 1, "n_labels": 79, "true_exploits": {}}\n')
    with pytest.raises(CorpusError, match="missing split"):
        load_split(tmp_path, "train", vocabs)
