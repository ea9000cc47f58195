"""Feature-vector layout and embedding behavior.

The golden-vector test assembles the expected 151 components by hand from an
independent parse of the embedding file, so a layout regression in the encoder
cannot hide behind the encoder's own helpers.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chainwatch.encoder import (
    CATEGORY_SLICE,
    EMBED_DIM,
    INPUT_SLICE,
    NAME_SLICE,
    OUTPUT_SLICE,
    PACKAGE_SLICE,
    SCOPE_SLICE,
    VECTOR_DIM,
    EmbeddingError,
    EmbeddingTable,
    FeatureEncoder,
    default_embedding_path,
    hash_embed,
    tokenize_api_name,
)
from chainwatch.fingerprints import load_fingerprints
from chainwatch.trace import InstructionCall, read_trace
from chainwatch.vocab import CATEGORIES, SCOPES

from .conftest import DATA_DIR, FIXTURES
from .oracles import reference_encode


def test_layout_constants():
    assert VECTOR_DIM == 151
    assert (NAME_SLICE.start, NAME_SLICE.stop) == (0, 70)
    assert (CATEGORY_SLICE.start, CATEGORY_SLICE.stop) == (70, 79)
    assert (SCOPE_SLICE.start, SCOPE_SLICE.stop) == (79, 81)
    assert (PACKAGE_SLICE.start, PACKAGE_SLICE.stop) == (81, 103)
    assert (INPUT_SLICE.start, INPUT_SLICE.stop) == (103, 127)
    assert (OUTPUT_SLICE.start, OUTPUT_SLICE.stop) == (127, 151)


@pytest.mark.parametrize(
    "name,tokens",
    [
        ("readLine", ["read", "line"]),
        ("executeQuery", ["execute", "query"]),
        ("toString", ["to", "string"]),
        ("println", ["println"]),
        ("getHTTPResponse", ["get", "http", "response"]),
        ("parse_XML_doc", ["parse", "xml", "doc"]),
        ("a1b2c3", ["a", "b", "c"]),
        ("ABC", ["abc"]),
        ("readVeryLongCamelCaseApiNameIndeedTruly", ["read", "very", "long", "camel", "case", "api", "name"]),
        ("", []),
        ("123", []),
    ],
)
def test_tokenize(name, tokens):
    assert tokenize_api_name(name) == tokens


def test_hash_embed_matches_documented_construction():
    """Independent re-derivation: sha256 -> 8-byte LE seed -> PCG64 -> unit normals."""
    for token in ("frobnicate", "zzgremlin", "read"):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.Generator(np.random.PCG64(seed))
        expect = rng.standard_normal(EMBED_DIM)
        expect /= np.linalg.norm(expect)
        np.testing.assert_array_equal(hash_embed(token), expect)


def test_hash_embed_frozen_values():
    # pinned against an out-of-repo computation of the same construction
    v = hash_embed("frobnicate")
    assert v[0] == pytest.approx(-0.2149250709853677, abs=1e-15)
    assert v[1] == pytest.approx(-0.36434922947815146, abs=1e-15)
    assert v[2] == pytest.approx(-0.28739209368074464, abs=1e-15)
    w = hash_embed("zzgremlin")
    assert w[0] == pytest.approx(-0.14782065669186603, abs=1e-15)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_hash_embed_deterministic_and_distinct():
    assert hash_embed("alpha") is hash_embed("alpha")  # cached
    assert not np.array_equal(hash_embed("alpha"), hash_embed("beta"))
    with pytest.raises(ValueError):
        hash_embed("alpha")[0] = 9.0  # read-only


def test_embedding_rows_must_have_ten_components():
    with pytest.raises(EmbeddingError, match=r"^token 'tok': expected 10 components$"):
        EmbeddingTable({"tok": np.zeros(EMBED_DIM - 1)})


def test_io_counts_multiplicity(encoder, vocabs):
    """Repeated I/O types add up: three of one type and one of another."""
    a, b = vocabs.io_types[:2]
    call = InstructionCall("f", "phi", "Application", vocabs.packages[0],
                           inputs=(a, b, a, a), outputs=(b, b))
    x = encoder.encode(call)
    np.testing.assert_array_equal(x[INPUT_SLICE][:3], [3.0, 1.0, 0.0])
    np.testing.assert_array_equal(x[OUTPUT_SLICE][:3], [0.0, 2.0, 0.0])


def test_freq_vector_log_example(vocabs):
    """One String in, Level + Throwable + String out: counts 1,1,1 at indices 0..2."""
    call = InstructionCall(
        "log", "invokevirtual", "Application", vocabs.packages[0],
        inputs=("String",), outputs=("Level", "Throwable", "String"),
    )
    enc = FeatureEncoder.from_paths()
    x = enc.encode(call)
    np.testing.assert_array_equal(x[INPUT_SLICE][:4], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(x[OUTPUT_SLICE][:4], [1.0, 1.0, 1.0, 0.0])


def _parse_embedding_file_independently():
    table = {}
    for line in default_embedding_path().read_text().splitlines():
        parts = line.split()
        if parts:
            table[parts[0]] = np.array([float(p) for p in parts[1:]])
    return table


def test_golden_readline_vector(encoder, vocabs):
    """Full hand-assembled expectation for the SQL-injection source call."""
    call = InstructionCall(
        api_name="readLine",
        category="invokevirtual",
        scope="Application",
        package="Ljava/io/BufferedReader",
        inputs=(),
        outputs=("String",),
    )
    raw = _parse_embedding_file_independently()
    expect = np.zeros(151)
    expect[0:10] = raw["read"]
    expect[10:20] = raw["line"]
    expect[70 + 7] = 1.0  # invokevirtual
    expect[79 + 0] = 1.0  # Application
    expect[81 + vocabs.package_index["Ljava/io/BufferedReader"]] = 1.0
    expect[127 + vocabs.io_type_index["String"]] = 1.0
    np.testing.assert_array_equal(encoder.encode(call), expect)


def test_name_block_zero_padding(encoder, vocabs):
    call = InstructionCall("read", "phi", "Primordial", vocabs.packages[5])
    x = encoder.encode(call)
    assert np.any(x[0:10] != 0.0)
    np.testing.assert_array_equal(x[10:70], np.zeros(60))


def test_eighth_token_dropped(encoder, vocabs):
    """Only the first seven tokens contribute; extras change nothing."""
    a = InstructionCall("aOneBTwoCThreeD", "phi", "Application", vocabs.packages[0])
    b = InstructionCall("aOneBTwoCThreeDExtraExtra", "phi", "Application", vocabs.packages[0])
    assert len(tokenize_api_name(b.api_name)) == 7
    np.testing.assert_array_equal(encoder.encode(a)[NAME_SLICE][:70],
                                  encoder.encode(b)[NAME_SLICE][:70])


def _assert_matches_reference(encoder, call):
    got = encoder.encode(call)
    expect = reference_encode(call, encoder.table, encoder.vocabs)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), call


def test_encode_matches_reference_on_cwe79_templates(encoder):
    db = load_fingerprints(FIXTURES / "cwe79.fp", encoder)
    calls = [call for eid in db.exploit_ids for call in db[eid].templates]
    assert len(calls) == 327
    for call in calls:
        _assert_matches_reference(encoder, call)


def test_encode_matches_reference_on_cwe79_benign(encoder):
    with open(FIXTURES / "cwe79_benign.jsonl") as fh:
        calls = read_trace(fh, encoder.vocabs).calls
    assert calls
    for call in calls:
        _assert_matches_reference(encoder, call)


_ENCODER = FeatureEncoder.from_paths()
_VOCABS = _ENCODER.vocabs
_WORDS = ("read", "line", "get", "http", "zzgremlin", "frobnicate", "to", "string", "x")


@st.composite
def _calls(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=0, max_size=11))
    name = "".join(w.capitalize() if i else w for i, w in enumerate(words))
    io = st.lists(st.sampled_from(_VOCABS.io_types[:4] + _VOCABS.io_types[-2:]), max_size=9)
    return InstructionCall(
        name,
        draw(st.sampled_from(CATEGORIES)),
        draw(st.sampled_from(SCOPES)),
        draw(st.sampled_from(_VOCABS.packages)),
        inputs=tuple(draw(io)),
        outputs=tuple(draw(io)),
    )


@given(_calls())
@example(InstructionCall(
    "readLineGetHttpToStringZzgremlinFrobnicateReadX", "phi", "Primordial", _VOCABS.packages[3],
    inputs=(_VOCABS.io_types[0],) * 3, outputs=(_VOCABS.io_types[1], _VOCABS.io_types[1]),
))
def test_encode_matches_reference_on_generated_calls(call):
    """Names beyond seven tokens, out-of-table tokens and repeated I/O types."""
    _assert_matches_reference(_ENCODER, call)


def test_encode_deterministic(encoder, vocabs):
    call = InstructionCall("executeQuery", "invokeinterface", "Application",
                           "Ljava/sql/Statement", inputs=("String",),
                           outputs=("Ljava/sql/ResultSet",))
    np.testing.assert_array_equal(encoder.encode(call), encoder.encode(call))


def test_synonym_fixture_similarities(encoder):
    """The shipped demo embeddings keep synonyms close and unrelated words apart."""
    meta = json.loads((DATA_DIR / "embeddings" / "synonym_fixtures.json").read_text())

    def cos(a, b):
        va, vb = encoder.table.lookup(a), encoder.table.lookup(b)
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    for a, b in meta["synonyms"]:
        assert cos(a, b) > 0.5, (a, b)
    for a, b in meta["unrelated"]:
        assert cos(a, b) < 0.3, (a, b)
    # and every synonym pair beats every unrelated pair
    worst_syn = min(cos(a, b) for a, b in meta["synonyms"])
    best_unrel = max(cos(a, b) for a, b in meta["unrelated"])
    assert worst_syn > best_unrel


class TestEmbeddingTable:
    def test_from_file_and_lookup(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("tok " + " ".join(["0.1"] * 10) + "\n")
        table = EmbeddingTable.from_file(p)
        assert "tok" in table and len(table) == 1
        np.testing.assert_array_equal(table.lookup("tok"), np.full(10, 0.1))

    def test_oov_falls_back_to_hash(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("tok " + " ".join(["0.1"] * 10) + "\n")
        table = EmbeddingTable.from_file(p)
        np.testing.assert_array_equal(table.lookup("nope"), hash_embed("nope"))

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("tok 0.1 0.2\n")
        with pytest.raises(EmbeddingError, match="line 1"):
            EmbeddingTable.from_file(p)

    def test_duplicate_token(self, tmp_path):
        row = " ".join(["0.0"] * 10)
        p = tmp_path / "emb.txt"
        p.write_text(f"tok {row}\ntok {row}\n")
        with pytest.raises(EmbeddingError, match="duplicate"):
            EmbeddingTable.from_file(p)

    def test_bad_float(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("tok " + " ".join(["x"] * 10) + "\n")
        with pytest.raises(EmbeddingError, match="bad float"):
            EmbeddingTable.from_file(p)


@given(st.text(alphabet="abcdefghij", min_size=1, max_size=12))
def test_hash_embed_always_unit_norm(token):
    assert np.linalg.norm(hash_embed(token)) == pytest.approx(1.0, abs=1e-12)
