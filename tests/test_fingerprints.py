import dataclasses
import math

import numpy as np
import pytest

from chainwatch.encoder import FeatureEncoder
from chainwatch.fingerprints import (
    FingerprintDb,
    FingerprintError,
    WhiteList,
    load_fingerprints,
)

from .conftest import FIXTURES

HEADER = '{"exploit_id":%d,"cwe_id":"CWE-89","label":"demo"}'
TEMPLATE = (
    '{"api_name":"readLine","category":"invokevirtual","scope":"Application",'
    '"package":"Ljava/io/BufferedReader","inputs":[],"outputs":["String"]}'
)


def validate_encoding(db: FingerprintDb, encoder: FeatureEncoder) -> None:
    """Re-encode every template and compare against the stored vectors."""
    for fp in db.fingerprints.values():
        fresh = np.stack([encoder.encode(c) for c in fp.templates])
        if not np.array_equal(fresh, fp.template_vectors):
            raise FingerprintError(
                f"exploit {fp.exploit_id}: stored template vectors disagree with encoder"
            )


def test_load_sql_fixture(sql_db, encoder):
    assert len(sql_db) == 1
    assert sql_db.exploit_ids == (0,)
    fp = sql_db[0]
    assert fp.cwe_id == "CWE-89"
    assert len(fp) == 3
    assert [t.api_name for t in fp.templates] == ["readLine", "append", "executeQuery"]
    assert fp.roles == ("source", None, "sink")
    assert fp.template_vectors.shape == (3, 151)
    # pre-encoded vectors are exactly what the encoder produces today
    validate_encoding(sql_db, encoder)


def test_cwe_index(sql_db):
    assert sql_db.cwe_index() == {"CWE-89": (0,)}


def test_duplicate_exploit_id(tmp_path, encoder):
    p = tmp_path / "f.fp"
    p.write_text(f"{HEADER % 1}\n{TEMPLATE}\n{HEADER % 1}\n{TEMPLATE}\n")
    with pytest.raises(FingerprintError, match="line 3: duplicate exploit id 1"):
        load_fingerprints(p, encoder)


def test_empty_fingerprint_rejected(tmp_path, encoder):
    p = tmp_path / "f.fp"
    p.write_text(f"{HEADER % 1}\n{HEADER % 2}\n{TEMPLATE}\n")
    with pytest.raises(FingerprintError, match="exploit 1 has no templates"):
        load_fingerprints(p, encoder)
    p.write_text(f"{HEADER % 1}\n")  # trailing empty block
    with pytest.raises(FingerprintError, match="exploit 1 has no templates"):
        load_fingerprints(p, encoder)


def test_template_before_header(tmp_path, encoder):
    p = tmp_path / "f.fp"
    p.write_text(f"{TEMPLATE}\n")
    with pytest.raises(FingerprintError, match="before any fingerprint header"):
        load_fingerprints(p, encoder)


def test_bad_header_keys(tmp_path, encoder):
    p = tmp_path / "f.fp"
    p.write_text('{"exploit_id":1,"cwe_id":"CWE-89"}\n')
    with pytest.raises(FingerprintError, match="header"):
        load_fingerprints(p, encoder)
    p.write_text('{"exploit_id":true,"cwe_id":"CWE-89","label":"x"}\n')
    with pytest.raises(FingerprintError, match="integer"):
        load_fingerprints(p, encoder)


def test_bad_role(tmp_path, encoder):
    bad = TEMPLATE[:-1] + ',"role":"middle"}'
    p = tmp_path / "f.fp"
    p.write_text(f"{HEADER % 1}\n{bad}\n")
    with pytest.raises(FingerprintError, match="role"):
        load_fingerprints(p, encoder)


def test_bad_template_record(tmp_path, encoder):
    bad = TEMPLATE.replace('"invokevirtual"', '"teleport"')
    p = tmp_path / "f.fp"
    p.write_text(f"{HEADER % 1}\n{bad}\n")
    with pytest.raises(FingerprintError, match="bad template"):
        load_fingerprints(p, encoder)


def test_capacity_enforced(tmp_path, encoder):
    """Ids must lie in the classifier's label space [0, 79)."""
    p = tmp_path / "f.fp"
    p.write_text(f"{HEADER % 79}\n{TEMPLATE}\n")
    with pytest.raises(FingerprintError, match=r"label space \[0, 79\)"):
        load_fingerprints(p, encoder)
    p.write_text(f"{HEADER % 78}\n{TEMPLATE}\n")
    assert 78 in load_fingerprints(p, encoder)


def test_blank_lines_ignored(tmp_path, encoder):
    p = tmp_path / "f.fp"
    p.write_text(f"\n{HEADER % 2}\n\n{TEMPLATE}\n\n")
    db = load_fingerprints(p, encoder)
    assert db.exploit_ids == (2,)


def test_validate_encoding_detects_drift(sql_db, encoder):
    fp = sql_db[0]
    tampered = fp.template_vectors.copy()
    tampered[0, 0] += 1.0
    bad_fp = type(fp)(
        exploit_id=fp.exploit_id,
        cwe_id=fp.cwe_id,
        label=fp.label,
        templates=fp.templates,
        roles=fp.roles,
        template_vectors=tampered,
    )
    bad_db = FingerprintDb(fingerprints={0: bad_fp})
    assert bad_db.template_norms[0] == float(np.sqrt(tampered[0] @ tampered[0]))
    assert bad_db.template_norms[0] != sql_db.template_norms[0]
    assert list(bad_db.template_norms[1:]) == list(sql_db.template_norms[1:])
    with pytest.raises(FingerprintError, match="disagree"):
        validate_encoding(bad_db, encoder)


def test_template_norms_computed_at_load(encoder):
    """Each norm is bit-equal to the per-row expression a comparison would use,
    whether taken over the fingerprint's row or the matrix row."""
    db = load_fingerprints(FIXTURES / "cwe79.fp", encoder)
    assert db.template_norms.shape == (327,)
    for place, eid in enumerate(db.exploit_ids):
        fp = db[eid]
        for i, v in enumerate(fp.template_vectors):
            row = db.start_rows[place] + i
            assert float(db.template_norms[row]).hex() == float(np.sqrt(v @ v)).hex()
            m = db.template_matrix[row]
            assert float(np.sqrt(m @ m)).hex() == float(np.sqrt(v @ v)).hex()
            assert np.array_equal(m, v)


def test_template_vectors_read_only(sql_db):
    fp = sql_db[0]
    with pytest.raises(ValueError, match="read-only"):
        fp.template_vectors[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        fp.template_vectors[0][0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        fp.template_vectors *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        sql_db.template_matrix[0][0] += 1.0


def test_db_cannot_go_stale(encoder, sql_db):
    """The mapping is a read-only copy and the db is frozen, so what is derived
    from it at construction stays true."""
    given = dict(sql_db.fingerprints)
    db = FingerprintDb(fingerprints=given)
    given[5] = sql_db[0]
    assert 5 not in db and db.exploit_ids == (0,)
    with pytest.raises(TypeError):
        db.fingerprints[5] = sql_db[0]
    with pytest.raises(TypeError):
        del db.fingerprints[0]
    with pytest.raises(TypeError):
        db.positions[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.fingerprints = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.exploit_ids = (0, 1)
    for arr in (db.template_matrix, db.template_norms, db.start_rows, db.last_rows):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert db.exploit_ids is db.exploit_ids  # computed once
    assert db.exploit_set is db.exploit_set


def test_db_stacks_templates_in_id_order(encoder):
    db = load_fingerprints(FIXTURES / "cwe79.fp", encoder)
    assert db.exploit_ids == tuple(sorted(db.fingerprints))
    assert db.template_matrix.shape == (327, 151)
    assert db.template_matrix.flags.c_contiguous
    for place, eid in enumerate(db.exploit_ids):
        fp = db[eid]
        assert db.positions[eid] == place
        start = db.start_rows[place]
        stop = start + len(fp)
        assert db.last_rows[place] == stop - 1
        assert place == 0 or start == db.last_rows[place - 1] + 1
        np.testing.assert_array_equal(db.template_matrix[start:stop], fp.template_vectors)
        assert [float(n).hex() for n in db.template_norms[start:stop]] == [
            float(np.sqrt(v @ v)).hex() for v in fp.template_vectors
        ]
    assert db.last_rows[-1] == len(db.template_matrix) - 1
    assert db.exploit_set == frozenset(db.exploit_ids) and len(db.exploit_set) == 79
    norms = [float(np.sqrt(v @ v)) for eid in db.exploit_ids for v in db[eid].template_vectors]
    assert db.template_norm_span == (min(norms), max(norms))


def test_db_norm_span_edges(sql_db):
    fp = sql_db[0]

    def with_rows(vectors):
        return FingerprintDb(fingerprints={0: dataclasses.replace(fp, template_vectors=vectors)})

    zero = np.zeros_like(fp.template_vectors)
    assert with_rows(zero).template_norm_span == (math.inf, 0.0)
    some_zero = fp.template_vectors.copy()
    some_zero[1] = 0.0
    kept = [sql_db.template_norms[0], sql_db.template_norms[2]]
    assert with_rows(some_zero).template_norm_span == (min(kept), max(kept))
    nan = fp.template_vectors.copy()
    nan[1, 0] = np.nan
    assert all(math.isnan(v) for v in with_rows(nan).template_norm_span)
    empty = FingerprintDb(fingerprints={})
    assert empty.template_matrix.shape == (0, 151) and empty.start_rows.size == 0
    assert empty.last_rows.size == 0 and empty.exploit_set == frozenset()


class TestWhiteList:
    def test_from_file(self, whitelist):
        assert "toString" in whitelist
        assert "println" in whitelist
        assert "executeQuery" not in whitelist
        assert len(whitelist) == 8

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "wl.txt"
        p.write_text("# comment\n\nfoo\n  bar  \n")
        wl = WhiteList.from_file(p)
        assert "foo" in wl and "bar" in wl
        assert "# comment" not in wl
        assert len(wl) == 2

    def test_empty(self):
        wl = WhiteList()
        assert "anything" not in wl
        assert len(wl) == 0


def test_fixture_whitelist_file_has_comment_header():
    text = (FIXTURES / "whitelist.txt").read_text()
    assert any(line.startswith("#") for line in text.splitlines())


def test_fingerprints_compare_and_hash_by_identity(encoder):
    """Two loads of one file give fingerprints that compare unequal without raising."""
    a = load_fingerprints(FIXTURES / "sqlinj.fp", encoder)[0]
    b = load_fingerprints(FIXTURES / "sqlinj.fp", encoder)[0]
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
