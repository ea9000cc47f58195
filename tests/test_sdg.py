"""Graph loading, validation and query matching.

Matching is checked two ways: exact expected sequences on the hand-built SQL
injection fixture, and equivalence with an exhaustive networkx simple-path
oracle on randomized graphs (including cycles and decoy edges).
"""

import json

import numpy as np
import pytest

from chainwatch.fingerprints import FingerprintDb
from chainwatch.sdg import (
    SdgError,
    SdgNode,
    VulnQuery,
    load_sdg,
    lower_fingerprint,
    match_query,
    match_query_detailed,
    template_matches,
)
from chainwatch.trace import InstructionCall

from .conftest import FIXTURES
from .oracles import brute_force_flows
from .synthgen import _call, _mk_sdg, _random_graph


def _node_line(nid, kind, call=None):
    obj = {"node": nid, "kind": kind}
    if call is not None:
        obj["call"] = {
            "api_name": call.api_name,
            "category": call.category,
            "scope": call.scope,
            "package": call.package,
            "inputs": list(call.inputs),
            "outputs": list(call.outputs),
        }
    return json.dumps(obj)


def _edge_line(src, dst, label):
    return json.dumps({"edge": [src, dst], "label": label})


class TestLoading:
    def test_sql_fixture_loads(self, vocabs):
        sdg = load_sdg(FIXTURES / "sqlinj.sdg", vocabs)
        assert len(sdg.nodes) == 6
        assert len(sdg.edges) == 6
        assert sdg.nodes[1].kind == "statement"
        assert sdg.nodes[1].call.api_name == "readLine"
        assert sdg.nodes[3].call is None

    def test_duplicate_node(self, tmp_path, vocabs):
        p = tmp_path / "g.sdg"
        p.write_text(_node_line(1, "entry") + "\n" + _node_line(1, "entry") + "\n")
        with pytest.raises(SdgError, match="duplicate node"):
            load_sdg(p, vocabs)

    def test_unknown_kind(self, tmp_path, vocabs):
        p = tmp_path / "g.sdg"
        p.write_text(_node_line(1, "wormhole") + "\n")
        with pytest.raises(SdgError, match="unknown node kind"):
            load_sdg(p, vocabs)

    def test_dangling_edge(self, tmp_path, vocabs):
        p = tmp_path / "g.sdg"
        p.write_text(_node_line(1, "entry") + "\n" + _edge_line(1, 9, "data") + "\n")
        with pytest.raises(SdgError, match=r"edge \(1, 9\) references an unknown node"):
            load_sdg(p, vocabs)

    def test_unknown_label(self, tmp_path, vocabs):
        p = tmp_path / "g.sdg"
        p.write_text(
            _node_line(1, "entry") + "\n" + _node_line(2, "entry") + "\n"
            + _edge_line(1, 2, "teleport") + "\n"
        )
        with pytest.raises(SdgError, match="unknown edge label"):
            load_sdg(p, vocabs)

    @pytest.mark.parametrize(
        "label,src_kind,dst_kind",
        [
            ("call", "entry", "entry"),          # must be statement -> entry
            ("param_in", "statement", "formal_in"),   # must start at actual_in
            ("param_out", "formal_out", "statement"), # must end at actual_out
        ],
    )
    def test_endpoint_rules(self, tmp_path, vocabs, label, src_kind, dst_kind):
        p = tmp_path / "g.sdg"
        p.write_text(
            _node_line(1, src_kind) + "\n" + _node_line(2, dst_kind) + "\n"
            + _edge_line(1, 2, label) + "\n"
        )
        with pytest.raises(SdgError, match="must run"):
            load_sdg(p, vocabs)

    def test_legal_endpoint_combinations(self, tmp_path, vocabs):
        p = tmp_path / "g.sdg"
        p.write_text(
            "\n".join(
                [
                    _node_line(1, "statement"),
                    _node_line(2, "entry"),
                    _node_line(3, "actual_in"),
                    _node_line(4, "formal_in"),
                    _node_line(5, "formal_out"),
                    _node_line(6, "actual_out"),
                    _edge_line(1, 2, "call"),
                    _edge_line(3, 4, "param_in"),
                    _edge_line(5, 6, "param_out"),
                    _edge_line(2, 3, "control"),  # control/data are unconstrained
                    _edge_line(6, 1, "data"),
                ]
            )
            + "\n"
        )
        sdg = load_sdg(p, vocabs)
        assert len(sdg.edges) == 5

    def test_bad_call_payload(self, tmp_path, vocabs):
        obj = {"node": 1, "kind": "statement", "call": {"api_name": "x"}}
        p = tmp_path / "g.sdg"
        p.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SdgError, match="bad call payload"):
            load_sdg(p, vocabs)

    def test_neither_node_nor_edge(self, tmp_path, vocabs):
        p = tmp_path / "g.sdg"
        p.write_text('{"vertex": 1}\n')
        with pytest.raises(SdgError, match="neither"):
            load_sdg(p, vocabs)

    def test_unexpected_keys(self, tmp_path, vocabs):
        p = tmp_path / "g.sdg"
        p.write_text('{"node": 1, "kind": "entry", "color": "red"}\n')
        with pytest.raises(SdgError, match="unexpected node key"):
            load_sdg(p, vocabs)


def test_template_matches_ignores_io_and_scope():
    a = InstructionCall("f", "phi", "Application", "p", inputs=("String",))
    b = InstructionCall("f", "phi", "Primordial", "p", outputs=("int",))
    assert template_matches(a, b)
    assert not template_matches(a, InstructionCall("g", "phi", "Application", "p"))
    assert not template_matches(None, b)


def test_lower_fingerprint(sql_db):
    q = lower_fingerprint(sql_db[0])
    assert q.exploit_id == 0
    assert [t.api_name for t in q.sources] == ["readLine"]
    assert [t.api_name for t in q.sinks] == ["executeQuery"]


def test_lower_fingerprint_requires_roles(sql_db):
    fp = sql_db[0]
    unroled = type(fp)(
        exploit_id=fp.exploit_id,
        cwe_id=fp.cwe_id,
        label=fp.label,
        templates=fp.templates,
        roles=(None,) * len(fp.templates),
        template_vectors=fp.template_vectors,
    )
    unroled_db = FingerprintDb(fingerprints={fp.exploit_id: unroled})
    assert list(unroled_db.template_norms) == list(sql_db.template_norms)
    with pytest.raises(SdgError, match="need at least one source and one sink role"):
        lower_fingerprint(unroled)


def test_sql_fixture_match(vocabs, sql_db):
    """The canonical example: console read flows through append into the query."""
    sdg = load_sdg(FIXTURES / "sqlinj.sdg", vocabs)
    query = lower_fingerprint(sql_db[0])
    detailed = match_query_detailed(sdg, query)
    assert len(detailed) == 1
    src, snk, seq = detailed[0]
    assert (src, snk) == (1, 5)
    assert [c.api_name for c in seq] == ["readLine", "append", "executeQuery"]
    assert match_query(sdg, query) == [seq]


def test_control_edges_do_not_carry_flow(vocabs, sql_db):
    """Cutting the param_in hop leaves only the control route, which must not match."""
    text = (FIXTURES / "sqlinj.sdg").read_text()
    pruned = "\n".join(
        line for line in text.splitlines() if '"param_in"' not in line
    )
    p = FIXTURES / "sqlinj.sdg"  # reuse grammar, write pruned copy elsewhere
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        q = pathlib.Path(d) / "pruned.sdg"
        q.write_text(pruned + "\n")
        sdg = load_sdg(q, vocabs)
    assert match_query(sdg, lower_fingerprint(sql_db[0])) == []


def test_min_statement_path_preferred():
    """Two routes source -> sink; the one through fewer statements wins."""
    src = _call("src")
    mid1 = _call("midOne")
    mid2 = _call("midTwo")
    snk = _call("snk")
    nodes = [
        SdgNode(1, "statement", src),
        SdgNode(2, "statement", mid1),
        SdgNode(3, "statement", mid2),
        SdgNode(4, "statement", snk),
        SdgNode(5, "actual_in"),  # zero-cost shortcut hop
    ]
    edges = [
        (1, 2, "data"), (2, 3, "data"), (3, 4, "data"),  # long: 2 mid statements
        (1, 5, "data"), (5, 4, "data"),                  # short: none
    ]
    sdg = _mk_sdg(nodes, edges)
    query = VulnQuery(0, sources=(src,), sinks=(snk,))
    [(s, k, seq)] = match_query_detailed(sdg, query)
    assert (s, k) == (1, 4)
    assert [c.api_name for c in seq] == ["src", "snk"]


def test_cycle_terminates():
    src = _call("src")
    snk = _call("snk")
    nodes = [
        SdgNode(1, "statement", src),
        SdgNode(2, "statement", _call("loopy")),
        SdgNode(3, "statement", snk),
    ]
    edges = [(1, 2, "data"), (2, 2, "data"), (2, 1, "data"), (2, 3, "data")]
    sdg = _mk_sdg(nodes, edges)
    [(_, _, seq)] = match_query_detailed(sdg, VulnQuery(0, sources=(src,), sinks=(snk,)))
    assert [c.api_name for c in seq] == ["src", "loopy", "snk"]


def test_no_match_when_unreachable():
    src = _call("src")
    snk = _call("snk")
    nodes = [SdgNode(1, "statement", src), SdgNode(2, "statement", snk)]
    sdg = _mk_sdg(nodes, [(2, 1, "data")])  # reversed edge only
    assert match_query(sdg, VulnQuery(0, sources=(src,), sinks=(snk,))) == []


def test_no_match_without_a_source_or_a_sink_node():
    src, snk = _call("src"), _call("snk")
    query = VulnQuery(0, sources=(src,), sinks=(snk,))
    for present in (src, snk):
        sdg = _mk_sdg([SdgNode(1, "statement", present)], [(1, 1, "data")])
        assert match_query_detailed(sdg, query) == []


def test_matches_brute_force_oracle():
    """Randomized graphs: production minimal paths agree with exhaustive search."""
    pool = [_call(f"api{chr(97 + i)}") for i in range(6)]
    rng = np.random.default_rng(2024)
    nonempty = 0
    for _ in range(60):
        sdg = _random_graph(rng, pool)
        present = [n.call for n in sdg.nodes.values() if n.call is not None]
        if not present:
            continue
        query = VulnQuery(
            0,
            sources=(present[int(rng.integers(len(present)))],),
            sinks=(present[int(rng.integers(len(present)))],),
        )
        got = match_query_detailed(sdg, query)
        expect = brute_force_flows(sdg, query)
        assert {(s, k) for s, k, _ in got} == set(expect)
        for s, k, seq in got:
            assert seq in expect[(s, k)], (s, k)
        nonempty += bool(got)
    assert nonempty >= 10  # exercise must not be vacuous


def test_flow_successors_skip_control_edges(vocabs):
    sdg = load_sdg(FIXTURES / "sqlinj.sdg", vocabs)
    adj = sdg.flow_successors
    assert adj[2] == [3, 6]  # data + call, control excluded
    assert adj[6] == []  # its one edge, to 5, is control
    assert (6, 5, "control") in sdg.edges
    assert set(adj) == set(sdg.nodes)
    assert sdg.flow_successors is adj  # built once per graph
