"""Dependence graphs and source-to-sink query matching.

Graph file grammar (newline-delimited JSON, blank lines ignored):

* ``{"node": <id>, "kind": "<kind>"}`` with optional ``"call": {...}`` holding
  an instruction record (trace grammar); statement nodes normally carry one.
* ``{"edge": [<src>, <dst>], "label": "<label>"}``.

Node kinds: statement, entry, actual_in, formal_in, formal_out, actual_out.
Edge labels: control, data, call, param_in, param_out.  Call edges must run
statement -> entry, param_in edges actual_in -> formal_in, and param_out edges
formal_out -> actual_out; violations are load-time errors, as are edges with
unknown endpoints.

A query asks for dataflow from a call matching a *source* template to a call
matching a *sink* template, where a template matches on api_name + category +
package.  Matching walks edges labelled data/param_in/param_out/call and
returns, per (source node, sink node) pair, the instruction sequence of the
statement nodes along one path that passes through as few statement nodes as
possible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .fingerprints import Fingerprint
from .trace import InstructionCall, TraceError, call_from_record
from .vocab import Vocabularies, json_objects

NODE_KINDS = ("statement", "entry", "actual_in", "formal_in", "formal_out", "actual_out")
EDGE_LABELS = ("control", "data", "call", "param_in", "param_out")
FLOW_LABELS = frozenset({"data", "call", "param_in", "param_out"})

# label -> required (source kind, destination kind); None = unconstrained
_ENDPOINT_RULES = {
    "call": ("statement", "entry"),
    "param_in": ("actual_in", "formal_in"),
    "param_out": ("formal_out", "actual_out"),
}


class SdgError(ValueError):
    """Graph file is malformed or violates a structural rule, or a fingerprint
    lacks the source and sink roles a query needs."""


@dataclass(frozen=True)
class SdgNode:
    node_id: int
    kind: str
    call: InstructionCall | None = None


@dataclass
class Sdg:
    nodes: dict[int, SdgNode]
    edges: list[tuple[int, int, str]]

    @cached_property
    def flow_successors(self) -> dict[int, list[int]]:
        """Each node's distinct successors along ``FLOW_LABELS`` edges, sorted;
        built on first use and kept, so every query of the graph shares it."""
        adj: dict[int, set[int]] = {nid: set() for nid in self.nodes}
        for src, dst, label in self.edges:
            if label in FLOW_LABELS:
                adj[src].add(dst)
        return {nid: sorted(dsts) for nid, dsts in adj.items()}


def load_sdg(path: str | Path, vocabs: Vocabularies) -> Sdg:
    path = Path(path)
    nodes: dict[int, SdgNode] = {}
    raw_edges: list[tuple[int, int, str, str]] = []

    for where, obj in json_objects(path, SdgError):
        if "node" in obj:
            node_id = obj["node"]
            if not isinstance(node_id, int) or isinstance(node_id, bool):
                raise SdgError(f"{where}: node id must be an integer")
            if node_id in nodes:
                raise SdgError(f"{where}: duplicate node id {node_id}")
            kind = obj.get("kind")
            if kind not in NODE_KINDS:
                raise SdgError(f"{where}: unknown node kind {kind!r}")
            call = None
            if "call" in obj and obj["call"] is not None:
                if not isinstance(obj["call"], dict):
                    raise SdgError(f"{where}: node call payload must be an object")
                try:
                    call = call_from_record(obj["call"], vocabs)
                except TraceError as exc:
                    raise SdgError(f"{where}: bad call payload: {exc}") from exc
            unknown = set(obj) - {"node", "kind", "call"}
            if unknown:
                raise SdgError(f"{where}: unexpected node key(s): {sorted(unknown)}")
            nodes[node_id] = SdgNode(node_id=node_id, kind=kind, call=call)
        elif "edge" in obj:
            pair = obj["edge"]
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(not isinstance(p, int) or isinstance(p, bool) for p in pair)
            ):
                raise SdgError(f"{where}: edge must be a [src, dst] integer pair")
            label = obj.get("label")
            if label not in EDGE_LABELS:
                raise SdgError(f"{where}: unknown edge label {label!r}")
            unknown = set(obj) - {"edge", "label"}
            if unknown:
                raise SdgError(f"{where}: unexpected edge key(s): {sorted(unknown)}")
            raw_edges.append((pair[0], pair[1], label, where))
        else:
            raise SdgError(f"{where}: line is neither a node nor an edge")

    edges = []
    for src, dst, label, where in raw_edges:
        if src not in nodes or dst not in nodes:
            raise SdgError(f"{where}: edge ({src}, {dst}) references an unknown node")
        rule = _ENDPOINT_RULES.get(label)
        if rule is not None:
            want_src, want_dst = rule
            got = (nodes[src].kind, nodes[dst].kind)
            if got != (want_src, want_dst):
                raise SdgError(
                    f"{where}: {label} edge must run {want_src} -> {want_dst}, got {got[0]} -> {got[1]}"
                )
        edges.append((src, dst, label))

    return Sdg(nodes=nodes, edges=edges)


@dataclass(frozen=True)
class VulnQuery:
    """Source and sink call templates lowered from one fingerprint."""

    exploit_id: int
    sources: tuple[InstructionCall, ...]
    sinks: tuple[InstructionCall, ...]


def lower_fingerprint(fp: Fingerprint) -> VulnQuery:
    sources = tuple(t for t, r in zip(fp.templates, fp.roles) if r == "source")
    sinks = tuple(t for t, r in zip(fp.templates, fp.roles) if r == "sink")
    if not sources or not sinks:
        raise SdgError(
            f"exploit {fp.exploit_id}: need at least one source and one sink role"
        )
    return VulnQuery(exploit_id=fp.exploit_id, sources=sources, sinks=sinks)


def match_key(call: InstructionCall) -> tuple[str, str, str]:
    """What a template match compares: api_name, category and package only."""
    return call.api_name, call.category, call.package


def template_matches(call: InstructionCall | None, template: InstructionCall) -> bool:
    return call is not None and match_key(call) == match_key(template)


def _statement_cost(node: SdgNode) -> int:
    # Cost counts exactly what gets emitted: statement nodes carrying a call.
    return 1 if node.kind == "statement" and node.call is not None else 0


def _min_statement_paths(sdg: Sdg, start: int):
    """0/1-BFS from ``start`` along flow edges: distance = statements entered after start.

    Neighbor lists are sorted and a node's parent is fixed on first (strict)
    improvement, so reconstructed paths are deterministic.
    """
    dist = {nid: None for nid in sdg.nodes}
    parent: dict[int, int] = {}
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in sdg.flow_successors[u]:
            cost = _statement_cost(sdg.nodes[v])
            cand = dist[u] + cost
            if dist[v] is None or cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                if cost == 0:
                    queue.appendleft(v)
                else:
                    queue.append(v)
    return dist, parent


def _reconstruct(parent: dict[int, int], start: int, end: int) -> list[int]:
    path = [end]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def match_query_detailed(
    sdg: Sdg, query: VulnQuery
) -> list[tuple[int, int, tuple[InstructionCall, ...]]]:
    """Per-pair flow witnesses: (source node, sink node, instruction sequence).

    One entry per (source node, sink node) pair joined by a qualifying path,
    ordered by (source id, sink id).  The sequence lists the instructions of
    the statement nodes along a path chosen to pass through as few
    instruction-carrying statements as possible.
    """
    source_nodes = sorted(
        nid
        for nid, node in sdg.nodes.items()
        if any(template_matches(node.call, t) for t in query.sources)
    )
    sink_nodes = sorted(
        nid
        for nid, node in sdg.nodes.items()
        if any(template_matches(node.call, t) for t in query.sinks)
    )
    if not source_nodes or not sink_nodes:
        return []

    witnesses = []
    for s in source_nodes:
        dist, parent = _min_statement_paths(sdg, s)
        for k in sink_nodes:
            if k == s or dist[k] is None:
                continue
            path = _reconstruct(parent, s, k)
            seq = tuple(
                sdg.nodes[nid].call
                for nid in path
                if sdg.nodes[nid].kind == "statement" and sdg.nodes[nid].call is not None
            )
            if seq:
                witnesses.append((s, k, seq))
    return witnesses


def match_query(sdg: Sdg, query: VulnQuery) -> list[tuple[InstructionCall, ...]]:
    """Flow witness sequences, duplicates removed keeping first occurrence."""
    sequences: list[tuple[InstructionCall, ...]] = []
    seen = set()
    for _, _, seq in match_query_detailed(sdg, query):
        if seq not in seen:
            seen.add(seq)
            sequences.append(seq)
    return sequences
