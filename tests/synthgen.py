"""Synthetic fingerprint/graph/trace fabrication.

Takes the place of a real labeled vulnerability corpus: builds a pool of
instruction calls, strings some of them into exploit chains, wraps those
chains in a dependence graph and fingerprint file, and keeps the rest as
benign filler.

The generator enforces one invariant the tests lean on heavily: every pair of
*distinct* calls in a world (templates and benign pool together) encodes to
feature vectors with cosine similarity at most ``max_similarity`` (default
0.85).  With the monitor threshold above that value, cosine matching and exact
call equality coincide, so an independent equality-based matcher is a valid
oracle for the engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chainwatch.encoder import FeatureEncoder
from chainwatch.fingerprints import Fingerprint, FingerprintDb
from chainwatch.mlp import N_LABELS
from chainwatch.sdg import EDGE_LABELS, Sdg, SdgNode
from chainwatch.trace import InstructionCall, serialize_trace_record
from chainwatch.vocab import CATEGORIES, Vocabularies

_NAME_PREFIXES = (
    "read", "load", "fetch", "parse", "build", "format", "merge", "exec",
    "send", "write", "push", "emit", "scan", "bind", "open", "copy",
)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Paper-style CWE identifiers used when the caller does not pass a plan.
_DEFAULT_CWES = ("CWE-89", "CWE-129", "CWE-369", "CWE-400", "CWE-78")

WHITELIST_NAMES = ("getCaughtException", "toString", "hashCode", "equals", "valueOf")


class SynthError(RuntimeError):
    pass


class _WordSupply:
    """Unique pronounceable lowercase words, deterministic per rng state."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._used: set[str] = set()

    def next_word(self) -> str:
        for _ in range(10000):
            n_syll = int(self._rng.integers(2, 4))
            word = "".join(
                _CONSONANTS[int(self._rng.integers(len(_CONSONANTS)))]
                + _VOWELS[int(self._rng.integers(len(_VOWELS)))]
                for _ in range(n_syll)
            )
            if word not in self._used:
                self._used.add(word)
                return word
        raise SynthError("word supply exhausted")


@dataclass
class SynthWorld:
    """One self-consistent synthetic detection scenario."""

    seed: int
    chains: dict[int, list[InstructionCall]]
    cwe_ids: dict[int, str]
    benign_pool: list[InstructionCall]
    interproc: set[int]
    vocabs: Vocabularies
    _vectors: dict[InstructionCall, np.ndarray] = field(default_factory=dict, repr=False)

    # ---- in-memory views -------------------------------------------------

    def db(self, encoder: FeatureEncoder) -> FingerprintDb:
        fingerprints = {}
        for eid, chain in self.chains.items():
            roles = [None] * len(chain)
            roles[0] = "source"
            roles[-1] = "sink"
            fingerprints[eid] = Fingerprint(
                exploit_id=eid,
                cwe_id=self.cwe_ids[eid],
                label=f"synthetic chain {eid}",
                templates=tuple(chain),
                roles=tuple(roles),
                template_vectors=np.stack([encoder.encode(c) for c in chain]),
            )
        return FingerprintDb(fingerprints=fingerprints)

    def all_templates(self) -> list[InstructionCall]:
        seen = []
        for chain in self.chains.values():
            for call in chain:
                if call not in seen:
                    seen.append(call)
        return seen

    # ---- file renderings -------------------------------------------------

    def fingerprint_lines(self) -> list[str]:
        lines = []
        for eid in sorted(self.chains):
            chain = self.chains[eid]
            lines.append(
                json.dumps(
                    {
                        "exploit_id": eid,
                        "cwe_id": self.cwe_ids[eid],
                        "label": f"synthetic chain {eid}",
                    },
                    separators=(",", ":"),
                )
            )
            for pos, call in enumerate(chain):
                obj = json.loads(serialize_trace_record(call))
                if pos == 0:
                    obj["role"] = "source"
                elif pos == len(chain) - 1:
                    obj["role"] = "sink"
                lines.append(json.dumps(obj, separators=(",", ":")))
            lines.append("")
        return lines

    def sdg_lines(self) -> list[str]:
        nodes: list[dict] = []
        edges: list[dict] = []
        node_of_call: dict[InstructionCall, int] = {}

        def add_node(kind: str, call: InstructionCall | None = None) -> int:
            nid = len(nodes) + 1
            obj: dict = {"node": nid, "kind": kind}
            if call is not None:
                obj["call"] = json.loads(serialize_trace_record(call))
            nodes.append(obj)
            return nid

        def add_edge(src: int, dst: int, label: str) -> None:
            edges.append({"edge": [src, dst], "label": label})

        def stmt_node(call: InstructionCall, shared: bool) -> int:
            # Shared sources fan out from a single node, like real dataflow.
            if shared and call in node_of_call:
                return node_of_call[call]
            nid = add_node("statement", call)
            if shared:
                node_of_call[call] = nid
            return nid

        shared_calls = {
            call
            for i, a in self.chains.items()
            for j, b in self.chains.items()
            if i < j
            for call in (a[0],)
            if b[0] == call
        }

        for eid in sorted(self.chains):
            chain = self.chains[eid]
            stmt_ids = [stmt_node(c, c in shared_calls) for c in chain]
            if eid in self.interproc and len(chain) >= 3:
                a_in = add_node("actual_in")
                f_in = add_node("formal_in")
                entry = add_node("entry")
                add_edge(stmt_ids[0], a_in, "data")
                add_edge(a_in, f_in, "param_in")
                add_edge(f_in, stmt_ids[1], "data")
                add_edge(stmt_ids[0], entry, "call")
                add_edge(entry, stmt_ids[1], "control")
                for a, b in zip(stmt_ids[1:-2], stmt_ids[2:-1]):
                    add_edge(a, b, "data")
                f_out = add_node("formal_out")
                a_out = add_node("actual_out")
                add_edge(stmt_ids[-2], f_out, "data")
                add_edge(f_out, a_out, "param_out")
                add_edge(a_out, stmt_ids[-1], "data")
            else:
                for a, b in zip(stmt_ids[:-1], stmt_ids[1:]):
                    add_edge(a, b, "data")

        return [json.dumps(o, separators=(",", ":")) for o in (*nodes, *edges)]

    def benign_lines(self) -> list[str]:
        return [serialize_trace_record(c) for c in self.benign_pool]

    def write(self, out_dir: str | Path, stem: str) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "fingerprints": out / f"{stem}.fp",
            "sdg": out / f"{stem}.sdg",
            "benign": out / f"{stem}_benign.jsonl",
        }
        paths["fingerprints"].write_text("\n".join(self.fingerprint_lines()) + "\n")
        paths["sdg"].write_text("\n".join(self.sdg_lines()) + "\n")
        paths["benign"].write_text("\n".join(self.benign_lines()) + "\n")
        return paths


def _random_call(
    rng: np.random.Generator,
    words: _WordSupply,
    vocabs: Vocabularies,
    name: str | None = None,
) -> InstructionCall:
    if name is None:
        prefix = _NAME_PREFIXES[int(rng.integers(len(_NAME_PREFIXES)))]
        word = words.next_word()
        name = prefix + word.capitalize()
    io_pool = vocabs.io_types
    n_in = int(rng.integers(0, 3))
    n_out = int(rng.integers(0, 2))
    return InstructionCall(
        api_name=name,
        category=CATEGORIES[int(rng.integers(len(CATEGORIES)))],
        scope="Application" if rng.random() < 0.8 else "Primordial",
        package=vocabs.packages[int(rng.integers(len(vocabs.packages)))],
        inputs=tuple(io_pool[int(i)] for i in rng.integers(0, len(io_pool), size=n_in)),
        outputs=tuple(io_pool[int(i)] for i in rng.integers(0, len(io_pool), size=n_out)),
    )


class _SeparatedPool:
    """Accepts calls only if well separated from every call already admitted."""

    def __init__(self, encoder: FeatureEncoder, max_similarity: float):
        self.encoder = encoder
        self.max_similarity = max_similarity
        self.calls: list[InstructionCall] = []
        self._units: list[np.ndarray] = []

    def _unit(self, call: InstructionCall) -> np.ndarray:
        vec = self.encoder.encode(call)
        return vec / np.linalg.norm(vec)

    def admits(self, call: InstructionCall) -> bool:
        if call in self.calls:
            return False
        unit = self._unit(call)
        if self._units and float(np.max(np.stack(self._units) @ unit)) > self.max_similarity:
            return False
        self.calls.append(call)
        self._units.append(unit)
        return True

    def add(self, make, attempts: int = 300) -> InstructionCall:
        for _ in range(attempts):
            call = make()
            if self.admits(call):
                return call
        raise SynthError("could not place a sufficiently separated call")


def make_world(
    n_exploits: int,
    seed: int,
    encoder: FeatureEncoder,
    chain_lengths: tuple[int, int] = (2, 5),
    cwe_plan: list[tuple[str, int]] | None = None,
    benign_count: int = 25,
    interproc_fraction: float = 0.3,
    share_source_fraction: float = 0.3,
    max_similarity: float = 0.85,
    include_whitelisted: bool = True,
) -> SynthWorld:
    """Fabricate a world of ``n_exploits`` chains plus a benign pool.

    ``cwe_plan`` distributes exploits over CWE identifiers as a list of
    (cwe_id, count) pairs summing to ``n_exploits``; by default ids cycle
    through a small fixed set.  Within a CWE group, a fraction of chains reuse
    the group's first source call, so some calls legitimately carry several
    labels.
    """
    if n_exploits < 1 or n_exploits > N_LABELS:
        raise SynthError(f"n_exploits must lie in [1, {N_LABELS}]")
    lo, hi = chain_lengths
    if lo < 2:
        raise SynthError("chains must have at least 2 templates")

    rng = np.random.default_rng(seed)
    words = _WordSupply(rng)
    pool = _SeparatedPool(encoder, max_similarity)

    if cwe_plan is None:
        cwe_plan = []
        remaining = n_exploits
        i = 0
        while remaining:
            take = min(remaining, max(1, n_exploits // len(_DEFAULT_CWES)))
            cwe_plan.append((_DEFAULT_CWES[i % len(_DEFAULT_CWES)] , take))
            remaining -= take
            i += 1
    if sum(c for _, c in cwe_plan) != n_exploits:
        raise SynthError("cwe_plan counts must sum to n_exploits")

    chains: dict[int, list[InstructionCall]] = {}
    cwe_ids: dict[int, str] = {}
    interproc: set[int] = set()
    eid = 0
    for cwe, count in cwe_plan:
        group_source: InstructionCall | None = None
        for pos in range(count):
            length = int(rng.integers(lo, hi + 1))
            chain: list[InstructionCall] = []
            share = (
                group_source is not None
                and pos > 0
                and rng.random() < share_source_fraction
            )
            if share:
                chain.append(group_source)
            else:
                chain.append(pool.add(lambda: _random_call(rng, words, encoder.vocabs)))
                if group_source is None:
                    group_source = chain[0]
            while len(chain) < length:
                chain.append(pool.add(lambda: _random_call(rng, words, encoder.vocabs)))
            chains[eid] = chain
            cwe_ids[eid] = cwe
            if rng.random() < interproc_fraction:
                interproc.add(eid)
            eid += 1

    benign: list[InstructionCall] = []
    if include_whitelisted:
        for name in WHITELIST_NAMES[:3]:
            benign.append(
                pool.add(lambda: _random_call(rng, words, encoder.vocabs, name=name))
            )
    while len(benign) < benign_count:
        benign.append(pool.add(lambda: _random_call(rng, words, encoder.vocabs)))

    return SynthWorld(
        seed=seed,
        chains=chains,
        cwe_ids=cwe_ids,
        benign_pool=benign,
        interproc=interproc,
        vocabs=encoder.vocabs,
    )


def mixed_trace(
    world: SynthWorld,
    rng: np.random.Generator,
    length: int,
    plant: int = 2,
    benign_weight: float = 0.4,
) -> list[InstructionCall]:
    """A randomized trace: a few full chains interleaved with noise calls.

    Planted chains keep their internal order (positions chosen by random
    merge); remaining slots draw from templates and the benign pool.
    """
    eids = sorted(world.chains)
    planted: list[list[InstructionCall]] = []
    take = min(plant, len(eids))
    for idx in rng.choice(len(eids), size=take, replace=False):
        planted.append(list(world.chains[eids[int(idx)]]))
    slots: list[InstructionCall | None] = [None] * length
    positions = sorted(
        (int(p) for p in rng.choice(length, size=min(length, sum(map(len, planted))), replace=False))
    )
    # Random merge that preserves each chain's order: deal positions to chains
    # in a shuffled round order.
    order = []
    for ci, chain in enumerate(planted):
        order.extend([ci] * len(chain))
    order = [order[int(i)] for i in rng.permutation(len(order))]
    cursors = [0] * len(planted)
    for pos, ci in zip(positions, order):
        slots[pos] = planted[ci][cursors[ci]]
        cursors[ci] += 1

    templates = world.all_templates()
    for i in range(length):
        if slots[i] is None:
            if world.benign_pool and rng.random() < benign_weight:
                slots[i] = world.benign_pool[int(rng.integers(len(world.benign_pool)))]
            else:
                slots[i] = templates[int(rng.integers(len(templates)))]
    return slots  # type: ignore[return-value]


def _call(name, category="invokevirtual", package="Ljava/lang/String"):
    return InstructionCall(name, category, "Application", package)


def _mk_sdg(nodes, edges):
    return Sdg(nodes={n.node_id: n for n in nodes}, edges=edges)


def _random_graph(rng, pool):
    n = int(rng.integers(5, 12))
    kinds = ["statement"] * (n // 2) + [
        ("entry", "actual_in", "formal_in", "formal_out", "actual_out")[int(rng.integers(5))]
        for _ in range(n - n // 2)
    ]
    rng.shuffle(kinds)
    nodes = []
    for i, kind in enumerate(kinds, start=1):
        call = pool[int(rng.integers(len(pool)))] if kind == "statement" else None
        nodes.append(SdgNode(i, kind, call))
    edges = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b and rng.random() < 0.25:
                edges.append((a, b, EDGE_LABELS[int(rng.integers(len(EDGE_LABELS)))]))
    return _mk_sdg(nodes, edges)
