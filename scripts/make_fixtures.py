#!/usr/bin/env python3
"""Regenerate the bundled data fixtures.

Deterministic: running this script twice produces byte-identical files.
Outputs (under src/chainwatch/data/):

* embeddings/demo10d.txt        - demo word-embedding table
* embeddings/synonym_fixtures.json - synonym / unrelated token pairs
* fixtures/synth20.{fp,sdg}, fixtures/synth20_benign.jsonl - 20-exploit world
* fixtures/cwe79.{fp,sdg},  fixtures/cwe79_benign.jsonl  - 79-exploit world

The two worlds come from the test suite's generator, ``tests/synthgen.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # the world generator lives with the tests

from chainwatch.encoder import FeatureEncoder
from tests import synthgen

DATA = ROOT / "src" / "chainwatch" / "data"

# Concept groups: members of a group get nearby vectors, so the table carries
# the rough semantic structure the encoder's name block is meant to exploit.
GROUPS = [
    ["create", "new", "make"],
    ["read", "load", "fetch"],
    ["write", "store", "save"],
    ["execute", "run", "exec"],
    ["send", "push", "emit"],
    ["parse", "decode"],
    ["merge", "join"],
    ["copy", "clone"],
    ["open", "start"],
    ["close", "shutdown"],
    ["delete", "remove"],
    ["query", "request"],
    ["scan", "search"],
    ["bind", "attach"],
    ["format", "render"],
    ["get", "obtain"],
]

STANDALONE = [
    "line", "string", "buffer", "file", "stream", "socket", "url", "statement",
    "connection", "result", "next", "append", "concat", "build", "to", "of",
    "value", "hash", "code", "equals", "caught", "exception", "log", "print",
    "flush", "int", "char", "index", "array", "list", "map", "set", "key",
    "name", "path", "dir", "text", "data", "byte", "first", "last", "size",
    "level", "reader", "writer", "input", "output", "prepare", "commit",
]

SYNONYM_PAIRS = [
    ["create", "new"], ["read", "fetch"], ["write", "store"], ["execute", "run"],
    ["send", "push"], ["parse", "decode"], ["merge", "join"], ["copy", "clone"],
]
UNRELATED_PAIRS = [
    ["read", "format"], ["write", "query"], ["execute", "line"],
    ["open", "hash"], ["send", "file"], ["parse", "socket"],
]


def make_embeddings() -> None:
    rng = np.random.default_rng(20240817)
    vectors: dict[str, np.ndarray] = {}

    def unit(v):
        return v / np.linalg.norm(v)

    for group in GROUPS:
        base = unit(rng.standard_normal(10))
        for token in group:
            vectors[token] = unit(base + 0.15 * rng.standard_normal(10))
    for token in STANDALONE:
        vectors[token] = unit(rng.standard_normal(10))

    def sim(a, b):
        return float(vectors[a] @ vectors[b])

    syn_min = min(sim(a, b) for a, b in SYNONYM_PAIRS)
    unr_max = max(sim(a, b) for a, b in UNRELATED_PAIRS)
    if syn_min <= unr_max + 0.15:
        raise RuntimeError(f"weak margin: synonyms >= {syn_min}, unrelated <= {unr_max}")

    out = DATA / "embeddings" / "demo10d.txt"
    lines = [
        token + " " + " ".join(format(v, ".6f") for v in vec)
        for token, vec in sorted(vectors.items())
    ]
    out.write_text("\n".join(lines) + "\n")
    (DATA / "embeddings" / "synonym_fixtures.json").write_text(
        json.dumps({"synonyms": SYNONYM_PAIRS, "unrelated": UNRELATED_PAIRS}, indent=1) + "\n"
    )
    print(f"embeddings: {len(vectors)} tokens, synonym sims >= {syn_min:.3f}, "
          f"unrelated <= {unr_max:.3f}")


# Per-CWE exploit counts for the 79-chain world, 23 CWE classes.
CWE79_PLAN = [
    ("CWE-15", 2), ("CWE-23", 1), ("CWE-78", 2), ("CWE-81", 1), ("CWE-89", 10),
    ("CWE-90", 1), ("CWE-129", 14), ("CWE-134", 3), ("CWE-190", 3), ("CWE-191", 5),
    ("CWE-197", 6), ("CWE-226", 1), ("CWE-256", 1), ("CWE-259", 1), ("CWE-319", 2),
    ("CWE-369", 10), ("CWE-400", 6), ("CWE-470", 1), ("CWE-506", 1), ("CWE-570", 1),
    ("CWE-606", 3), ("CWE-643", 1), ("CWE-789", 3),
]


def make_worlds() -> None:
    encoder = FeatureEncoder.from_paths()
    w20 = synthgen.make_world(20, seed=2001, encoder=encoder, chain_lengths=(2, 5))
    w20.write(DATA / "fixtures", "synth20")
    print(f"synth20: {len(w20.chains)} chains, {len(w20.benign_pool)} benign calls, "
          f"{len(w20.interproc)} interprocedural")

    w79 = synthgen.make_world(
        79, seed=7901, encoder=encoder, chain_lengths=(2, 6),
        cwe_plan=CWE79_PLAN, benign_count=30,
    )
    w79.write(DATA / "fixtures", "cwe79")
    print(f"cwe79: {len(w79.chains)} chains over "
          f"{len(set(w79.cwe_ids.values()))} CWE classes")


if __name__ == "__main__":
    make_embeddings()
    make_worlds()
