"""Hybrid feature encoding of instruction calls.

Every call becomes a fixed 151-component float vector laid out as

    [ name 70 | category 9 | scope 2 | package 22 | input freq 24 | output freq 24 ]

The name block is up to seven 10-dimensional word embeddings of the API name
tokens, concatenated in token order and zero-padded on the right.  Category,
scope and package are one-hot.  The I/O blocks count type multiplicities, so
repeated argument types add up rather than saturate.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .trace import InstructionCall
from .vocab import (
    CATEGORY_INDEX,
    N_CATEGORIES,
    N_IO_TYPES,
    N_PACKAGES,
    N_SCOPES,
    SCOPE_INDEX,
    Vocabularies,
    numbered_lines,
    open_text,
)

EMBED_DIM = 10
MAX_TOKENS = 7
NAME_DIM = EMBED_DIM * MAX_TOKENS  # 70

NAME_SLICE = slice(0, NAME_DIM)
CATEGORY_SLICE = slice(NAME_DIM, NAME_DIM + N_CATEGORIES)
SCOPE_SLICE = slice(CATEGORY_SLICE.stop, CATEGORY_SLICE.stop + N_SCOPES)
PACKAGE_SLICE = slice(SCOPE_SLICE.stop, SCOPE_SLICE.stop + N_PACKAGES)
INPUT_SLICE = slice(PACKAGE_SLICE.stop, PACKAGE_SLICE.stop + N_IO_TYPES)
OUTPUT_SLICE = slice(INPUT_SLICE.stop, INPUT_SLICE.stop + N_IO_TYPES)
VECTOR_DIM = OUTPUT_SLICE.stop  # 151
_NAME_BLOCKS = tuple(slice(i * EMBED_DIM, (i + 1) * EMBED_DIM) for i in range(MAX_TOKENS))
_CATEGORY_AT, _SCOPE_AT, _PACKAGE_AT, _INPUT_AT, _OUTPUT_AT = (
    block.start for block in (CATEGORY_SLICE, SCOPE_SLICE, PACKAGE_SLICE, INPUT_SLICE, OUTPUT_SLICE)
)

# Letter runs only: camelCase boundaries split, underscores and digits act as
# separators and are dropped.
_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")


class EmbeddingError(ValueError):
    """Embedding table file is malformed."""


def tokenize_api_name(name: str) -> list[str]:
    """Split an API name into lowercase word tokens, keeping the first seven."""
    return [t.lower() for t in _TOKEN_RE.findall(name)][:MAX_TOKENS]


@lru_cache(maxsize=65536)
def hash_embed(token: str) -> np.ndarray:
    """Deterministic fallback embedding for a token absent from the table.

    Construction: seed a PCG64 generator with the first 8 bytes
    (little-endian) of SHA-256 of the UTF-8 token, draw 10 standard-normal
    values, and scale to unit length.  Stable across runs and platforms.
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.Generator(np.random.PCG64(seed))
    vec = rng.standard_normal(EMBED_DIM)
    vec /= np.linalg.norm(vec)
    vec.flags.writeable = False
    return vec


def default_embedding_path() -> Path:
    return Path(importlib.resources.files("chainwatch")) / "data" / "embeddings" / "demo10d.txt"


class EmbeddingTable:
    """Token -> 10-vector lookup backed by a plain text file.

    File format: one token per line followed by ten decimal floats, whitespace
    separated.  Out-of-table tokens fall back to :func:`hash_embed`.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        self._vectors: dict[str, np.ndarray] = {}
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (EMBED_DIM,):
                raise EmbeddingError(f"token {token!r}: expected {EMBED_DIM} components")
            arr = arr.copy()
            arr.flags.writeable = False
            self._vectors[token] = arr

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    @classmethod
    def from_file(cls, path: str | Path) -> "EmbeddingTable":
        vectors: dict[str, np.ndarray] = {}
        with open_text(path) as fh:
            for lineno, line in numbered_lines(fh):
                parts = line.split()
                if len(parts) != 1 + EMBED_DIM:
                    raise EmbeddingError(
                        f"{path} line {lineno}: expected token + {EMBED_DIM} floats, got {len(parts)} fields"
                    )
                token = parts[0]
                if token in vectors:
                    raise EmbeddingError(f"{path} line {lineno}: duplicate token {token!r}")
                try:
                    vectors[token] = np.array([float(p) for p in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise EmbeddingError(f"{path} line {lineno}: bad float: {exc}") from exc
        return cls(vectors)

    def lookup(self, token: str) -> np.ndarray:
        vec = self._vectors.get(token)
        if vec is None:
            return hash_embed(token)
        return vec


@dataclass
class FeatureEncoder:
    """Encodes instruction calls against one embedding table + vocab set."""

    table: EmbeddingTable
    vocabs: Vocabularies

    @classmethod
    def from_paths(
        cls,
        embedding_path: str | Path | None = None,
        vocab_dir: str | Path | None = None,
    ) -> "FeatureEncoder":
        from .vocab import load_vocabularies

        path = Path(embedding_path) if embedding_path is not None else default_embedding_path()
        return cls(table=EmbeddingTable.from_file(path), vocabs=load_vocabularies(vocab_dir))

    def encode(self, call: InstructionCall) -> np.ndarray:
        """Encode one call into the 151-component feature vector.

        Every block is written straight into one zeroed vector; the I/O counts
        add 1.0 per item, which is exact for integer counts.
        """
        x = np.zeros(VECTOR_DIM, dtype=np.float64)
        lookup = self.table.lookup
        for block, token in zip(_NAME_BLOCKS, tokenize_api_name(call.api_name)):
            x[block] = lookup(token)
        x[_CATEGORY_AT + CATEGORY_INDEX[call.category]] = 1.0
        x[_SCOPE_AT + SCOPE_INDEX[call.scope]] = 1.0
        vocabs = self.vocabs
        x[_PACKAGE_AT + vocabs.package_index[call.package]] = 1.0
        io_index = vocabs.io_type_index
        for item in call.inputs:
            x[_INPUT_AT + io_index[item]] += 1.0
        for item in call.outputs:
            x[_OUTPUT_AT + io_index[item]] += 1.0
        return x
