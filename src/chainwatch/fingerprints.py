"""Exploit fingerprint database and API white-list.

Fingerprint file grammar (newline-delimited JSON, blank lines ignored):

* a header object ``{"exploit_id": <int>, "cwe_id": "<str>", "label": "<str>"}``
  opens a fingerprint;
* every following non-header line is one ordered template in the trace record
  grammar, optionally extended with ``"role": "source" | "sink"`` used when
  lowering the fingerprint to a dataflow query.

Template feature vectors are encoded once at load time; the database stacks
every row into one read-only matrix and takes each row's norm there.  The
monitor compares against these pre-encoded rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .encoder import VECTOR_DIM, FeatureEncoder
from .mlp import N_LABELS
from .trace import InstructionCall, TraceError, call_from_record
from .vocab import json_objects, numbered_lines, open_text

ROLE_SOURCE = "source"
ROLE_SINK = "sink"
_ROLES = (ROLE_SOURCE, ROLE_SINK)


class FingerprintError(ValueError):
    """Fingerprint file is malformed."""


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """One exploit's ordered templates and their encoded rows, read only.

    Compared and hashed by identity: a generated ``__eq__`` would compare
    ``template_vectors`` with ``==``, whose truth value is ambiguous.
    """

    exploit_id: int
    cwe_id: str
    label: str
    templates: tuple[InstructionCall, ...]
    roles: tuple[str | None, ...]
    template_vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.templates) == 0:
            raise FingerprintError(f"exploit {self.exploit_id}: no templates")
        if len(self.roles) != len(self.templates):
            raise FingerprintError(f"exploit {self.exploit_id}: role/template length mismatch")
        if self.template_vectors.shape != (len(self.templates), VECTOR_DIM):
            raise FingerprintError(f"exploit {self.exploit_id}: bad template vector shape")
        self.template_vectors.setflags(write=False)

    def __len__(self) -> int:
        return len(self.templates)


@dataclass(frozen=True)
class FingerprintDb:
    """All loaded fingerprints, keyed by exploit id (one fingerprint per id).

    Every id lies in the classifier's label space ``[0, mlp.N_LABELS)``.
    ``fingerprints`` is held as a read-only copy of the mapping given, so
    everything derived from it here, once, cannot go stale:

    * ``exploit_ids``, the ids in ascending order; an exploit's *position* is
      its index in this tuple, and ``positions`` maps id -> position;
    * ``template_matrix``, every template row stacked in position order, read
      only, with ``template_norms`` each row's ``sqrt(row @ row)``, and
      ``start_rows`` and ``last_rows`` the rows of each exploit's first and
      last template;
    * ``start_matrix`` and ``start_norms``, the rows and norms at
      ``start_rows`` (each exploit's first template, in position order), the
      matrix a contiguous copy;
    * ``exploit_set``, the ids as one frozenset, the candidate set meaning
      "every exploit";
    * ``template_norm_span``, the smallest and largest nonzero template norm
      (``(inf, 0.0)`` when there is none, NaN when a norm is NaN).
    """

    fingerprints: Mapping[int, Fingerprint]
    exploit_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    positions: Mapping[int, int] = field(init=False, repr=False, compare=False)
    template_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    template_norms: np.ndarray = field(init=False, repr=False, compare=False)
    start_rows: np.ndarray = field(init=False, repr=False, compare=False)
    last_rows: np.ndarray = field(init=False, repr=False, compare=False)
    start_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    start_norms: np.ndarray = field(init=False, repr=False, compare=False)
    exploit_set: frozenset[int] = field(init=False, repr=False, compare=False)
    template_norm_span: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = set(self.fingerprints) - set(range(N_LABELS))
        if bad:
            raise FingerprintError(f"exploit id {min(bad)} outside the label space [0, {N_LABELS})")
        ids = tuple(sorted(self.fingerprints))
        ordered = [self.fingerprints[eid] for eid in ids]
        lengths = np.array([len(fp) for fp in ordered], dtype=np.intp)
        matrix = np.concatenate(
            [fp.template_vectors for fp in ordered] or [np.empty((0, VECTOR_DIM))]
        )
        norms = np.array([np.sqrt(r @ r) for r in matrix], dtype=np.float64)
        ends = np.cumsum(lengths, dtype=np.intp)
        starts, lasts = ends - lengths, ends - 1
        start_matrix, start_norms = np.ascontiguousarray(matrix[starts]), norms[starts]
        nonzero = norms[norms != 0.0]
        span = (float(nonzero.min()), float(nonzero.max())) if nonzero.size else (math.inf, 0.0)
        for arr in (matrix, norms, starts, lasts, start_matrix, start_norms):
            arr.setflags(write=False)
        derived = {
            "fingerprints": MappingProxyType(dict(self.fingerprints)),
            "exploit_ids": ids,
            "positions": MappingProxyType({eid: p for p, eid in enumerate(ids)}),
            "template_matrix": matrix,
            "template_norms": norms,
            "start_rows": starts,
            "last_rows": lasts,
            "start_matrix": start_matrix,
            "start_norms": start_norms,
            "exploit_set": frozenset(ids),
            "template_norm_span": span,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.fingerprints)

    def __contains__(self, exploit_id: int) -> bool:
        return exploit_id in self.fingerprints

    def __getitem__(self, exploit_id: int) -> Fingerprint:
        return self.fingerprints[exploit_id]

    def cwe_index(self) -> dict[str, tuple[int, ...]]:
        """CWE id -> sorted exploit ids, for pooled per-CWE reporting."""
        index: dict[str, list[int]] = {}
        for fp in self.fingerprints.values():
            index.setdefault(fp.cwe_id, []).append(fp.exploit_id)
        return {cwe: tuple(sorted(ids)) for cwe, ids in sorted(index.items())}


def _parse_header(obj: dict, where: str) -> tuple[int, str, str]:
    expected = {"exploit_id", "cwe_id", "label"}
    if set(obj) != expected:
        raise FingerprintError(f"{where}: header must have exactly keys {sorted(expected)}")
    if not isinstance(obj["exploit_id"], int) or isinstance(obj["exploit_id"], bool):
        raise FingerprintError(f"{where}: exploit_id must be an integer")
    if not isinstance(obj["cwe_id"], str) or not isinstance(obj["label"], str):
        raise FingerprintError(f"{where}: cwe_id and label must be strings")
    return obj["exploit_id"], obj["cwe_id"], obj["label"]


def load_fingerprints(path: str | Path, encoder: FeatureEncoder) -> FingerprintDb:
    """Parse, validate and pre-encode a fingerprint file."""
    path = Path(path)
    fingerprints: dict[int, Fingerprint] = {}
    current: dict | None = None

    def finish(block):
        if block is None:
            return
        if not block["templates"]:
            raise FingerprintError(
                f"{path}: exploit {block['exploit_id']} has no templates"
            )
        fp = Fingerprint(
            exploit_id=block["exploit_id"],
            cwe_id=block["cwe_id"],
            label=block["label"],
            templates=tuple(block["templates"]),
            roles=tuple(block["roles"]),
            template_vectors=np.stack([encoder.encode(c) for c in block["templates"]]),
        )
        fingerprints[fp.exploit_id] = fp

    for where, obj in json_objects(path, FingerprintError):
        if "exploit_id" in obj:
            finish(current)
            exploit_id, cwe_id, label = _parse_header(obj, where)
            if exploit_id in fingerprints:
                raise FingerprintError(f"{where}: duplicate exploit id {exploit_id}")
            current = {
                "exploit_id": exploit_id,
                "cwe_id": cwe_id,
                "label": label,
                "templates": [],
                "roles": [],
            }
            continue

        if current is None:
            raise FingerprintError(f"{where}: template record before any fingerprint header")
        role = obj.pop("role", None)
        if role is not None and role not in _ROLES:
            raise FingerprintError(f"{where}: role must be one of {_ROLES}, got {role!r}")
        try:
            call = call_from_record(obj, encoder.vocabs)
        except TraceError as exc:
            raise FingerprintError(f"{where}: bad template: {exc}") from exc
        current["templates"].append(call)
        current["roles"].append(role)

    finish(current)
    return FingerprintDb(fingerprints=fingerprints)


class WhiteList:
    """API names exempt from classification and monitoring."""

    def __init__(self, names=()):
        self._names = frozenset(names)

    def __contains__(self, api_name: str) -> bool:
        return api_name in self._names

    def __len__(self) -> int:
        return len(self._names)

    @classmethod
    def from_file(cls, path: str | Path) -> "WhiteList":
        with open_text(path) as fh:
            return cls(line for _, line in numbered_lines(fh) if not line.startswith("#"))
