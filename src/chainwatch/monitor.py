"""Exploit-chain progress tracking.

The state table keeps, per exploit, an index into its fingerprint's template
list.  Feeding an encoded call with a candidate set advances exactly those
candidates whose *next* template it matches under cosine similarity; matching
the final template raises an alarm and rewinds that exploit to the start.
Exploits outside the candidate set are left untouched, which is what makes
classifier-driven filtering sound: filtering only ever skips comparisons, it
never changes what a tracked candidate would do.

The table holds only these cursors.  Comparisons, steps and alarms are counted
from the returned events, in the engine's ``SessionSummary``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .encoder import VECTOR_DIM
from .fingerprints import FingerprintDb

DEFAULT_COSINE_THRESHOLD = 0.9


class MonitorError(ValueError):
    pass


class EventKind(enum.Enum):
    ADVANCED = "advanced"
    ALARM = "alarm"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class MonitorEvent:
    kind: EventKind
    exploit_id: int
    cwe_id: str
    trace_offset: int
    similarity: float


def _cosine(a, b) -> float:
    """Cosine similarity; either operand with zero norm yields 0.0."""
    na = np.sqrt(a @ a)
    nb = np.sqrt(b @ b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    sim = float(a @ b) / (float(na) * float(nb))
    return min(1.0, max(-1.0, sim))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two equal-length vectors; zero norm maps to 0.0."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise MonitorError(f"cosine expects equal-length vectors, got {a.shape} and {b.shape}")
    return _cosine(a, b)


class StateTable:
    """Per-exploit chain positions: the index of each exploit's next template.

    Tables built over one database share it and keep separate cursors.
    """

    def __init__(self, db: FingerprintDb):
        if len(db) == 0:
            raise MonitorError("cannot build a state table from an empty fingerprint database")
        self.db = db
        self._next = dict.fromkeys(db.exploit_ids, 0)

    def next_index(self, exploit_id: int) -> int:
        return self._next[exploit_id]

    def step(
        self,
        candidates: Iterable[int],
        x: np.ndarray,
        trace_offset: int,
        threshold: float = DEFAULT_COSINE_THRESHOLD,
    ) -> list[MonitorEvent]:
        """Compare ``x`` against the next template of every candidate exploit.

        Returns one event per candidate, in ascending exploit-id order:
        ``ADVANCED`` or ``ALARM`` when similarity clears the (inclusive)
        threshold, ``NO_MATCH`` otherwise.  Alarming rewinds the exploit's
        index to 0 so a repeated chain alarms again.
        """
        if not 0.0 < threshold <= 1.0:
            raise MonitorError(f"cosine threshold must lie in (0, 1], got {threshold}")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (VECTOR_DIM,):
            raise MonitorError(f"expected feature vector of shape ({VECTOR_DIM},), got {x.shape}")
        candidate_list = sorted(set(candidates))
        for eid in candidate_list:
            if eid not in self._next:
                raise MonitorError(f"candidate exploit id {eid} is not in the state table")

        fingerprints = self.db.fingerprints
        events = []
        for eid in candidate_list:
            fp = fingerprints[eid]
            i = self._next[eid]
            sim = _cosine(x, fp.template_vectors[i])
            if sim >= threshold:
                if i == len(fp) - 1:
                    self._next[eid] = 0
                    kind = EventKind.ALARM
                else:
                    self._next[eid] = i + 1
                    kind = EventKind.ADVANCED
            else:
                kind = EventKind.NO_MATCH
            events.append(
                MonitorEvent(
                    kind=kind,
                    exploit_id=eid,
                    cwe_id=fp.cwe_id,
                    trace_offset=trace_offset,
                    similarity=sim,
                )
            )
        return events
