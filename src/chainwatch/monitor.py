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


@dataclass(slots=True)
class MonitorEvent:
    kind: EventKind
    exploit_id: int
    cwe_id: str
    trace_offset: int
    similarity: float


def _similarity(dot: float, norm_a: float, norm_b: float) -> float:
    """The cosine formula: either norm zero yields 0.0, else the quotient clamped to [-1, 1]."""
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return min(1.0, max(-1.0, dot / (norm_a * norm_b)))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two equal-length vectors; zero norm maps to 0.0."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise MonitorError(f"cosine expects equal-length vectors, got {a.shape} and {b.shape}")
    return _similarity(float(a @ b), float(np.sqrt(a @ a)), float(np.sqrt(b @ b)))


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

        # The call's norm is taken once per step and each template's at load, so a
        # comparison is one dot product; the values equal cosine(x, row) bit for bit.
        norm = float(np.sqrt(x @ x))
        dot = x.dot
        fingerprints = self.db.fingerprints
        cursors = self._next
        advanced, alarm, no_match = EventKind.ADVANCED, EventKind.ALARM, EventKind.NO_MATCH
        events = []
        append = events.append
        for eid in candidate_list:
            fp = fingerprints[eid]
            i = cursors[eid]
            sim = _similarity(float(dot(fp.template_rows[i])), norm, fp.template_norms[i])
            if sim >= threshold:
                if i == len(fp) - 1:
                    cursors[eid] = 0
                    kind = alarm
                else:
                    cursors[eid] = i + 1
                    kind = advanced
            else:
                kind = no_match
            append(MonitorEvent(kind, eid, fp.cwe_id, trace_offset, sim))
        return events
