"""Exploit-chain progress tracking.

The state table keeps, per exploit, an index into its fingerprint's template
list.  Feeding an encoded call with a candidate set advances exactly those
candidates whose *next* template it matches under cosine similarity; matching
the final template raises an alarm and rewinds that exploit to the start.
Exploits outside the candidate set are left untouched, which is what makes
classifier-driven filtering sound: filtering only ever skips comparisons, it
never changes what a tracked candidate would do.
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


class _ExploitState:
    __slots__ = ("fingerprint", "next_index", "comparisons_made", "alarms_raised")

    def __init__(self, fingerprint):
        self.fingerprint = fingerprint
        self.next_index = 0
        self.comparisons_made = 0
        self.alarms_raised = 0


class StateTable:
    """Per-exploit chain positions plus comparison/alarm counters."""

    def __init__(self, db: FingerprintDb):
        if len(db) == 0:
            raise MonitorError("cannot build a state table from an empty fingerprint database")
        self.db = db
        self._states = {eid: _ExploitState(db[eid]) for eid in db.exploit_ids}
        self.steps_taken = 0
        self.total_comparisons = 0
        self.total_alarms = 0

    @property
    def exploit_ids(self) -> tuple[int, ...]:
        return tuple(self._states)

    def next_index(self, exploit_id: int) -> int:
        return self._states[exploit_id].next_index

    def next_vector(self, exploit_id: int) -> np.ndarray:
        state = self._states[exploit_id]
        return state.fingerprint.template_vectors[state.next_index]

    def comparisons_made(self, exploit_id: int) -> int:
        return self._states[exploit_id].comparisons_made

    def alarms_raised(self, exploit_id: int) -> int:
        return self._states[exploit_id].alarms_raised

    def clone(self) -> "StateTable":
        dup = StateTable(self.db)
        for eid, state in self._states.items():
            mirror = dup._states[eid]
            mirror.next_index = state.next_index
            mirror.comparisons_made = state.comparisons_made
            mirror.alarms_raised = state.alarms_raised
        dup.steps_taken = self.steps_taken
        dup.total_comparisons = self.total_comparisons
        dup.total_alarms = self.total_alarms
        return dup

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
            if eid not in self._states:
                raise MonitorError(f"candidate exploit id {eid} is not in the state table")

        self.steps_taken += 1
        events = []
        for eid in candidate_list:
            state = self._states[eid]
            sim = _cosine(x, state.fingerprint.template_vectors[state.next_index])
            state.comparisons_made += 1
            self.total_comparisons += 1
            if sim >= threshold:
                last = state.next_index == len(state.fingerprint) - 1
                if last:
                    state.next_index = 0
                    state.alarms_raised += 1
                    self.total_alarms += 1
                    kind = EventKind.ALARM
                else:
                    state.next_index += 1
                    kind = EventKind.ADVANCED
            else:
                kind = EventKind.NO_MATCH
            events.append(
                MonitorEvent(
                    kind=kind,
                    exploit_id=eid,
                    cwe_id=state.fingerprint.cwe_id,
                    trace_offset=trace_offset,
                    similarity=sim,
                )
            )
        return events

    def comparisons_per_call(self) -> float:
        """Mean comparisons per step taken so far."""
        if self.steps_taken == 0:
            raise MonitorError("no steps taken yet")
        return self.total_comparisons / self.steps_taken
