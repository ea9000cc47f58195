"""Exploit-chain progress tracking.

The state table keeps, per exploit, a cursor: the row of its next template in
the database's template matrix.  Feeding an encoded call with a candidate set
advances exactly those candidates whose *next* template it matches under
cosine similarity; matching the final template raises an alarm and rewinds
that exploit to the start.
Exploits outside the candidate set are left untouched, which is what makes
classifier-driven filtering sound: filtering only ever skips comparisons, it
never changes what a tracked candidate would do.

The table holds only these cursors.  A step returns the events of the
candidates that advance or alarm; a candidate that is not matched leaves no
event, and the engine's ``SessionSummary`` counts comparisons, steps and alarms.
"""

from __future__ import annotations

import enum
import math
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


# The screen (see ``StateTable.step``).  Its slack, in cosine units, is far above
# the 2 gamma_151 ~ 3.4e-14 that rounding can move a dot product by.
SCREEN_SLACK = 1e-9
# Call and nonzero template norms in this range keep every product, sum and
# bound of the screen a normal number (at most 2**400 and, but for absolute
# errors below 2**-1066, at least 2**-400), so the rounding bounds hold.
SCREEN_NORMS = (2.0**-200, 2.0**200)
# Candidate sets this large are screened.  Measured on the cwe79 database (79
# first-template rows) over 150 traces of its test split, a fresh table per
# trace, random candidate sets, on a shared 2-core x86-64 host: an exact step
# cost about 2.2 us plus 1.4 us per candidate (7.5-8.1 us at 4, 9.0-10.0 us at
# 5), a screened one 7.7-8.0 us at one candidate and 8.6-9.7 us at 5, so they
# break even between 4 and 5 candidates.  Classifier steps on that split have
# at most 4 candidates (1.17 on average) and never screen; naive steps have 79.
SCREEN_MIN_CANDIDATES = 5
# With this many exploits part-way through their chains, a screen takes one
# product over every template row rather than over the first templates only.
# Measured as above with k exploits set part-way before each naive step: the
# first-template screen cost 7.5-8.1 us plus 1.1-1.5 us per part-way exploit
# (11.6-12.0 us at 3, 13.3-13.9 at 4), the every-row one 12.5-13.6 us at any
# k, so they break even between 3 and 4.
SCREEN_EVERY_ROW_PARTWAY = 4


class StateTable:
    """Per-exploit chain positions: the row of each exploit's next template.

    The cursors are an int array indexed by exploit position (the index of an
    id in ``db.exploit_ids``), each holding a row of ``db.template_matrix``
    between the exploit's ``db.start_rows`` and ``db.last_rows``.  Tables
    built over one database share it and keep separate cursors.
    """

    def __init__(self, db: FingerprintDb):
        if len(db) == 0:
            raise MonitorError("cannot build a state table from an empty fingerprint database")
        self.db = db
        self._cursors = db.start_rows.copy()
        low, high = SCREEN_NORMS
        span_low, span_high = db.template_norm_span
        self._screens = low <= span_low and span_high <= high

    def step(
        self,
        candidates: Iterable[int],
        x: np.ndarray,
        trace_offset: int,
        threshold: float = DEFAULT_COSINE_THRESHOLD,
    ) -> list[MonitorEvent]:
        """Compare ``x`` against the next template of every candidate exploit.

        Each distinct candidate is one comparison; ``db.exploit_set`` itself
        is every exploit, found without sorting.  A similarity at or above
        the (inclusive) threshold is ``ADVANCED``, or ``ALARM`` on the last
        template, which rewinds the exploit's cursor to its first template so
        a repeated chain alarms again; below it the candidate is not matched
        and keeps its cursor.  Returns the ``ADVANCED`` and ``ALARM`` events
        in ascending exploit-id order.

        Every similarity is ``_similarity(x . row, |x|, |row|)`` with one
        ``ddot`` per pair, the call's norm taken once and the row's at load,
        equal bit for bit to ``cosine(x, row)`` in ``tests/oracles.py``,
        which its ``reference_step`` checks.  A set of at least
        ``SCREEN_MIN_CANDIDATES`` candidates is screened first by one product
        ``D = F @ x``.  While fewer than ``SCREEN_EVERY_ROW_PARTWAY`` exploits
        are part-way through their chains, ``F = db.start_matrix``, each
        exploit's first template row, and only an exploit waiting on its first
        template can be dropped; with that many or more,
        ``F = db.template_matrix`` and each candidate is screened at its
        cursor's row.  A pair is dropped, as
        not matched, when

            D[row] < (t - eps) * |x| * |row|,       eps = SCREEN_SLACK = 1e-9,

        and every other pair, a part-way exploit under the first screen
        included, takes the exact path.  The screen never drops a pair that
        matches.  The rows of either ``F`` are rows of ``db.template_matrix``
        and the bounds below hold in any summation order, so the choice
        between them sets only the cost of a step, never its events.
        Write u = 2**-53, n = 151, gamma_n = nu / (1 - nu) ~ 1.7e-14,
        P = ||x|| ||row|| with the exact norms, and N = |x| |row| with the
        computed ones.  The guard (the call's norm and every nonzero template
        norm in ``SCREEN_NORMS``, so NaN and inf fail it) keeps every product,
        sum and bound a normal number up to absolute errors far below u P, so
        the usual bounds hold:

        * both the exact ``ddot`` and ``D[row]`` are within gamma_n P of the
          true dot product, in any summation order, since the sum of
          ``|x_i row_i|`` is at most P (Cauchy-Schwarz); so
          D[row] >= ddot - 2 gamma_n P, and P <= (1 + 2 gamma_n) N;
        * the clamp to [-1, 1] is irrelevant: with t in (0, 1], the clamped
          quotient reaches t exactly when the unclamped one does, and then
          ddot >= t N (1 - 2u);
        * the bound, ``(t - eps) * |x|`` times ``|row|`` in three roundings,
          is at most (t - eps) N + 3.1u N, as |t - eps| <= 1.

        So for a match D[row] - bound >= N (eps - 5.1u - 2.1 gamma_n) > 0,
        and ``<`` fails.  Where a norm is zero the exact path gives 0.0, so
        the pair is not matched, and ``<`` fails as well: with a zero call
        (which also fails the guard) or an all-zero template row every
        product is zero, so ``D[row]`` and the bound are both zero.  Under
        the guard no NaN reaches the comparison, so keeping
        ``D[row] >= bound`` drops exactly the pairs above.  Outside the
        guard, or with fewer candidates, every pair takes the exact path.
        """
        if not 0.0 < threshold <= 1.0:
            raise MonitorError(f"cosine threshold must lie in (0, 1], got {threshold}")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (VECTOR_DIM,):
            raise MonitorError(f"expected feature vector of shape ({VECTOR_DIM},), got {x.shape}")
        db = self.db
        # Every exploit, as in naive mode: positions are 0..n-1 in id order.
        every = candidates is db.exploit_set
        if every:
            ids, places = db.exploit_ids, range(len(db))
        else:
            ids = sorted(set(candidates))
            try:
                places = [db.positions[eid] for eid in ids]
            except KeyError as exc:
                raise MonitorError(
                    f"candidate exploit id {exc.args[0]} is not in the state table"
                ) from None

        norm = math.sqrt(x.dot(x))
        cursors = self._cursors
        matrix, norms = db.template_matrix, db.template_norms
        low, high = SCREEN_NORMS
        pairs = zip(ids, places)
        if len(ids) >= SCREEN_MIN_CANDIDATES and self._screens and low <= norm <= high:
            scale = (threshold - SCREEN_SLACK) * norm
            partway = cursors != db.start_rows
            if np.count_nonzero(partway) < SCREEN_EVERY_ROW_PARTWAY:
                keep = db.start_matrix.dot(x) >= db.start_norms * scale
                keep |= partway
            else:
                keep = matrix.dot(x)[cursors] >= norms[cursors] * scale
            kept = (keep if every else keep[places]).nonzero()[0].tolist()
            pairs = [(ids[j], places[j]) for j in kept]

        dot = x.dot
        fingerprints = db.fingerprints
        advanced, alarm = EventKind.ADVANCED, EventKind.ALARM
        events = []
        append = events.append
        for eid, place in pairs:
            cwe_id = fingerprints[eid].cwe_id
            row = int(cursors[place])
            sim = _similarity(float(dot(matrix[row])), norm, norms.item(row))
            if sim >= threshold:
                if row == db.last_rows[place]:
                    cursors[place] = db.start_rows[place]
                    append(MonitorEvent(alarm, eid, cwe_id, trace_offset, sim))
                else:
                    cursors[place] = row + 1
                    append(MonitorEvent(advanced, eid, cwe_id, trace_offset, sim))
        return events
