"""Streaming detection pipeline.

Per instruction call, in order: white-list check (skip everything else when it
hits), feature encoding, candidate nomination, then a monitor step only when
the candidate set is non-empty.  Naive mode runs the identical pipeline with
every exploit as a candidate on every call and no classifier involvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import mlp
from .encoder import FeatureEncoder
from .fingerprints import FingerprintDb, WhiteList
from .monitor import DEFAULT_COSINE_THRESHOLD, EventKind, MonitorEvent, StateTable
from .trace import InstructionCall, Trace

DEFAULT_CLASSIFY_THRESHOLD = 0.5

CandidateFn = Callable[[np.ndarray], frozenset[int]]


@dataclass
class EngineConfig:
    threshold_classify: float = DEFAULT_CLASSIFY_THRESHOLD
    threshold_cosine: float = DEFAULT_COSINE_THRESHOLD
    halt_on_alarm: bool = False

    def __post_init__(self):
        if not 0.0 < self.threshold_classify < 1.0:
            raise ValueError("threshold_classify must lie in (0, 1)")
        if not 0.0 < self.threshold_cosine <= 1.0:
            raise ValueError("threshold_cosine must lie in (0, 1]")


@dataclass(frozen=True)
class AlarmRecord:
    """One completed exploit chain, as reported to the operator."""

    trace_id: str
    offset: int
    exploit_id: int
    cwe_id: str
    similarity: float

    def to_json_obj(self) -> dict:
        return {
            "trace": self.trace_id,
            "offset": self.offset,
            "exploit_id": self.exploit_id,
            "cwe_id": self.cwe_id,
            "similarity": self.similarity,
        }


@dataclass
class SessionSummary:
    trace_id: str
    total_calls: int = 0
    whitelisted_calls: int = 0
    encoded_calls: int = 0
    classifier_invocations: int = 0
    monitor_steps: int = 0
    comparisons: int = 0
    advanced_events: int = 0
    no_match_events: int = 0
    alarms: int = 0
    halted: bool = False

    def to_json_obj(self) -> dict:
        return dict(self.__dict__)


@dataclass
class DetectionResult:
    alarms: list[AlarmRecord]
    summary: SessionSummary
    # Always empty; perfbench/traced.py reads its length.  Goes with ROADMAP item 1.
    events: list[MonitorEvent] = field(default_factory=list)


def classifier_candidates(model: mlp.MlpModel, db: FingerprintDb, threshold: float) -> CandidateFn:
    """Candidate nomination: predicted labels intersected with stored exploits."""
    known = db.exploit_set
    predicted = mlp.nominator(model, threshold)

    def nominate(x: np.ndarray) -> frozenset[int]:
        return predicted(x) & known

    return nominate


def run_detection(
    trace: Trace | Iterable[InstructionCall],
    encoder: FeatureEncoder,
    whitelist: WhiteList,
    table: StateTable,
    candidate_fn: CandidateFn | None,
    config: EngineConfig,
) -> DetectionResult:
    """Run the pipeline over one trace against an existing state table.

    ``trace`` is iterated once, a call at a time, so a generator of calls is
    never held whole.
    ``candidate_fn`` returns a set; each member is one comparison, and each
    call to it is one classifier invocation.  ``None`` is naive mode: every
    exploit in the table's database is a candidate on every call, and the
    classifier is never invoked.
    """
    tid = trace.source_id if isinstance(trace, Trace) else "<calls>"

    alarms: list[AlarmRecord] = []
    alarm = EventKind.ALARM
    every = table.db.exploit_set
    encode = encoder.encode
    step = table.step
    threshold = config.threshold_cosine
    halt = config.halt_on_alarm
    # The counters live in locals and go into the summary once, after the loop.
    whitelisted = steps = comparisons = advanced = 0
    offset = -1
    for offset, call in enumerate(trace):
        if call.api_name in whitelist:
            whitelisted += 1
            continue
        x = encode(call)
        candidates = every if candidate_fn is None else candidate_fn(x)
        if not candidates:
            continue
        matched = step(candidates, x, offset, threshold=threshold)
        steps += 1
        comparisons += len(candidates)
        for event in matched:
            if event.kind is alarm:
                alarms.append(
                    AlarmRecord(
                        trace_id=tid,
                        offset=event.trace_offset,
                        exploit_id=event.exploit_id,
                        cwe_id=event.cwe_id,
                        similarity=event.similarity,
                    )
                )
            else:
                advanced += 1
        if halt and alarms:
            break

    # Every call not white-listed is encoded, and nominated unless naive.
    encoded = offset + 1 - whitelisted
    summary = SessionSummary(
        trace_id=tid,
        total_calls=offset + 1,
        whitelisted_calls=whitelisted,
        encoded_calls=encoded,
        classifier_invocations=0 if candidate_fn is None else encoded,
        monitor_steps=steps,
        comparisons=comparisons,
        advanced_events=advanced,
        no_match_events=comparisons - advanced - len(alarms),
        alarms=len(alarms),
        halted=bool(halt and alarms),
    )
    return DetectionResult(alarms=alarms, summary=summary)


def detect(
    trace: Trace | Iterable[InstructionCall],
    encoder: FeatureEncoder,
    whitelist: WhiteList,
    db: FingerprintDb,
    model: mlp.MlpModel,
    config: EngineConfig | None = None,
) -> DetectionResult:
    """Classifier-filtered detection over one trace, with a fresh state table."""
    config = config if config is not None else EngineConfig()
    nominate = classifier_candidates(model, db, config.threshold_classify)
    return run_detection(trace, encoder, whitelist, StateTable(db), nominate, config)


def detect_naive(
    trace: Trace | Iterable[InstructionCall],
    encoder: FeatureEncoder,
    whitelist: WhiteList,
    db: FingerprintDb,
    config: EngineConfig | None = None,
) -> DetectionResult:
    """Exhaustive detection: every stored exploit is a candidate on every call,
    with a fresh state table."""
    config = config if config is not None else EngineConfig()
    return run_detection(trace, encoder, whitelist, StateTable(db), None, config)
