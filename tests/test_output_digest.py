"""scripts/output_digest.py: the digest changes with every bit and every reordering."""

import dataclasses
import importlib.util

import numpy as np
import pytest

from chainwatch import mlp
from chainwatch.engine import AlarmRecord, DetectionResult, SessionSummary
from chainwatch.monitor import EventKind, MonitorEvent

from .conftest import ROOT


@pytest.fixture(scope="module")
def output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _events():
    return [
        MonitorEvent(EventKind.NO_MATCH, 0, "CWE-79", 4, 0.25),
        MonitorEvent(EventKind.ADVANCED, 1, "CWE-79", 4, 0.95),
        MonitorEvent(EventKind.ALARM, 2, "CWE-89", 4, 1.0),
    ]


def _result(events):
    alarms = [
        AlarmRecord("t", e.trace_offset, e.exploit_id, e.cwe_id, e.similarity)
        for e in events
        if e.kind is EventKind.ALARM
    ]
    summary = SessionSummary(trace_id="t", total_calls=5, monitor_steps=1, comparisons=len(events))
    return DetectionResult(alarms=alarms, summary=summary, events=events)


def test_accepts_slot_events(output_digest):
    events = _events()
    assert not hasattr(events[0], "__dict__")  # slot dataclass
    assert output_digest._record(events[2]) == (
        b"MonitorEvent(kind=ALARM,exploit_id=2,cwe_id='CWE-89',trace_offset=4,"
        b"similarity=0x1.0000000000000p+0)\n"
    )
    alarms, n_events, hexdigest = output_digest.digest([_result(events)])
    assert (alarms, n_events) == (1, 3)
    assert output_digest.digest([_result(_events())])[2] == hexdigest


def test_one_ulp_changes_digest(output_digest):
    base = output_digest.digest([_result(_events())])[2]
    events = _events()
    moved = np.nextafter(events[1].similarity, 1.0)
    events[1] = dataclasses.replace(events[1], similarity=float(moved))
    assert events[1].similarity != 0.95
    assert output_digest.digest([_result(events)])[2] != base


def test_swapping_two_events_changes_digest(output_digest):
    base = output_digest.digest([_result(_events())])[2]
    events = _events()
    events[0], events[1] = events[1], events[0]
    assert output_digest.digest([_result(events)])[2] != base


def test_one_ulp_in_a_loss_changes_train_digest(output_digest):
    model = mlp.init_model(0)

    def report(epoch_losses):
        return mlp.TrainReport(initial_loss=0.75, final_loss=0.25, epoch_losses=epoch_losses)

    base = output_digest.train_digest(model, report([0.5, 0.375]))
    assert output_digest.train_digest(model, report([0.5, 0.375])) == base
    moved = float(np.nextafter(0.375, 1.0))
    assert output_digest.train_digest(model, report([0.5, moved])) != base
    final_moved = dataclasses.replace(report([0.5, 0.375]), final_loss=float(np.nextafter(0.25, 0.0)))
    assert output_digest.train_digest(model, final_moved) != base
