"""scripts/output_digest.py: the digest changes with every bit and every reordering."""

import dataclasses
import importlib.util

import numpy as np
import pytest

from chainwatch import mlp
from chainwatch.engine import AlarmRecord, DetectionResult, SessionSummary

from .conftest import ROOT


@pytest.fixture(scope="module")
def output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _alarms():
    return [
        AlarmRecord("t", 2, 0, "CWE-79", 0.95),
        AlarmRecord("t", 4, 1, "CWE-79", 1.0),
        AlarmRecord("t", 4, 2, "CWE-89", 0.9375),
    ]


def _result(alarms):
    summary = SessionSummary(trace_id="t", total_calls=5, monitor_steps=2, alarms=len(alarms))
    return DetectionResult(alarms=alarms, summary=summary)


def test_record_names_every_field(output_digest):
    alarms = _alarms()
    assert output_digest._record(alarms[2]) == (
        b"AlarmRecord(trace_id='t',offset=4,exploit_id=2,cwe_id='CWE-89',"
        b"similarity=0x1.e000000000000p-1)\n"
    )
    n_alarms, hexdigest = output_digest.digest([_result(alarms)])
    assert n_alarms == 3
    assert output_digest.digest([_result(_alarms())])[1] == hexdigest


def test_one_ulp_changes_digest(output_digest):
    base = output_digest.digest([_result(_alarms())])[1]
    alarms = _alarms()
    moved = np.nextafter(alarms[1].similarity, 0.0)
    alarms[1] = dataclasses.replace(alarms[1], similarity=float(moved))
    assert alarms[1].similarity != 1.0
    assert output_digest.digest([_result(alarms)])[1] != base


def test_swapping_two_events_changes_digest(output_digest):
    """Two alarms at one offset, swapped."""
    base = output_digest.digest([_result(_alarms())])[1]
    alarms = _alarms()
    alarms[1], alarms[2] = alarms[2], alarms[1]
    assert output_digest.digest([_result(alarms)])[1] != base


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


def test_a_new_field_leaves_the_recorded_lines(output_digest):
    """A counter added to a record gets its own line; the recorded one keeps its hash."""
    base = output_digest.digest([_result(_alarms())])
    assert output_digest.new_fields_digest([_result(_alarms())]) is None

    wider = dataclasses.make_dataclass(
        "SessionSummary", [("recall", float, dataclasses.field(default=0.5))],
        bases=(SessionSummary,),
    )
    result = _result(_alarms())
    narrow = result.summary
    result.summary = wider(**dataclasses.asdict(narrow))
    assert output_digest._record(result.summary) == output_digest._record(narrow)
    assert output_digest.digest([result]) == base
    names, hexdigest = output_digest.new_fields_digest([result])
    assert names == ["SessionSummary.recall"]
    result.summary.recall = 0.25
    assert output_digest.new_fields_digest([result]) != (names, hexdigest)
    assert output_digest.digest([result]) == base
