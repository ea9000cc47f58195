import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainwatch.metrics import (
    Confusion,
    accuracy,
    confusion_tables,
    f1,
    macro_average,
    pooled,
    precision,
    recall,
    summarize,
    supported_labels,
)

from .oracles import reference_confusion, scalar_metrics


def _counts(tables):
    return [(c.tp, c.fp, c.tn, c.fn) for c in tables]


def test_counting():
    # One label, five decisions: (predicted, actual) = TT, TF, FT, FF, TT.
    (c,) = confusion_tables([[True], [True], [False], [False], [True]],
                            [[True], [False], [True], [False], [True]])
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)
    assert c.total == 5


@given(
    tp=st.integers(0, 50),
    fp=st.integers(0, 50),
    tn=st.integers(0, 50),
    fn=st.integers(0, 50),
)
def test_formulas_match_oracle(tp, fp, tn, fn):
    c = Confusion(tp=tp, fp=fp, tn=tn, fn=fn)
    expect = scalar_metrics(tp, fp, tn, fn)
    assert accuracy(c) == pytest.approx(expect["accuracy"])
    assert precision(c) == pytest.approx(expect["precision"])
    assert recall(c) == pytest.approx(expect["recall"])
    assert f1(c) == pytest.approx(expect["f1"])
    assert summarize(c) == pytest.approx(expect)


def test_known_values():
    # tp=8 fp=2 fn=4 tn=6: p=0.8, r=2/3, f1=2*0.8*(2/3)/(0.8+2/3)
    c = Confusion(tp=8, fp=2, fn=4, tn=6)
    assert accuracy(c) == pytest.approx(0.7)
    assert precision(c) == pytest.approx(0.8)
    assert recall(c) == pytest.approx(2 / 3)
    assert f1(c) == pytest.approx(8 / 11)


def test_zero_denominator_conventions():
    empty = Confusion()
    assert accuracy(empty) == 0.0
    assert precision(empty) == 0.0
    assert recall(empty) == 0.0
    assert f1(empty) == 0.0
    # no positive predictions: precision 0, recall defined
    c = Confusion(fn=3, tn=7)
    assert precision(c) == 0.0
    assert recall(c) == 0.0
    assert f1(c) == 0.0


def test_accumulate():
    tables = confusion_tables([[1, 1, 0, 0], [0, 1, 0, 1]], [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert (tables[0].tp, tables[0].tn) == (1, 1)
    assert (tables[1].fp, tables[1].tp) == (1, 1)
    assert (tables[2].fn, tables[2].tn) == (1, 1)
    assert (tables[3].tn, tables[3].tp) == (1, 1)


def test_accumulate_accepts_bool_arrays():
    tables = confusion_tables(np.array([[True, False, True]]), np.array([[True, True, False]]))
    assert tables[0].tp == 1 and tables[1].fn == 1 and tables[2].fp == 1


def test_accumulate_shape_check():
    with pytest.raises(ValueError):
        confusion_tables([[1, 0]], [[1, 0, 0]])
    with pytest.raises(ValueError):
        confusion_tables([1, 0, 0], [1, 0, 0])  # one decision must be a (1, labels) row


def test_accumulate_order_independent():
    rng = np.random.default_rng(5)
    pred = rng.integers(0, 2, size=(30, 6))
    act = rng.integers(0, 2, size=(30, 6))
    order = rng.permutation(30)
    a = confusion_tables(pred, act)
    b = confusion_tables(pred[order], act[order])
    assert _counts(a) == _counts(b)


@given(st.integers(0, 40), st.integers(0, 9), st.data())
def test_confusion_tables_match_per_element_recount(rows, labels, data):
    cells = st.lists(
        st.lists(st.booleans(), min_size=labels, max_size=labels), min_size=rows, max_size=rows
    )
    pred, act = data.draw(cells), data.draw(cells)
    tables = confusion_tables(
        np.array(pred, dtype=bool).reshape(rows, labels),
        np.array(act, dtype=bool).reshape(rows, labels),
    )
    assert _counts(tables) == reference_confusion(pred, act, labels)
    assert all(type(v) is int for c in tables for v in (c.tp, c.fp, c.tn, c.fn))


def test_merge():
    a = Confusion(tp=1, fp=2, tn=3, fn=4)
    b = Confusion(tp=10, fp=20, tn=30, fn=40)
    m = a.merge(b)
    assert (m.tp, m.fp, m.tn, m.fn) == (11, 22, 33, 44)
    assert (a.tp, b.tp) == (1, 10)  # merge does not mutate


def test_supported_labels():
    tables = [Confusion(tn=100), Confusion(tp=1), Confusion(fn=1), Confusion(), Confusion(fp=1)]
    # label 0 has negatives only: not supported
    assert supported_labels(tables) == [1, 2, 4]


def test_macro_average_is_unweighted_mean():
    tables = [
        Confusion(tp=10),            # p=r=f1=1
        Confusion(tp=1, fp=1, fn=1), # p=r=f1=0.5
    ]
    macro = macro_average(tables)
    assert macro["precision"] == pytest.approx(0.75)
    assert macro["recall"] == pytest.approx(0.75)
    assert macro["f1"] == pytest.approx(0.75)


def test_macro_average_subset():
    tables = [Confusion(tp=5), Confusion(), Confusion(fn=5), Confusion()]  # perfect, -, all missed, -
    assert macro_average(tables, labels=[0])["f1"] == 1.0
    assert macro_average(tables, labels=[0, 2])["f1"] == 0.5
    # averaging over all 4 dilutes by the two untouched labels
    assert macro_average(tables)["f1"] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        macro_average(tables, labels=[])


def test_pooled_matches_manual_sum():
    tables = [
        Confusion(tp=1, fp=0, tn=2, fn=1),
        Confusion(tp=2, fp=3, tn=0, fn=0),
        Confusion(tp=9, fp=9, tn=9, fn=9),
    ]
    c = pooled(tables, [0, 1])
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 3, 2, 1)
    expect = scalar_metrics(3, 3, 2, 1)
    assert summarize(c) == pytest.approx(expect)
