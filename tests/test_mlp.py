"""Classifier unit tests.

The forward pass is checked against a straight-line Python re-implementation
(tests/oracles.py) plus output components frozen from an earlier run of that
oracle, so the production forward pass and the oracle cannot drift together
unnoticed.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainwatch import mlp
from chainwatch.mlp import (
    LAYER_SIZES,
    N_LABELS,
    PARAM_COUNT,
    MlpModel,
    ModelFormatError,
    TrainConfig,
    bce_loss,
    forward,
    init_model,
    load_model,
    logit_cuts,
    loss_and_grads,
    nominator,
    save_model,
    train,
)

from .oracles import (
    grad_check,
    reference_bce_loss,
    reference_logits,
    reference_loss_and_grads,
    reference_sigmoid,
    reference_train,
    straight_line_forward,
)


def test_architecture():
    assert LAYER_SIZES == (151, 150, 100, 79)
    assert N_LABELS == 79
    # 151*150+150 + 150*100+100 + 100*79+79
    assert PARAM_COUNT == 45879
    assert sum(arr.size for _, arr in init_model(0).tensors()) == 45879


def test_init_is_seeded_glorot():
    m = init_model(seed=5)
    assert m == init_model(seed=5)
    assert m != init_model(seed=6)
    limit1 = np.sqrt(6.0 / (151 + 150))
    assert np.abs(m.w1).max() <= limit1
    assert np.abs(m.w1).max() > 0.9 * limit1  # actually fills the range
    np.testing.assert_array_equal(m.b1, np.zeros(150))
    np.testing.assert_array_equal(m.b3, np.zeros(79))


def test_forward_matches_straight_line_oracle():
    m = init_model(seed=123)
    rng = np.random.Generator(np.random.PCG64(777))
    x = rng.standard_normal(151)
    expect = straight_line_forward(
        x.tolist(),
        m.w1.tolist(), m.b1.tolist(),
        m.w2.tolist(), m.b2.tolist(),
        m.w3.tolist(), m.b3.tolist(),
    )
    y = forward(m, x)
    np.testing.assert_allclose(y, expect, rtol=0, atol=1e-12)
    # frozen from the oracle, run out of process
    assert y[0] == pytest.approx(0.4279786604093221, abs=1e-12)
    assert y[1] == pytest.approx(0.42634832613436013, abs=1e-12)
    assert y[78] == pytest.approx(0.5226452680618023, abs=1e-12)
    assert float(y.sum()) == pytest.approx(41.093742731824655, abs=1e-9)


def test_forward_validates_shape():
    with pytest.raises(ValueError, match="shape"):
        forward(init_model(0), np.zeros(150))


@pytest.mark.parametrize("shape", [(), (2, 150), (1, 2, 151)])
def test_forward_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="shape"):
        forward(init_model(0), np.zeros(shape))


def test_predict_rejects_a_batch():
    with pytest.raises(ValueError, match="one call"):
        nominator(init_model(0), 0.5)(np.zeros((2, 151)))


def test_forward_2d_matches_1d():
    """2-D input gives, row by row, what 1-D input gives."""
    m = init_model(seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 151))
    batch = forward(m, x)
    for i in range(8):
        np.testing.assert_allclose(batch[i], forward(m, x[i]), rtol=0, atol=1e-12)


def test_zero_input_zero_bias_gives_half_probabilities():
    # all pre-activations are exactly 0 -> logistic(0) = 0.5 on every label
    y = forward(init_model(0), np.zeros(151))
    np.testing.assert_array_equal(y, np.full(79, 0.5))


class TestPredict:
    """The labels a nominator predicts for one call at a threshold."""

    def test_threshold_inclusive(self):
        # zero input gives exactly 0.5 everywhere, so 0.5 must select all
        assert nominator(init_model(0), 0.5)(np.zeros(151)) == frozenset(range(79))

    def test_threshold_monotone(self):
        m = init_model(seed=11)
        x = np.random.default_rng(2).standard_normal(151)
        sets = [nominator(m, th)(x) for th in (0.3, 0.5, 0.7)]
        assert sets[2] <= sets[1] <= sets[0]

    def test_threshold_range_enforced(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                nominator(init_model(0), bad)


def _random_model(seed: int, scale: float) -> MlpModel:
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) * scale / np.sqrt(shape[-1]) for _, shape in mlp._SHAPES]
    return MlpModel(*arrays)


@pytest.mark.parametrize("shape", [(151,), (1, 151), (17, 151)])
def test_forward_bit_equal_to_out_of_place_expression(shape):
    m = _random_model(5, 3.0)
    x = np.random.default_rng(6).standard_normal(shape)
    assert forward(m, x).tobytes() == mlp._sigmoid_stable(reference_logits(m, x)).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.1, 1.0, 4.0, 30.0]),
    row=st.lists(
        st.sampled_from([0.0, 1.0, 2.0, -1.0]) | st.floats(-1e3, 1e3),
        min_size=LAYER_SIZES[0], max_size=LAYER_SIZES[0],
    ),
)
def test_one_row_logits_bit_equal_to_the_matmul_chain(seed, scale, row):
    """One row takes ``w.dot(x)``, and gives the bits of the ``x @ w.T`` chain;
    rows mix encoder-like counts and one-hots with arbitrary floats."""
    m = _random_model(seed, scale)
    x = np.array(row)
    assert mlp.logits(m, x).tobytes() == reference_logits(m, x).tobytes()


class _CountingDot(np.ndarray):
    """A weight array that counts calls of its ``dot`` method."""

    dots = 0

    def dot(self, *args, **kwargs):
        _CountingDot.dots += 1
        return np.asarray(self).dot(*args, **kwargs)


@pytest.mark.parametrize("shape, dots", [((151,), 3), ((1, 151), 0), ((5, 151), 0)])
def test_one_row_takes_gemv_and_a_batch_the_matmul(shape, dots, monkeypatch):
    m = _random_model(7, 1.0)
    x = np.random.default_rng(8).standard_normal(shape)
    want = reference_logits(m, x)
    monkeypatch.setattr(_CountingDot, "dots", 0)
    for name in ("w1", "w2", "w3"):
        setattr(m, name, getattr(m, name).view(_CountingDot))
    assert np.asarray(mlp.logits(m, x)).tobytes() == want.tobytes()
    assert _CountingDot.dots == dots


@pytest.mark.parametrize("shape, message", [
    ((150,), "expected input shape (151,) or (n, 151), got (150,)"),
    ((2, 151), "nominate takes one call of shape (151,), got (2, 151)"),
    ((1, 151), "nominate takes one call of shape (151,), got (1, 151)"),
    ((), "expected input shape (151,) or (n, 151), got ()"),
])
def test_nominate_shape_errors(shape, message):
    with pytest.raises(ValueError) as ei:
        nominator(init_model(0), 0.5)(np.zeros(shape))
    assert str(ei.value) == message


SIGMOID_EDGES = [
    v for m in (0.0, 5e-324, 1e-300, 745.0, 746.0, 1e308, math.inf) for v in (m, -m)
]


def _assert_sigmoid_bit_equal(z):
    got, want = mlp._sigmoid_stable(z), reference_sigmoid(z)
    nan = np.isnan(z)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_sigmoid_bit_equal_to_masked_form_on_edges():
    z = np.array(SIGMOID_EDGES + [math.nan])
    _assert_sigmoid_bit_equal(z)
    _assert_sigmoid_bit_equal(np.tile(z, (3, 1)))


@given(st.lists(st.floats() | st.sampled_from(SIGMOID_EDGES), min_size=1, max_size=64))
def test_sigmoid_bit_equal_to_masked_form(values):
    _assert_sigmoid_bit_equal(np.array(values, dtype=np.float64))


def test_sigmoid_extreme_inputs_do_not_overflow():
    # zero input: hidden unit 0 carries b1[0] = 1000 through to output logits
    # +1000 (label 0) and -1000 (label 1); label 2 gets a bias of -1000
    w1 = np.zeros((150, 151))
    b1 = np.zeros(150)
    b1[0] = 1000.0
    w2 = np.zeros((100, 150))
    w2[0, 0] = 1.0
    b2 = np.zeros(100)
    w3 = np.zeros((79, 100))
    w3[0, 0] = 1.0
    w3[1, 0] = -1.0
    b3 = np.zeros(79)
    b3[2] = -1000.0
    y = forward(MlpModel(w1, b1, w2, b2, w3, b3), np.zeros(151))
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(1.0)
    assert y[1] == pytest.approx(0.0)
    assert y[2] == pytest.approx(0.0)


# The thresholds the nomination cut is tested at: inside its proven range
# (first three) and outside it, where every call must take the full path.
CUT_THRESHOLDS = (1e-12, 0.5, 1.0 - 1e-12)
FULL_PATH_THRESHOLDS = (float(np.nextafter(1.0, 0.0)), 5e-324)


def _thresholded_forward(m, x, threshold) -> frozenset[int]:
    probs = forward(m, x)
    return frozenset(i for i in range(N_LABELS) if probs[i] >= threshold)


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.1, 1.0, 4.0, 30.0]),
    threshold=st.one_of(
        st.sampled_from(CUT_THRESHOLDS + FULL_PATH_THRESHOLDS),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)
def test_nomination_equals_thresholded_forward(seed, scale, threshold):
    m = _random_model(seed, scale)
    x = np.random.default_rng(seed + 1).standard_normal(151) * scale
    assert nominator(m, threshold)(x) == _thresholded_forward(m, x, threshold)


def _logits_model(b3: np.ndarray) -> MlpModel:
    """A model whose logits are exactly ``b3`` on every input (W3 is zero)."""
    m = init_model(0)
    m.w3 = np.zeros_like(m.w3)
    m.b3 = np.asarray(b3, dtype=np.float64)
    return m


@given(
    threshold=st.sampled_from(CUT_THRESHOLDS + FULL_PATH_THRESHOLDS),
    ulps=st.lists(st.integers(-6, 6), min_size=N_LABELS, max_size=N_LABELS),
)
def test_nomination_exact_at_the_cut(threshold, ulps):
    """Logits within a few ulps of logit(t) - 1, on both sides of it."""
    anchor = math.log(threshold / (1.0 - threshold)) - 1.0
    b3 = np.array([anchor + k * math.ulp(anchor) for k in ulps])
    m = _logits_model(b3)
    x = np.zeros(151)
    np.testing.assert_array_equal(mlp.logits(m, x), b3)
    assert nominator(m, threshold)(x) == _thresholded_forward(m, x, threshold)


@given(
    threshold=st.sampled_from(CUT_THRESHOLDS + FULL_PATH_THRESHOLDS),
    near_upper=st.lists(st.integers(-6, 6), max_size=3),
    near_lower=st.lists(st.integers(-6, 6), max_size=N_LABELS - 3),
)
def test_nomination_exact_at_the_upper_cut(threshold, near_upper, near_lower):
    """A few logits within a few ulps of logit(t) + 1, the rest near logit(t) - 1.

    With at most three labels near the upper cut, all of them at or above it
    (the path without a logistic) is a common draw, and so is one below it.
    """
    logit = math.log(threshold / (1.0 - threshold))
    upper, lower = logit + 1.0, logit - 1.0
    b3 = np.full(N_LABELS, lower - 8 * math.ulp(lower))
    b3[: len(near_upper)] = [upper + k * math.ulp(upper) for k in near_upper]
    b3[N_LABELS - len(near_lower) :] = [lower + k * math.ulp(lower) for k in near_lower]
    m = _logits_model(b3)
    x = np.zeros(151)
    np.testing.assert_array_equal(mlp.logits(m, x), b3)
    assert nominator(m, threshold)(x) == _thresholded_forward(m, x, threshold)


def test_cut_range():
    for t in CUT_THRESHOLDS:
        assert logit_cuts(t) == (math.log(t / (1.0 - t)) - 1.0, math.log(t / (1.0 - t)) + 1.0)
    for t in FULL_PATH_THRESHOLDS:
        assert logit_cuts(t) == (-math.inf, math.inf)


@pytest.mark.parametrize("threshold", CUT_THRESHOLDS + FULL_PATH_THRESHOLDS)
def test_logistic_skipped_only_below_a_proven_cut(threshold, monkeypatch):
    calls = []
    sigmoid = mlp._sigmoid_stable
    monkeypatch.setattr(mlp, "_sigmoid_stable", lambda z: calls.append(z) or sigmoid(z))
    anchor = math.log(threshold / (1.0 - threshold)) - 1.0
    below = np.full(N_LABELS, anchor - 2 * math.ulp(anchor))
    x = np.zeros(151)
    nominate = nominator(_logits_model(below), threshold)
    got = nominate(x)
    assert len(calls) == (1 if threshold in FULL_PATH_THRESHOLDS else 0)
    assert got == _thresholded_forward(_logits_model(below), x, threshold)


@pytest.mark.parametrize("threshold", CUT_THRESHOLDS + FULL_PATH_THRESHOLDS)
def test_logistic_skipped_only_outside_the_band(threshold, monkeypatch):
    """Labels at or above logit(t) + 1, the rest below logit(t) - 1: no logistic.
    One label an ulp below logit(t) + 1 sits in the band and takes the full path."""
    calls = []
    sigmoid = mlp._sigmoid_stable
    monkeypatch.setattr(mlp, "_sigmoid_stable", lambda z: calls.append(z) or sigmoid(z))
    logit = math.log(threshold / (1.0 - threshold))
    upper, lower = logit + 1.0, logit - 1.0
    x = np.zeros(151)
    full_path = threshold in FULL_PATH_THRESHOLDS
    for in_band, expect_calls in ((False, 1 if full_path else 0), (True, 1)):
        b3 = np.full(N_LABELS, lower - 2 * math.ulp(lower))
        b3[[4, 9, 30]] = [upper, upper + math.ulp(upper), upper + 1.0]
        if in_band:
            b3[9] = upper - math.ulp(upper)
        calls.clear()
        got = nominator(_logits_model(b3), threshold)(x)
        assert len(calls) == expect_calls
        assert got == _thresholded_forward(_logits_model(b3), x, threshold)
        if not full_path:
            assert {4, 30} <= got


def test_bce_loss_analytic_values():
    # all-0.5 predictions: loss is ln 2 regardless of targets
    y = np.full((1, 79), 0.5)
    assert bce_loss(y, np.zeros((1, 79))) == pytest.approx(np.log(2.0), rel=1e-12)
    assert bce_loss(y, np.ones((1, 79))) == pytest.approx(np.log(2.0), rel=1e-12)
    # perfect prediction: loss equals the clamp floor's contribution
    assert bce_loss(np.ones((1, 4)), np.ones((1, 4))) == pytest.approx(1e-7, rel=1e-3)
    # a known two-cell case: -(ln 0.9 + ln 0.8)/2
    y2 = np.array([[0.9, 0.2]])
    t2 = np.array([[1.0, 0.0]])
    expect = -(np.log(0.9) + np.log(0.8)) / 2.0
    assert bce_loss(y2, t2) == pytest.approx(expect, rel=1e-12)


def test_bce_clamp_keeps_loss_finite():
    assert np.isfinite(bce_loss(np.zeros((1, 79)), np.ones((1, 79))))
    assert np.isfinite(bce_loss(np.ones((1, 79)), np.zeros((1, 79))))


def test_gradient_check_passes():
    m = init_model(seed=9)
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 151))
    t = (rng.random((4, 79)) < 0.3).astype(float)
    assert grad_check(m, x, t, seed=0) < 1e-5


def test_gradient_check_catches_corruption():
    """A sign flip in one gradient tensor must blow past the pass bar."""
    m = init_model(seed=9)
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 151))
    t = (rng.random((4, 79)) < 0.3).astype(float)

    def corrupted(model):
        grads = loss_and_grads(model, x, t)[1]
        grads["w2"] = -grads["w2"]
        return grads

    assert grad_check(m, x, t, seed=0, grad_fn=corrupted) > 1e-1


def test_loss_and_grads_loss_matches_bce():
    m = init_model(seed=4)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 151))
    t = (rng.random((6, 79)) < 0.5).astype(float)
    loss, _ = loss_and_grads(m, x, t)
    assert loss.hex() == bce_loss(forward(m, x), t).hex()


@pytest.mark.parametrize("rows", [1, 17, 32])
def test_loss_and_grads_bit_equal_to_out_of_place_reference(rows):
    """Loss and every gradient equal the reference's to the bit, also on rows
    that put pre-activations at exactly zero (zero inputs, zero biases)."""
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 151))
    x[::3] = 0.0
    t = (rng.random((rows, 79)) < 0.3).astype(float)
    for m in (init_model(seed=rows), _random_model(rows, 3.0)):
        loss, grads = loss_and_grads(m, x, t)
        want_loss, want = reference_loss_and_grads(m, x, t)
        assert loss.hex() == want_loss.hex()
        assert list(grads) == list(want)
        for name in grads:
            assert grads[name].tobytes() == want[name].tobytes(), name


def test_overfits_single_example():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 151))
    t = np.zeros((1, 79))
    t[0, [3, 40]] = 1.0
    model, report = train(x, t, TrainConfig(learning_rate=1.0, epochs=200, batch_size=1, seed=0))
    assert report.final_loss < 0.01
    assert report.final_loss < report.initial_loss
    assert nominator(model, 0.5)(x[0]) == frozenset({3, 40})


def test_train_deterministic_bit_identical():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((40, 151))
    t = (rng.random((40, 79)) < 0.1).astype(float)
    cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=16, seed=21)
    m1, r1 = train(x, t, cfg)
    m2, r2 = train(x, t, cfg)
    assert m1 == m2  # array_equal on every tensor
    assert r1.epoch_losses == r2.epoch_losses


def _sparse_rows(n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, 151)) < 0.2) * rng.standard_normal((n, 151))
    t = (rng.random((n, 79)) < 0.05).astype(float)
    return x, t


def _repeat_to(n: int, x, t, seed: int):
    """``n`` rows drawn from the rows of ``x`` and ``t``, each at least once."""
    pick = np.random.default_rng(seed).integers(0, len(x), n)
    pick[: len(x)] = np.arange(len(x))
    return x[pick], t[pick]


def _repeated_rows(n: int, pairs: int, seed: int):
    """``n`` rows that repeat ``pairs`` distinct sparse rows."""
    return _repeat_to(n, *_sparse_rows(pairs, seed), seed)


def _signed_zero_twins(n: int, seed: int):
    """20 distinct pairs: 10 sparse rows, and each again with its zeros as -0.0."""
    x, t = _sparse_rows(10, seed)
    x_neg = np.where(x == 0.0, -0.0, x)
    return _repeat_to(n, np.concatenate([x, x_neg]), np.concatenate([t, t]), seed)


def _target_twins(n: int, seed: int):
    """20 distinct pairs: 10 sparse rows, each with two different target rows."""
    x, t = _sparse_rows(10, seed)
    return _repeat_to(n, np.concatenate([x, x]), np.concatenate([t, 1.0 - t]), seed)


# Each case is (rows, distinct pairs, maker); the first ten are all-distinct.
TRAIN_LOSS_CASES = [
    *(pytest.param(n, n, partial(_sparse_rows, n, n), id=str(n))
      for n in (1, 150, 511, 512, 513, 1023, 1024, 1160, 1672, 5000)),
    *(pytest.param(n, pairs, partial(_repeated_rows, n, pairs, pairs), id=f"{n}-rows-{pairs}-pairs")
      for n, pairs in ((600, 5), (2000, 150), (2000, 151), (5000, 343), (3000, 1100), (300, 40))),
    pytest.param(1000, 20, partial(_signed_zero_twins, 1000, 5), id="signed-zero-twins"),
    pytest.param(1000, 20, partial(_target_twins, 1000, 6), id="target-twins"),
]


@pytest.mark.parametrize("n, pairs, make", TRAIN_LOSS_CASES)
def test_train_report_losses_equal_full_set_loss(n, pairs, make):
    """The report losses, over chunks of all rows or of one row per distinct
    pair, equal the loss over one full-set forward, bit for bit."""
    x, t = make()
    assert x.shape[0] == n
    cfg = TrainConfig(learning_rate=0.5, epochs=1, batch_size=32, seed=3)
    model, report = train(x, t, cfg)
    assert report.distinct_rows == (pairs if pairs <= 2048 else None)
    initial = bce_loss(forward(init_model(cfg.seed), x), t)
    assert report.initial_loss.hex() == initial.hex()
    assert report.final_loss.hex() == bce_loss(forward(model, x), t).hex()


def test_full_set_loss_forwards_one_row_per_pair(monkeypatch):
    """With 5 pairs over 600 rows, each full-set loss forwards 512 rows, the
    pairs repeated to the chunk floor; with 600 distinct rows it forwards all."""
    rows = []
    real = mlp.forward
    monkeypatch.setattr(mlp, "forward", lambda m, x: rows.append(x.shape[0]) or real(m, x))
    cfg = TrainConfig(learning_rate=0.5, epochs=1, batch_size=32, seed=3)
    train(*_repeated_rows(600, 5, 5), cfg)
    assert rows == [512, 512]
    rows.clear()
    train(*_sparse_rows(600, 7), cfg)
    assert rows == [600, 600]


@pytest.mark.parametrize("soft", [False, True], ids=["binary-targets", "soft-targets"])
def test_train_bit_equal_to_reference_loop(soft):
    """Weights and every reported loss equal the plain loop's, which forwards
    every row for the full-set losses and uses the two-log loss formula."""
    x, t = _repeated_rows(600, 40, 11)
    if soft:
        t = np.where(t == 1.0, 0.7, 0.3)
    cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=32, seed=4)
    model, report = train(x, t, cfg)
    want_model, initial, epochs, final = reference_train(x, t, cfg)
    for name, arr in model.tensors():
        assert arr.tobytes() == getattr(want_model, name).tobytes(), name
    assert [v.hex() for v in (report.initial_loss, *report.epoch_losses, report.final_loss)] == [
        v.hex() for v in (initial, *epochs, final)
    ]
    assert report.distinct_rows == 40


@pytest.mark.parametrize("targets", ["binary", "soft"])
def test_bce_loss_bit_equal_to_two_log_formula(targets):
    """0/1 targets take one log per element, any other the two-log formula;
    both give the two-log formula's bits, also at and past the clamp."""
    rng = np.random.default_rng(13)
    y = rng.random((40, N_LABELS))
    y[0, :8] = [0.0, 1.0, 1e-7, 1.0 - 1e-7, 5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0)]
    t = (rng.random((40, N_LABELS)) < 0.3).astype(float)
    if targets == "soft":
        t[3, 5] = 0.3
    assert bce_loss(y, t).hex() == reference_bce_loss(y, t).hex()


def test_train_peak_heap_is_the_loss_terms_plus_a_bound():
    """Only the (n, 79) loss terms grow with n; everything else fits in 8 MB."""
    n = 20_000
    x, t = _sparse_rows(n, 9)
    tracemalloc.start()
    try:
        train(x, t, TrainConfig(learning_rate=0.5, epochs=1, batch_size=32, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * N_LABELS * 8 + 8 * 2**20


def test_train_seed_changes_result():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((40, 151))
    t = (rng.random((40, 79)) < 0.1).astype(float)
    m1, _ = train(x, t, TrainConfig(epochs=1, seed=0))
    m2, _ = train(x, t, TrainConfig(epochs=1, seed=1))
    assert m1 != m2


def test_train_input_validation():
    with pytest.raises(ValueError):
        train(np.zeros((0, 151)), np.zeros((0, 79)), TrainConfig())
    with pytest.raises(ValueError):
        train(np.zeros((4, 150)), np.zeros((4, 79)), TrainConfig())
    with pytest.raises(ValueError):
        train(np.zeros((4, 151)), np.zeros((4, 78)), TrainConfig())
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("rate", (math.nan, math.inf))
def test_train_config_refuses_a_non_finite_learning_rate(rate):
    """Either would train a model whose weights no loader accepts."""
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("seed", (-1, 2**64))
def test_seed_outside_the_model_files_u64_field_refused(seed):
    """save_model masked such a seed to u64, so the file held another one."""
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64 - 1\]"):
        TrainConfig(seed=seed)
    good = init_model(0)
    with pytest.raises(ValueError, match="seed must lie in"):
        MlpModel(*(arr for _, arr in good.tensors()), seed=seed)


def _small_set():
    rng = np.random.default_rng(77)
    return rng.standard_normal((40, 151)), (rng.random((40, 79)) < 0.1).astype(float)


def test_diverged_training_raises_naming_the_learning_rate():
    with pytest.raises(ValueError, match=r"^training diverged at learning rate 1e\+300: "):
        train(*_small_set(), TrainConfig(learning_rate=1e300, epochs=2))


def test_a_non_finite_parameter_fails_training_whose_loss_is_finite(monkeypatch):
    """b1 at -inf is clipped away by the relu, so the loss alone stays finite."""
    real = mlp.loss_and_grads

    def pushed(model, x, t):
        loss, grads = real(model, x, t)
        grads["b1"][:] = np.inf
        return loss, grads

    monkeypatch.setattr(mlp, "loss_and_grads", pushed)
    with pytest.raises(ValueError, match="training diverged at learning rate 0.05"):
        train(*_small_set(), TrainConfig(epochs=1))


class TestModelFile:
    def test_largest_seed_round_trips(self, tmp_path):
        m = init_model(seed=mlp.MAX_SEED)
        p = tmp_path / "m.cwmlp"
        save_model(m, p)
        assert load_model(p).seed == 2**64 - 1
        assert load_model(p) == m

    def test_round_trip(self, tmp_path):
        m = init_model(seed=99)
        p = tmp_path / "m.cwmlp"
        save_model(m, p)
        loaded = load_model(p)
        assert loaded == m
        assert loaded.seed == 99

    def test_header_layout(self, tmp_path):
        p = tmp_path / "m.cwmlp"
        save_model(init_model(seed=7), p)
        raw = p.read_bytes()
        assert raw[:6] == b"CWMLP\x00"
        assert raw[6:8] == (1).to_bytes(2, "little")  # version
        sizes = [int.from_bytes(raw[8 + 4 * i : 12 + 4 * i], "little") for i in range(4)]
        assert sizes == [151, 150, 100, 79]
        assert raw[24] == 1 and raw[25] == 2  # relu, logistic
        assert int.from_bytes(raw[26:34], "little") == 7
        assert len(raw) == 34 + 45879 * 8

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "m.cwmlp"
        save_model(init_model(0), p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.cwmlp"
        save_model(init_model(0), p)
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(p)

    def test_architecture_mismatch(self, tmp_path):
        p = tmp_path / "m.cwmlp"
        save_model(init_model(0), p)
        raw = bytearray(p.read_bytes())
        raw[8:12] = (152).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="layer sizes"):
            load_model(p)

    def test_nan_payload_rejected(self, tmp_path):
        import struct

        p = tmp_path / "m.cwmlp"
        save_model(init_model(0), p)
        raw = bytearray(p.read_bytes())
        raw[34:42] = struct.pack("<d", float("nan"))
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(p)


def test_model_validates_shapes_and_values():
    good = init_model(0)
    with pytest.raises(ValueError, match="shape"):
        MlpModel(np.zeros((2, 2)), good.b1, good.w2, good.b2, good.w3, good.b3)
    bad_w1 = good.w1.copy()
    bad_w1[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        MlpModel(bad_w1, good.b1, good.w2, good.b2, good.w3, good.b3)
