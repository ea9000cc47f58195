import numpy as np
import pytest

from chainwatch.mlp import MlpModel, forward
from chainwatch.monitor import cosine


def test_cosine_basics():
    a = np.array([1.0, 0.0, 0.0])
    assert cosine(a, a) == 1.0
    assert cosine(a, -a) == -1.0
    assert cosine(a, np.array([0.0, 1.0, 0.0])) == 0.0


def test_cosine_zero_norm_is_zero():
    z = np.zeros(5)
    a = np.ones(5)
    assert cosine(z, a) == 0.0
    assert cosine(a, z) == 0.0
    assert cosine(z, z) == 0.0


def test_cosine_clamped():
    # parallel vectors can exceed 1.0 by rounding; must be clamped
    a = np.full(151, 0.1)
    assert -1.0 <= cosine(a, a * 3.0) <= 1.0


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
