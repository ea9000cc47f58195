"""Multi-label feedforward classifier over encoded instruction calls.

Fixed architecture 151 -> 150 -> 100 -> 79: two relu hidden layers, logistic
output, one independent probability per exploit label.  Trained with plain
minibatch gradient descent on mean binary cross-entropy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYER_SIZES = (151, 150, 100, 79)
N_LABELS = LAYER_SIZES[-1]
# The parameter tensors in file order, w1, b1, w2, b2, w3, b3; w_i is (fan_out, fan_in).
_SHAPES = tuple(
    (f"{kind}{i}", shape)
    for i, (fan_in, fan_out) in enumerate(zip(LAYER_SIZES, LAYER_SIZES[1:]), start=1)
    for kind, shape in (("w", (fan_out, fan_in)), ("b", (fan_out,)))
)
PARAM_COUNT = sum(math.prod(shape) for _, shape in _SHAPES)  # 45879

_MAGIC = b"CWMLP\x00"
_FORMAT_VERSION = 1
_ACT_RELU = 1
_ACT_LOGISTIC = 2
_LOSS_CLAMP = 1e-7
MAX_SEED = 2**64 - 1  # the model file's u64 seed field


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**64 - 1], got {seed}")


class ModelFormatError(ValueError):
    """Model file is truncated, has a bad header or layer sizes, or corrupt payload."""


@dataclass(eq=False)
class MlpModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        for name, shape in _SHAPES:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite parameter values")
            setattr(self, name, arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MlpModel):
            return NotImplemented
        return self.seed == other.seed and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in _SHAPES
        )

    def tensors(self):
        return [(name, getattr(self, name)) for name, _ in _SHAPES]


def init_model(seed: int = 0) -> MlpModel:
    """Seeded init: weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        params.append(np.zeros(fan_out))
    return MlpModel(*params, seed=seed)


def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    """Logistic that never overflows: ``1 / (1 + e)`` for ``z >= 0`` and
    ``e / (1 + e)`` below, with ``e = exp(-|z|)`` in both, so ``exp`` only sees
    arguments at or below zero.  Both branches are evaluated on every element
    and ``np.where`` picks one."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _layers(model: MlpModel, x: np.ndarray):
    """``(h1, h2, z)``: both relu layers' outputs and the logits.  Each layer
    adds its bias and clips in place on the product's fresh array, bit-equal
    to the out-of-place ``x @ w.T + b`` and ``np.maximum(., 0.0)``.

    One row (``x.ndim == 1``) takes ``w.dot(x)``: one gemv over ``w`` as
    stored, called straight from ``dot``, where ``@`` is a generalized ufunc
    and pays its dispatch on every call, a fixed cost that a single row
    feels.  A batch takes ``x @ w.T``, one gemm, which trains faster than
    ``x.dot(w.T)``.  On a single row the two forms give the same bits (the
    tests check it against the ``x @ w.T`` chain).
    """
    one_row = x.ndim == 1
    h1 = model.w1.dot(x) if one_row else x @ model.w1.T
    h1 += model.b1
    np.maximum(h1, 0.0, out=h1)
    h2 = model.w2.dot(h1) if one_row else h1 @ model.w2.T
    h2 += model.b2
    np.maximum(h2, 0.0, out=h2)
    z = model.w3.dot(h2) if one_row else h2 @ model.w3.T
    z += model.b3
    return h1, h2, z


def logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """relu(W1 x + b1) -> relu(W2 . + b2) -> W3 . + b3: the output logits.

    ``x`` is one encoded call of shape (151,), giving (79,) logits, or a batch
    of shape (n, 151), giving (n, 79).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != LAYER_SIZES[0]:
        raise ValueError(
            f"expected input shape ({LAYER_SIZES[0]},) or (n, {LAYER_SIZES[0]}), got {x.shape}"
        )
    return _layers(model, x)[2]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logistic of :func:`logits`: one probability per label, same shapes."""
    return _sigmoid_stable(logits(model, x))


# Thresholds for which logit_cuts' margins are proven; see its docstring.
_CUT_THRESHOLDS = (1e-12, 1.0 - 1e-12)
_NO_LABELS: frozenset[int] = frozenset()


def logit_cuts(threshold: float) -> tuple[float, float]:
    """``(cut, upper_cut)``: no computed probability of a logit below ``cut``
    reaches ``threshold``, and every one of a logit at or above ``upper_cut`` does.

    The cuts are ``logit(t) -/+ 1`` with ``logit(t) = log(t / (1 - t))``.  At
    them the exact logistic is off ``t`` by

        t - sigma(logit(t) - 1) = t (1 - t) (e - 1) / (e - (e - 1) t),
        sigma(logit(t) + 1) - t = t (1 - t) (e - 1) / (1 + (e - 1) t),

    a relative (1 - 1/e) (1 - t) > 0.63 (1 - t) of ``t`` below and of
    ``sigma`` itself above, so the computed probability would have to be off
    by that much to cross ``t``.  ``_sigmoid_stable`` is off by a few ulps
    (about 1e-15 relative), and each cut is computed to within about 1e-14,
    which moves the exact logistic at the cut by a relative 1e-14 at most.
    Both are far below 0.63 (1 - t) while ``t`` lies in ``[1e-12, 1 - 1e-12]``.
    The computed logistic never decreases as its argument grows, so being on
    the right side of ``t`` at a cut covers every logit beyond it; and in
    that range both cuts lie below 29 in magnitude, where ``exp`` of
    ``-|z|`` is a normal number.  Outside the range the margins are not
    proven (near 1 they shrink to an ulp; near 0 ``exp`` goes subnormal and
    loses its relative accuracy), so the cuts are ``(-inf, inf)`` and every
    call takes the full path.
    """
    low, high = _CUT_THRESHOLDS
    if not low <= threshold <= high:
        return -math.inf, math.inf
    z = math.log(threshold / (1.0 - threshold))
    return z - 1.0, z + 1.0


def nominator(model: MlpModel, threshold: float):
    """``x -> labels whose probability from :func:`forward` is at least threshold``.

    Nomination works on the logits and the two :func:`logit_cuts`.  When the
    largest logit is below the lower cut, no label can reach the threshold,
    so the call returns the empty set without computing a single logistic.
    When every label at or above that cut is also at or above the upper cut,
    those labels are the set, again without a logistic.  Otherwise, with a label
    in the band between the cuts, it applies the logistic and the
    (inclusive) threshold to every label.  The three paths give the same set
    on every input.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"classification threshold must lie in (0, 1), got {threshold}")
    cut, upper_cut = logit_cuts(threshold)
    one_call = (LAYER_SIZES[0],)

    def nominate(x: np.ndarray) -> frozenset[int]:
        if x.shape != one_call:
            logits(model, x)  # raises for any shape it does not take either
            raise ValueError(f"nominate takes one call of shape {one_call}, got {np.shape(x)}")
        z = _layers(model, x)[2]
        if z.max() < cut:
            return _NO_LABELS
        sure = np.flatnonzero(z >= upper_cut)
        if np.count_nonzero(z >= cut) == sure.size:
            return frozenset(sure.tolist())
        return frozenset(np.flatnonzero(_sigmoid_stable(z) >= threshold).tolist())

    return nominate


def _bce_terms(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The per-element terms whose negated mean is :func:`bce_loss`.

    The terms are ``t log(y) + (1 - t) log(1 - y)`` over the clamped ``y``.
    When every target is 0 or 1 they are computed as one ``log`` of ``y`` or
    ``1 - y``, bit-equal to the sum: the clamp keeps both logs finite and
    nonzero, so the dropped term is a signed zero and adding it changes
    nothing.
    """
    y = np.clip(y, _LOSS_CLAMP, 1.0 - _LOSS_CLAMP)
    ones = t == 1.0
    if np.count_nonzero(ones) + np.count_nonzero(t == 0.0) == t.size:
        return np.log(np.where(ones, y, 1.0 - y))
    return t * np.log(y) + (1.0 - t) * np.log(1.0 - y)


def bce_loss(y: np.ndarray, t: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped to [1e-7, 1-1e-7]."""
    terms = _bce_terms(np.asarray(y, dtype=np.float64), np.asarray(t, dtype=np.float64))
    return float(-np.mean(terms))


def loss_and_grads(model: MlpModel, x: np.ndarray, t: np.ndarray):
    """Batch loss plus analytic gradients for every parameter tensor.

    The gradient uses the usual logistic/cross-entropy cancellation, which is
    exact wherever the clamp in :func:`bce_loss` is inactive.  The relu masks
    are ``h > 0``, which equals ``z > 0`` for ``h = max(z, 0)``, applied in
    place on each layer's fresh gradient array.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    n = x.shape[0]
    h1, h2, z = _layers(model, x)
    y = _sigmoid_stable(z)
    loss = bce_loss(y, t)

    dz3 = y
    dz3 -= t
    dz3 /= n * N_LABELS
    dw3 = dz3.T @ h2
    db3 = dz3.sum(axis=0)
    dz2 = dz3 @ model.w3
    dz2 *= h2 > 0.0
    dw2 = dz2.T @ h1
    db2 = dz2.sum(axis=0)
    dz1 = dz2 @ model.w2
    dz1 *= h1 > 0.0
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)

    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}
    return loss, grads


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        _check_seed(self.seed)


@dataclass
class TrainReport:
    initial_loss: float
    final_loss: float
    epoch_losses: list[float] = field(default_factory=list)
    # Distinct (input, target) row pairs; None when there are more than 2,048.
    distinct_rows: int | None = None


_LOSS_CHUNK_ROWS = 512
# Numbering gives up past this many distinct pairs, which bounds its keys
# (1,840 bytes each) to under 5 MB whatever the number of rows.
_MAX_DISTINCT_PAIRS = 2048


def _distinct_pairs(x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(first, inverse)``: the first row of each distinct ``(x[r], t[r])`` pair,
    in order, and each row's pair number; None past ``_MAX_DISTINCT_PAIRS`` pairs.

    Pairs are keyed by the exact bytes of both rows, so ``-0.0`` and ``0.0``
    differ and no two different pairs share a number.  The rows are joined a
    block at a time, one key per row.
    """
    index: dict[bytes, int] = {}
    inverse: list[int] = []
    for start in range(0, x.shape[0], _LOSS_CHUNK_ROWS):
        stop = start + _LOSS_CHUNK_ROWS
        block = np.concatenate((x[start:stop], t[start:stop]), axis=1)
        inverse += [index.setdefault(row.tobytes(), len(index)) for row in block]
        if len(index) > _MAX_DISTINCT_PAIRS:
            return None
    numbers = np.array(inverse, dtype=np.intp)
    return np.unique(numbers, return_index=True)[1], numbers


def _fill_loss_terms(model: MlpModel, x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Write every row's loss terms into ``out``, forwarding one chunk of 512
    to 1,023 rows at a time, or all rows when fewer than 512 (see :func:`train`)."""
    n = x.shape[0]
    starts = [i * _LOSS_CHUNK_ROWS for i in range(max(1, n // _LOSS_CHUNK_ROWS))]
    for start, stop in zip(starts, starts[1:] + [n]):
        out[start:stop] = _bce_terms(forward(model, x[start:stop]), t[start:stop])


def _full_set_loss(model: MlpModel, x: np.ndarray, t: np.ndarray, pairs) -> float:
    """``bce_loss(forward(model, x), t)``, bit for bit, one row chunk at a time.

    Only the ``(n, 79)`` array of loss terms is full-size; the forward pass
    holds one chunk.  Given ``pairs`` from :func:`_distinct_pairs`, not None,
    and n >= 512, it forwards only the first row of each distinct pair,
    repeated up to 512 rows when fewer, by the same chunk rule, and then
    copies each pair's terms to every row that holds it, so the forward pass
    is done before the full-size array exists.  A row's terms depend only on
    its own input and target, and every chunk has at least 512 rows, so it
    gets each row's full-set bits (see :func:`train`): the terms array, and
    so its mean, is the same as without pairs.
    """
    if pairs is None or x.shape[0] < _LOSS_CHUNK_ROWS:
        terms = np.empty((x.shape[0], N_LABELS))
        _fill_loss_terms(model, x, t, terms)
    else:
        first, inverse = pairs
        rows = np.resize(first, max(first.size, _LOSS_CHUNK_ROWS))
        pair_terms = np.empty((rows.size, N_LABELS))
        _fill_loss_terms(model, x[rows], t[rows], pair_terms)
        terms = pair_terms[inverse]
    return float(-np.mean(terms))


def train(x: np.ndarray, t: np.ndarray, config: TrainConfig) -> tuple[MlpModel, TrainReport]:
    """Minibatch gradient descent from a seeded init.  Deterministic per seed.

    A run whose final loss or any parameter is not finite raises ``ValueError``.

    The report's ``initial_loss`` and ``final_loss`` equal ``bce_loss(forward(
    model, x), t)`` bit for bit, but the forward pass runs over row chunks, so
    the peak heap is the ``(n, 79)`` array of loss terms rather than every
    layer's activations over the whole set.  There are ``max(1, n // 512)``
    chunks, each starting at a multiple of 512; the last one takes the
    remainder, so a chunk holds 512 to 1,023 rows, or all rows when n < 512.
    The remainder is merged because chunk rows are bit-equal to full-set rows
    only for some row counts: on OpenBLAS 0.3.31 (Haswell kernels, two
    threads), a product over M rows gives rows bit-equal to the full-set rows
    for M in 16 to 32 and for M >= 151, but not for M in 1 to 15 or 33 to 150,
    so a plain split into fixed chunks would be exact or not depending on
    ``n % chunk``.

    The rows are numbered once per call by the exact bytes of ``(x[r], t[r])``
    and the report's ``distinct_rows`` counts the distinct pairs.  When n >=
    512, both losses forward only one row per distinct pair, by the same
    chunk rule over the distinct rows, padded with repeats to 512 when fewer
    (see :func:`_full_set_loss`).  Past 2,048 distinct pairs numbering stops,
    ``distinct_rows`` is None and every row is forwarded.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"training inputs must be (n, {LAYER_SIZES[0]})")
    if t.shape != (x.shape[0], N_LABELS):
        raise ValueError(f"training targets must be (n, {N_LABELS})")
    if x.shape[0] == 0:
        raise ValueError("training set is empty")

    model = init_model(config.seed)
    rng = np.random.default_rng(config.seed)
    pairs = _distinct_pairs(x, t)
    initial_loss = _full_set_loss(model, x, t, pairs)
    epoch_losses = []
    n = x.shape[0]
    # A diverging run overflows; the check after the loop reports it once.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                loss, grads = loss_and_grads(model, x[idx], t[idx])
                batch_losses.append(loss)
                for name, grad in grads.items():
                    grad *= config.learning_rate
                    weights = getattr(model, name)
                    weights -= grad
            epoch_losses.append(float(np.mean(batch_losses)))
        final_loss = _full_set_loss(model, x, t, pairs)
    # The loss is taken on clamped probabilities, so it can be finite when a parameter is not.
    if not (math.isfinite(final_loss) and all(np.isfinite(w).all() for _, w in model.tensors())):
        raise ValueError(
            f"training diverged at learning rate {config.learning_rate}: "
            "the final loss or a parameter is not finite"
        )
    distinct_rows = None if pairs is None else pairs[0].size
    return model, TrainReport(initial_loss, final_loss, epoch_losses, distinct_rows)


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write the binary model file.

    Layout (little-endian): 6-byte magic ``CWMLP\\x00``, u16 format version,
    four u32 layer sizes, two u8 activation ids (relu=1, logistic=2), u64
    training seed, then the six parameter tensors as row-major float64 blocks
    in order w1, b1, w2, b2, w3, b3.
    """
    header = _MAGIC + struct.pack(
        "<H4I2BQ",
        _FORMAT_VERSION,
        *LAYER_SIZES,
        _ACT_RELU,
        _ACT_LOGISTIC,
        model.seed,
    )
    blocks = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in model.tensors())
    Path(path).write_bytes(header + blocks)


def load_model(path: str | Path) -> MlpModel:
    raw = Path(path).read_bytes()
    header_len = len(_MAGIC) + struct.calcsize("<H4I2BQ")
    if len(raw) < header_len or raw[: len(_MAGIC)] != _MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    version, d0, d1, d2, d3, act_hidden, act_out, seed = struct.unpack(
        "<H4I2BQ", raw[len(_MAGIC) : header_len]
    )
    if version != _FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    if (d0, d1, d2, d3) != LAYER_SIZES:
        raise ModelFormatError(
            f"{path}: layer sizes {(d0, d1, d2, d3)} do not match {LAYER_SIZES}"
        )
    if (act_hidden, act_out) != (_ACT_RELU, _ACT_LOGISTIC):
        raise ModelFormatError(f"{path}: unknown activation ids {(act_hidden, act_out)}")
    expected = header_len + PARAM_COUNT * 8
    if len(raw) != expected:
        raise ModelFormatError(
            f"{path}: corrupt payload, expected {expected} bytes, got {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f8", offset=header_len).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise ModelFormatError(f"{path}: non-finite parameter values")
    arrays = []
    pos = 0
    for _, shape in _SHAPES:
        size = math.prod(shape)
        arrays.append(flat[pos : pos + size].reshape(shape).copy())
        pos += size
    return MlpModel(*arrays, seed=seed)
