"""The cwe79-train workload: epochs of ``mlp.train`` on the cwe79 train split.

Set-up is what ``chainwatch train`` does before its first epoch: load the
encoder, the manifest and the train split, then ``corpus.build_xy``.  A round
is one ``mlp.train`` call of ``EPOCHS_PER_ROUND`` epochs from the fixed seed,
so every round must end on bit-equal weights.  Here a "call" is one training
row, an encoded call with its labels, and ``scored_call_us`` is the time of a
minibatch step divided by its rows.
"""

from __future__ import annotations

import shutil
import statistics
import time
import tracemalloc

import numpy as np

import inputs
from detection import slow_quartile
from chainwatch import corpus, mlp
from chainwatch.encoder import FeatureEncoder

EPOCHS_PER_ROUND = 2
TRAIN_SEED = 0
SETUP_REPEATS = 3


def config() -> mlp.TrainConfig:
    return mlp.TrainConfig(
        learning_rate=inputs.TRAIN_LR, epochs=EPOCHS_PER_ROUND, batch_size=32, seed=TRAIN_SEED
    )


def load(corpus_dir):
    encoder = FeatureEncoder.from_paths()
    manifest = corpus.read_manifest(corpus_dir)
    items = corpus.load_split(corpus_dir, "train", encoder.vocabs)
    return corpus.build_xy(items, encoder, manifest["n_labels"])


def setup_seconds(corpus_dir):
    """Median of three set-ups: this process's own, which yields the arrays, and
    two in fresh interpreters.  Returns the median and the arrays."""
    t0 = time.perf_counter()
    arrays = load(corpus_dir)
    samples = [time.perf_counter() - t0]
    code = (
        "import sys, time\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import training\n"
        "t0 = time.perf_counter()\n"
        f"training.load({str(corpus_dir)!r})\n"
        "print(time.perf_counter() - t0)\n"
    )
    samples += [float(inputs.run_child(["-c", code])) for _ in range(SETUP_REPEATS - 1)]
    return statistics.median(samples), arrays


class Rounds:
    """Checks every round against the properties ``mlp.train`` documents."""

    def __init__(self, x, t):
        self.x, self.t = x, t
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def check(self, model, report) -> None:
        weights = [arr for _, arr in model.tensors()]
        if self.reference is None:
            self.reference = weights
        ok = (
            all(np.array_equal(a, b) for a, b in zip(weights, self.reference))
            and all(np.isfinite(a).all() for a in weights)
            and report.epoch_losses[-1] < report.initial_loss
        )
        self.attempted += EPOCHS_PER_ROUND
        self.failed += 0 if ok else EPOCHS_PER_ROUND


def peak_heap_mb(x, t) -> float:
    """tracemalloc peak of a one-epoch ``mlp.train``: the peak does not grow with
    epochs, and tracing every allocation of a whole round would double its time."""
    one_epoch = mlp.TrainConfig(**{**config().__dict__, "epochs": 1})
    tracemalloc.start()
    try:
        mlp.train(x, t, one_epoch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def timed_rounds(rounds: Rounds, seconds: float, min_rounds: int = 2):
    """Whole rounds until ``seconds`` of training; per-row step times from a probe.

    The probe stamps the clock as each ``mlp.loss_and_grads`` call starts;
    the gap to the next stamp is one whole minibatch step.  Returns one unit
    per round, ``(rows x epochs, seconds, per-row step times in us)``.
    """
    stamps: list[int] = []
    original = mlp.loss_and_grads

    def probe(model, x, t):
        stamps.append(time.perf_counter_ns())
        return original(model, x, t)

    n = rounds.x.shape[0]
    batch = config().batch_size
    rows = np.minimum(batch, n - np.arange(0, n, batch))
    busy, units = 0.0, []
    mlp.loss_and_grads = probe
    try:
        while busy < seconds or len(units) < min_rounds:
            stamps.clear()
            t0 = time.perf_counter()
            model, report = mlp.train(rounds.x, rounds.t, config())
            secs = time.perf_counter() - t0
            busy += secs
            rounds.check(model, report)
            per_step = np.diff(np.array(stamps, dtype=np.int64)) / 1e3
            units.append((n * EPOCHS_PER_ROUND, secs, per_step / np.tile(rows, EPOCHS_PER_ROUND)[:-1]))
    finally:
        mlp.loss_and_grads = original
    return units


def prepared(seed: int):
    corpus_dir = inputs.CACHE / f"train-corpus-{seed}"
    inputs.CACHE.mkdir(exist_ok=True)
    inputs.gen_corpus(seed, corpus_dir)
    return corpus_dir


def run(name: str, seed: int, seconds: float, digest: str) -> dict:
    corpus_dir = prepared(seed)
    try:
        setup_s, arrays = setup_seconds(corpus_dir)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    rounds = Rounds(*arrays)
    peak = peak_heap_mb(rounds.x, rounds.t)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    units = timed_rounds(rounds, seconds)
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    rate, p50 = slow_quartile(units)
    step_us = np.concatenate([us for _, _, us in units])
    return {
        "correct": True,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {
            "calls_per_s": {"value": rate, "unit": "1/s"},
            "scored_call_us.p50": {"value": p50, "unit": "us"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_heap_mb": {"value": peak, "unit": "MB"},
        },
        "info": {"rounds": len(units), "rows": int(rounds.x.shape[0]), "cpu_per_wall": cpu_share,
                 "step_samples": int(step_us.size), "p90": np.percentile(step_us, 90),
                 "p95": np.percentile(step_us, 95),
                 "p99": np.percentile(step_us, 99)},
    }
