"""Per-label confusion counting and the derived classification metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def merge(self, other: "Confusion") -> "Confusion":
        return Confusion(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            tn=self.tn + other.tn,
            fn=self.fn + other.fn,
        )


def confusion_tables(predicted, actual) -> list[Confusion]:
    """One table per label from two ``(n, labels)`` arrays of 0/1 or booleans,
    one row per decision and one column per label."""
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.ndim != 2 or predicted.shape != actual.shape:
        raise ValueError(
            f"expected two (n, labels) arrays, got shapes {predicted.shape} and {actual.shape}"
        )
    tp = np.count_nonzero(predicted & actual, axis=0)
    fp = np.count_nonzero(predicted, axis=0) - tp
    fn = np.count_nonzero(actual, axis=0) - tp
    tn = len(predicted) - tp - fp - fn
    return [Confusion(*map(int, counts)) for counts in zip(tp, fp, tn, fn)]


def accuracy(c: Confusion) -> float:
    return (c.tp + c.tn) / c.total if c.total else 0.0


def precision(c: Confusion) -> float:
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall(c: Confusion) -> float:
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def f1(c: Confusion) -> float:
    p = precision(c)
    r = recall(c)
    return 2.0 * p * r / (p + r) if (p + r) else 0.0


def supported_labels(tables: list[Confusion]) -> list[int]:
    """Labels that actually occur: any true positive, miss, or false alarm."""
    return [i for i, c in enumerate(tables) if c.tp + c.fn + c.fp > 0]


def macro_average(tables: list[Confusion], labels=None) -> dict[str, float]:
    """Unweighted means of the per-label metrics (every label counts equally).

    ``labels`` restricts the average to a subset, e.g. the labels with support
    when the corpus covers fewer exploits than the label space holds.
    """
    subset = list(labels) if labels is not None else range(len(tables))
    chosen = [tables[i] for i in subset]
    if not chosen:
        raise ValueError("no labels to average over")
    per_label = [summarize(c) for c in chosen]
    return {key: float(np.mean([s[key] for s in per_label])) for key in per_label[0]}


def pooled(tables: list[Confusion], label_ids) -> Confusion:
    """Single confusion table summing the given labels (per-CWE reporting)."""
    return reduce(Confusion.merge, (tables[i] for i in label_ids), Confusion())


def summarize(c: Confusion) -> dict[str, float]:
    return {
        "accuracy": accuracy(c),
        "precision": precision(c),
        "recall": recall(c),
        "f1": f1(c),
    }
