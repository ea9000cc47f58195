"""Labeled trace corpus construction and loading.

A corpus directory holds ``train/`` and ``test/`` subdirectories plus a
``corpus.json`` manifest.  Each trace lives in ``trace_NNNNN.jsonl`` (trace
record grammar) with a sibling ``trace_NNNNN.labels`` carrying one line per
call: the comma-separated exploit ids that call can trigger, blank for none.
The manifest records the generator seed, the split fraction, and per-file
ground truth (which exploit chains run to completion in that trace).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import FeatureEncoder
from .fingerprints import FingerprintDb
from .mlp import N_LABELS
from .sdg import match_key
from .trace import InstructionCall, Trace, read_trace, serialize_trace_record
from .vocab import Vocabularies, open_text

MANIFEST_NAME = "corpus.json"
MANIFEST_VERSION = 1
_LABEL_IDS = frozenset(range(N_LABELS))
# The largest filler rate, in mean benign calls per gap: NumPy's Poisson draw
# fails far above it, and a trace of thousands of filler calls per template is
# not a use of the corpus.
MAX_FILLER_RATE = 1000.0


class CorpusError(ValueError):
    pass


@dataclass
class PaddingConfig:
    """Benign interleaving knobs for trace emission."""

    benign_pool: tuple[InstructionCall, ...] = ()
    filler_rate: float = 2.0
    per_sequence: int = 1

    def __post_init__(self):
        if not 0 <= self.filler_rate <= MAX_FILLER_RATE:
            raise CorpusError(f"filler_rate must lie in [0, {MAX_FILLER_RATE}]")
        if self.per_sequence < 1:
            raise CorpusError("per_sequence must be >= 1")
        if self.filler_rate > 0 and not self.benign_pool:
            raise CorpusError("filler_rate > 0 requires a non-empty benign pool")


@dataclass
class TraceItem:
    calls: list[InstructionCall]
    label_sets: list[frozenset[int]]
    true_exploits: frozenset[int]


def trigger_index(db: FingerprintDb) -> dict[tuple[str, str, str], frozenset[int]]:
    """:func:`sdg.match_key` -> exploit ids with a matching template.

    Keyed as query lowering matches, so a call is labeled with every exploit
    whose chain it can advance, not just the one being emitted.
    """
    raw: dict[tuple[str, str, str], set[int]] = {}
    for fp in db.fingerprints.values():
        for t in fp.templates:
            raw.setdefault(match_key(t), set()).add(fp.exploit_id)
    return {key: frozenset(ids) for key, ids in raw.items()}


def _labels_for(call: InstructionCall, index) -> frozenset[int]:
    return index.get(match_key(call), frozenset())


def _draw_filler(pool, rng, rate: float) -> list[InstructionCall]:
    if rate <= 0 or not pool:
        return []
    return [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.poisson(rate)))]


def emit_corpus(
    sequences,
    exploit_id: int,
    padding: PaddingConfig,
    index,
    rng: np.random.Generator,
) -> list[TraceItem]:
    """Expand one exploit's matched sequences into padded, labeled traces."""
    items = []
    for seq in sequences:
        for _ in range(padding.per_sequence):
            calls: list[InstructionCall] = []
            label_sets: list[frozenset[int]] = []
            for call in seq:
                for filler in _draw_filler(padding.benign_pool, rng, padding.filler_rate):
                    calls.append(filler)
                    label_sets.append(_labels_for(filler, index))
                calls.append(call)
                labels = _labels_for(call, index)
                label_sets.append(labels if labels else frozenset({exploit_id}))
            for filler in _draw_filler(padding.benign_pool, rng, padding.filler_rate):
                calls.append(filler)
                label_sets.append(_labels_for(filler, index))
            items.append(TraceItem(calls, label_sets, frozenset({exploit_id})))
    return items


def emit_benign(
    count: int,
    mean_length: float,
    padding: PaddingConfig,
    index,
    rng: np.random.Generator,
) -> list[TraceItem]:
    """Benign-only traces: pool calls, all-zero completion ground truth."""
    if count and not padding.benign_pool:
        raise CorpusError("benign traces requested but the benign pool is empty")
    items = []
    for _ in range(count):
        length = max(1, int(rng.poisson(mean_length)))
        calls = [padding.benign_pool[int(i)] for i in rng.integers(0, len(padding.benign_pool), size=length)]
        label_sets = [_labels_for(c, index) for c in calls]
        items.append(TraceItem(calls, label_sets, frozenset()))
    return items


def generate_corpus(
    db: FingerprintDb,
    sequences_by_exploit: dict[int, list],
    out_dir: str | Path,
    seed: int = 0,
    split: float = 0.85,
    benign_ratio: float = 1.0,
    padding: PaddingConfig | None = None,
) -> dict:
    """Build and write a full corpus directory; returns the manifest dict."""
    if not 0.0 < split < 1.0:
        raise CorpusError(f"split must lie in (0, 1), got {split}")
    if not benign_ratio >= 0:
        raise CorpusError("benign_ratio must be >= 0")
    padding = padding if padding is not None else PaddingConfig(filler_rate=0.0)
    rng = np.random.default_rng(seed)
    index = trigger_index(db)

    items: list[TraceItem] = []
    for exploit_id in sorted(sequences_by_exploit):
        items.extend(
            emit_corpus(sequences_by_exploit[exploit_id], exploit_id, padding, index, rng)
        )
    if not items:
        raise CorpusError("no sequences to emit")
    mean_length = float(np.mean([len(it.calls) for it in items]))
    items.extend(emit_benign(round(benign_ratio * len(items)), mean_length, padding, index, rng))

    order = rng.permutation(len(items))
    n_train = round(split * len(items))
    out = Path(out_dir)
    splits = {"train": order[:n_train], "test": order[n_train:]}
    truth: dict[str, list[int]] = {}
    counts = {}
    for split_name, idxs in splits.items():
        sub = out / split_name
        sub.mkdir(parents=True, exist_ok=True)
        for file_no, item_idx in enumerate(idxs):
            item = items[int(item_idx)]
            stem = f"trace_{file_no:05d}"
            with open(sub / f"{stem}.jsonl", "w") as fh:
                for call in item.calls:
                    fh.write(serialize_trace_record(call) + "\n")
            with open(sub / f"{stem}.labels", "w") as fh:
                for labels in item.label_sets:
                    fh.write(",".join(str(i) for i in sorted(labels)) + "\n")
            truth[f"{split_name}/{stem}"] = sorted(item.true_exploits)
        counts[split_name] = len(idxs)

    manifest = {
        "version": MANIFEST_VERSION,
        "seed": seed,
        "split": split,
        "benign_ratio": benign_ratio,
        "filler_rate": padding.filler_rate,
        "per_sequence": padding.per_sequence,
        "n_labels": N_LABELS,
        "counts": counts,
        "true_exploits": truth,
    }
    with open(out / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


@dataclass
class CorpusItem:
    name: str
    trace: Trace
    label_sets: list[frozenset[int]]
    true_exploits: frozenset[int]


def read_manifest(corpus_dir: str | Path) -> dict:
    """The manifest, with every key its readers use checked."""
    path = Path(corpus_dir) / MANIFEST_NAME
    if not path.is_file():
        raise CorpusError(f"missing manifest: {path}")
    try:
        with open_text(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorpusError(f"{path}: expected a JSON object")
    for key, want in (("version", MANIFEST_VERSION), ("n_labels", N_LABELS)):
        if type(manifest.get(key)) is not int or manifest[key] != want:
            raise CorpusError(f"{path}: {key} must be {want}, got {manifest.get(key)!r}")
    truth = manifest.get("true_exploits")
    if not isinstance(truth, dict) or not all(isinstance(ids, list) for ids in truth.values()):
        raise CorpusError(f"{path}: true_exploits must map trace names to lists of ids")
    return manifest


def read_labels(
    path: Path, memo: dict[str, frozenset[int]] | None = None
) -> list[frozenset[int]]:
    """One set of label ids in ``[0, mlp.N_LABELS)`` per line of a ``.labels`` file.

    A blank line is the empty set, so unlike the other formats, blank lines
    count.  Each distinct stripped line is checked once and equal lines
    share one set.  ``memo`` maps stripped lines to their sets; without one,
    a dict lasts for this call.  ``load_split`` passes one that lasts for one
    split load and holds one entry per distinct line.
    """
    memo = {} if memo is None else memo
    sets = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            labels = memo.get(line)
            if labels is None:
                labels = memo[line] = _label_set(line, path, lineno)
            sets.append(labels)
    return sets


def _label_set(line: str, path: Path, lineno: int) -> frozenset[int]:
    try:
        labels = frozenset(int(p) for p in line.split(",") if p) if line else frozenset()
    except ValueError:
        labels = None
    if labels is None or not labels <= _LABEL_IDS:
        raise CorpusError(f"{path} line {lineno}: {line!r} is not a list of ids in [0, {N_LABELS})")
    return labels


def split_files(corpus_dir: str | Path, split_name: str) -> list[Path]:
    """The files :func:`load_split` reads: the manifest, then each trace of
    the split and its ``.labels`` file, in the order it reads them."""
    corpus_dir = Path(corpus_dir)
    files = [corpus_dir / MANIFEST_NAME]
    for trace_path in _trace_paths(corpus_dir / split_name):
        files += [trace_path, trace_path.with_suffix(".labels")]
    return files


def _trace_paths(split_dir: Path) -> list[Path]:
    return sorted(split_dir.glob("trace_*.jsonl"))


def load_split(
    corpus_dir: str | Path,
    split_name: str,
    vocabs: Vocabularies,
) -> list[CorpusItem]:
    """Every trace of one split with its label sets and planted exploits.

    Each distinct record line and each distinct label line is parsed and
    checked once: two memos, one entry per distinct line, last for this call
    only, and equal lines share one call or label-set object.  A bad line
    still fails at its first occurrence, naming its file and line.  The
    detect path reads its traces without a memo, so no cache outlives a
    trace there; ROADMAP.md leaves that to the bench's cache protocol.
    """
    corpus_dir = Path(corpus_dir)
    manifest = read_manifest(corpus_dir)
    sub = corpus_dir / split_name
    if not sub.is_dir():
        raise CorpusError(f"missing split directory: {sub}")
    calls: dict[str, InstructionCall] = {}
    labels: dict[str, frozenset[int]] = {}
    items = []
    for trace_path in _trace_paths(sub):
        key = f"{split_name}/{trace_path.stem}"
        with open_text(trace_path) as fh:
            trace = read_trace(fh, vocabs, source_id=key, memo=calls)
        label_sets = read_labels(trace_path.with_suffix(".labels"), memo=labels)
        if len(label_sets) != len(trace):
            raise CorpusError(f"{trace_path}: {len(trace)} calls but {len(label_sets)} label lines")
        truth = frozenset(manifest["true_exploits"].get(key, ()))
        items.append(CorpusItem(name=key, trace=trace, label_sets=label_sets, true_exploits=truth))
    if not items:
        raise CorpusError(f"no traces found under {sub}")
    return items


def _distinct_rows(values) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and each value's index among them."""
    index: dict = {}
    rows = np.array([index.setdefault(v, len(index)) for v in values], dtype=np.intp)
    return list(index), rows


def build_xy(
    items: list[CorpusItem],
    encoder: FeatureEncoder,
    n_labels: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack every call of every trace into training arrays (X, T).

    Each distinct call is encoded once and each distinct label set made into
    one row; X and T then repeat those rows in call order.  The tables last
    for this call only.
    """
    calls, call_rows = _distinct_rows(call for item in items for call in item.trace.calls)
    sets, set_rows = _distinct_rows(labels for item in items for labels in item.label_sets)
    x = np.stack([encoder.encode(call) for call in calls])
    return x[call_rows], label_rows(sets, n_labels)[set_rows]


def label_rows(label_sets: list[frozenset[int]], n_labels: int) -> np.ndarray:
    """One 0/1 row of ``n_labels`` columns per label set."""
    out = np.zeros((len(label_sets), n_labels), dtype=np.float64)
    for row, labels in enumerate(label_sets):
        for i in labels:
            out[row, i] = 1.0
    return out
