#!/usr/bin/env python3
r"""Print one sha256 per detection mode, and one for training, over everything they report.

    python3 scripts/output_digest.py --corpus CORPUS --model MODEL --fingerprints FP

Runs ``engine.detect`` and ``engine.detect_naive`` over every trace of one
corpus split (sorted by file name, a fresh state table per trace, the bundled
embeddings, vocabularies and white-list unless given) and hashes the
recorded fields (``RECORDED_FIELDS``) of every ``AlarmRecord`` and
``SessionSummary`` in order.  Then runs
``mlp.train`` on the corpus's train split with the benchmark's round recipe
(``TRAIN_CONFIG``) and hashes every tensor's bytes and every loss of its
report.  Floats are hashed as ``float.hex``, so two trees print the same
digest only when their outputs are bit-identical.  One line per detection
mode, ``<mode> alarms=<n> sha256=<hex>`` (``detect``, ``detect_naive``), then
``train rows=<n> sha256=<hex>``.  When a record type has fields beyond its
recorded ones, a mode's line is followed by ``<mode> new-fields=<names>
sha256=<hex>`` over those fields alone, so the recorded lines still compare
across a change that adds a counter.

It imports ``chainwatch`` from the ``src`` next to it, so a copy placed in
another checkout digests that checkout.

The bit-identity gate, run from the repository root (about 30 s in all on
a 2-core x86-64 host):

    F=src/chainwatch/data/fixtures OUT=$(mktemp -d)
    for seed in 0 3; do
        PYTHONPATH=src python3 -m chainwatch gen-dataset --fingerprints $F/cwe79.fp \
            --sdg $F/cwe79.sdg --benign-pool $F/cwe79_benign.jsonl \
            --per-sequence 20 --seed $seed --out $OUT/corpus$seed
    done
    PYTHONPATH=src python3 -m chainwatch train --corpus $OUT/corpus0 --lr 2.0 \
        --epochs 30 --out $OUT/model.cwm    # md5 75fcc654bcb9e7fb15d4155555eaedfe
    python3 scripts/output_digest.py --corpus $OUT/corpus3 --model $OUT/model.cwm \
        --fingerprints $F/cwe79.fp

The model is the benchmark's (``perfbench/inputs.py``).  On x86-64 Linux,
Python 3.11, NumPy 2.4 with its bundled OpenBLAS 0.3.31 (Haswell kernels),
the digest prints:

    detect alarms=263 sha256=6b764846bf8e402256edca0bdcd9463965801437ac6356195780661ae549f606
    detect_naive alarms=263 sha256=287cb2149d7f507ce38c6f1bab4a10d1f54f7eb3617497059570bbd8fbffdff9
    train rows=38309 sha256=9a01fd72e361fc44569e008834af3840d0e62c6098731be7857ed604e4ad5ac8

A change that keeps every output bit prints these lines unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chainwatch import corpus, engine, mlp
from chainwatch.encoder import FeatureEncoder
from chainwatch.fingerprints import WhiteList, load_fingerprints

DEFAULT_WHITELIST = ROOT / "src" / "chainwatch" / "data" / "fixtures" / "whitelist.txt"
TRAIN_CONFIG = mlp.TrainConfig(learning_rate=2.0, epochs=2, batch_size=32, seed=0)
# The fields the recorded lines hash, in order, by record type.
RECORDED_FIELDS = {
    "AlarmRecord": ("trace_id", "offset", "exploit_id", "cwe_id", "similarity"),
    "SessionSummary": (
        "trace_id", "total_calls", "whitelisted_calls", "encoded_calls",
        "classifier_invocations", "monitor_steps", "comparisons", "advanced_events",
        "no_match_events", "alarms", "halted",
    ),
}


def _field(value) -> str:
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _line(obj, names) -> bytes:
    fields = ((name, _field(getattr(obj, name))) for name in names)
    return (type(obj).__name__ + "(" + ",".join(f"{k}={v}" for k, v in fields) + ")\n").encode()


def _record(obj) -> bytes:
    return _line(obj, RECORDED_FIELDS[type(obj).__name__])


def digest(results) -> tuple[int, str]:
    """The alarm count and a sha256 over the recorded fields of every record."""
    h = hashlib.sha256()
    alarms = 0
    for result in results:
        for record in (*result.alarms, result.summary):
            h.update(_record(record))
        alarms += len(result.alarms)
    return alarms, h.hexdigest()


def new_fields_digest(results) -> tuple[list[str], str] | None:
    """``(names, sha256)`` over every field that ``RECORDED_FIELDS`` does not
    list, named ``<type>.<field>``; None when no record has one."""
    h = hashlib.sha256()
    names: dict[str, None] = {}
    for result in results:
        for record in (*result.alarms, result.summary):
            kind = type(record).__name__
            recorded = RECORDED_FIELDS[kind]
            new = [f.name for f in dataclasses.fields(record) if f.name not in recorded]
            if new:
                h.update(_line(record, new))
                names.update((f"{kind}.{name}", None) for name in new)
    return (list(names), h.hexdigest()) if names else None


def train_digest(model: mlp.MlpModel, report: mlp.TrainReport) -> str:
    h = hashlib.sha256()
    for name, arr in model.tensors():
        h.update(name.encode() + b"=" + arr.tobytes() + b"\n")
    losses = (report.initial_loss, *report.epoch_losses, report.final_loss)
    h.update(",".join(loss.hex() for loss in losses).encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, help="Corpus directory.")
    parser.add_argument("--split", default="test", help="Split to scan.")
    parser.add_argument("--model", required=True, help="Trained classifier file.")
    parser.add_argument("--fingerprints", required=True, help="Fingerprint database file.")
    parser.add_argument("--whitelist", default=str(DEFAULT_WHITELIST), help="White-list file.")
    parser.add_argument("--embeddings", help="Embedding table file (default: bundled).")
    args = parser.parse_args()

    encoder = FeatureEncoder.from_paths(args.embeddings)
    db = load_fingerprints(args.fingerprints, encoder)
    whitelist = WhiteList.from_file(args.whitelist)
    model = mlp.load_model(args.model)
    traces = [item.trace for item in corpus.load_split(args.corpus, args.split, encoder.vocabs)]
    modes = {
        "detect": lambda t: engine.detect(t, encoder, whitelist, db, model),
        "detect_naive": lambda t: engine.detect_naive(t, encoder, whitelist, db),
    }
    for mode, run in modes.items():
        results = [run(t) for t in traces]
        alarms, hexdigest = digest(results)
        print(f"{mode} alarms={alarms} sha256={hexdigest}")
        added = new_fields_digest(results)
        if added:
            print(f"{mode} new-fields={','.join(added[0])} sha256={added[1]}")

    items = corpus.load_split(args.corpus, "train", encoder.vocabs)
    x, t = corpus.build_xy(items, encoder, corpus.read_manifest(args.corpus)["n_labels"])
    trained, report = mlp.train(x, t, TRAIN_CONFIG)
    print(f"train rows={x.shape[0]} sha256={train_digest(trained, report)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
