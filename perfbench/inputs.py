"""Input preparation: corpora and the model, made by the program's own CLI.

Nothing here is timed.  The cwe79 corpus comes from ``chainwatch gen-dataset``
with 20 traces per sequence; the model from ``chainwatch train --lr 2.0
--epochs 30`` on the corpus of seed 0.  The model is cached under
``perfbench/.cache`` keyed by a digest of every source file under
``src/chainwatch``, so any change to the program retrains it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "chainwatch"
FIXTURES = PACKAGE / "data" / "fixtures"
FINGERPRINTS = FIXTURES / "cwe79.fp"
SDG = FIXTURES / "cwe79.sdg"
BENIGN = FIXTURES / "cwe79_benign.jsonl"
WHITELIST = FIXTURES / "whitelist.txt"
CACHE = Path(__file__).resolve().parent / ".cache"

MODEL_CORPUS_SEED = 0
PER_SEQUENCE = 20
TRAIN_LR = 2.0
TRAIN_EPOCHS = 30


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_child(args: list[str]) -> str:
    """Run a child interpreter with ``src`` importable; wait for it and return stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args[:3])} failed:\n{proc.stderr}")
    return proc.stdout


def cli(*args: str) -> str:
    return run_child(["-m", "chainwatch", *args])


def gen_corpus(seed: int, out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    cli(
        "gen-dataset",
        "--fingerprints", str(FINGERPRINTS),
        "--sdg", str(SDG),
        "--benign-pool", str(BENIGN),
        "--per-sequence", str(PER_SEQUENCE),
        "--seed", str(seed),
        "--out", str(out_dir),
    )


def _fresh(path: Path, digest: str, make) -> Path:
    """Build ``path`` with ``make`` unless it exists; drop entries of other digests."""
    if not path.exists():
        CACHE.mkdir(exist_ok=True)
        for stale in CACHE.glob(f"*{path.suffix}"):
            if digest not in stale.name:
                stale.unlink()
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        make(tmp)
        tmp.replace(path)
    return path


def model_path(digest: str) -> Path:
    def make(tmp: Path) -> None:
        corpus_dir = CACHE / f"model-corpus-{os.getpid()}"
        try:
            gen_corpus(MODEL_CORPUS_SEED, corpus_dir)
            cli(
                "train",
                "--corpus", str(corpus_dir),
                "--lr", str(TRAIN_LR),
                "--epochs", str(TRAIN_EPOCHS),
                "--out", str(tmp),
            )
        finally:
            shutil.rmtree(corpus_dir, ignore_errors=True)

    return _fresh(CACHE / f"model-{digest}.cwm", digest, make)


def pack_test_split(corpus_dir: Path) -> dict:
    """The test split as in-memory JSONL texts plus the manifest's truth."""
    truth = json.loads((corpus_dir / "corpus.json").read_text())["true_exploits"]
    traces = []
    for path in sorted((corpus_dir / "test").glob("trace_*.jsonl")):
        name = f"test/{path.stem}"
        traces.append({"name": name, "text": path.read_text(), "true_exploits": truth[name]})
    return {"traces": traces}


def test_split(seed: int, digest: str) -> list[dict]:
    """The cwe79 test split of the corpus of ``seed``, cached per seed."""

    def make(tmp: Path) -> None:
        corpus_dir = CACHE / f"corpus-{os.getpid()}"
        try:
            gen_corpus(seed, corpus_dir)
            tmp.write_text(json.dumps(pack_test_split(corpus_dir)))
        finally:
            shutil.rmtree(corpus_dir, ignore_errors=True)

    path = _fresh(CACHE / f"test-{seed}-{digest}.json", digest, make)
    return json.loads(path.read_text())["traces"]
