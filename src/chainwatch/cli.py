"""Command-line interface.

Subcommands: encode, train, detect, detect-naive, gen-dataset, eval, bench.
Every path flag can also come from an environment variable (shown in
``--help``) or from a JSON config file passed with ``--config``; explicit
flags win over environment variables, which win over the config file.

Exit codes: 0 = clean run, 2 = detection run that raised at least one alarm,
1 = any error (bad usage, unreadable input, malformed file).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import bench as bench_mod
from . import corpus as corpus_mod
from . import metrics, mlp, sdg as sdg_mod
from .encoder import FeatureEncoder
from .engine import (
    DEFAULT_CLASSIFY_THRESHOLD,
    EngineConfig,
    detect as run_engine_detect,
    detect_naive as run_engine_naive,
)
from .fingerprints import WhiteList, load_fingerprints
from .monitor import DEFAULT_COSINE_THRESHOLD
from .trace import read_trace

_DATA = Path(__file__).parent / "data"
DEFAULT_WHITELIST = _DATA / "fixtures" / "whitelist.txt"
DEFAULT_BENIGN_POOL = _DATA / "fixtures" / "benign_pool.jsonl"


class CliError(click.ClickException):
    exit_code = 1


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"config file {path}: {exc}")
    if not isinstance(obj, dict):
        raise CliError(f"config file {path}: expected a JSON object")
    return obj


def _pick(config: dict, key: str, flag_value, default=None):
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


def _encoder(config: dict, embeddings, vocab_dir) -> FeatureEncoder:
    try:
        return FeatureEncoder.from_paths(
            _pick(config, "embeddings", embeddings),
            _pick(config, "vocab_dir", vocab_dir),
        )
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))


def _open_trace(source: str, encoder: FeatureEncoder):
    try:
        if source == "-":
            return read_trace(sys.stdin, encoder.vocabs, source_id="<stdin>")
        with open(source) as fh:
            return read_trace(fh, encoder.vocabs, source_id=source)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))


def _load_db(config: dict, fingerprints, encoder):
    path = _pick(config, "fingerprints", fingerprints)
    if not path:
        raise CliError("a fingerprint file is required (--fingerprints)")
    try:
        return load_fingerprints(path, encoder)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))


def _load_whitelist(config: dict, whitelist) -> WhiteList:
    path = _pick(config, "whitelist", whitelist, str(DEFAULT_WHITELIST))
    try:
        return WhiteList.from_file(path)
    except OSError as exc:
        raise CliError(str(exc))


def _load_model(config: dict, model_path) -> mlp.MlpModel:
    path = _pick(config, "model", model_path)
    if not path:
        raise CliError("a model file is required (--model)")
    try:
        return mlp.load_model(path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))


_config_opt = click.option("--config", "config_path", envvar="CHAINWATCH_CONFIG", default=None,
                           help="JSON file supplying defaults for any flag.")
_seed_opt = click.option("--seed", type=int, default=None, help="Deterministic seed.")
_embeddings_opt = click.option("--embeddings", envvar="CHAINWATCH_EMBEDDINGS", default=None,
                               help="Embedding table file (default: bundled).")
_vocab_opt = click.option("--vocab-dir", envvar="CHAINWATCH_VOCAB_DIR", default=None,
                          help="Vocabulary directory (default: bundled).")
_fingerprints_opt = click.option("--fingerprints", envvar="CHAINWATCH_FINGERPRINTS", default=None,
                                 help="Fingerprint database file.")
_whitelist_opt = click.option("--whitelist", envvar="CHAINWATCH_WHITELIST", default=None,
                              help="White-listed API names, one per line (default: bundled).")
_model_opt = click.option("--model", "model_path", envvar="CHAINWATCH_MODEL", default=None,
                          help="Trained classifier file.")


@click.group()
@click.version_option(__version__, prog_name="chainwatch")
def cli():
    """Streaming exploit-chain detection over instruction-call traces."""


@cli.command()
@click.argument("trace", default="-")
@_config_opt
@_embeddings_opt
@_vocab_opt
@click.option("--out", default=None, help="Write vectors here instead of stdout.")
def encode(trace, config_path, embeddings, vocab_dir, out):
    """Encode TRACE (path or '-') into 151-component feature vectors.

    One line per record: 151 decimal floats, space separated.
    """
    config = _load_config(config_path)
    encoder = _encoder(config, embeddings, vocab_dir)
    parsed = _open_trace(trace, encoder)
    sink = open(out, "w") if out else sys.stdout
    try:
        for call in parsed.calls:
            vec = encoder.encode(call)
            sink.write(" ".join(format(v, ".17g") for v in vec) + "\n")
    finally:
        if out:
            sink.close()


@cli.command()
@_config_opt
@_seed_opt
@_embeddings_opt
@_vocab_opt
@click.option("--corpus", envvar="CHAINWATCH_CORPUS", default=None, help="Corpus directory.")
@click.option("--out", "out_path", envvar="CHAINWATCH_MODEL_OUT", default=None,
              help="Where to write the trained model.")
@click.option("--epochs", type=int, default=None,
              help=f"Training epochs (default {mlp.TrainConfig.epochs}).")
@click.option("--lr", type=float, default=None,
              help=f"Learning rate (default {mlp.TrainConfig.learning_rate}).")
@click.option("--batch-size", type=int, default=None,
              help=f"Minibatch size (default {mlp.TrainConfig.batch_size}).")
def train(config_path, seed, embeddings, vocab_dir, corpus, out_path, epochs, lr, batch_size):
    """Train the classifier on a corpus directory's train split."""
    config = _load_config(config_path)
    corpus_dir = _pick(config, "corpus", corpus)
    out_path = _pick(config, "out", out_path)
    if not corpus_dir:
        raise CliError("a corpus directory is required (--corpus)")
    if not out_path:
        raise CliError("an output model path is required (--out)")
    encoder = _encoder(config, embeddings, vocab_dir)
    train_cfg = mlp.TrainConfig(
        learning_rate=_pick(config, "lr", lr, mlp.TrainConfig.learning_rate),
        epochs=_pick(config, "epochs", epochs, mlp.TrainConfig.epochs),
        batch_size=_pick(config, "batch_size", batch_size, mlp.TrainConfig.batch_size),
        seed=_pick(config, "seed", seed, mlp.TrainConfig.seed),
    )
    try:
        manifest = corpus_mod.read_manifest(corpus_dir)
        items = corpus_mod.load_split(corpus_dir, "train", encoder.vocabs)
        x, t = corpus_mod.build_xy(items, encoder, manifest["n_labels"])
        model, report = mlp.train(x, t, train_cfg)
        mlp.save_model(model, out_path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))
    click.echo(json.dumps({
        "model": str(out_path),
        "examples": int(x.shape[0]),
        "traces": len(items),
        "epochs": train_cfg.epochs,
        "learning_rate": train_cfg.learning_rate,
        "batch_size": train_cfg.batch_size,
        "seed": train_cfg.seed,
        "initial_loss": report.initial_loss,
        "final_loss": report.final_loss,
        "param_count": model.param_count(),
    }))


def _detect_common(trace, config_path, embeddings, vocab_dir, fingerprints, whitelist,
                   threshold_cosine, halt_on_alarm, config_extra=None):
    config = _load_config(config_path)
    encoder = _encoder(config, embeddings, vocab_dir)
    db = _load_db(config, fingerprints, encoder)
    wl = _load_whitelist(config, whitelist)
    parsed = _open_trace(trace, encoder)
    cos = _pick(config, "threshold_cosine", threshold_cosine, DEFAULT_COSINE_THRESHOLD)
    halt = bool(_pick(config, "halt_on_alarm", True if halt_on_alarm else None, False))
    extra = config_extra(config) if config_extra else {}
    try:
        engine_cfg = EngineConfig(threshold_cosine=cos, halt_on_alarm=halt, **extra)
    except ValueError as exc:
        raise CliError(str(exc))
    return config, encoder, db, wl, parsed, engine_cfg


def _emit_detection(ctx, result, out):
    sink = open(out, "w") if out else sys.stdout
    try:
        for alarm in result.alarms:
            sink.write(json.dumps(alarm.to_json_obj()) + "\n")
    finally:
        if out:
            sink.close()
    click.echo(json.dumps(result.summary.to_json_obj()), err=True)
    if result.alarms:
        ctx.exit(2)


@cli.command()
@click.argument("trace", default="-")
@_config_opt
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt
@_whitelist_opt
@_model_opt
@click.option("--threshold-classify", type=float, default=None,
              help="Probability needed to nominate a candidate "
                   f"(default {DEFAULT_CLASSIFY_THRESHOLD}).")
@click.option("--threshold-cosine", type=float, default=None,
              help=f"Similarity needed to advance a chain (default {DEFAULT_COSINE_THRESHOLD}).")
@click.option("--halt-on-alarm", is_flag=True, default=False,
              help="Stop at the first alarm instead of scanning the whole trace.")
@click.option("--out", default=None, help="Write alarm records here instead of stdout.")
@click.pass_context
def detect(ctx, trace, config_path, embeddings, vocab_dir, fingerprints, whitelist,
           model_path, threshold_classify, threshold_cosine, halt_on_alarm, out):
    """Scan TRACE with the classifier-filtered engine; alarms as JSON lines."""
    def extra(config):
        return {"threshold_classify": _pick(config, "threshold_classify", threshold_classify,
                                            DEFAULT_CLASSIFY_THRESHOLD)}

    config, encoder, db, wl, parsed, engine_cfg = _detect_common(
        trace, config_path, embeddings, vocab_dir, fingerprints, whitelist,
        threshold_cosine, halt_on_alarm, extra)
    model = _load_model(config, model_path)
    result = run_engine_detect(parsed, encoder, wl, db, model, engine_cfg)
    _emit_detection(ctx, result, out)


@cli.command(name="detect-naive")
@click.argument("trace", default="-")
@_config_opt
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt
@_whitelist_opt
@click.option("--threshold-cosine", type=float, default=None,
              help=f"Similarity needed to advance a chain (default {DEFAULT_COSINE_THRESHOLD}).")
@click.option("--halt-on-alarm", is_flag=True, default=False,
              help="Stop at the first alarm instead of scanning the whole trace.")
@click.option("--out", default=None, help="Write alarm records here instead of stdout.")
@click.pass_context
def detect_naive(ctx, trace, config_path, embeddings, vocab_dir, fingerprints,
                 whitelist, threshold_cosine, halt_on_alarm, out):
    """Scan TRACE comparing every stored exploit on every call (no classifier)."""
    _, encoder, db, wl, parsed, engine_cfg = _detect_common(
        trace, config_path, embeddings, vocab_dir, fingerprints, whitelist,
        threshold_cosine, halt_on_alarm)
    result = run_engine_naive(parsed, encoder, wl, db, engine_cfg)
    _emit_detection(ctx, result, out)


@cli.command(name="gen-dataset")
@_config_opt
@_seed_opt
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt
@click.option("--sdg", "sdg_path", envvar="CHAINWATCH_SDG", default=None,
              help="Dependence graph file to mine for vulnerable sequences.")
@click.option("--out", "out_dir", default=None, help="Corpus output directory.")
@click.option("--benign-pool", envvar="CHAINWATCH_BENIGN_POOL", default=None,
              help="Benign calls for padding, trace grammar (default: bundled).")
@click.option("--benign-ratio", type=float, default=None,
              help="Benign-only traces per vulnerable trace (default 1.0).")
@click.option("--filler-rate", type=float, default=None,
              help="Mean benign calls interleaved around each template call (default 2.0).")
@click.option("--per-sequence", type=int, default=None,
              help="Padded traces emitted per matched sequence (default 1).")
@click.option("--split", type=float, default=None, help="Train fraction (default 0.85).")
def gen_dataset(config_path, seed, embeddings, vocab_dir, fingerprints, sdg_path, out_dir,
                benign_pool, benign_ratio, filler_rate, per_sequence, split):
    """Mine the graph for each fingerprint's flows and emit a labeled corpus."""
    config = _load_config(config_path)
    sdg_path = _pick(config, "sdg", sdg_path)
    out_dir = _pick(config, "out", out_dir)
    if not sdg_path:
        raise CliError("a dependence graph file is required (--sdg)")
    if not out_dir:
        raise CliError("an output directory is required (--out)")
    encoder = _encoder(config, embeddings, vocab_dir)
    db = _load_db(config, fingerprints, encoder)
    pool_path = _pick(config, "benign_pool", benign_pool, str(DEFAULT_BENIGN_POOL))
    try:
        graph = sdg_mod.load_sdg(sdg_path, encoder.vocabs)
        with open(pool_path) as fh:
            pool = tuple(read_trace(fh, encoder.vocabs, source_id=str(pool_path)).calls)
        sequences = {}
        for eid in db.exploit_ids:
            query = sdg_mod.lower_fingerprint(db[eid])
            matched = sdg_mod.match_query(graph, query)
            if matched:
                sequences[eid] = matched
        if not sequences:
            raise CliError("no fingerprint matched any flow in the graph")
        padding = corpus_mod.PaddingConfig(
            benign_pool=pool,
            filler_rate=_pick(config, "filler_rate", filler_rate, 2.0),
            per_sequence=_pick(config, "per_sequence", per_sequence, 1),
        )
        manifest = corpus_mod.generate_corpus(
            db,
            sequences,
            out_dir,
            seed=_pick(config, "seed", seed, 0),
            split=_pick(config, "split", split, 0.85),
            benign_ratio=_pick(config, "benign_ratio", benign_ratio, 1.0),
            padding=padding,
        )
    except CliError:
        raise
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))
    click.echo(json.dumps({
        "out": str(out_dir),
        "matched_exploits": sorted(sequences),
        "counts": manifest["counts"],
        "seed": manifest["seed"],
        "split": manifest["split"],
    }))


@cli.command(name="eval")
@_config_opt
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt
@_model_opt
@click.option("--corpus", envvar="CHAINWATCH_CORPUS", default=None, help="Corpus directory.")
@click.option("--split-name", default="test", show_default=True,
              help="Which corpus split to score.")
@click.option("--predictions", default=None,
              help="Pre-computed per-call label lines; bypasses the model.")
@click.option("--threshold", type=float, default=None,
              help=f"Classification threshold (default {DEFAULT_CLASSIFY_THRESHOLD}).")
def eval_cmd(config_path, embeddings, vocab_dir, fingerprints, model_path, corpus,
             split_name, predictions, threshold):
    """Score per-call exploit predictions against a corpus split's labels.

    With --model, predictions come from the classifier; with --predictions,
    from a file with one comma-separated label line per call (trace files in
    sorted order).  Reports per-label, per-CWE pooled, and macro metrics.
    """
    config = _load_config(config_path)
    corpus_dir = _pick(config, "corpus", corpus)
    if not corpus_dir:
        raise CliError("a corpus directory is required (--corpus)")
    encoder = _encoder(config, embeddings, vocab_dir)
    try:
        manifest = corpus_mod.read_manifest(corpus_dir)
        n_labels = manifest["n_labels"]
        items = corpus_mod.load_split(corpus_dir, split_name, encoder.vocabs)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))

    tables = metrics.new_tables(n_labels)
    thr = _pick(config, "threshold", threshold, DEFAULT_CLASSIFY_THRESHOLD)
    if predictions:
        try:
            pred_sets = corpus_mod._read_labels(Path(predictions))
        except OSError as exc:
            raise CliError(str(exc))
        total_calls = sum(len(item.trace) for item in items)
        if len(pred_sets) != total_calls:
            raise CliError(
                f"{predictions}: {len(pred_sets)} prediction lines for {total_calls} calls"
            )
        cursor = 0
        for item in items:
            for labels in item.label_sets:
                row_pred = np.zeros(n_labels)
                for i in pred_sets[cursor]:
                    row_pred[i] = 1.0
                row_true = np.zeros(n_labels)
                for i in labels:
                    row_true[i] = 1.0
                metrics.accumulate(tables, row_pred, row_true)
                cursor += 1
    else:
        model = _load_model(config, model_path)
        for item in items:
            x = encoder.encode_trace(item.trace.calls)
            probs = mlp.forward(model, x)
            preds = (probs >= thr).astype(np.float64)
            truth = item.label_matrix(n_labels)
            for row_pred, row_true in zip(preds, truth):
                metrics.accumulate(tables, row_pred, row_true)

    macro = metrics.macro_average(tables)
    support = metrics.supported_labels(tables)
    macro_supported = metrics.macro_average(tables, support) if support else None
    lines = []
    header = f"{'label':>8} {'tp':>7} {'fp':>7} {'fn':>7} {'tn':>9} {'acc':>7} {'prec':>7} {'rec':>7} {'f1':>7}"
    lines.append(header)
    for i, c in enumerate(tables):
        if c.tp + c.fp + c.fn == 0:
            continue
        s = metrics.summarize(c)
        lines.append(
            f"{i:>8} {c.tp:>7} {c.fp:>7} {c.fn:>7} {c.tn:>9} "
            f"{s['accuracy']:>7.4f} {s['precision']:>7.4f} {s['recall']:>7.4f} {s['f1']:>7.4f}"
        )
    per_cwe = {}
    if _pick(config, "fingerprints", fingerprints):
        db = _load_db(config, fingerprints, encoder)
        lines.append("")
        lines.append("per-CWE (pooled):")
        for cwe, ids in db.cwe_index().items():
            c = metrics.pooled(tables, ids)
            s = metrics.summarize(c)
            per_cwe[cwe] = s
            lines.append(
                f"{cwe:>12} labels={len(ids):<3} acc={s['accuracy']:.4f} "
                f"prec={s['precision']:.4f} rec={s['recall']:.4f} f1={s['f1']:.4f}"
            )
    click.echo("\n".join(lines))
    click.echo(json.dumps({
        "split": split_name,
        "calls": sum(len(item.trace) for item in items),
        "macro": macro,
        "supported_labels": len(support),
        "macro_supported": macro_supported,
        "per_cwe": per_cwe,
    }))


@cli.command(name="bench")
@_config_opt
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt
@_whitelist_opt
@_model_opt
@click.option("--corpus", envvar="CHAINWATCH_CORPUS", default=None, help="Corpus directory.")
@click.option("--split-name", default="test", show_default=True)
@click.option("--repetitions", type=int, default=None, help="Measured passes (default 3).")
@click.option("--max-traces", type=int, default=None, help="Cap the number of traces benchmarked.")
@click.option("--json-out", default=None, help="Also write the full report as JSON.")
def bench_cmd(config_path, embeddings, vocab_dir, fingerprints, whitelist, model_path,
              corpus, split_name, repetitions, max_traces, json_out):
    """Time detect and detect-naive over the scored calls of a corpus split."""
    config = _load_config(config_path)
    corpus_dir = _pick(config, "corpus", corpus)
    if not corpus_dir:
        raise CliError("a corpus directory is required (--corpus)")
    encoder = _encoder(config, embeddings, vocab_dir)
    db = _load_db(config, fingerprints, encoder)
    wl = _load_whitelist(config, whitelist)
    model = _load_model(config, model_path)
    try:
        items = corpus_mod.load_split(corpus_dir, split_name, encoder.vocabs)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))
    traces = [item.trace for item in items]
    cap = _pick(config, "max_traces", max_traces)
    if cap:
        traces = traces[: int(cap)]
    try:
        report = bench_mod.run_bench(
            traces, encoder, wl, db, model,
            repetitions=_pick(config, "repetitions", repetitions, 3),
        )
    except ValueError as exc:
        raise CliError(str(exc))
    e, n = report.engine, report.naive
    click.echo(
        f"traces: {len(traces)}   scored calls: {e.non_whitelisted_calls}   "
        f"reps: {report.repetitions}"
    )
    click.echo(
        f"engine: median {e.latency.median_us:.1f} us  p99 {e.latency.p99_us:.1f} us  "
        f"comparisons/call {e.comparisons_per_call:.2f}"
    )
    click.echo(
        f"naive:  median {n.latency.median_us:.1f} us  p99 {n.latency.p99_us:.1f} us  "
        f"comparisons/call {n.comparisons_per_call:.2f}"
    )
    click.echo(
        f"alarms: engine {e.alarms}  naive {n.alarms}  "
        f"missed {report.missed}  extra {report.extra}"
    )
    click.echo(
        f"comparison ratio (naive/engine): {_times(report.comparison_ratio, 1)}   "
        f"latency ratio: {_times(report.latency_ratio, 2)}"
    )
    if json_out:
        Path(json_out).write_text(json.dumps(report.to_json_obj(), indent=1) + "\n")
    click.echo(json.dumps({
        "engine_median_us": e.latency.median_us,
        "naive_median_us": n.latency.median_us,
        "missed": report.missed,
        "extra": report.extra,
        "comparison_ratio": report.comparison_ratio,
        "latency_ratio": report.latency_ratio,
        "param_count": report.param_count,
    }))


def _times(ratio: float | None, digits: int) -> str:
    return "n/a" if ratio is None else f"{ratio:.{digits}f}x"


def main(argv=None) -> int:
    """Console entry point with the documented exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return 0 if rv is None else int(rv)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
