"""Command-line interface.

Subcommands: encode, train, detect, detect-naive, gen-dataset, eval, bench.

Every flag value resolves as: the flag itself, then its environment
variable, then its key in the JSON file given with ``--config``, then the
default. Config keys are the flag names without leading dashes, with
underscores for inner dashes (``--threshold-cosine`` is
``threshold_cosine``); values are converted and checked as the flag's
would be. A key that names no flag of any subcommand is an error, while a
key of another subcommand is ignored, so one file can serve every command.
``--help`` shows each flag's default and environment variable.

Exit codes: 0 = clean run, 2 = detection run that raised at least one alarm,
1 = any error (bad usage, unreadable input, malformed file).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import click

from . import __version__
from . import bench as bench_mod
from . import corpus as corpus_mod
from . import metrics, mlp, sdg as sdg_mod
from .encoder import FeatureEncoder, default_embedding_path
from .engine import (
    DEFAULT_CLASSIFY_THRESHOLD,
    EngineConfig,
    detect as run_engine_detect,
    detect_naive as run_engine_naive,
)
from .fingerprints import WhiteList, load_fingerprints
from .monitor import DEFAULT_COSINE_THRESHOLD
from .trace import read_trace
from .vocab import decode_text, open_text, vocabulary_files

_DATA = Path(__file__).parent / "data"
DEFAULT_WHITELIST = _DATA / "fixtures" / "whitelist.txt"
DEFAULT_BENIGN_POOL = _DATA / "fixtures" / "benign_pool.jsonl"


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the JSON object in ``path`` the command's ``default_map``."""
    if path is None:
        return
    try:
        with open_text(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.BadParameter(f"{path}: {exc}", ctx, param)
    if not isinstance(config, dict):
        raise click.BadParameter(f"{path}: expected a JSON object", ctx, param)
    known = {p.name for cmd in cli.commands.values() for p in cmd.params if p.expose_value}
    unknown = sorted(set(config) - known)
    if unknown:
        raise click.BadParameter(f"{path}: unknown key(s): {', '.join(unknown)}", ctx, param)
    ctx.default_map = config


class _FiniteRange(click.FloatRange):
    """A FloatRange that also refuses NaN and infinity. NaN passes
    FloatRange's own bounds, since every comparison with it is false."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


def _refuse_to_overwrite(out: str | None, embeddings: str | None, vocab_dir: str | None,
                         inputs: list[tuple[str, str | Path | None]],
                         out_flag: str = "--out") -> None:
    """Stop before anything is written when ``out``, given with ``out_flag``, is
    a file the command reads: the embedding table and vocabulary files, given or
    bundled, or one of ``inputs``, ``(flag, path)`` pairs that name the argument
    or flag that gave each path."""
    if out in (None, "-") or not os.path.exists(out):
        return
    read = [("--embeddings", embeddings if embeddings is not None else default_embedding_path())]
    read += [("--vocab-dir", path) for path in vocabulary_files(vocab_dir)]
    read += inputs
    for flag, path in read:
        if path not in (None, "-") and os.path.exists(path) and os.path.samefile(out, path):
            raise click.ClickException(
                f"{out_flag} {out} is the {flag} input; refusing to overwrite it"
            )


def _not_stdout(ctx: click.Context, param: click.Parameter, value: str | None) -> str | None:
    if value == "-":
        raise click.BadParameter(
            "'-' is not a file; the summary is already the last line of stdout", ctx, param
        )
    return value


def _read_trace(path: str, encoder: FeatureEncoder):
    """TRACE as UTF-8 from a path, or from stdin when it is '-'."""
    if path == "-":
        lines = decode_text(click.get_binary_stream("stdin").read(), "<stdin>")
        return read_trace(lines, encoder.vocabs, source_id="<stdin>")
    with open_text(path) as fh:
        return read_trace(fh, encoder.vocabs, source_id=path)


_config_opt = click.option("--config", envvar="CHAINWATCH_CONFIG", show_envvar=True,
                           is_eager=True, expose_value=False, callback=_load_config,
                           help="JSON file supplying defaults for any flag.")

_embeddings_opt = click.option("--embeddings", envvar="CHAINWATCH_EMBEDDINGS", show_envvar=True,
                               show_default="bundled", help="Embedding table file.")
_vocab_opt = click.option("--vocab-dir", envvar="CHAINWATCH_VOCAB_DIR", show_envvar=True,
                          show_default="bundled", help="Vocabulary directory.")
_whitelist_opt = click.option("--whitelist", envvar="CHAINWATCH_WHITELIST", show_envvar=True,
                              default=str(DEFAULT_WHITELIST), show_default="bundled",
                              help="White-listed API names, one per line.")
_corpus_opt = click.option("--corpus", envvar="CHAINWATCH_CORPUS", show_envvar=True,
                           required=True, help="Corpus directory.")
_threshold_classify_opt = click.option(
    "--threshold-classify", default=DEFAULT_CLASSIFY_THRESHOLD,
    type=_FiniteRange(0.0, 1.0, min_open=True, max_open=True),
    help="Probability needed to nominate a label.")
_threshold_cosine_opt = click.option(
    "--threshold-cosine", default=DEFAULT_COSINE_THRESHOLD,
    type=_FiniteRange(0.0, 1.0, min_open=True),
    help="Similarity needed to advance a chain.")
_halt_opt = click.option("--halt-on-alarm", is_flag=True,
                         help="Stop at the first alarm instead of scanning the whole trace.")
_alarm_out_opt = click.option("--out", default="-",
                              help="Write alarm records here instead of stdout.")
_split_name_opt = click.option("--split-name", default="test",
                               help="Which corpus split to use.")


def _fingerprints_opt(required: bool = True):
    return click.option("--fingerprints", envvar="CHAINWATCH_FINGERPRINTS", show_envvar=True,
                        required=required, help="Fingerprint database file.")


def _model_opt(required: bool = True):
    return click.option("--model", envvar="CHAINWATCH_MODEL", show_envvar=True,
                        required=required, help="Trained classifier file.")


def _seed_opt(max_seed: int | None = None):
    return click.option("--seed", type=click.IntRange(0, max_seed), default=mlp.TrainConfig.seed,
                        help="Deterministic seed.")


@click.group(context_settings={"show_default": True})
@click.version_option(__version__, prog_name="chainwatch")
def cli():
    """Streaming exploit-chain detection over instruction-call traces."""


@cli.command()
@click.argument("trace", default="-")
@_config_opt
@_embeddings_opt
@_vocab_opt
@click.option("--out", default="-", help="Write vectors here instead of stdout.")
def encode(trace, embeddings, vocab_dir, out):
    """Encode TRACE (path or '-') into 151-component feature vectors.

    One line per record: 151 decimal floats, space separated.
    """
    _refuse_to_overwrite(out, embeddings, vocab_dir, [("TRACE", trace)])
    encoder = FeatureEncoder.from_paths(embeddings, vocab_dir)
    parsed = _read_trace(trace, encoder)
    with click.open_file(out, "w") as sink:
        for call in parsed.calls:
            vec = encoder.encode(call)
            sink.write(" ".join(format(v, ".17g") for v in vec) + "\n")


@cli.command()
@_config_opt
@_seed_opt(mlp.MAX_SEED)
@_embeddings_opt
@_vocab_opt
@_corpus_opt
@click.option("--out", envvar="CHAINWATCH_MODEL_OUT", show_envvar=True, required=True,
              help="Where to write the trained model.")
@click.option("--epochs", type=click.IntRange(min=1), default=mlp.TrainConfig.epochs,
              help="Training epochs.")
@click.option("--lr", type=_FiniteRange(min=0.0, min_open=True),
              default=mlp.TrainConfig.learning_rate, help="Learning rate.")
@click.option("--batch-size", type=click.IntRange(min=1), default=mlp.TrainConfig.batch_size,
              help="Minibatch size.")
def train(seed, embeddings, vocab_dir, corpus, out, epochs, lr, batch_size):
    """Train the classifier on a corpus directory's train split."""
    _refuse_to_overwrite(out, embeddings, vocab_dir,
                         [("--corpus", path) for path in corpus_mod.split_files(corpus, "train")])
    encoder = FeatureEncoder.from_paths(embeddings, vocab_dir)
    train_cfg = mlp.TrainConfig(learning_rate=lr, epochs=epochs, batch_size=batch_size, seed=seed)
    items = corpus_mod.load_split(corpus, "train", encoder.vocabs)
    x, t = corpus_mod.build_xy(items, encoder, mlp.N_LABELS)
    model, report = mlp.train(x, t, train_cfg)
    mlp.save_model(model, out)
    click.echo(json.dumps({
        "model": str(out),
        "examples": int(x.shape[0]),
        "distinct_rows": report.distinct_rows,
        "traces": len(items),
        "epochs": train_cfg.epochs,
        "learning_rate": train_cfg.learning_rate,
        "batch_size": train_cfg.batch_size,
        "seed": train_cfg.seed,
        "initial_loss": report.initial_loss,
        "final_loss": report.final_loss,
        "param_count": mlp.PARAM_COUNT,
    }))


def _emit_detection(ctx, result, out):
    with click.open_file(out, "w") as sink:
        for alarm in result.alarms:
            sink.write(json.dumps(alarm.to_json_obj()) + "\n")
    click.echo(json.dumps(result.summary.to_json_obj()), err=True)
    if result.alarms:
        ctx.exit(2)


def _scan_options(*classifier_opts):
    """The options of ``detect`` and ``detect-naive``, with ``classifier_opts``
    in the place that ``detect`` gives its model options."""
    def apply(fn):
        for opt in reversed((
            click.argument("trace", default="-"), _config_opt, _embeddings_opt, _vocab_opt,
            _fingerprints_opt(), _whitelist_opt, *classifier_opts, _threshold_cosine_opt,
            _halt_opt, _alarm_out_opt, click.pass_context,
        )):
            fn = opt(fn)
        return fn
    return apply


def _scan(ctx, trace, embeddings, vocab_dir, fingerprints, whitelist, threshold_cosine,
          halt_on_alarm, out, model=None, threshold_classify=DEFAULT_CLASSIFY_THRESHOLD):
    """The body of both detection commands; without ``model``, the naive scan."""
    _refuse_to_overwrite(out, embeddings, vocab_dir, [
        ("TRACE", trace), ("--model", model), ("--fingerprints", fingerprints),
        ("--whitelist", whitelist),
    ])
    encoder = FeatureEncoder.from_paths(embeddings, vocab_dir)
    db = load_fingerprints(fingerprints, encoder)
    wl = WhiteList.from_file(whitelist)
    parsed = _read_trace(trace, encoder)
    engine_cfg = EngineConfig(threshold_classify=threshold_classify,
                              threshold_cosine=threshold_cosine, halt_on_alarm=halt_on_alarm)
    if model is None:
        result = run_engine_naive(parsed, encoder, wl, db, engine_cfg)
    else:
        result = run_engine_detect(parsed, encoder, wl, db, mlp.load_model(model), engine_cfg)
    _emit_detection(ctx, result, out)


@cli.command()
@_scan_options(_model_opt(), _threshold_classify_opt)
def detect(ctx, **opts):
    """Scan TRACE with the classifier-filtered engine; alarms as JSON lines."""
    _scan(ctx, **opts)


@cli.command(name="detect-naive")
@_scan_options()
def detect_naive(ctx, **opts):
    """Scan TRACE comparing every stored exploit on every call (no classifier)."""
    _scan(ctx, **opts)


@cli.command(name="gen-dataset")
@_config_opt
@_seed_opt()
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt()
@click.option("--sdg", envvar="CHAINWATCH_SDG", show_envvar=True, required=True,
              help="Dependence graph file to mine for vulnerable sequences.")
@click.option("--out", required=True, help="Corpus output directory.")
@click.option("--benign-pool", envvar="CHAINWATCH_BENIGN_POOL", show_envvar=True,
              default=str(DEFAULT_BENIGN_POOL), show_default="bundled",
              help="Benign calls for padding, trace grammar.")
@click.option("--benign-ratio", type=_FiniteRange(min=0.0), default=1.0,
              help="Benign-only traces per vulnerable trace.")
@click.option("--filler-rate", type=_FiniteRange(0.0, corpus_mod.MAX_FILLER_RATE), default=2.0,
              help="Mean benign calls interleaved around each template call.")
@click.option("--per-sequence", type=click.IntRange(min=1), default=1,
              help="Padded traces emitted per matched sequence.")
@click.option("--split", type=_FiniteRange(0.0, 1.0, min_open=True, max_open=True),
              default=0.85, help="Train fraction.")
def gen_dataset(seed, embeddings, vocab_dir, fingerprints, sdg, out, benign_pool,
                benign_ratio, filler_rate, per_sequence, split):
    """Mine the graph for each fingerprint's flows and emit a labeled corpus."""
    encoder = FeatureEncoder.from_paths(embeddings, vocab_dir)
    db = load_fingerprints(fingerprints, encoder)
    graph = sdg_mod.load_sdg(sdg, encoder.vocabs)
    with open_text(benign_pool) as fh:
        pool = tuple(read_trace(fh, encoder.vocabs, source_id=benign_pool).calls)
    sequences = {}
    for eid in db.exploit_ids:
        try:
            query = sdg_mod.lower_fingerprint(db[eid])
        except sdg_mod.SdgError as exc:
            raise sdg_mod.SdgError(f"{fingerprints}: {exc}") from None
        matched = sdg_mod.match_query(graph, query)
        if matched:
            sequences[eid] = matched
    if not sequences:
        raise click.ClickException("no fingerprint matched any flow in the graph")
    padding = corpus_mod.PaddingConfig(
        benign_pool=pool, filler_rate=filler_rate, per_sequence=per_sequence
    )
    manifest = corpus_mod.generate_corpus(
        db, sequences, out, seed=seed, split=split, benign_ratio=benign_ratio, padding=padding
    )
    click.echo(json.dumps({
        "out": str(out),
        "matched_exploits": sorted(sequences),
        "counts": manifest["counts"],
        "seed": manifest["seed"],
        "split": manifest["split"],
    }))


@cli.command(name="eval")
@_config_opt
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt(required=False)
@_model_opt(required=False)
@_corpus_opt
@_split_name_opt
@click.option("--predictions", help="Pre-computed per-call label lines; bypasses the model.")
@_threshold_classify_opt
def eval_cmd(embeddings, vocab_dir, fingerprints, model, corpus, split_name, predictions,
             threshold_classify):
    """Score per-call exploit predictions against a corpus split's labels.

    With --model, predictions come from the classifier; with --predictions,
    from a file with one comma-separated label line per call (trace files in
    sorted order).  Reports per-label, per-CWE pooled, and macro metrics.
    """
    encoder = FeatureEncoder.from_paths(embeddings, vocab_dir)
    items = corpus_mod.load_split(corpus, split_name, encoder.vocabs)
    label_sets = [labels for item in items for labels in item.label_sets]
    truth = corpus_mod.label_rows(label_sets, mlp.N_LABELS)
    if predictions:
        pred_sets = corpus_mod.read_labels(Path(predictions))
        if len(pred_sets) != len(label_sets):
            raise click.ClickException(
                f"{predictions}: {len(pred_sets)} prediction lines for {len(label_sets)} calls"
            )
        preds = corpus_mod.label_rows(pred_sets, mlp.N_LABELS)
    elif model:
        x, _ = corpus_mod.build_xy(items, encoder, mlp.N_LABELS)
        preds = mlp.forward(mlp.load_model(model), x) >= threshold_classify
    else:
        raise click.ClickException("a model file is required (--model)")
    tables = metrics.confusion_tables(preds, truth)

    macro = metrics.macro_average(tables)
    support = metrics.supported_labels(tables)
    macro_supported = metrics.macro_average(tables, support) if support else None
    lines = [f"{'label':>8} {'tp':>7} {'fp':>7} {'fn':>7} {'tn':>9} {'acc':>7} {'prec':>7} {'rec':>7} {'f1':>7}"]
    for i in support:
        c = tables[i]
        s = metrics.summarize(c)
        lines.append(
            f"{i:>8} {c.tp:>7} {c.fp:>7} {c.fn:>7} {c.tn:>9} "
            f"{s['accuracy']:>7.4f} {s['precision']:>7.4f} {s['recall']:>7.4f} {s['f1']:>7.4f}"
        )
    per_cwe = {}
    if fingerprints:
        db = load_fingerprints(fingerprints, encoder)
        lines += ["", "per-CWE (pooled):"]
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
        "calls": len(label_sets),
        "macro": macro,
        "supported_labels": len(support),
        "macro_supported": macro_supported,
        "per_cwe": per_cwe,
    }))


@cli.command(name="bench")
@_config_opt
@_embeddings_opt
@_vocab_opt
@_fingerprints_opt()
@_whitelist_opt
@_model_opt()
@_corpus_opt
@_split_name_opt
@click.option("--repetitions", type=click.IntRange(min=1), default=3, help="Measured passes.")
@click.option("--max-traces", type=click.IntRange(min=1),
              help="Cap the number of traces benchmarked.")
@click.option("--json-out", callback=_not_stdout,
              help="Also write the full report as JSON to this file.")
def bench_cmd(embeddings, vocab_dir, fingerprints, whitelist, model, corpus, split_name,
              repetitions, max_traces, json_out):
    """Time detect and detect-naive over the scored calls of a corpus split."""
    _refuse_to_overwrite(json_out, embeddings, vocab_dir, [
        ("--model", model), ("--fingerprints", fingerprints), ("--whitelist", whitelist),
        *(("--corpus", path) for path in corpus_mod.split_files(corpus, split_name)),
    ], "--json-out")
    encoder = FeatureEncoder.from_paths(embeddings, vocab_dir)
    db = load_fingerprints(fingerprints, encoder)
    wl = WhiteList.from_file(whitelist)
    classifier = mlp.load_model(model)
    items = corpus_mod.load_split(corpus, split_name, encoder.vocabs)
    traces = [item.trace for item in items][:max_traces]
    report = bench_mod.run_bench(traces, encoder, wl, db, classifier, repetitions=repetitions)
    e, n, agreement = report["engine"], report["naive"], report["agreement"]
    click.echo(
        f"traces: {len(traces)}   scored calls: {e['non_whitelisted_calls']}   "
        f"reps: {report['repetitions']}"
    )
    for name, mode in (("engine:", e), ("naive: ", n)):
        click.echo(
            f"{name} median {mode['latency']['median_us']:.1f} us  "
            f"p99 {mode['latency']['p99_us']:.1f} us  "
            f"comparisons/call {mode['comparisons_per_call']:.2f}"
        )
    click.echo(
        f"alarms: engine {e['alarms']}  naive {n['alarms']}  "
        f"missed {agreement['missed']}  extra {agreement['extra']}"
    )
    click.echo(
        f"comparison ratio (naive/engine): {_times(report['comparison_ratio'], 1)}   "
        f"latency ratio: {_times(report['latency_ratio'], 2)}"
    )
    if json_out:
        Path(json_out).write_text(json.dumps(report, indent=1) + "\n")
    click.echo(json.dumps({
        "engine_median_us": e["latency"]["median_us"],
        "naive_median_us": n["latency"]["median_us"],
        **agreement,
        "comparison_ratio": report["comparison_ratio"],
        "latency_ratio": report["latency_ratio"],
        "param_count": report["param_count"],
    }))


def _times(ratio: float | None, digits: int) -> str:
    return "n/a" if ratio is None else f"{ratio:.{digits}f}x"


def main(argv=None) -> int:
    """Console entry point with the documented exit-code contract.

    Every error, whether click's own or an ``OSError``/``ValueError`` raised
    by a loader or the library, prints one ``Error:`` line and exits 1.
    """
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return 0 if rv is None else int(rv)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (OSError, ValueError) as exc:
        click.echo(f"Error: {exc}", err=True)
        return 1
