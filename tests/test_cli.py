"""End-to-end command-line contract tests.

These call the real entry point (chainwatch.cli.main) in-process and assert
the documented exit codes: 0 clean, 2 when a detection run alarms, 1 on any
error.  The pipeline fixtures (corpus, model) are built once per module with
the CLI itself.
"""

import io
import json
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from click import ClickException

from chainwatch.cli import _refuse_to_overwrite, cli, main
from chainwatch.corpus import build_xy, load_split, read_manifest
from chainwatch.encoder import default_embedding_path
from chainwatch.mlp import N_LABELS, PARAM_COUNT, init_model, load_model, save_model
from chainwatch.trace import serialize_trace_record
from chainwatch.vocab import default_vocab_dir

from .conftest import FIXTURES, ROOT, child_env

SUBCOMMANDS = ("encode", "train", "detect", "detect-naive", "gen-dataset", "eval", "bench")


@pytest.fixture(scope="module")
def world_files(tmp_path_factory, small_world):
    d = tmp_path_factory.mktemp("worldfiles")
    paths = small_world.write(d, "w")
    chain = small_world.chains[0]
    pool = small_world.benign_pool
    planted = d / "planted.jsonl"
    with open(planted, "w") as fh:
        for c in (pool[0], chain[0], pool[1], pool[2], chain[1], pool[3], chain[2], pool[4]):
            fh.write(serialize_trace_record(c) + "\n")
    benign = d / "benign.jsonl"
    with open(benign, "w") as fh:
        for c in pool[:6]:
            fh.write(serialize_trace_record(c) + "\n")
    paths["planted"] = planted
    paths["benign_trace"] = benign
    return paths


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory, world_files):
    out = tmp_path_factory.mktemp("clicorpus") / "corpus"
    rc = main([
        "gen-dataset",
        "--fingerprints", str(world_files["fingerprints"]),
        "--sdg", str(world_files["sdg"]),
        "--benign-pool", str(world_files["benign"]),
        "--out", str(out),
        "--per-sequence", "20",
        "--seed", "3",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cli_model(tmp_path_factory, cli_corpus):
    path = tmp_path_factory.mktemp("climodel") / "model.cwmlp"
    rc = main([
        "train",
        "--corpus", str(cli_corpus),
        "--out", str(path),
        "--epochs", "30",
        "--lr", "2.0",
        "--seed", "0",
    ])
    assert rc == 0
    return path


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


class TestEncode:
    def test_file_to_stdout(self, world_files, encoder, small_world, capsys):
        rc = main(["encode", str(world_files["planted"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        values = [float(v) for v in lines[1].split()]
        assert len(values) == 151
        expect = encoder.encode(small_world.chains[0][0])
        np.testing.assert_allclose(values, expect, rtol=0, atol=0)

    def test_out_file(self, world_files, tmp_path, capsys):
        out = tmp_path / "vecs.txt"
        rc = main(["encode", str(world_files["planted"]), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert len(out.read_text().strip().splitlines()) == 8

    def test_bad_trace_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        rc = main(["encode", str(bad)])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err


class TestDetect:
    def test_naive_alarm_exit_2(self, world_files, capsys):
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]),
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        alarm = json.loads(out.strip())
        assert alarm["exploit_id"] == 0
        assert alarm["cwe_id"] == "CWE-89"
        assert alarm["offset"] == 6
        assert alarm["similarity"] == pytest.approx(1.0)
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["total_calls"] == 8
        assert summary["whitelisted_calls"] == 3  # pool leads with whitelisted names
        assert summary["alarms"] == 1
        assert summary["classifier_invocations"] == 0

    def test_naive_clean_exit_0(self, world_files, capsys):
        rc = main([
            "detect-naive", str(world_files["benign_trace"]),
            "--fingerprints", str(world_files["fingerprints"]),
        ])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out.strip() == ""
        assert json.loads(err.strip().splitlines()[-1])["alarms"] == 0

    def test_filtered_same_alarm_fewer_comparisons(self, world_files, cli_model, capsys):
        rc = main([
            "detect", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]),
            "--model", str(cli_model),
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        alarm = json.loads(out.strip())
        assert (alarm["exploit_id"], alarm["offset"]) == (0, 6)
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["classifier_invocations"] == 5
        assert summary["comparisons"] < 30  # naive compares 5 calls x 6 exploits

    def test_alarms_to_file(self, world_files, tmp_path, capsys):
        out = tmp_path / "alarms.jsonl"
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]),
            "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text().strip())["exploit_id"] == 0

    def test_halt_on_alarm_flag(self, world_files, capsys):
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]),
            "--halt-on-alarm",
        ])
        assert rc == 2
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["halted"] is True
        assert summary["total_calls"] == 7  # stops right at the alarm call

    def test_missing_fingerprints_exit_1(self, world_files, capsys):
        rc = main(["detect-naive", str(world_files["planted"])])
        assert rc == 1
        assert "fingerprint" in capsys.readouterr().err.lower()

    def test_bad_threshold_exit_1(self, world_files, capsys):
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]),
            "--threshold-cosine", "1.5",
        ])
        assert rc == 1

    @pytest.mark.parametrize("command", ("detect", "detect-naive"))
    @pytest.mark.parametrize("value", ("0", "1.5"))
    def test_threshold_cosine_out_of_range_names_the_flag(self, command, value, tmp_path, capsys):
        """Refused as usage before any file is read: the paths given do not exist."""
        missing = str(tmp_path / "missing")
        model = ["--model", missing] if command == "detect" else []
        rc = main([command, missing, "--fingerprints", missing, *model,
                   "--threshold-cosine", value])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--threshold-cosine" in err and "missing" not in err

    def test_env_var_supplies_fingerprints(self, world_files, monkeypatch, capsys):
        monkeypatch.setenv("CHAINWATCH_FINGERPRINTS", str(world_files["fingerprints"]))
        rc = main(["detect-naive", str(world_files["planted"])])
        assert rc == 2
        monkeypatch.setenv("CHAINWATCH_FINGERPRINTS", str(world_files["planted"]))
        rc = main(["detect-naive", str(world_files["planted"])])  # wrong grammar
        assert rc == 1

    def test_config_file_and_flag_precedence(self, world_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fingerprints": str(world_files["fingerprints"])}))
        rc = main(["detect-naive", str(world_files["planted"]), "--config", str(config)])
        assert rc == 2
        capsys.readouterr()
        # flag beats a config entry pointing at garbage
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fingerprints": "/does/not/exist"}))
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--config", str(bad),
            "--fingerprints", str(world_files["fingerprints"]),
        ])
        assert rc == 2


class TestValueSources:
    """Each value resolves as flag, then env var, then config key, then default."""

    def _config(self, tmp_path, **entries):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_flag_beats_env(self, world_files, monkeypatch, capsys):
        monkeypatch.setenv("CHAINWATCH_FINGERPRINTS", "/does/not/exist")
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]),
        ])
        assert rc == 2

    def test_env_beats_config(self, world_files, tmp_path, monkeypatch, capsys):
        config = self._config(tmp_path, fingerprints="/does/not/exist")
        monkeypatch.setenv("CHAINWATCH_FINGERPRINTS", str(world_files["fingerprints"]))
        rc = main(["detect-naive", str(world_files["planted"]), "--config", config])
        assert rc == 2

    def test_config_beats_default(self, world_files, tmp_path, capsys):
        """--out defaults to stdout; its config key sends the alarms to a file."""
        out = tmp_path / "alarms.jsonl"
        config = self._config(
            tmp_path, fingerprints=str(world_files["fingerprints"]), out=str(out)
        )
        rc = main(["detect-naive", str(world_files["planted"]), "--config", config])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text().strip())["exploit_id"] == 0

    def test_unknown_key_exit_1(self, world_files, tmp_path, capsys):
        config = self._config(
            tmp_path, fingerprints=str(world_files["fingerprints"]), threshold_cosin=0.1
        )
        rc = main(["detect-naive", str(world_files["planted"]), "--config", config])
        assert rc == 1
        assert "unknown key(s): threshold_cosin" in capsys.readouterr().err

    def test_value_typed_as_flag(self, world_files, tmp_path, capsys):
        config = self._config(
            tmp_path, fingerprints=str(world_files["fingerprints"]), threshold_cosine="x"
        )
        rc = main(["detect-naive", str(world_files["planted"]), "--config", config])
        assert rc == 1
        assert "--threshold-cosine" in capsys.readouterr().err

    def test_key_of_another_subcommand_ignored(self, world_files, tmp_path, capsys):
        config = self._config(
            tmp_path, fingerprints=str(world_files["fingerprints"]), epochs=5
        )
        rc = main(["detect-naive", str(world_files["planted"]), "--config", config])
        assert rc == 2


class TestOutNeverAnInput:
    """--out that names an input file exits 1 before anything is written."""

    def test_shared_config_keeps_the_model(self, world_files, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_model(init_model(0), "shared.cwm")
        before = (tmp_path / "shared.cwm").read_bytes()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "fingerprints": str(world_files["fingerprints"]),
            "model": "shared.cwm",
            "out": "shared.cwm",
        }))
        rc = main(["detect", str(world_files["planted"]), "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("Error:") and "--model" in err[0]
        assert (tmp_path / "shared.cwm").read_bytes() == before

    def test_naive_out_is_the_trace(self, world_files, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        shutil.copy(world_files["planted"], trace)
        before = trace.read_bytes()
        rc = main([
            "detect-naive", str(trace),
            "--fingerprints", str(world_files["fingerprints"]),
            "--out", str(tmp_path / "." / "trace.jsonl"),
        ])
        assert rc == 1
        assert "TRACE" in capsys.readouterr().err
        assert trace.read_bytes() == before

    def test_encode_out_is_the_embeddings(self, world_files, tmp_path, capsys):
        table = tmp_path / "emb.txt"
        table.write_text("tok " + " ".join(["0.1"] * 10) + "\n")
        rc = main([
            "encode", str(world_files["planted"]),
            "--embeddings", str(table), "--out", str(table),
        ])
        assert rc == 1
        assert "--embeddings" in capsys.readouterr().err
        assert table.read_text().startswith("tok ")

    def test_detect_out_is_a_vocabulary_file(self, world_files, tmp_path, capsys):
        vocab = tmp_path / "vocab"
        shutil.copytree(default_vocab_dir(), vocab)
        before = (vocab / "io_types.txt").read_bytes()
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]),
            "--vocab-dir", str(vocab), "--out", str(vocab / "io_types.txt"),
        ])
        assert rc == 1
        assert "--vocab-dir" in capsys.readouterr().err
        assert (vocab / "io_types.txt").read_bytes() == before

    def test_bench_json_out_is_the_model(self, cli_corpus, cli_model, world_files, tmp_path,
                                         capsys):
        model = tmp_path / "victim.cwm"
        shutil.copy(cli_model, model)
        before = model.read_bytes()
        rc = main([
            "bench", "--corpus", str(cli_corpus), "--model", str(model),
            "--fingerprints", str(world_files["fingerprints"]), "--json-out", str(model),
        ])
        assert rc == 1
        assert _one_error_line(capsys.readouterr().err) == (
            f"Error: --json-out {model} is the --model input; refusing to overwrite it"
        )
        assert model.read_bytes() == before

    def test_train_out_is_a_vocabulary_file(self, cli_corpus, tmp_path, capsys):
        vocab = tmp_path / "vocab"
        shutil.copytree(default_vocab_dir(), vocab)
        out = vocab / "io_types.txt"
        before = out.read_bytes()
        rc = main(["train", "--corpus", str(cli_corpus), "--vocab-dir", str(vocab),
                   "--out", str(out)])
        assert rc == 1
        assert _one_error_line(capsys.readouterr().err) == (
            f"Error: --out {out} is the --vocab-dir input; refusing to overwrite it"
        )
        assert out.read_bytes() == before

    @pytest.mark.parametrize("name", ("corpus.json", "train/trace_00000.jsonl",
                                      "train/trace_00003.labels"))
    def test_train_out_is_a_file_of_the_split(self, cli_corpus, tmp_path, capsys, name):
        """--out on a trace or labels file exited 0, and every later train on the
        corpus failed with "not valid UTF-8"."""
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus, corpus)
        out = corpus / name
        before = out.read_bytes()
        rc = main(["train", "--corpus", str(corpus), "--epochs", "1", "--out", str(out)])
        assert rc == 1
        assert _one_error_line(capsys.readouterr().err) == (
            f"Error: --out {out} is the --corpus input; refusing to overwrite it"
        )
        assert out.read_bytes() == before

    def test_bench_json_out_is_a_trace_of_the_split(self, cli_corpus, cli_model, world_files,
                                                    tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus, corpus)
        out = sorted((corpus / "test").glob("trace_*.jsonl"))[-1]
        before = out.read_bytes()
        rc = main([
            "bench", "--corpus", str(corpus), "--model", str(cli_model),
            "--fingerprints", str(world_files["fingerprints"]), "--json-out", str(out),
        ])
        assert rc == 1
        assert _one_error_line(capsys.readouterr().err) == (
            f"Error: --json-out {out} is the --corpus input; refusing to overwrite it"
        )
        assert out.read_bytes() == before

    def test_bundled_embeddings_count_as_an_input(self):
        # called directly: the check writes nothing, so the bundled file is safe
        with pytest.raises(ClickException, match="--embeddings"):
            _refuse_to_overwrite(str(default_embedding_path()), None, None, [])


def test_help_shows_env_vars(capsys):
    assert main(["detect", "--help"]) == 0
    assert "CHAINWATCH_FINGERPRINTS" in capsys.readouterr().out


def test_readme_lists_every_env_var():
    """README's CLI section names exactly the env vars the subcommands declare."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"CHAINWATCH_[A-Z_]+", section))
    declared = {p.envvar for cmd in cli.commands.values() for p in cmd.params if p.envvar}
    assert documented == declared


class TestGenDataset:
    def test_counts_and_split(self, cli_corpus):
        manifest = read_manifest(cli_corpus)
        # 6 chains x 20 repeats, doubled by benign_ratio 1.0
        total = manifest["counts"]["train"] + manifest["counts"]["test"]
        assert total == 240
        assert manifest["counts"]["train"] == round(0.85 * total) == 204
        assert manifest["seed"] == 3

    def test_deterministic_across_runs(self, world_files, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main([
                "gen-dataset",
                "--fingerprints", str(world_files["fingerprints"]),
                "--sdg", str(world_files["sdg"]),
                "--benign-pool", str(world_files["benign"]),
                "--out", str(out),
                "--per-sequence", "2",
                "--seed", "9",
            ])
            assert rc == 0
            outs.append(out)
        a, b = outs
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_missing_sdg_exit_1(self, world_files, capsys):
        rc = main([
            "gen-dataset",
            "--fingerprints", str(world_files["fingerprints"]),
            "--out", "/tmp/nowhere",
        ])
        assert rc == 1
        assert "--sdg" in capsys.readouterr().err


class TestTrain:
    def test_model_written_and_report(self, cli_model, capsys):
        model = load_model(cli_model)
        assert sum(arr.size for _, arr in model.tensors()) == PARAM_COUNT == 45879

    def test_report_fields(self, cli_corpus, encoder, tmp_path, capsys):
        out = tmp_path / "m.cwmlp"
        rc = main([
            "train", "--corpus", str(cli_corpus), "--out", str(out),
            "--epochs", "1", "--seed", "4",
        ])
        assert rc == 0
        report = _last_json(capsys.readouterr().out)
        assert report["epochs"] == 1
        assert report["seed"] == 4
        assert report["param_count"] == 45879
        assert report["final_loss"] < report["initial_loss"]
        x, t = build_xy(load_split(cli_corpus, "train", encoder.vocabs), encoder, N_LABELS)
        pairs = {(a.tobytes(), b.tobytes()) for a, b in zip(x, t)}
        assert report["examples"] == len(x) > report["distinct_rows"] == len(pairs)

    def test_missing_corpus_exit_1(self, capsys):
        rc = main(["train", "--out", "/tmp/x.cwmlp"])
        assert rc == 1


def _corpus_without(cli_corpus, tmp_path, key):
    """A copy of the corpus whose manifest lacks ``key``."""
    copy = tmp_path / "corpus"
    shutil.copytree(cli_corpus, copy)
    manifest = json.loads((copy / "corpus.json").read_text())
    del manifest[key]
    (copy / "corpus.json").write_text(json.dumps(manifest))
    return copy


def _one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), err
    return lines[0]


@pytest.mark.parametrize("command, key", [("train", "n_labels"), ("eval", "true_exploits")])
def test_incomplete_manifest_exit_1(cli_corpus, cli_model, tmp_path, capsys, command, key):
    corpus = _corpus_without(cli_corpus, tmp_path, key)
    extra = ["--out", str(tmp_path / "m.cwmlp")] if command == "train" else ["--model", str(cli_model)]
    rc = main([command, "--corpus", str(corpus), *extra])
    assert rc == 1
    assert key in _one_error_line(capsys.readouterr().err)


def test_corrupt_manifest_exit_1_names_it(tmp_path, capsys):
    (tmp_path / "corpus.json").write_text("{bad\n")
    rc = main(["eval", "--corpus", str(tmp_path)])
    assert rc == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error.startswith(f"Error: {tmp_path / 'corpus.json'}: Expecting property name")


def _fixture_lines(name: str) -> list[str]:
    return (FIXTURES / name).read_text().splitlines()


def _write(path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def _bad_trace(tmp_path, **change):
    record = json.loads(_fixture_lines("benign_pool.jsonl")[0])
    trace = _write(tmp_path / "t.jsonl", [json.dumps({**record, **change})])
    return ["encode", trace], trace


def _bad_fingerprints(tmp_path, *exploit_ids):
    """A fingerprint file with a header line for each id and a template line for each None."""
    header, template = _fixture_lines("sqlinj.fp")[:2]
    lines = []
    for exploit_id in exploit_ids:
        if exploit_id is None:
            lines.append(template)
        else:
            lines.append(json.dumps({**json.loads(header), "exploit_id": exploit_id}))
    fp = _write(tmp_path / "f.fp", lines)
    return ["detect-naive", str(FIXTURES / "benign_pool.jsonl"), "--fingerprints", fp], fp


def _gen_dataset(tmp_path, fp, sdg):
    return ["gen-dataset", "--fingerprints", str(fp), "--sdg", str(sdg),
            "--out", str(tmp_path / "corpus")]


def _bad_graph(tmp_path, *lines):
    sdg = _write(tmp_path / "g.sdg", lines)
    return _gen_dataset(tmp_path, FIXTURES / "sqlinj.fp", sdg), sdg


def _bad_model(tmp_path, raw: bytes):
    model = tmp_path / "m.cwmlp"
    model.write_bytes(raw)
    return ["detect", str(FIXTURES / "benign_pool.jsonl"), "--fingerprints",
            str(FIXTURES / "sqlinj.fp"), "--model", str(model)], str(model)


def _model_header(*sizes, version=1, activations=(1, 2)) -> bytes:
    return b"CWMLP\x00" + struct.pack("<H4I2BQ", version, *sizes, *activations, 0)


def _no_roles(tmp_path):
    lines = [json.dumps({k: v for k, v in json.loads(line).items() if k != "role"})
             for line in _fixture_lines("sqlinj.fp")]
    fp = _write(tmp_path / "f.fp", lines)
    return _gen_dataset(tmp_path, fp, FIXTURES / "sqlinj.sdg"), fp


def _bad_embeddings(tmp_path):
    table = _write(tmp_path / "e.txt", ["tok 1 2 3 4 5 6 7 8 9 x"])
    return ["encode", str(FIXTURES / "benign_pool.jsonl"), "--embeddings", table], table


def _bad_config(tmp_path, text):
    config = _write(tmp_path / "config.json", [text])
    return ["encode", str(FIXTURES / "benign_pool.jsonl"), "--config", config], config


def _bad_fingerprint_lines(tmp_path, *lines):
    fp = _write(tmp_path / "f.fp", lines)
    return ["detect-naive", str(FIXTURES / "benign_pool.jsonl"), "--fingerprints", fp], fp


def _sqlinj_corpus(tmp_path):
    assert main(_gen_dataset(tmp_path, FIXTURES / "sqlinj.fp", FIXTURES / "sqlinj.sdg")) == 0
    return tmp_path / "corpus"


def _short_labels(tmp_path):
    """The first train trace cut to 3 calls and its labels to 2 lines."""
    trace = sorted((_sqlinj_corpus(tmp_path) / "train").glob("trace_*.jsonl"))[0]
    labels = trace.with_suffix(".labels")
    _write(trace, trace.read_text().splitlines()[:3])
    _write(labels, labels.read_text().splitlines()[:2])
    return ["train", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.cwm")], trace


def _empty_split(tmp_path):
    split = _sqlinj_corpus(tmp_path) / "train"
    for trace in split.glob("trace_*.jsonl"):
        trace.unlink()
    return ["train", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.cwm")], split


def _eval_without_predictions(tmp_path):
    return ["eval", "--corpus", str(_sqlinj_corpus(tmp_path)), "--split-name", "train"], None


def _no_io_types(tmp_path):
    vocab = tmp_path / "vocab"
    shutil.copytree(default_vocab_dir(), vocab)
    (vocab / "io_types.txt").unlink()
    argv = ["encode", str(FIXTURES / "benign_pool.jsonl"), "--vocab-dir", str(vocab)]
    return argv, vocab / "io_types.txt"


def _short_vocabulary(name):
    """A builder of a vocabulary directory whose file ``name`` lacks its last entry."""
    def build(tmp_path):
        vocab = tmp_path / "vocab"
        shutil.copytree(default_vocab_dir(), vocab)
        short = vocab / name
        _write(short, short.read_text().split()[:-1])
        return ["encode", str(FIXTURES / "benign_pool.jsonl"), "--vocab-dir", str(vocab)], short
    return build


# case -> (tmp_path -> (argv, the faulty file), the error line for that file)
_INPUT_FAULTS = {
    "trace-unknown-package": (
        lambda d: _bad_trace(d, package="Lnope/Nope"),
        "Error: {path} line 1: unknown package: 'Lnope/Nope'"),
    "trace-unexpected-field": (
        lambda d: _bad_trace(d, extra=1), "Error: {path} line 1: unexpected field(s): extra"),
    "fingerprint-duplicate-id": (
        lambda d: _bad_fingerprints(d, 0, None, 0),
        "Error: {path} line 3: duplicate exploit id 0"),
    "fingerprint-no-templates": (
        lambda d: _bad_fingerprints(d, 0, 1, None), "Error: {path}: exploit 0 has no templates"),
    "graph-dangling-edge": (
        lambda d: _bad_graph(d, '{"node": 1, "kind": "entry"}',
                             '{"edge": [1, 9], "label": "data"}'),
        "Error: {path} line 2: edge (1, 9) references an unknown node"),
    "graph-call-endpoints": (
        lambda d: _bad_graph(d, '{"node": 1, "kind": "entry"}', '{"node": 2, "kind": "entry"}',
                             '{"edge": [1, 2], "label": "call"}'),
        "Error: {path} line 3: call edge must run statement -> entry, got entry -> entry"),
    "fingerprint-without-roles": (
        _no_roles, "Error: {path}: exploit 0: need at least one source and one sink role"),
    "model-layer-size": (
        lambda d: _bad_model(d, _model_header(152, 150, 100, 79)),
        "Error: {path}: layer sizes (152, 150, 100, 79) do not match (151, 150, 100, 79)"),
    "model-bad-magic": (
        lambda d: _bad_model(d, b"nope"), "Error: {path}: not a model file (bad magic)"),
    "embedding-bad-float": (
        _bad_embeddings,
        "Error: {path} line 1: bad float: could not convert string to float: 'x'"),
    "package-vocabulary-21": (
        _short_vocabulary("packages.txt"),
        "Error: {path}: package vocabulary must have 22 entries, got 21"),
    "io-type-vocabulary-23": (
        _short_vocabulary("io_types.txt"),
        "Error: {path}: io-type vocabulary must have 24 entries, got 23"),
    "io-type-vocabulary-missing": (_no_io_types, "Error: missing vocabulary file: {path}"),
    "fingerprint-invalid-json": (
        lambda d: _bad_fingerprint_lines(d, "{bad"),
        "Error: {path} line 1: invalid JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)"),
    "fingerprint-not-an-object": (
        lambda d: _bad_fingerprint_lines(d, "[1]"), "Error: {path} line 1: expected a JSON object"),
    "fingerprint-cwe-not-a-string": (
        lambda d: _bad_fingerprint_lines(d, '{"exploit_id": 0, "cwe_id": 79, "label": "x"}'),
        "Error: {path} line 1: cwe_id and label must be strings"),
    "graph-invalid-json": (
        lambda d: _bad_graph(d, "{bad"),
        "Error: {path} line 1: invalid JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)"),
    "graph-not-an-object": (
        lambda d: _bad_graph(d, "[1]"), "Error: {path} line 1: expected a JSON object"),
    "graph-node-id-not-an-integer": (
        lambda d: _bad_graph(d, '{"node": "1", "kind": "entry"}'),
        "Error: {path} line 1: node id must be an integer"),
    "graph-call-not-an-object": (
        lambda d: _bad_graph(d, '{"node": 1, "kind": "statement", "call": [1]}'),
        "Error: {path} line 1: node call payload must be an object"),
    "graph-edge-not-a-pair": (
        lambda d: _bad_graph(d, '{"node": 1, "kind": "entry"}', '{"edge": [1], "label": "data"}'),
        "Error: {path} line 2: edge must be a [src, dst] integer pair"),
    "graph-extra-edge-key": (
        lambda d: _bad_graph(d, '{"node": 1, "kind": "entry"}',
                             '{"edge": [1, 1], "label": "data", "weight": 2}'),
        "Error: {path} line 2: unexpected edge key(s): ['weight']"),
    "graph-matches-no-fingerprint": (
        lambda d: _bad_graph(d, '{"node": 1, "kind": "entry"}'),
        "Error: no fingerprint matched any flow in the graph"),
    "model-format-version-2": (
        lambda d: _bad_model(d, _model_header(151, 150, 100, 79, version=2)),
        "Error: {path}: unsupported format version 2"),
    "model-activation-ids": (
        lambda d: _bad_model(d, _model_header(151, 150, 100, 79, activations=(3, 2))),
        "Error: {path}: unknown activation ids (3, 2)"),
    "labels-one-line-short": (
        _short_labels, "Error: {path}: 3 calls but 2 label lines"),
    "split-without-traces": (_empty_split, "Error: no traces found under {path}"),
    "eval-without-predictions": (
        _eval_without_predictions, "Error: a model file is required (--model)"),
}


@pytest.mark.parametrize("case", _INPUT_FAULTS)
def test_input_fault_error_line(case, tmp_path, capsys):
    """One fault of each input format: exit 1 and exactly this one ``Error:`` line."""
    build, error = _INPUT_FAULTS[case]
    argv, path = build(tmp_path)
    assert main(argv) == 1
    assert _one_error_line(capsys.readouterr().err) == error.format(path=path)


@pytest.mark.parametrize("text, fault", [
    ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[]", "expected a JSON object"),
])
def test_config_fault_is_a_usage_error(text, fault, tmp_path, capsys):
    """A --config file that holds no JSON object is refused as the flag's bad value."""
    argv, path = _bad_config(tmp_path, text)
    assert main(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("Error")]
    assert errors == [
        f"Error: Invalid value for '--config' (env var: 'CHAINWATCH_CONFIG'): {path}: {fault}"
    ]


class TestNotUtf8:
    """A file that is not valid UTF-8 fails with one error line that names it
    and the line of the first bad byte, and exits 1."""

    def _assert_names(self, capsys, rc, path, line):
        assert rc == 1
        assert _one_error_line(capsys.readouterr().err) == (
            f"Error: {path} line {line}: not valid UTF-8"
        )

    def test_trace(self, world_files, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        good = world_files["planted"].read_bytes().splitlines()[0]
        call = {"api_name": "readLine\u00e9", "category": "invokevirtual", "scope": "Application",
                "package": "Ljava/io/BufferedReader", "inputs": [], "outputs": ["String"]}
        latin1 = json.dumps(call, ensure_ascii=False).encode("latin-1")
        trace.write_bytes(good + b"\r\n" + latin1 + b"\n")
        rc = main(["detect-naive", str(trace), "--fingerprints", str(world_files["fingerprints"])])
        self._assert_names(capsys, rc, trace, 2)

    def test_whitelist(self, world_files, tmp_path, capsys):
        whitelist = tmp_path / "wl.txt"
        whitelist.write_bytes(b"# names\nreadLine\ncaf\xe9\n")
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]), "--whitelist", str(whitelist),
        ])
        self._assert_names(capsys, rc, whitelist, 3)

    def test_vocabulary_file(self, world_files, tmp_path, capsys):
        vocab = tmp_path / "vocab"
        shutil.copytree(default_vocab_dir(), vocab)
        packages = vocab / "packages.txt"
        lines = packages.read_bytes().splitlines(keepends=True)
        lines[4] = b"\xff" + lines[4]
        packages.write_bytes(b"".join(lines))
        rc = main([
            "detect-naive", str(world_files["planted"]),
            "--fingerprints", str(world_files["fingerprints"]), "--vocab-dir", str(vocab),
        ])
        self._assert_names(capsys, rc, packages, 5)

    def test_config(self, world_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{\n"fingerprints": "caf\xe9"\n}\n')
        rc = main(["detect-naive", str(world_files["planted"]), "--config", str(config)])
        self._assert_names(capsys, rc, config, 2)


class TestStdin:
    """TRACE '-' reads stdin under the rule every file follows: UTF-8, lines
    ending only at \\n, \\r\\n or \\r, and a bad byte named by its line."""

    @staticmethod
    def _feed(monkeypatch, data: bytes) -> None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))

    @staticmethod
    def _not_utf8(path) -> bytes:
        lines = path.read_bytes().splitlines(keepends=True)
        return lines[0] + lines[1].replace(b"{", b"{\xe9", 1) + b"".join(lines[2:])

    @pytest.mark.parametrize("command", ("encode", "detect", "detect-naive"))
    def test_same_output_as_the_file(self, world_files, cli_model, tmp_path, monkeypatch,
                                     capsys, command):
        """The same bytes, with mixed line ends and a UTF-8 name that is not
        ASCII, give the same output from a file and from an ASCII stdin."""
        call = {"api_name": "readLine\u00e9", "category": "invokevirtual",
                "scope": "Application", "package": "Ljava/io/BufferedReader", "inputs": [],
                "outputs": ["String"]}
        lines = world_files["planted"].read_bytes().splitlines()
        lines.insert(1, json.dumps(call, ensure_ascii=False).encode("utf-8"))
        data = b"".join(line + (b"\r\n", b"\r", b"\n")[i % 3] for i, line in enumerate(lines))
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(data)
        flags = [] if command == "encode" else ["--fingerprints", str(world_files["fingerprints"])]
        flags += ["--model", str(cli_model)] if command == "detect" else []
        from_file = main([command, str(trace), *flags])
        want = capsys.readouterr()
        self._feed(monkeypatch, data)
        assert main([command, "-", *flags]) == from_file
        got = capsys.readouterr()
        assert got.out == want.out.replace(str(trace), "<stdin>") and got.out
        assert got.err == want.err.replace(str(trace), "<stdin>")
        if command == "encode":
            assert len(got.out.splitlines()) == 9

    @pytest.mark.parametrize("command", ("encode", "detect", "detect-naive"))
    def test_not_utf8_names_the_line(self, world_files, cli_model, monkeypatch, capsys, command):
        flags = [] if command == "encode" else ["--fingerprints", str(world_files["fingerprints"])]
        flags += ["--model", str(cli_model)] if command == "detect" else []
        self._feed(monkeypatch, self._not_utf8(world_files["planted"]))
        assert main([command, "-", *flags]) == 1
        assert _one_error_line(capsys.readouterr().err) == (
            "Error: <stdin> line 2: not valid UTF-8"
        )


class TestEval:
    def test_model_eval_perfect_on_test_split(self, cli_corpus, cli_model, world_files, capsys):
        rc = main([
            "eval", "--corpus", str(cli_corpus), "--model", str(cli_model),
            "--fingerprints", str(world_files["fingerprints"]),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        report = _last_json(out)
        assert report["supported_labels"] == 6
        assert report["macro_supported"]["f1"] == pytest.approx(1.0)
        assert report["per_cwe"]["CWE-89"]["f1"] == pytest.approx(1.0)
        assert "per-CWE (pooled):" in out

    def test_predictions_file_perfect(self, cli_corpus, tmp_path, capsys):
        """Feeding the truth labels back as predictions scores 1.0 exactly."""
        pred = tmp_path / "pred.txt"
        with open(pred, "w") as fh:
            for labels_file in sorted((cli_corpus / "test").glob("trace_*.labels")):
                fh.write(labels_file.read_text())
        rc = main(["eval", "--corpus", str(cli_corpus), "--predictions", str(pred)])
        assert rc == 0
        report = _last_json(capsys.readouterr().out)
        assert report["macro_supported"]["precision"] == 1.0
        assert report["macro_supported"]["recall"] == 1.0
        assert report["macro_supported"]["f1"] == 1.0

    @pytest.mark.parametrize("label", ["-1", "79", "x"])
    def test_predictions_outside_the_label_space_exit_1(self, cli_corpus, tmp_path, capsys, label):
        """One prediction line per call, every line the same bad id."""
        calls = sum(len(p.read_text().splitlines()) for p in (cli_corpus / "test").glob("*.labels"))
        pred = tmp_path / "pred.txt"
        pred.write_text(f"{label}\n" * calls)
        rc = main(["eval", "--corpus", str(cli_corpus), "--predictions", str(pred)])
        assert rc == 1
        error = _one_error_line(capsys.readouterr().err)
        assert f"pred.txt line 1: '{label}' is not a list of ids in [0, 79)" in error

    def test_threshold_classify_from_config(self, cli_corpus, cli_model, tmp_path, capsys):
        """The config key threshold_classify sets eval's threshold as the flag does."""
        base = ["eval", "--corpus", str(cli_corpus), "--model", str(cli_model)]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main([*base, "--threshold-classify", "1e-300"]) == 0
        flagged = capsys.readouterr().out
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold_classify": 1e-300}))
        assert main([*base, "--config", str(config)]) == 0
        assert capsys.readouterr().out == flagged != default
        assert _last_json(flagged)["macro_supported"]["precision"] < 1.0

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_threshold_classify_outside_unit_interval_exit_1(
        self, cli_corpus, cli_model, tmp_path, capsys, via
    ):
        args = ["eval", "--corpus", str(cli_corpus), "--model", str(cli_model)]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold_classify": 2}))
        args += ["--threshold-classify", "2"] if via == "flag" else ["--config", str(config)]
        assert main(args) == 1
        assert "--threshold-classify" in capsys.readouterr().err

    def test_old_threshold_key_is_unknown(self, cli_corpus, cli_model, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": 0.5}))
        rc = main([
            "eval", "--corpus", str(cli_corpus), "--model", str(cli_model),
            "--config", str(config),
        ])
        assert rc == 1
        assert "unknown key(s): threshold" in capsys.readouterr().err

    def test_predictions_length_mismatch_exit_1(self, cli_corpus, tmp_path, capsys):
        pred = tmp_path / "short.txt"
        pred.write_text("0\n")
        rc = main(["eval", "--corpus", str(cli_corpus), "--predictions", str(pred)])
        assert rc == 1
        assert "prediction lines" in capsys.readouterr().err


class TestBench:
    def test_smoke(self, cli_corpus, cli_model, world_files, tmp_path, capsys):
        json_out = tmp_path / "bench.json"
        rc = main([
            "bench", "--corpus", str(cli_corpus),
            "--fingerprints", str(world_files["fingerprints"]),
            "--model", str(cli_model),
            "--max-traces", "3",
            "--repetitions", "1",
            "--json-out", str(json_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        tail = _last_json(out)
        assert tail["param_count"] == 45879
        assert tail["comparison_ratio"] > 1.0  # filtering must cut comparisons
        full = json.loads(json_out.read_text())
        assert full["engine"]["total_comparisons"] < full["naive"]["total_comparisons"]
        assert (tail["missed"], tail["extra"]) == (0, 0)
        assert full["agreement"] == {"missed": 0, "extra": 0}
        alarms = full["naive"]["alarms"]
        assert f"alarms: engine {alarms}  naive {alarms}  missed 0  extra 0" in out

    def test_no_ratio_when_engine_misses_alarms(
        self, cli_corpus, cli_model, world_files, tmp_path, capsys
    ):
        """A model that nominates nothing misses every naive alarm."""
        model = load_model(cli_model)
        model.b3[:] = -1000.0
        blind = tmp_path / "blind.cwmlp"
        save_model(model, blind)
        rc = main([
            "bench", "--corpus", str(cli_corpus),
            "--fingerprints", str(world_files["fingerprints"]),
            "--model", str(blind),
            "--max-traces", "3",
            "--repetitions", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        tail = _last_json(out)
        assert tail["missed"] > 0
        assert tail["comparison_ratio"] is None
        assert tail["latency_ratio"] is None
        assert "comparison ratio (naive/engine): n/a   latency ratio: n/a" in out


def _without_inputs(flag, tmp_path, command=None):
    """``command``, by default the one that takes ``flag``, with its other required
    options, every input a file that does not exist and any output under
    ``tmp_path / "out"``."""
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    command = command or {
        "--threshold-classify": "eval", "--threshold-cosine": "detect",
        "--lr": "train", "--epochs": "train", "--batch-size": "train",
        "--split": "gen-dataset", "--benign-ratio": "gen-dataset",
        "--filler-rate": "gen-dataset", "--per-sequence": "gen-dataset",
        "--repetitions": "bench", "--max-traces": "bench",
    }[flag]
    return [command, *{
        "eval": ["--corpus", missing, "--model", missing],
        "detect": [missing, "--fingerprints", missing, "--model", missing, "--out", out],
        "train": ["--corpus", missing, "--out", out],
        "gen-dataset": ["--fingerprints", missing, "--sdg", missing, "--out", out],
        "bench": ["--corpus", missing, "--fingerprints", missing, "--model", missing,
                  "--json-out", out],
    }[command]]


def _assert_refused_as_usage(rc, flag, tmp_path, capsys):
    """Exit 1 with an error naming ``flag``, before any input is read or output written."""
    assert rc == 1
    err = capsys.readouterr().err
    assert flag in err and "missing" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ("--max-traces", "--repetitions", "--epochs", "--batch-size",
                                  "--per-sequence"))
@pytest.mark.parametrize("value", ("0", "-1"))
def test_count_below_one_names_the_flag(flag, value, tmp_path, capsys):
    """Unchecked, --max-traces 0 would bench every trace and -1 all but the
    last, and the other flags would fail only after loading their inputs,
    without naming the flag."""
    rc = main([*_without_inputs(flag, tmp_path), flag, value])
    _assert_refused_as_usage(rc, flag, tmp_path, capsys)


@pytest.mark.parametrize("via", ("flag", "config"))
@pytest.mark.parametrize("flag, value", [
    *((flag, "nan") for flag in ("--threshold-classify", "--threshold-cosine", "--lr",
                                 "--split", "--benign-ratio", "--filler-rate")),
    ("--lr", "inf"),
])
def test_non_finite_float_names_the_flag(flag, value, via, tmp_path, capsys):
    """NaN passes every range check that compares, and --lr inf trains a model
    that no loader accepts. JSON configs may hold NaN and Infinity."""
    args = _without_inputs(flag, tmp_path)
    if via == "flag":
        args += [flag, value]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): float(value)}))
        args += ["--config", str(config)]
    _assert_refused_as_usage(main(args), flag, tmp_path, capsys)


@pytest.mark.parametrize("value", ("1e30", "inf"))
def test_filler_rate_above_the_bound_names_the_flag(value, tmp_path, capsys):
    """Unchecked, 1e30 failed in NumPy's Poisson draw after the graph was mined."""
    rc = main([*_without_inputs("--filler-rate", tmp_path), "--filler-rate", value])
    _assert_refused_as_usage(rc, "--filler-rate", tmp_path, capsys)


@pytest.mark.parametrize("via", ("flag", "config"))
@pytest.mark.parametrize("command, seed", [("gen-dataset", -1), ("train", -1), ("train", 2**64)])
def test_seed_out_of_range_names_the_flag(command, seed, via, tmp_path, capsys):
    """Unchecked, -1 failed after the inputs were read with an error that named
    no flag, and train wrote 2**64 + 1 into the model file's u64 field as 1."""
    args = _without_inputs("--seed", tmp_path, command)
    if via == "flag":
        args += ["--seed", str(seed)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": seed}))
        args += ["--config", str(config)]
    _assert_refused_as_usage(main(args), "--seed", tmp_path, capsys)


def test_bench_json_out_dash_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """'-' wrote a file named '-'; stdout already ends with the summary line."""
    monkeypatch.chdir(tmp_path)
    rc = main([*_without_inputs("--repetitions", tmp_path), "--json-out", "-"])
    _assert_refused_as_usage(rc, "--json-out", tmp_path, capsys)
    assert not (tmp_path / "-").exists()


def test_gen_dataset_takes_a_seed_past_u64(tmp_path, capsys):
    """NumPy seeds from any integer >= 0, and the manifest is JSON."""
    seed = 2**64
    argv = _gen_dataset(tmp_path, FIXTURES / "sqlinj.fp", FIXTURES / "sqlinj.sdg")
    assert main([*argv, "--seed", str(seed)]) == 0
    assert read_manifest(tmp_path / "corpus")["seed"] == seed


def test_train_writes_the_largest_seed(cli_corpus, tmp_path, capsys):
    out = tmp_path / "m.cwm"
    seed = 2**64 - 1
    assert main(["train", "--corpus", str(cli_corpus), "--epochs", "1", "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert _last_json(capsys.readouterr().out)["seed"] == load_model(out).seed == seed


def test_diverged_training_exit_1_writes_no_model(cli_corpus, tmp_path, capsys):
    """It printed "final_loss": NaN, which is not JSON, and wrote a model that
    no loader accepts."""
    out = tmp_path / "m.cwm"
    rc = main(["train", "--corpus", str(cli_corpus), "--lr", "1e300", "--epochs", "2",
               "--out", str(out)])
    assert rc == 1
    assert _one_error_line(capsys.readouterr().err) == (
        "Error: training diverged at learning rate 1e+300: "
        "the final loss or a parameter is not finite"
    )
    assert not out.exists()


def test_usage_error_exit_1(capsys):
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("command", ("encode", "detect", "detect-naive", "eval", "bench"))
def test_seed_only_where_it_is_read(command, capsys):
    """Only train and gen-dataset draw random numbers, so only they take --seed."""
    assert main([command, "--seed", "1"]) == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.skipif(
    shutil.which("chainwatch") is None,
    reason="no chainwatch console script on PATH (package not installed)",
)
def test_console_script_installed():
    out = subprocess.run(
        ["chainwatch", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for sub in SUBCOMMANDS:
        assert sub in out.stdout


def test_module_entry_point():
    """``python -m chainwatch`` runs the CLI from a checkout with no install."""
    out = subprocess.run(
        [sys.executable, "-m", "chainwatch", "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    for sub in SUBCOMMANDS:
        assert sub in out.stdout


def test_trace_is_read_as_utf8_in_any_locale(tmp_path):
    """A UTF-8 trace reads the same under the C locale, whose encoding is
    ASCII, as under C.utf8."""
    call = {"api_name": "readLine\u00e9", "category": "invokevirtual", "scope": "Application",
            "package": "Ljava/io/BufferedReader", "inputs": [], "outputs": ["String"]}
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps(call, ensure_ascii=False) + "\n", encoding="utf-8")
    summaries = []
    for locale in ("C", "C.utf8"):
        out = subprocess.run(
            [sys.executable, "-m", "chainwatch", "detect-naive", str(trace),
             "--fingerprints", str(FIXTURES / "sqlinj.fp")],
            capture_output=True,
            text=True,
            env=child_env(LC_ALL=locale, PYTHONUTF8="0"),
        )
        assert out.returncode == 0, out.stderr
        summaries.append(json.loads(out.stderr))
    assert summaries[0] == summaries[1]
    assert summaries[0]["encoded_calls"] == 1


def test_cli_loads_every_package_module():
    """The package ships only what the CLI runs: importing ``chainwatch.cli``
    loads every module under ``src/chainwatch`` but the ``-m`` entry point."""
    shipped = sorted(
        f"chainwatch.{p.stem}"
        for p in (ROOT / "src" / "chainwatch").glob("*.py")
        if p.stem not in ("__init__", "__main__")
    )
    out = subprocess.run(
        [sys.executable, "-c", "import sys, chainwatch.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert [m for m in shipped if m not in loaded] == []


def test_console_script_target_is_main():
    """The console script an install would create binds to cli.main."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["chainwatch"] == "chainwatch.cli:main"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_version_has_one_source():
    """Package metadata takes its version from chainwatch.__version__."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "chainwatch.__version__"}
