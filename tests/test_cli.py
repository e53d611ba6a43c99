"""The command line: exit codes and a whole sweep-alpha run on disk."""
import json
import shutil
import struct
from dataclasses import asdict, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from malformed_inputs import TOY, run_capped

import oacal.tinylm as tinylm
from oacal.archive import archive_read
from oacal.cli import _build_parser, main
from oacal.pipeline import REPORT_SCHEMA, RunConfig, load_token_streams
from oacal.quant import layer_from_tensors
from oacal.tinylm import (
    ModelConfig,
    TrainConfig,
    init_model,
    load_checkpoint,
    quantizable_layers,
    save_checkpoint,
)

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "data" / "tiny_corpus.txt"
TWO_BLOCKS = ModelConfig(vocab_size=128, d_model=16, d_ff=32, n_blocks=2, context_length=32)


@pytest.fixture
def setup(tmp_path):
    """A 2-block checkpoint and a 20 kB corpus, plus the flags that name them."""
    checkpoint = tmp_path / "tiny.oack"
    save_checkpoint(init_model(TWO_BLOCKS, seed=0), checkpoint)
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(CORPUS.read_bytes()[:20_000])
    flags = ["--corpus-train", str(corpus), "--corpus-valid", str(corpus),
             "--corpus-test", str(corpus), "--n-calibration-samples", "3",
             "--out", str(tmp_path / "out")]
    return checkpoint, flags


def corpus_flags(flags: list[str]) -> list[str]:
    """The corpus flags among `setup`'s: eval's only flags besides its checkpoint."""
    pairs = zip(flags[::2], flags[1::2])
    return [item for pair in pairs if pair[0].startswith("--corpus-") for item in pair]


def write_config(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_verify_oracles_is_no_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify-oracles"])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: oacal") and "invalid choice: 'verify-oracles'" in err


def test_unknown_method(setup, capsys):
    checkpoint, flags = setup
    assert main(["quantize", "--method", "GPTQ", "--checkpoint", str(checkpoint), *flags]) == 1
    assert "unknown method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [({"methd": "OPTQ"}, "methd"), ([1, 2], "JSON object"), ({"reduction": "sum"}, "reduction"),
     ({"block_size": 32}, "block_size")],
)
def test_malformed_config(setup, tmp_path, capsys, data, message):
    checkpoint, flags = setup
    config = write_config(tmp_path / "config.json", data)
    argv = ["quantize", "--config", config, "--checkpoint", str(checkpoint), *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def config_alone(tmp_path, checkpoint, **data) -> str:
    """A config that names every setting, so `--config` needs no other flag."""
    corpus = str(tmp_path / "corpus.txt")
    settings = {"checkpoint": str(checkpoint), "corpus_train": corpus,
                "corpus_valid": corpus, "corpus_test": corpus,
                "out_dir": str(tmp_path / "out"), "n_calibration_samples": 3}
    return write_config(tmp_path / "config.json", {**settings, **data})


@pytest.mark.parametrize(
    "data, message",
    [({"bits": "two"}, "bits"),
     ({"method": "OPTQ", "group_size": 0}, "group_size"),
     ({"method": "OPTQ", "n_calibration_samples": 0}, "n_calibration_samples"),
     ({"stat_group": 0}, "stat_group"),
     ({"stat_bits": 1}, "stat_bits"),
     ({"stat_bits": 9}, "stat_bits"),
     ({"alpha": float("nan")}, "alpha"),
     ({"alpha": float("inf")}, "alpha"),
     ({"tau": float("nan")}, "tau"),
     ({"method": "OPTQ", "tau": float("nan")}, "tau"),
     ({"alpha_grid": [0.1, -0.01]}, "alpha_grid"),
     ({"alpha_grid": [0.1, float("nan")]}, "alpha_grid"),
     ({"alpha_grid": [float("inf")]}, "alpha_grid"),
     ({"alpha_grid": [0.1, 1, 1.0]}, "alpha_grid"),
     ({"method": "SpQR", "tau": float("inf")}, "tau")],
)
def test_invalid_config_value(setup, tmp_path, capsys, data, message):
    checkpoint, _ = setup
    assert main(["quantize", "--config", config_alone(tmp_path, checkpoint, **data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_quantize_from_config_alone(setup, tmp_path):
    checkpoint, _ = setup
    out = tmp_path / "from_config"
    config = config_alone(tmp_path, checkpoint, method="RTN", out_dir=str(out))
    assert main(["quantize", "--config", config]) == 0
    assert json.loads((out / "report.json").read_text())["method"] == "RTN"


def test_missing_checkpoint(setup, tmp_path):
    _, flags = setup
    assert main(["quantize", "--checkpoint", str(tmp_path / "absent.oack"), *flags]) == 3


def test_bad_magic_checkpoint(setup):
    checkpoint, flags = setup
    data = bytearray(checkpoint.read_bytes())
    data[:4] = b"NOPE"
    checkpoint.write_bytes(bytes(data))
    assert main(["quantize", "--checkpoint", str(checkpoint), *flags]) == 3


@pytest.mark.parametrize(
    "edit",
    [lambda text: text[:-1],  # not JSON any more
     lambda text: json.dumps({**json.loads(text), "architecture": {"d_modl": 16}}),
     lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "params"}),
     lambda text: text.replace('"context_length": 32', '"context_length": "32"')],
    ids=["not-json", "unknown-architecture-key", "no-params-key", "size-not-an-int"],
)
def test_malformed_sidecar(setup, capsys, edit):
    checkpoint, flags = setup
    sidecar = Path(str(checkpoint) + ".json")
    sidecar.write_text(edit(sidecar.read_text()))
    assert main(["quantize", "--checkpoint", str(checkpoint), *flags]) == 3
    assert capsys.readouterr().err.startswith("i/o failure: ")


def test_sidecar_shape_mismatch_is_malformed(setup, capsys):
    checkpoint, flags = setup
    sidecar = Path(str(checkpoint) + ".json")
    sidecar.write_text(sidecar.read_text().replace('"d_ff": 32', '"d_ff": 48'))
    assert main(["quantize", "--checkpoint", str(checkpoint), *flags]) == 3
    assert capsys.readouterr().err.startswith(
        "i/o failure: blk0.mlp.fc1: checkpoint shape (32, 16) != (48, 16)"
    )


def test_duplicate_tensor_name_is_malformed(setup, capsys):
    checkpoint, flags = setup
    data = checkpoint.read_bytes()
    assert data.count(b"param/blk0.attn.wo") == data.count(b"param/blk0.attn.wq") == 1
    checkpoint.write_bytes(data.replace(b"param/blk0.attn.wo", b"param/blk0.attn.wq"))
    assert main(["eval", *corpus_flags(flags), "--eval-checkpoint", str(checkpoint)]) == 3
    assert capsys.readouterr().err.startswith("i/o failure: ")


REPORT_FIELDS = {"method": "RTN", "seed": 0, "config": {"alpha": 0.01},
                 "global_avg_bits": 4.0, "disk_bits_per_weight": 4.1,
                 "valid_perplexity": 3.0, "test_perplexity": 3.1}


@pytest.mark.parametrize(
    "text",
    [json.dumps(REPORT_FIELDS)[:-1],
     json.dumps({k: v for k, v in REPORT_FIELDS.items() if k != "method"})],
    ids=["not-json", "no-method-key"],
)
def test_malformed_report(tmp_path, capsys, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(REPORT_FIELDS))
    assert main(["report", str(good)]) == 0
    assert "RTN" in capsys.readouterr().out
    bad = tmp_path / "report.json"
    bad.write_text(text)
    assert main(["report", str(good), str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"i/o failure: {bad}: ")


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_report_with_null_perplexity(tmp_path, capsys, fmt):
    config = RunConfig("m.oack", "c.txt", "c.txt", "c.txt", "out", method="RTN", alpha=0.01)
    phases = ("phase1_hessians", "phase2_calibration", "eval", "total")
    report = {**REPORT_FIELDS, "layer_reports": [], "phase_seconds": dict.fromkeys(phases, 0.0),
              "config": {**asdict(config), "alpha_grid": list(config.alpha_grid)},
              "valid_perplexity": None, "test_perplexity": None}
    jsonschema.validate(report, REPORT_SCHEMA)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["report", "--format", fmt, str(path)]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert "RTN" in row and "NA" in row


def test_eval_from_config_without_out_dir(setup, tmp_path, capsys):
    checkpoint, _ = setup
    corpus = str(tmp_path / "corpus.txt")
    config = write_config(
        tmp_path / "config.json",
        {"checkpoint": str(checkpoint), "corpus_train": corpus,
         "corpus_valid": corpus, "corpus_test": corpus},
    )
    assert main(["eval", "--config", config, "--eval-checkpoint", str(checkpoint)]) == 0
    assert json.loads(capsys.readouterr().out)["valid_perplexity"] > 1


def test_eval_reads_no_checkpoint_flag(setup, tmp_path, capsys):
    """eval loads only --eval-checkpoint: it runs on the corpus flags alone,
    and offers no --checkpoint flag."""
    checkpoint, flags = setup
    corpora = corpus_flags(flags)
    assert main(["eval", *corpora, "--eval-checkpoint", str(checkpoint)]) == 0
    assert json.loads(capsys.readouterr().out)["valid_perplexity"] > 1
    absent = ["--checkpoint", str(tmp_path / "absent.oack")]
    with pytest.raises(SystemExit) as exit_:
        main(["eval", *corpora, *absent, "--eval-checkpoint", str(checkpoint)])
    assert exit_.value.code == 1
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err


def test_eval_offers_no_calibration_flag(setup, capsys):
    """A setting eval never reads is not an eval flag: --bits 9 is unknown
    to it, not out of range."""
    checkpoint, flags = setup
    argv = ["eval", *corpus_flags(flags), "--bits", "9", "--eval-checkpoint", str(checkpoint)]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    assert "error: unrecognized arguments: --bits 9" in capsys.readouterr().err


def test_eval_ignores_the_settings_it_does_not_read(setup, tmp_path, capsys):
    """eval takes only the corpora from --config: out-of-range calibration
    settings and a checkpoint naming no file there are never checked."""
    checkpoint, _ = setup
    corpus = str(tmp_path / "corpus.txt")
    config = write_config(
        tmp_path / "config.json",
        {"checkpoint": str(tmp_path / "absent.oack"), "corpus_train": corpus,
         "corpus_valid": corpus, "corpus_test": corpus, "method": "GPTQ", "bits": 9,
         "alpha": -1.0, "group_size": 0, "n_calibration_samples": 0, "alpha_grid": [-1]},
    )
    assert main(["eval", "--config", config, "--eval-checkpoint", str(checkpoint)]) == 0
    assert json.loads(capsys.readouterr().out)["valid_perplexity"] > 1


def test_missing_eval_checkpoint(setup, tmp_path, capsys):
    _, flags = setup
    absent = tmp_path / "absent.oack"
    assert main(["eval", *corpus_flags(flags), "--eval-checkpoint", str(absent)]) == 3
    assert capsys.readouterr().err == f"i/o failure: eval-checkpoint path does not exist: {absent}\n"


@pytest.mark.parametrize(
    "dims", [(2**62,), (2**32, 2**32), (2**64 - 1,) * 255],
    ids=["overflowing", "overflowing-product", "product-too-long-to-print"],
)
def test_oversized_checkpoint_entry_exits_3(setup, capsys, dims):
    # the first entry's dims declare more payload than any file holds
    checkpoint, flags = setup
    data = checkpoint.read_bytes()
    (name_len,) = struct.unpack_from("<H", data, 12)
    at = 12 + 2 + name_len + 1  # the first entry's ndim byte
    rest = data[at + 1 + 8 * data[at]:]
    checkpoint.write_bytes(data[:at] + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + rest)
    assert main(["eval", *corpus_flags(flags), "--eval-checkpoint", str(checkpoint)]) == 3
    assert capsys.readouterr().err.startswith("i/o failure: truncated archive")


def test_sidecar_claiming_a_billion_blocks_exits_3(tmp_path):
    """Refused before a shape is listed per claimed block; the CLI runs in a
    child capped at 1 GiB of address space, where listing them would fail."""
    checkpoint = tmp_path / "toy.oack"
    shutil.copy(TOY, checkpoint)
    sidecar = json.loads(Path(f"{TOY}.json").read_text())
    sidecar["architecture"]["n_blocks"] = 10**9
    Path(f"{checkpoint}.json").write_text(json.dumps(sidecar))
    corpora = [item for flag in ("train", "valid", "test") for item in (f"--corpus-{flag}", CORPUS)]
    result = run_capped("oacal.cli", "eval", *corpora, "--eval-checkpoint", checkpoint)
    assert (result.returncode, result.stderr) == (
        3, "i/o failure: sidecar lists 14 names for 1000000000 blocks\n")


def test_eval_of_a_stored_run_reproduces_its_report(setup, tmp_path, capsys):
    checkpoint, flags = setup
    argv = ["--checkpoint", str(checkpoint), *flags]
    assert main(["quantize", "--method", "RTN", *argv]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    eval_argv = ["eval", *corpus_flags(flags), "--eval-checkpoint", str(out / "quantized.oack")]
    assert main(eval_argv) == 0
    result = json.loads(capsys.readouterr().out)
    report = json.loads((out / "report.json").read_text())
    assert (result["valid_perplexity"], result["test_perplexity"]) == (
        report["valid_perplexity"],
        report["test_perplexity"],
    )


@pytest.fixture
def overflowing(setup, tmp_path):
    """The committed toy checkpoint with every query and key weight scaled
    by 1e19: the float32 attention logits overflow, float64 ones do not."""
    model = load_checkpoint(TOY)
    for name in model.params:
        if name.endswith((".attn.wq", ".attn.wk")):
            model.params[name] *= 1e19
    checkpoint = tmp_path / "overflowing.oack"
    save_checkpoint(model, checkpoint)
    return checkpoint, setup[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_eval_loss_is_a_failure(overflowing, capsys):
    checkpoint, flags = overflowing
    assert main(["eval", *corpus_flags(flags), "--eval-checkpoint", str(checkpoint)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failure: eval loss of window 0 of ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_eval_loss_fails_a_quantize_run(overflowing, tmp_path, capsys):
    """RTN collects nothing, so the overflow first shows in eval."""
    checkpoint, flags = overflowing
    assert main(["quantize", "--method", "RTN", "--checkpoint", str(checkpoint), *flags]) == 2
    assert capsys.readouterr().err.startswith("failure: eval loss of window 0 of ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_eval_loss_fails_every_sweep_candidate(overflowing, capsys):
    checkpoint, flags = overflowing
    assert main(["sweep-alpha", "--method", "RTN", "--checkpoint", str(checkpoint), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: every alpha candidate failed: ")
    assert err.count("'status': 'failed', 'error': 'eval loss of window 0 of ") == 4
    assert "'ok'" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["OPTQ", "Binary_BiLLM_style"])
def test_overflowing_agnostic_collection_is_a_failure(overflowing, capsys, method):
    """The agnostic collector's float32 forwards overflow as eval's do, and
    the NaN rows are refused before they reach a Hessian: block 0's softmax
    overflows, so the first input that is not finite is its attention mix."""
    checkpoint, flags = overflowing
    assert main(["quantize", "--method", method, "--checkpoint", str(checkpoint), *flags]) == 2
    assert capsys.readouterr().err == (
        "failure: block 0 input 'attn_mix': matrix contains NaN or Inf\n"
    )


@pytest.mark.parametrize(
    "flag, value", [("--steps", "0"), ("--batch-size", "0")]
)
def test_invalid_training_setting(tmp_path, capsys, flag, value):
    out = tmp_path / "toy.oack"
    argv = ["train-toy", "--corpus", str(CORPUS), "--out", str(out), flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
    assert not out.exists()


def test_train_toy_trains_on_the_train_part(tmp_path, monkeypatch):
    """train-toy trains on the [0, 80%) bytes of its corpus, the stream a run
    calibrates from when that file is every corpus."""
    seen = []

    def train(corpus, config, train_config, seed):
        seen.append(corpus)
        return init_model(config, seed), {"final_loss": 0.0}

    monkeypatch.setattr(tinylm, "train_tiny_lm", train)
    assert main(["train-toy", "--corpus", str(CORPUS), "--out", str(tmp_path / "t.oack")]) == 0
    data = CORPUS.read_bytes()
    assert seen == [data[: int(0.8 * len(data))]]
    paths = dict.fromkeys(("corpus_train", "corpus_valid", "corpus_test"), str(CORPUS))
    streams = load_token_streams(RunConfig(checkpoint="unused.oack", out_dir="unused", **paths))
    assert tinylm.tokenize(seen[0]).tobytes() == streams["train"].tobytes()


def test_train_toy_defaults_are_train_config_defaults():
    args = _build_parser().parse_args(["train-toy", "--corpus", "c", "--out", "o"])
    defaults = TrainConfig()
    assert args.steps == defaults.steps == 1300
    assert (args.batch_size, args.learning_rate) == (defaults.batch_size, defaults.learning_rate)


def test_singular_layer_is_a_numeric_failure(setup, capsys):
    """An undamped one-window OAC run cannot factorize blk0.mlp.fc2 (see
    tests/test_pipeline.py): exit code 2, reported as a numeric failure."""
    checkpoint, flags = setup
    argv = ["quantize", "--checkpoint", str(checkpoint), *flags, "--method", "OAC_OPTQ",
            "--alpha", "0", "--n-calibration-samples", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("numeric failure: layer 'blk0.mlp.fc2': ")


@pytest.fixture
def short_train(tmp_path):
    """A checkpoint with 64-token windows, distinct validation and test
    files, and two training files: 40 bytes, too short for one calibration
    window, and 20 kB."""
    checkpoint = tmp_path / "ctx64.oack"
    save_checkpoint(init_model(replace(TWO_BLOCKS, context_length=64), seed=0), checkpoint)
    data = CORPUS.read_bytes()
    parts = {"short": data[:40], "full": data[:20_000], "valid": data[20_000:24_000],
             "test": data[24_000:28_000]}
    paths = {}
    for name, part in parts.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_bytes(part)
    return checkpoint, paths


def quantize_argv(short_train, method, train, out):
    checkpoint, paths = short_train
    return ["quantize", "--method", method, "--checkpoint", str(checkpoint),
            "--corpus-train", str(paths[train]), "--corpus-valid", str(paths["valid"]),
            "--corpus-test", str(paths["test"]), "--n-calibration-samples", "3", "--out", str(out)]


def test_rtn_needs_no_calibration_corpus(short_train, tmp_path):
    """RTN reads no calibration window, so a training file shorter than one
    is no failure, and the run writes the layers a 20 kB one gives."""
    for train in ("short", "full"):
        assert main(quantize_argv(short_train, "RTN", train, tmp_path / train)) == 0
    short, full = ((tmp_path / train / "layers.oack").read_bytes() for train in ("short", "full"))
    assert short == full


def test_calibration_corpus_shorter_than_a_window_is_a_failure(short_train, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(quantize_argv(short_train, "OPTQ", "short", out)) == 2
    assert capsys.readouterr().err == "failure: not enough tokens for one calibration window\n"
    assert not out.exists()


def test_train_toy_on_a_train_part_under_64_kib_is_a_failure(tmp_path, capsys):
    # the train part of 70,000 bytes is their [0, 80%), 56,000 bytes
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(CORPUS.read_bytes()[:70_000])
    out = tmp_path / "toy.oack"
    assert main(["train-toy", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "failure: train part (first 80% of --corpus) must be at least 64 KiB, got 56000 bytes\n"
    )
    assert not out.exists()


def test_sweep_alpha_writes_its_winner(setup, tmp_path):
    checkpoint, flags = setup
    config = write_config(
        tmp_path / "config.json",
        {"checkpoint": str(checkpoint), "corpus_train": "", "corpus_valid": "",
         "corpus_test": "", "out_dir": "", "alpha_grid": [0.01, 1.0]},
    )
    assert main(["sweep-alpha", "--config", config, "--method", "OAC_OPTQ", *flags]) == 0
    out = tmp_path / "out"

    sweep = json.loads((out / "sweep.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert sorted(sweep["candidates"]) == ["0.01", "1.0"]
    assert (sweep["best_valid_perplexity"], sweep["best_test_perplexity"]) == (
        report["valid_perplexity"],
        report["test_perplexity"],
    )
    assert report["config"]["alpha"] == sweep["best_alpha"]
    tested = [a for a, c in sweep["candidates"].items() if c["report"]["test_perplexity"] is not None]
    assert tested == [str(sweep["best_alpha"])]  # only the winner is scored on test
    assert len((out / "summary.csv").read_text().splitlines()) == 2

    meta = json.loads((out / "layers.json").read_text())
    tensors = archive_read(out / "layers.oack")
    installed = load_checkpoint(out / "quantized.oack")
    assert sorted(meta) == sorted(quantizable_layers(installed))
    for name, layer_meta in meta.items():
        reloaded = layer_from_tensors(name, tensors, layer_meta).dequantize()
        assert reloaded.astype(np.float32).tobytes() == (
            installed.params[name].astype(np.float32).tobytes()
        )


def test_packed_payload_disagreeing_with_layers_json_exits_3(setup, tmp_path, capsys, monkeypatch):
    """A layer archive whose packed codes are a byte short of what
    layers.json implies is malformed: reloading it raises MalformedArchive,
    which the CLI reports as an i/o failure (exit 3)."""
    import oacal.pipeline
    from oacal.archive import archive_write

    checkpoint, flags = setup
    assert main(["quantize", "--method", "SpQR", "--checkpoint", str(checkpoint), *flags]) == 0
    out = tmp_path / "out"
    meta = json.loads((out / "layers.json").read_text())
    tensors = archive_read(out / "layers.oack")
    tensors["codes/blk0.attn.wq"] = tensors["codes/blk0.attn.wq"][:-1]
    archive_write(out / "layers.oack", tensors)
    capsys.readouterr()

    def reload_layers(config):
        stored = archive_read(out / "layers.oack")
        return {name: layer_from_tensors(name, stored, m).d_row for name, m in meta.items()}

    monkeypatch.setattr(oacal.pipeline, "run_eval", reload_layers)
    argv = ["eval", *corpus_flags(flags), "--eval-checkpoint", str(out / "quantized.oack")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: codes/blk0.attn.wq is uint8")
