"""The command line: exit codes and a whole sweep-alpha run on disk."""
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from oacal.archive import archive_read
from oacal.cli import _build_parser, main
from oacal.pipeline import REPORT_SCHEMA
from oacal.quant import layer_from_tensors
from oacal.tinylm import (
    ModelConfig,
    TrainConfig,
    init_model,
    load_checkpoint,
    quantizable_layers,
    save_checkpoint,
)

CORPUS = Path(__file__).resolve().parents[1] / "data" / "tiny_corpus.txt"
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


def write_config(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_verify_oracles_pass(capsys):
    assert main(["verify-oracles"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_verify_oracles_codes_ragged_groups(capsys):
    # group sizes are drawn from [1, d_col]: one-column and ragged tail groups
    assert main(["verify-oracles", "--seed", "0"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["update_optimality"]["ragged_draws"] > 0
    assert result["all_pass"] is True


def test_corrupt_update_fails_the_oracles(capsys):
    assert main(["verify-oracles", "--corrupt-update"]) == 2
    assert json.loads(capsys.readouterr().out)["update_optimality"]["pass"] is False


def test_verify_oracles_out_writes_what_it_prints(tmp_path, capsys):
    out = tmp_path / "a" / "o.json"
    assert main(["verify-oracles", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text(encoding="utf-8") + "\n"
    assert json.loads(printed)["all_pass"] is True


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
    assert main(["eval", *flags, "--eval-checkpoint", str(checkpoint)]) == 3
    assert capsys.readouterr().err.startswith("i/o failure: ")


REPORT_FIELDS = {"method": "RTN", "seed": 0, "config": {"alpha": 0.01},
                 "global_avg_bits": 4.0, "valid_perplexity": 3.0, "test_perplexity": 3.1}


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
    report = {**REPORT_FIELDS, "layer_reports": [], "phase_seconds": {},
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
    """eval loads only --eval-checkpoint: it runs without --checkpoint, and a
    --checkpoint naming no file is not read."""
    checkpoint, flags = setup
    assert main(["eval", *flags, "--eval-checkpoint", str(checkpoint)]) == 0
    expected = json.loads(capsys.readouterr().out)
    absent = ["--checkpoint", str(tmp_path / "absent.oack")]
    assert main(["eval", *flags, *absent, "--eval-checkpoint", str(checkpoint)]) == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert expected["valid_perplexity"] > 1


def test_eval_of_a_stored_run_reproduces_its_report(setup, tmp_path, capsys):
    checkpoint, flags = setup
    argv = ["--checkpoint", str(checkpoint), *flags]
    assert main(["quantize", "--method", "RTN", *argv]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["eval", *argv, "--eval-checkpoint", str(out / "quantized.oack")]) == 0
    result = json.loads(capsys.readouterr().out)
    report = json.loads((out / "report.json").read_text())
    assert (result["valid_perplexity"], result["test_perplexity"]) == (
        report["valid_perplexity"],
        report["test_perplexity"],
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
