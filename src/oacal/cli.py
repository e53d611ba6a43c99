"""Command-line front end.

Exit codes: 0 success, 1 usage/config error, 2 numeric failure or any
other oacal error (a corpus too small to train on or to calibrate from, a
non-finite loss), 3 I/O error (missing or malformed files).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import (
    ConfigError,
    MalformedArchive,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    OacalError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


_RUN_COMMANDS = {
    "quantize": "quantize a checkpoint",
    "eval": "perplexity of a checkpoint",
    "sweep-alpha": "grid-search the damping factor",
}
_TYPES = {"str": str, "int": int, "float": float}


def _flag(name: str) -> str:
    return "--out" if name == "out_dir" else "--" + name.replace("_", "-")


# the only settings eval reads, besides --eval-checkpoint
_EVAL_FIELDS = ("corpus_train", "corpus_valid", "corpus_test")


def _flag_fields(command: str):
    """The RunConfig fields a run command's flags set: eval's corpora, or
    all but `CONFIG_ONLY`."""
    from .pipeline import CONFIG_ONLY, RunConfig

    if command == "eval":
        return [f for f in fields(RunConfig) if f.name in _EVAL_FIELDS]
    return [f for f in fields(RunConfig) if f.name not in CONFIG_ONLY]


def _build_parser() -> _Parser:
    from .tinylm import TrainConfig

    parser = _Parser(prog="oacal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train-toy", help="train the toy byte LM")
    train.add_argument("--corpus", required=True,
                       help="trains on its train part (first 80%% of --corpus), the split that "
                            "quantize applies when one file is every corpus; that part must be "
                            "at least 64 KiB (--corpus at least 81,920 bytes)")
    train.add_argument("--out", required=True, help="checkpoint path to write")
    train.add_argument("--seed", type=int, default=0)
    for f in fields(TrainConfig):
        train.add_argument(_flag(f.name), type=_TYPES[f.type], default=f.default)

    for command, text in _RUN_COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config; flags override fields")
        for f in _flag_fields(command):
            p.add_argument(_flag(f.name), dest=f.name, type=_TYPES[f.type])
        if command == "eval":
            p.add_argument("--eval-checkpoint", required=True)

    report = sub.add_parser("report", help="tabulate run reports")
    report.add_argument("reports", nargs="+", help="report.json paths")
    report.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    return parser


def _run_config(args) -> "RunConfig":
    """The run's settings, from `--config` overridden by the flags given, with
    every input path checked."""
    from .pipeline import RunConfig

    overrides = {f.name: getattr(args, f.name) for f in _flag_fields(args.command)}
    if args.command == "eval":
        return _eval_config(args, overrides)
    required = [f.name for f in fields(RunConfig) if f.default is MISSING]
    if args.config:
        config = RunConfig.from_json(args.config, **overrides)
    else:
        missing = [k for k in required if overrides[k] is None]
        if missing:
            raise ConfigError(f"missing required settings (no --config): {missing}")
        config = RunConfig(**{k: v for k, v in overrides.items() if v is not None})
    # each required setting but out_dir names an input file
    _check_inputs({name: getattr(config, name) for name in required if name != "out_dir"})
    return config


def _eval_config(args, corpora: dict) -> "RunConfig":
    """eval's settings: `--eval-checkpoint` and the corpora, from `--config`
    overridden by the flags given, each path checked. eval reads nothing
    else and writes nothing, so every other setting keeps its default."""
    from .pipeline import RunConfig, read_config

    settings = read_config(args.config) if args.config else {}
    corpora = {k: settings.get(k) if v is None else v for k, v in corpora.items()}
    missing = [k for k, v in corpora.items() if v is None]
    if missing:
        raise ConfigError(f"missing required settings: {missing}")
    config = RunConfig(checkpoint=args.eval_checkpoint, out_dir="", **corpora)
    _check_inputs({"eval-checkpoint": args.eval_checkpoint, **corpora})
    return config


def _check_inputs(paths: dict) -> None:
    for name, path in paths.items():
        if not Path(path).exists():
            raise FileNotFoundError(f"{name} path does not exist: {path}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotPositiveDefinite, NonPositiveDiagonal) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (MalformedArchive, FileNotFoundError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except OacalError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    config = _run_config(args) if args.command in _RUN_COMMANDS else None
    if args.command == "train-toy":
        from .tinylm import ModelConfig, TrainConfig, save_checkpoint, split_corpus, train_tiny_lm

        with open(args.corpus, "rb") as fh:
            corpus = split_corpus(fh.read(), "train")
        model, history = train_tiny_lm(
            corpus,
            ModelConfig(),
            TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)}),
            seed=args.seed,
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, args.out)
        print(
            json.dumps(
                {"checkpoint": args.out, "final_loss": history["final_loss"]},
                indent=2,
            )
        )
        return 0

    if args.command == "quantize":
        from .pipeline import run_quantize, write_run

        run = run_quantize(config)
        write_run(run, config.out_dir)
        report = run.report
        print(
            json.dumps(
                {
                    "out_dir": config.out_dir,
                    "method": report.method,
                    "global_avg_bits": report.global_avg_bits,
                    "valid_perplexity": report.valid_perplexity,
                    "test_perplexity": report.test_perplexity,
                },
                indent=2,
            )
        )
        return 0

    if args.command == "eval":
        from .pipeline import run_eval

        result = run_eval(config)
        print(json.dumps(result, indent=2))
        return 0

    if args.command == "sweep-alpha":
        from .pipeline import run_alpha_sweep

        result = run_alpha_sweep(config)
        print(
            json.dumps(
                {
                    "best_alpha": result["best_alpha"],
                    "best_valid_perplexity": result["best_valid_perplexity"],
                    "best_test_perplexity": result["best_test_perplexity"],
                    "candidates": {
                        str(a): c["status"] for a, c in result["candidates"].items()
                    },
                },
                indent=2,
            )
        )
        return 0

    if args.command == "report":
        from .pipeline import render_report_table

        print(render_report_table(args.reports, fmt=args.format), end="")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
