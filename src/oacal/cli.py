"""Command-line front end.

Exit codes: 0 success, 1 usage/config error, 2 numeric or oracle failure,
3 I/O error (missing or malformed files).
"""
from __future__ import annotations

import argparse
import json
import sys
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


def _build_parser() -> _Parser:
    from .tinylm import TrainConfig

    parser = _Parser(prog="oacal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train-toy", help="train the toy byte LM")
    train.add_argument("--corpus", required=True)
    train.add_argument("--out", required=True, help="checkpoint path to write")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--steps", type=int, default=TrainConfig.steps)
    train.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    train.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config; flags override fields")
        p.add_argument("--checkpoint")
        p.add_argument("--corpus-train")
        p.add_argument("--corpus-valid")
        p.add_argument("--corpus-test")
        p.add_argument("--method")
        p.add_argument("--bits", type=int)
        p.add_argument("--group-size", type=int)
        p.add_argument("--tau", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--salient-fraction", type=float)
        p.add_argument("--n-calibration-samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory; overrides the config's out_dir")

    quant = sub.add_parser("quantize", help="quantize a checkpoint")
    add_run_flags(quant)

    ev = sub.add_parser("eval", help="perplexity of a checkpoint")
    add_run_flags(ev)
    ev.add_argument("--eval-checkpoint", required=True)

    sweep = sub.add_parser("sweep-alpha", help="grid-search the damping factor")
    add_run_flags(sweep)

    verify = sub.add_parser("verify-oracles", help="run the property oracles")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--corrupt-update", action="store_true",
                        help="negative control: must make the optimality oracle fail")
    verify.add_argument("--out", help="write the oracle report JSON here")

    report = sub.add_parser("report", help="tabulate run reports")
    report.add_argument("reports", nargs="+", help="report.json paths")
    report.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    return parser


def _run_config(args) -> "RunConfig":
    from .pipeline import RunConfig

    overrides = {
        "checkpoint": args.checkpoint,
        "corpus_train": args.corpus_train,
        "corpus_valid": args.corpus_valid,
        "corpus_test": args.corpus_test,
        "method": args.method,
        "bits": args.bits,
        "group_size": args.group_size,
        "tau": args.tau,
        "alpha": args.alpha,
        "salient_fraction": args.salient_fraction,
        "n_calibration_samples": args.n_calibration_samples,
        "seed": args.seed,
        "out_dir": args.out,
    }
    if args.command == "eval" and args.out is None:
        overrides["out_dir"] = "runs/out"  # eval writes nothing
    if args.config:
        return RunConfig.from_json(args.config, **overrides)
    needed = ["checkpoint", "corpus_train", "corpus_valid", "corpus_test", "out_dir"]
    missing = [k for k in needed if overrides[k] is None]
    if missing:
        raise ConfigError(f"missing required settings (no --config): {missing}")
    return RunConfig(**{k: v for k, v in overrides.items() if v is not None})


def _check_paths(config) -> None:
    for label in ("checkpoint", "corpus_train", "corpus_valid", "corpus_test"):
        p = getattr(config, label)
        if not Path(p).exists():
            raise FileNotFoundError(f"{label} path does not exist: {p}")


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
    if args.command == "train-toy":
        from .tinylm import ModelConfig, TrainConfig, save_checkpoint, train_tiny_lm

        with open(args.corpus, "rb") as fh:
            corpus = fh.read()
        model, history = train_tiny_lm(
            corpus,
            ModelConfig(),
            TrainConfig(
                steps=args.steps,
                batch_size=args.batch_size,
                learning_rate=args.learning_rate,
            ),
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

        config = _run_config(args)
        _check_paths(config)
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

        config = _run_config(args)
        _check_paths(config)
        result = run_eval(config, args.eval_checkpoint)
        print(json.dumps(result, indent=2))
        return 0

    if args.command == "sweep-alpha":
        from .pipeline import run_alpha_sweep

        config = _run_config(args)
        _check_paths(config)
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

    if args.command == "verify-oracles":
        from .oracles import run_verify_oracles

        results = run_verify_oracles(args.seed, corrupt_update=args.corrupt_update)
        text = json.dumps(results, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(text, encoding="utf-8")
        print(text)
        return 0 if results["all_pass"] else 2

    if args.command == "report":
        from .pipeline import render_report_table

        print(render_report_table(args.reports, fmt=args.format), end="")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
