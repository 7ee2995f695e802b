"""Command-line interface: train, eval, and folds subcommands.

Configuration comes from an optional JSON key-value file (field names of
TrainConfig) with CLI flags winning over file values.  Exit status is 0
on success; failures print one categorized line to stderr and exit with
a category-specific nonzero code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, QlamError
from .trainer import TrainConfig, evaluate, run_folds, train

EXIT_CODES = {
    "config": 2,
    "data": 3,
    "parse": 4,
    "shape": 5,
    "numeric": 6,
    "validation": 7,
}

_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}


def load_config_file(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise QlamError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}"
        )
    return payload


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file with TrainConfig fields")
    parser.add_argument("--dataset", help="dataset preset name")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--fold", type=int, help="fold index")
    parser.add_argument("--epochs", type=int, help="training epochs")
    parser.add_argument("--qubits", type=int, dest="n_qubits", help="memory qubits")
    parser.add_argument("--layers", type=int, dest="n_layers", help="ansatz layers")
    parser.add_argument("--heads", type=int, dest="n_heads", help="readout heads")
    parser.add_argument("--d-query", type=int, dest="d_query", help="query width")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--lr", type=float, dest="base_lr", help="base learning rate")
    parser.add_argument(
        "--shots", type=int,
        help="shots per pool term for sampled readout in qlam eval; 0 means exact mode "
        "(train and folds always test with exact readout)",
    )
    parser.add_argument("--split-mode", dest="split_mode", choices=("holdout", "kfold"))
    parser.add_argument("--n-folds", type=int, dest="n_folds")
    parser.add_argument("--train-subsample", type=int, dest="train_subsample")
    parser.add_argument("--test-subsample", type=int, dest="test_subsample")
    parser.add_argument(
        "--workers", type=int,
        help="threads that run the batched gradient and evaluation chunks side by side",
    )
    parser.add_argument("--out-dir", dest="out_dir", help="run output directory")
    parser.add_argument(
        "--data-dir", dest="data_dir",
        help="dataset root (default: QLAM_DATA_DIR environment variable)",
    )


def build_config(args: argparse.Namespace) -> TrainConfig:
    values = load_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    if getattr(args, "shots", None) is not None:
        values["shot_mode"] = "sampled" if args.shots else "exact"
        if args.shots:
            values["shots_per_term"] = args.shots
    return TrainConfig(**values)


def _cmd_train(args) -> int:
    config = build_config(args)
    result = train(config)
    print(f"dataset {config.dataset}, seed {config.seed}, fold {config.fold}")
    print(f"model parameters: {result.n_parameters}")
    print(
        f"final train: loss {result.final_train.loss:.4f}, "
        f"accuracy {result.final_train.accuracy:.4f}"
    )
    print(
        f"final test:  loss {result.final_test.loss:.4f}, "
        f"accuracy {result.final_test.accuracy:.4f}"
    )
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    config = build_config(args)
    accuracy = evaluate(args.checkpoint, config)
    print(f"test accuracy: {accuracy:.4f}")
    return 0


def _cmd_folds(args) -> int:
    config = build_config(args)
    result = run_folds(config)
    for fold, acc in enumerate(result.accuracies):
        print(f"fold {fold}: test accuracy {acc:.4f}")
    print(f"aggregate: {result.mean:.4f} +- {result.std:.4f}")
    print(f"summary: {result.summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlam",
        description="Train and evaluate quantum-memory sequence classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one seeded training fold")
    _add_override_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True, help="model .npz path")
    _add_override_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_folds = sub.add_parser("folds", help="train and evaluate every fold")
    _add_override_flags(p_folds)
    p_folds.set_defaults(func=_cmd_folds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QlamError as exc:
        category = getattr(exc, "category", "error")
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(category, 1)


if __name__ == "__main__":
    sys.exit(main())
