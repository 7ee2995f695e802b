"""Command-line interface: train, eval, and folds subcommands.

`TrainConfig` is the one schema of a run.  Every field is a flag,
``--<field-name>`` except for the short names in `_FLAG_NAMES`, and an
optional JSON key-value file (`--config`, the same field names) supplies
values that explicit flags override.  Exit status is 0 on success;
failures print one categorized line to stderr and exit with a
category-specific nonzero code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, QlamError, field_parser
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
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise QlamError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}"
        )
    return payload


# flags that keep a name other than --<field name>
_FLAG_NAMES = {"n_qubits": "--qubits", "n_layers": "--layers", "n_heads": "--heads", "base_lr": "--lr"}
_FLAG_HELP = {
    "shots": "shots per pool term for sampled readout in qlam eval; 0 means exact mode "
    "(train and folds always test with exact readout)",
    "workers": "threads that run the batched gradient and evaluation chunks side by side",
    "data_dir": "dataset root (default: QLAM_DATA_DIR environment variable)",
}

def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """--config, then one flag per TrainConfig field."""
    parser.add_argument("--config", help="JSON config file with TrainConfig fields")
    for f in fields(TrainConfig):
        parser.add_argument(
            _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
            type=field_parser(f), help=_FLAG_HELP.get(f.name),
        )


def build_config(args: argparse.Namespace) -> TrainConfig:
    """The config file's fields, overridden by every flag given."""
    values = load_config_file(args.config) if args.config else {}
    values.update({key: getattr(args, key) for key in _CONFIG_KEYS if getattr(args, key) is not None})
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
