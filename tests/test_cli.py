"""Command-line interface: one flag per TrainConfig field, config
precedence, exit codes, and end-to-end subcommand runs, offline on a
written smnist8 IDX set and on the digits preset (those two need
scikit-learn)."""

import contextlib
import dataclasses
import functools
import gzip
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.trainer
from qlam.cell import CellConfig, init_qlam_params
from qlam.checkpoint import load_checkpoint, save_checkpoint
from qlam.cli import EXIT_CODES, build_config, build_parser, load_config_file, main
from qlam.data import write_idx_images, write_idx_labels
from qlam.errors import ConfigError, QlamError
from qlam.observables import ShotConfig
from qlam.trainer import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"

TINY = [
    "--dataset", "sdigits8", "--qubits", "2", "--heads", "2", "--d-query", "3",
    "--epochs", "1", "--train-subsample", "24", "--test-subsample", "12",
    "--batch-size", "12",
]


def parse(argv):
    return build_parser().parse_args(argv)


def write_smnist8(root: Path, n_train=24, n_test=12) -> Path:
    """A small random smnist8 set: 28x28 IDX images, labels 0-9, under
    root/mnist; returns root."""
    rng = np.random.default_rng(0)
    folder = root / "mnist"
    folder.mkdir(parents=True)
    for split, count in (("train", n_train), ("t10k", n_test)):
        images = rng.integers(0, 256, (count, 28, 28), dtype=np.uint8)
        write_idx_images(folder / f"{split}-images-idx3-ubyte", images)
        write_idx_labels(folder / f"{split}-labels-idx1-ubyte", np.arange(count, dtype=np.uint8) % 10)
    return root


def assert_exit(argv, category, capsys) -> str:
    """main(argv) exits with the category's code and one categorized
    stderr line, no traceback; returns stderr."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_CODES.get(category, 1), err
    assert err.startswith(f"error[{category}]:") and "Traceback" not in err, err
    return err


# ---------------------------------------------------------------------------
# Config assembly.
# ---------------------------------------------------------------------------

def test_defaults():
    config = build_config(parse(["train"]))
    assert config.dataset == "sdigits8"
    assert config.seed == 0
    assert config.shots == 0
    assert config.shot_config() == ShotConfig()


def test_config_file_applies(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"dataset": "sdigits16", "seed": 7, "base_lr": 0.01}))
    config = build_config(parse(["train", "--config", str(path)]))
    assert config.dataset == "sdigits16"
    assert config.seed == 7
    assert config.base_lr == 0.01


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, "base_lr": 0.01, "epochs": 9}))
    config = build_config(parse(
        ["train", "--config", str(path), "--seed", "3", "--lr", "0.02"]
    ))
    assert config.seed == 3
    assert config.base_lr == 0.02
    assert config.epochs == 9


def test_config_file_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"learning_rate": 0.1}))
    with pytest.raises(QlamError) as info:
        load_config_file(path)
    assert "learning_rate" in str(info.value)


def test_config_file_not_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    with pytest.raises(QlamError):
        load_config_file(path)


def test_config_file_mistakes_exit_as_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    for text in ('{"learning_rate": 0.1}', "[1, 2]"):
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == EXIT_CODES["config"]
        assert capsys.readouterr().err.startswith("error[config]:")


def test_shots_flag_semantics():
    exact = build_config(parse(["train", "--shots", "0"]))
    assert exact.shot_config().mode == "exact"
    sampled = build_config(parse(["train", "--shots", "500", "--seed", "4"]))
    assert sampled.shots == 500
    assert sampled.shot_config() == ShotConfig("sampled", 500, 4)
    with pytest.raises(ConfigError):
        build_config(parse(["train", "--shots", "-3"]))


def test_config_file_naming_the_removed_shot_fields_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    for key, value in (("shot_mode", "sampled"), ("shots_per_term", 500)):
        path.write_text(json.dumps({key: value}))
        assert main(["train", "--config", str(path)]) == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert err.startswith("error[config]: unknown config keys") and key in err


def test_structural_flags():
    config = build_config(parse([
        "train", "--qubits", "3", "--layers", "1", "--heads", "4",
        "--split-mode", "kfold", "--n-folds", "5", "--fold", "2",
        "--workers", "2", "--out-dir", "/tmp/x",
    ]))
    assert config.n_qubits == 3 and config.n_layers == 1 and config.n_heads == 4
    assert config.split_mode == "kfold" and config.n_folds == 5 and config.fold == 2
    assert config.workers == 2 and config.out_dir == "/tmp/x"


# ---------------------------------------------------------------------------
# One flag per TrainConfig field.
# ---------------------------------------------------------------------------

SHORT_FLAGS = {"n_qubits": "--qubits", "n_layers": "--layers", "n_heads": "--heads", "base_lr": "--lr"}
# a valid, non-default command-line value per field type; str fields
# other than these take any text
VALID_TEXT = {"int": "3", "float": "0.5"}
VALID_STR = {"dataset": "smnist8", "entangler": "linear", "split_mode": "kfold"}
SUBCOMMANDS = {"train": [], "eval": ["--checkpoint", "m.npz"], "folds": []}


@functools.cache
def help_flags(command: str) -> tuple[tuple[str, str], ...]:
    """(flag, dest) of every option line of `qlam <command> --help`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parse([command, "--help"])
    options = re.findall(r"(?m)^\s+(--[a-z-]+) ([A-Z_]+)", out.getvalue())
    return tuple((flag, metavar.lower()) for flag, metavar in options)


@pytest.mark.parametrize("field", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
def test_every_config_field_is_one_flag(field):
    flag = SHORT_FLAGS.get(field.name, "--" + field.name.replace("_", "-"))
    kind = field.type.partition(" | ")[0]
    text = VALID_STR.get(field.name, "x") if kind == "str" else VALID_TEXT[kind]
    value = {"int": int, "float": float}.get(kind, str)(text)
    expected = dataclasses.replace(TrainConfig(), **{field.name: value})
    assert expected != TrainConfig()
    for command, required in SUBCOMMANDS.items():
        assert [f for f, dest in help_flags(command) if dest == field.name] == [flag], command
        assert build_config(parse([command, *required, flag, text])) == expected, command


# (config, int field) of every config; ShotConfig is also built in sampled mode
INT_FIELDS = [(config, f.name) for config in (CellConfig, ShotConfig, TrainConfig)
              for f in dataclasses.fields(config) if f.type.partition(" | ")[0] == "int"]
EDGE_INTS = [-2**70, -2**64, -2**63, -1, 0, 1, 2**63, 2**64 - 1, 2**64, 2**70]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field=st.sampled_from(INT_FIELDS),
       value=st.one_of(st.sampled_from(EDGE_INTS), st.integers(-2**70, 2**70)))
def test_a_drawn_int_gives_a_config_or_a_config_error(tmp_path_factory, field, value):
    # passed to the constructors, and to build_config as a flag and as a
    # config-file value; nothing is sized and no run starts
    config, name = field
    builds = [lambda: config(**{name: value})]
    if config is ShotConfig:
        builds.append(lambda: ShotConfig("sampled", **{name: value}))
    if config is TrainConfig:
        path = tmp_path_factory.getbasetemp() / "drawn.json"
        path.write_text(json.dumps({name: value}))
        flag = SHORT_FLAGS.get(name, "--" + name.replace("_", "-"))
        builds += [lambda: build_config(parse(["train", f"{flag}={value}"])),
                   lambda: build_config(parse(["train", "--config", str(path)]))]
    for build in builds:
        try:
            assert isinstance(build(), config)
        except ConfigError:
            pass


def test_help_has_no_flag_beyond_the_config_fields():
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    for command in SUBCOMMANDS:
        extra = {dest for _, dest in help_flags(command)} - names
        assert extra == ({"config", "checkpoint"} if command == "eval" else {"config"}), command


def test_subcommand_required():
    with pytest.raises(SystemExit):
        parse([])


def test_readme_commands_parse(capsys):
    text = README.read_text()
    commands = [
        line.split(" #")[0]
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines() if line.startswith("qlam ")
    ]
    assert len(commands) >= 3
    for command in commands:
        try:
            parse(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    # flags named in the prose must exist too
    with pytest.raises(SystemExit):
        parse(["train", "--help"])
    train_help = capsys.readouterr().out
    for flag in re.findall(r"`(--[a-z-]+)", text):
        assert re.search(rf"(?<![\w-]){flag}\b", train_help), flag


# ---------------------------------------------------------------------------
# Exit codes.
# ---------------------------------------------------------------------------

def test_exit_code_table():
    assert EXIT_CODES == {
        "config": 2, "data": 3, "parse": 4, "shape": 5, "numeric": 6,
        "validation": 7,
    }


def test_config_error_exit(capsys):
    code = main(["train", "--dataset", "imagenet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:")


def test_missing_checkpoint_exit(tmp_path, capsys):
    code = main([
        "eval", "--checkpoint", str(tmp_path / "no.npz"), "--dataset", "sdigits8",
    ])
    assert code == 3
    assert "error[data]:" in capsys.readouterr().err


def test_checkpoint_extra_not_an_object_exit(tmp_path, capsys):
    cfg = CellConfig(n_qubits=2, n_heads=2, d_query=3)
    path = tmp_path / "m.npz"
    save_checkpoint(path, init_qlam_params(np.random.default_rng(0), cfg), cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["__extra__"] = np.frombuffer(b'["dataset"]', dtype=np.uint8)
    np.savez(path, **members)
    code = main(["eval", "--checkpoint", str(path), "--dataset", "sdigits8"])
    assert code == 3
    assert "error[data]:" in capsys.readouterr().err


def test_missing_data_dir_exit(tmp_path, capsys):
    code = main(["train", "--dataset", "smnist8", "--data-dir", str(tmp_path)])
    assert code == 3
    assert "error[data]:" in capsys.readouterr().err


def test_one_fold_kfold_exits_as_config_error_before_loading_data(tmp_path, capsys):
    code = main(["train", "--dataset", "smnist8", "--split-mode", "kfold", "--n-folds", "1",
                 "--data-dir", str(tmp_path)])
    assert code == 2
    assert "n_folds" in capsys.readouterr().err


def test_malformed_idx_exit(tmp_path, capsys):
    folder = tmp_path / "mnist"
    folder.mkdir()
    (folder / "train-images-idx3-ubyte").write_bytes(b"\x00\x00\x09\x99junk")
    write_idx_labels(folder / "train-labels-idx1-ubyte", np.zeros(2, dtype=np.uint8))
    code = main(["train", "--dataset", "smnist8", "--data-dir", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error[parse]:")
    assert "byte offset 0" in err


def test_unreadable_config_exit(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["train", "--config", str(path)])
    assert code == 1
    assert "error[error]:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Run-setup mistakes that reach past the config: each exits categorized.
# ---------------------------------------------------------------------------

SMNIST_TINY = ["--dataset", "smnist8", "--qubits", "2", "--heads", "2", "--d-query", "3", "--epochs", "1"]


def test_negative_seed_exits_as_config_error(tmp_path, capsys):
    data_dir = str(write_smnist8(tmp_path / "data"))
    err = assert_exit(["train", *SMNIST_TINY, "--data-dir", data_dir, "--seed", "-1"], "config", capsys)
    assert "seed" in err


def test_out_dir_that_is_a_file_exits_as_config_error_before_writing(tmp_path, capsys):
    data_dir = str(write_smnist8(tmp_path / "data"))
    out = tmp_path / "out"
    out.write_text("keep")
    argv = ["train", *SMNIST_TINY, "--data-dir", data_dir, "--out-dir", str(out / "run")]
    for path in (out, out / "run"):
        err = assert_exit([*argv[:-1], str(path)], "config", capsys)
        assert "out_dir" in err
    assert out.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "out"]


def test_empty_out_dir_exits_as_config_error_before_writing(tmp_path, capsys, monkeypatch):
    data_dir = str(write_smnist8(tmp_path / "data"))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert "out_dir" in assert_exit(["train", *SMNIST_TINY, "--data-dir", data_dir, "--out-dir", ""],
                                     "config", capsys)
    assert list(work.iterdir()) == []


def test_out_dir_with_a_nul_byte_exits_as_config_error(tmp_path, capsys):
    data_dir = str(write_smnist8(tmp_path / "data"))
    err = assert_exit(["train", *SMNIST_TINY, "--data-dir", data_dir, "--out-dir", str(tmp_path / "a\0b")],
                      "config", capsys)
    assert "out_dir" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("flag", ["--layers", "--t-keep", "--d-query", "--heads", "--decoder-hidden"])
def test_oversized_cell_flags_exit_as_config_error_before_loading_data(tmp_path, capsys, flag):
    # 2**70 layers, kept readouts or cell widths: refused by the config, so
    # no dataset is read and no parameter array is allocated
    field = {"--layers": "n_layers", "--t-keep": "t_keep", "--d-query": "d_query",
             "--heads": "n_heads", "--decoder-hidden": "decoder_hidden"}[flag]
    err = assert_exit(["train", *SMNIST_TINY, "--data-dir", str(tmp_path / "absent"), flag, str(2**70)],
                      "config", capsys)
    assert f"{field} must be <=" in err


@pytest.mark.parametrize("command, flag, value", [("train", "--epochs", 2**63), ("folds", "--n-folds", 2**70)])
def test_epochs_or_folds_past_their_bound_exit_2_before_loading_data(tmp_path, capsys, command, flag, value):
    # 2**63 epochs would train without end, and 2**70 folds under holdout
    # would run one training per fold: both refused before any data loads
    err = assert_exit([command, *SMNIST_TINY, "--data-dir", str(tmp_path / "absent"), flag, str(value)],
                      "config", capsys)
    assert f"{flag[2:].replace('-', '_')} must be <=" in err


def test_workers_past_their_bound_exit_2_before_loading_data(tmp_path, capsys, monkeypatch):
    # refused by the config, so no data loads and no thread starts
    monkeypatch.setattr(qlam.trainer, "load_dataset", lambda *args: pytest.fail("loaded data"))
    err = assert_exit(["train", *SMNIST_TINY, "--data-dir", str(tmp_path), "--workers", "65"],
                      "config", capsys)
    assert "workers must be <= 64" in err


@pytest.mark.parametrize("flag, field", [("--shots", "shots"), ("--seed", "seed")])
def test_oversized_shots_or_seed_exit_2_before_the_checkpoint_loads(tmp_path, capsys, flag, field):
    # 2**70 shots per term would fail allocating their draws, and seed
    # 2**64 would draw seed 0's shots: both refused by the config, so
    # neither the absent checkpoint nor any data is read
    value = {"--shots": 2**70, "--seed": 2**64}[flag]
    err = assert_exit(["eval", "--checkpoint", str(tmp_path / "absent.npz"), *SMNIST_TINY,
                       "--data-dir", str(tmp_path / "absent"), flag, str(value)], "config", capsys)
    assert f"{field} must be <=" in err


@pytest.mark.parametrize("flag", [("--qubits", "3"), ("--t-keep", "2")], ids=["qubits", "t-keep"])
def test_eval_with_cell_flags_other_than_the_checkpoints_exits_2(tmp_path, capsys, flag):
    data_dir = str(write_smnist8(tmp_path / "data"))
    tiny = [*SMNIST_TINY, "--batch-size", "12", "--t-keep", "4", "--data-dir", data_dir]
    out_dir = tmp_path / "run"
    assert main(["train", *tiny, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    err = assert_exit(["eval", "--checkpoint", str(out_dir / "checkpoint_s0_f0.npz"), *tiny, *flag],
                      "config", capsys)
    name = {"--qubits": "n_qubits", "--t-keep": "t_keep"}[flag[0]]
    assert f"checkpoint has {name}=" in err and f"the config has {name}={flag[1]}" in err
    # refused before the data loads, so a missing data directory changes nothing
    missing = ["--data-dir", str(tmp_path / "missing")]
    argv = ["eval", "--checkpoint", str(out_dir / "checkpoint_s0_f0.npz"), *tiny, *flag, *missing]
    assert assert_exit(argv, "config", capsys) == err


def test_config_file_that_is_not_utf8_exits_like_malformed_json(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b'\xff\xfe{"seed": 1}')
    assert "cannot read config file" in assert_exit(["train", "--config", str(path)], "error", capsys)


@pytest.mark.parametrize("damage", ["truncated", "bad-header", "bad-deflate"])
def test_corrupt_gzip_idx_exits_as_parse_error(tmp_path, capsys, damage):
    data_dir = write_smnist8(tmp_path / "data")
    images = data_dir / "mnist" / "train-images-idx3-ubyte"
    packed = gzip.compress(images.read_bytes())
    packed = {
        "truncated": packed[:100],
        "bad-header": packed[:2] + b"\x07" + packed[3:],  # unknown compression method
        "bad-deflate": packed[:10] + b"\xff" + packed[11:],  # invalid block type
    }[damage]
    images.write_bytes(packed)
    err = assert_exit(["train", *SMNIST_TINY, "--data-dir", str(data_dir)], "parse", capsys)
    assert f"byte offset {len(packed) if damage == 'truncated' else 0}" in err


# ---------------------------------------------------------------------------
# End-to-end subcommands: offline on a written smnist8 set, and on the
# digits preset (need scikit-learn).
# ---------------------------------------------------------------------------

def test_train_eval_folds_end_to_end_offline(tmp_path, capsys):
    data_dir = str(write_smnist8(tmp_path / "data"))
    tiny = [*SMNIST_TINY, "--batch-size", "12", "--data-dir", data_dir]
    out_dir = tmp_path / "run"
    assert main(["train", *tiny, "--t-keep", "4", "--entangler", "linear", "--out-dir", str(out_dir)]) == 0
    checkpoint = out_dir / "checkpoint_s0_f0.npz"
    _, cell_cfg, _ = load_checkpoint(checkpoint)
    assert cell_cfg.t_keep == 4 and cell_cfg.entangler == "linear"
    assert main(["eval", "--checkpoint", str(checkpoint), *tiny, "--t-keep", "4", "--entangler", "linear",
                 "--shots", "64"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("test accuracy:")
    folds_dir = str(tmp_path / "folds")
    assert main(["folds", *tiny, "--split-mode", "kfold", "--n-folds", "2", "--out-dir", folds_dir]) == 0
    out = capsys.readouterr().out
    assert "fold 0:" in out and "fold 1:" in out and "aggregate:" in out

def test_train_eval_end_to_end(tmp_path, capsys):
    pytest.importorskip("sklearn")
    out_dir = str(tmp_path / "run")
    code = main(["train", *TINY, "--out-dir", out_dir])
    out = capsys.readouterr().out
    assert code == 0
    assert "model parameters:" in out
    assert "final test:" in out
    checkpoint = tmp_path / "run" / "checkpoint_s0_f0.npz"
    assert checkpoint.exists()
    assert (tmp_path / "run" / "metrics_s0_f0.csv").exists()

    code = main(["eval", "--checkpoint", str(checkpoint), *TINY])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("test accuracy:")


def test_folds_end_to_end(tmp_path, capsys):
    pytest.importorskip("sklearn")
    out_dir = str(tmp_path / "folds")
    code = main([
        "folds", *TINY, "--split-mode", "kfold", "--n-folds", "2",
        "--out-dir", out_dir,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fold 0:" in out and "fold 1:" in out
    assert "aggregate:" in out
    assert (tmp_path / "folds" / "folds_summary_s0.csv").exists()


def test_console_entry_help():
    # the subprocess does not see pytest's `pythonpath`, so pass src on
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, "-m", "qlam.cli", "train", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert "--shots" in proc.stdout
