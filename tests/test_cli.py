"""Command-line interface: config precedence, exit codes, and end-to-end
subcommand runs on the digits preset (those two need scikit-learn)."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlam.cell import CellConfig, init_qlam_params
from qlam.checkpoint import save_checkpoint
from qlam.cli import EXIT_CODES, build_config, build_parser, load_config_file, main
from qlam.data import write_idx_labels
from qlam.errors import ConfigError, QlamError

README = Path(__file__).resolve().parents[1] / "README.md"

TINY = [
    "--dataset", "sdigits8", "--qubits", "2", "--heads", "2", "--d-query", "3",
    "--epochs", "1", "--train-subsample", "24", "--test-subsample", "12",
    "--batch-size", "12",
]


def parse(argv):
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# Config assembly.
# ---------------------------------------------------------------------------

def test_defaults():
    config = build_config(parse(["train"]))
    assert config.dataset == "sdigits8"
    assert config.seed == 0
    assert config.shot_mode == "exact"


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
    assert exact.shot_mode == "exact"
    sampled = build_config(parse(["train", "--shots", "500"]))
    assert sampled.shot_mode == "sampled"
    assert sampled.shots_per_term == 500
    with pytest.raises(ConfigError):
        build_config(parse(["train", "--shots", "-3"]))


def test_structural_flags():
    config = build_config(parse([
        "train", "--qubits", "3", "--layers", "1", "--heads", "4",
        "--split-mode", "kfold", "--n-folds", "5", "--fold", "2",
        "--workers", "2", "--out-dir", "/tmp/x",
    ]))
    assert config.n_qubits == 3 and config.n_layers == 1 and config.n_heads == 4
    assert config.split_mode == "kfold" and config.n_folds == 5 and config.fold == 2
    assert config.workers == 2 and config.out_dir == "/tmp/x"


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
# End-to-end subcommands on the digits preset (need scikit-learn).
# ---------------------------------------------------------------------------

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
