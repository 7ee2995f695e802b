"""Smoke tests of the equivalence dump in tools/dump_outputs.py and the
step timing in tools/time_engine.py."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name="dump_outputs"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_of_two_models_compares_bitwise_equal(tmp_path, capsys):
    tool = load_tool()
    first, again = tmp_path / "first.npz", tmp_path / "again.npz"
    count = tool.dump(first, models=2)
    assert tool.dump(again, models=2) == count
    report, sizes, unmatched = tool.compare(first, again)
    assert not unmatched
    assert sum(arrays for arrays, _, _ in report.values()) == count
    for kind, (arrays, equal, worst) in report.items():
        assert equal == arrays and worst == 0.0, kind
    # both models are 1-qubit: one size line holds every array
    assert sizes == {1: [count, count, 0.0]}
    # both models are 1-qubit, so the shift oracle is in the dump
    assert report["param_shift_grad"][0] == 2
    # the batched passes hold one row per stacked sequence, and the batched
    # gradients every key of the single-sequence ones
    single = {kind.split(".", 1)[1] for kind in report if kind.startswith("loss_and_grad.")}
    batched = {kind.split(".", 1)[1] for kind in report if kind.startswith("batch_loss_and_grad.")}
    assert single == batched and "theta" in batched
    rows = len(tool.STACK_INDICES)
    with np.load(first) as arrays:
        for name in {key.split("/")[0] for key in arrays.files}:
            assert arrays[f"{name}/batch_loss_and_grad.loss"].shape == (rows,)
            assert arrays[f"{name}/batch_loss_and_grad.theta"].shape[0] == rows
            for kind in ["exact"] + [f"shots{m}" for m in tool.SHOTS]:
                assert arrays[f"{name}/batch_logits.{kind}"].shape == (rows, 3), kind
    assert tool.main(["--compare", str(first), str(again)]) == 0
    out = capsys.readouterr().out
    assert f"n =  1  {count:6d}  {count:7d}  0.000e+00\n" in out
    assert f"total: {count} arrays, {count} bitwise equal" in out


def test_engine_timing_prints_every_register_and_stack(capsys):
    tool = load_tool("time_engine")
    assert tool.main(["--qubits", "1", "2", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # a header, one line per register and stack height (the default
    # training chunk of 128 among them), one of build times, a legend
    rows = [line.split() for line in lines[1:-2]]
    assert lines[0].count("faults") == 3 and "minor page faults per pass" in lines[-1]
    assert [(int(r[0].rstrip("*")), int(r[1])) for r in rows] == [
        (n, b) for n in (1, 2) for b in (1, 4, 16, 128, 4096 >> n)]
    for row in rows:
        assert row[0].endswith("*")  # both registers fold
        # layered, folded and their ratio for the forward, the kept
        # adjoint and the uncomputed adjoint, each beside its minor page
        # faults per pass, layered/folded
        passes = np.array(row[2:]).reshape(3, 4)
        times = passes[:, :3].astype(float)
        assert times.shape == (3, 3) and np.all(np.isfinite(times)) and np.all(times > 0), row
        faults = np.array([f.split("/") for f in passes[:, 3]], dtype=float)
        assert faults.shape == (3, 2) and np.all(np.isfinite(faults)) and np.all(faults >= 0), row
    # each register's Steps and `reads` build, layered and folded
    label, builds = lines[-2].split(": ")
    assert label == "build us, layered/folded"
    assert [b.split()[0] for b in builds.split(", ")] == ["n=1", "n=2"]
    for b in builds.split(", "):
        assert all(float(t) > 0 for t in b.split()[1].split("/")), b


@pytest.mark.parametrize("argv", [["--qubits", "0"], ["--qubits", "2", "9"], ["--rounds", "0"]])
def test_engine_timing_refuses_what_it_cannot_time(argv, capsys, monkeypatch):
    # a usage error (exit 2) before any engine is built: at n = 12 the
    # folded engine's matrices alone take 3 GiB
    tool = load_tool("time_engine")
    monkeypatch.setattr(tool, "engine", lambda *args: pytest.fail("built an engine"))
    with pytest.raises(SystemExit) as info:
        tool.main(argv)
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err
