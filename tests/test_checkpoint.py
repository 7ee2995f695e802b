"""Checkpoint persistence: exact round-trips and corruption handling."""

import io
import json
import re
import tempfile
import warnings
import zipfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from numpy.testing import assert_array_equal
from oracles import mutations

from qlam.cell import CellConfig, final_logits, init_qlam_params
from qlam.cli import EXIT_CODES
from qlam.checkpoint import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from qlam.errors import ConfigError, DataError, QlamError, ShapeError


def small_cfg(**kwargs):
    defaults = dict(n_qubits=2, n_heads=2, d_query=3, decoder_hidden=4, n_classes=3)
    defaults.update(kwargs)
    return CellConfig(**defaults)


def test_round_trip_bitwise(tmp_path):
    cfg = small_cfg(t_keep=2, entangler="linear")
    params = init_qlam_params(np.random.default_rng(0), cfg)
    path = tmp_path / "model.npz"
    save_checkpoint(path, params, cfg, {"note": "smoke", "epoch": 3})
    got_params, got_cfg, extra = load_checkpoint(path)
    assert got_cfg == cfg
    assert extra == {"note": "smoke", "epoch": 3}
    for key, arr in params.as_dict().items():
        assert_array_equal(got_params.as_dict()[key], arr, err_msg=key)


def test_path_without_npz_suffix_round_trips(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(3), cfg)
    save_checkpoint(tmp_path / "model", params, cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["model"]
    got_params, got_cfg, _ = load_checkpoint(str(tmp_path / "model"))
    assert got_cfg == cfg
    for key, arr in params.as_dict().items():
        assert_array_equal(got_params.as_dict()[key], arr, err_msg=key)


def test_round_trip_preserves_predictions(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(1), cfg)
    tokens = np.random.default_rng(2).uniform(size=5)
    before = final_logits(tokens, params, cfg)
    save_checkpoint(tmp_path / "m.npz", params, cfg)
    loaded, loaded_cfg, extra = load_checkpoint(tmp_path / "m.npz")
    assert extra == {}
    assert_array_equal(final_logits(tokens, loaded, loaded_cfg), before)


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "nope.npz")


def test_foreign_npz_rejected(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, weights=np.zeros(3))
    with pytest.raises(DataError) as info:
        load_checkpoint(path)
    assert "version" in str(info.value)


def test_future_version_rejected(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(3), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["__version__"] = np.int64(CHECKPOINT_VERSION + 1)
    np.savez(path, **members)
    with pytest.raises(DataError) as info:
        load_checkpoint(path)
    assert str(CHECKPOINT_VERSION + 1) in str(info.value)


def test_missing_parameter_member_rejected(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(4), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    del members["theta"]
    stripped = tmp_path / "stripped.npz"
    np.savez(stripped, **members)
    with pytest.raises(DataError, match="theta"):
        load_checkpoint(stripped)


@pytest.mark.parametrize("version", [
    pytest.param(np.array("abc"), id="string"),
    pytest.param(np.array([CHECKPOINT_VERSION, CHECKPOINT_VERSION]), id="vector"),
    pytest.param(np.array([CHECKPOINT_VERSION]), id="one-element-vector"),
    pytest.param(np.float64(CHECKPOINT_VERSION), id="float"),
])
def test_malformed_version_member_is_data_error(tmp_path, version):
    # int() of a string member raises ValueError, of a vector TypeError
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(11), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["__version__"] = version
    np.savez(path, **members)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)


def test_member_that_is_not_an_array_is_data_error(tmp_path):
    # numpy loads a zip member not named *.npy as bytes, which have no astype
    cfg = small_cfg()
    path = tmp_path / "m.npz"
    save_checkpoint(path, init_qlam_params(np.random.default_rng(13), cfg), cfg)
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("junk", b"not an array")
    with pytest.raises(DataError, match="junk") as info:
        load_checkpoint(path)
    assert EXIT_CODES[info.value.category] == 3


@pytest.mark.parametrize("retype", [
    pytest.param(lambda theta: np.full(theta.shape, "x"), id="string"),
    pytest.param(lambda theta: theta + 0.5j, id="complex"),
])
def test_non_real_parameter_member_is_data_error(tmp_path, retype):
    # a string member would fail float conversion with a bare ValueError,
    # and a complex one would lose its imaginary part to a ComplexWarning
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(10), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["theta"] = retype(members["theta"])
    np.savez(path, **members)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError):
            load_checkpoint(path)


def test_config_mismatch_rejected(tmp_path):
    # Arrays saved under one config must not validate under another.
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(5), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    other = small_cfg(n_qubits=3)
    members["__config__"] = np.frombuffer(
        json.dumps(
            {**json.loads(members["__config__"].tobytes()), "n_qubits": 3}
        ).encode(),
        dtype=np.uint8,
    )
    np.savez(path, **members)
    with pytest.raises(ShapeError):
        load_checkpoint(path)
    assert other.n_qubits == 3


def test_archive_is_plain_zip_of_npy(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(6), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with zipfile.ZipFile(path) as zf:
        names = set(zf.namelist())
    expected = {f"{key}.npy" for key in params.as_dict()}
    expected |= {"__version__.npy", "__config__.npy", "__extra__.npy"}
    assert names == expected


def test_extra_survives_json_round_trip(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(7), cfg)
    extra = {"seed": 11, "fold": 2, "dataset": "sdigits8", "accuracy": 0.5}
    save_checkpoint(tmp_path / "m.npz", params, cfg, extra)
    _, _, got = load_checkpoint(tmp_path / "m.npz")
    assert got == extra


def test_unknown_config_key_is_data_error(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(8), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    config = {**json.loads(members["__config__"].tobytes()), "n_qbits": 2}
    members["__config__"] = np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)
    np.savez(path, **members)
    with pytest.raises(DataError):
        load_checkpoint(path)


@pytest.mark.parametrize("clamp", [False, True])
def test_config_with_a_clamp_tokens_key(tmp_path, clamp):
    # checkpoints written while the cell had a clamp_tokens field: false
    # loads as before, true is refused, since that model clipped its tokens
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(14), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    config = {**json.loads(members["__config__"].tobytes()), "clamp_tokens": clamp}
    members["__config__"] = np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)
    np.savez(path, **members)
    if clamp:
        with pytest.raises(DataError, match="clamp_tokens"):
            load_checkpoint(path)
        return
    got_params, got_cfg, _ = load_checkpoint(path)
    assert got_cfg == cfg
    for key, arr in params.as_dict().items():
        assert_array_equal(got_params.as_dict()[key], arr, err_msg=key)


def test_truncated_archive_is_data_error(tmp_path):
    cfg = small_cfg()
    params = init_qlam_params(np.random.default_rng(9), cfg)
    path = tmp_path / "m.npz"
    save_checkpoint(path, params, cfg)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError):
        load_checkpoint(path)


@pytest.mark.parametrize("member, payload, match", [
    pytest.param("__extra__", ["dataset", "seed"], "__extra__", id="extra-list"),
    pytest.param("__config__", [2, 2], "__config__", id="config-list"),
    pytest.param("__config__", {**asdict(small_cfg()), "n_qubits": 2.0}, "n_qubits",
                 id="config-float-int"),
])
def test_malformed_json_member_is_data_error(tmp_path, member, payload, match):
    # loaded, a list __extra__ would fail a later key lookup, and a float
    # n_qubits the recurrence's integer arithmetic, both with a TypeError
    cfg = small_cfg()
    path = tmp_path / "m.npz"
    save_checkpoint(path, init_qlam_params(np.random.default_rng(12), cfg), cfg)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members[member] = np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)
    np.savez(path, **members)
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)


def test_numpy_int_config_round_trips(tmp_path):
    cfg = small_cfg(n_qubits=np.int64(3), n_heads=np.int32(2), t_keep=np.int64(2))
    path = tmp_path / "m.npz"
    save_checkpoint(path, init_qlam_params(np.random.default_rng(13), cfg), cfg)
    _, loaded, _ = load_checkpoint(path)
    assert loaded == cfg == small_cfg(n_qubits=3, n_heads=2, t_keep=2)


@pytest.mark.parametrize("field, value", [
    ("n_qubits", 4.0), ("n_layers", "2"), ("n_heads", True), ("t_keep", None),
])
def test_cell_config_rejects_non_integer_int_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        CellConfig(**{field: value})
    assert getattr(CellConfig(**{field: np.int64(2)}), field) == 2


def saved_bytes() -> bytes:
    """The bytes of a small saved checkpoint."""
    cfg = small_cfg()
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/m.npz"
        save_checkpoint(path, init_qlam_params(np.random.default_rng(14), cfg), cfg)
        with open(path, "rb") as file:
            return file.read()


def with_theta_declaring(blob: bytes, count: int) -> bytes:
    """blob, a checkpoint, with its theta.npy header rewritten to declare
    shape (count,), keeping the header's length and the member's body."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    theta = members["theta.npy"]
    length = int.from_bytes(theta[8:10], "little")  # a version 1.0 header
    header = theta[10:10 + length].decode("latin1")
    header = re.sub(r"\(\d+,\)", f"({count},)", header).rstrip().ljust(length - 1) + "\n"
    members["theta.npy"] = theta[:10] + header.encode("latin1") + theta[10 + length:]
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return out.getvalue()


SAVED = saved_bytes()
# 2**45 floats, 256 TiB: reading the member would first allocate them
HUGE_THETA = with_theta_declaring(SAVED, 2**45)


def test_member_declaring_more_data_than_it_holds_is_data_error(tmp_path):
    path = tmp_path / "m.npz"
    path.write_bytes(HUGE_THETA)
    with pytest.raises(DataError, match="theta.npy"):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=mutations(SAVED))
@example(data=HUGE_THETA)
def test_a_mutated_checkpoint_loads_or_is_a_qlam_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.npz"
    path.write_bytes(data)
    try:
        load_checkpoint(path)
    except QlamError:
        pass
