"""Model persistence.

Checkpoints are uncompressed .npz archives (zip of .npy members, one
little-endian float64 array per parameter).  Reserved members:

    __version__   int64 scalar, format version (currently 1)
    __config__    uint8 bytes of the cell-config JSON
    __extra__     uint8 bytes of a caller JSON dict (run provenance)

plus one member per parameter array, named as in QlamParams.  Loading
never unpickles anything.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cell import CellConfig, QlamParams
from .errors import DataError

CHECKPOINT_VERSION = 1


def _json_array(payload: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload, sort_keys=True).encode(), dtype=np.uint8)


def _json_load(arr: np.ndarray, member: str) -> dict:
    value = json.loads(arr.tobytes().decode())
    if not isinstance(value, dict):
        raise TypeError(f"{member} holds a JSON {type(value).__name__}, not an object")
    return value


def save_checkpoint(
    path, params: QlamParams, cfg: CellConfig, extra: dict | None = None
) -> None:
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in params.as_dict().items()}
    with open(path, "wb") as file:  # given a path, numpy would append .npz
        np.savez(
            file,
            __version__=np.int64(CHECKPOINT_VERSION),
            __config__=_json_array(asdict(cfg)),
            __extra__=_json_array(extra or {}),
            **arrays,
        )


def load_checkpoint(path) -> tuple[QlamParams, CellConfig, dict]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a readable checkpoint: {exc}") from exc
    # numpy returns a member whose name lacks ".npy" as raw bytes
    raw = sorted(name for name, value in members.items() if not isinstance(value, np.ndarray))
    if raw:
        raise DataError(f"{path} holds members that are not arrays: {raw}")
    if "__version__" not in members:
        raise DataError(f"{path} is not a model checkpoint (no version member)")
    version = members["__version__"]
    if version.shape != () or version.dtype.kind not in "iu":
        raise DataError(
            f"{path} has a malformed version member ({version.dtype}, shape {version.shape})"
        )
    version = int(version)
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    try:
        stored = _json_load(members["__config__"], "__config__")
        # a cell field until tokens outside [0, 1] became always an error
        if stored.pop("clamp_tokens", False) is not False:
            raise ValueError("clamp_tokens is set: the model clipped tokens outside [0, 1], "
                             "which is no longer supported")
        cfg = CellConfig(**stored)
        extra = _json_load(members["__extra__"], "__extra__")
        params = QlamParams.from_dict({
            name: arr.astype(np.float64, casting="same_kind")
            for name, arr in members.items() if not name.startswith("__")
        })
    except (KeyError, TypeError, ValueError) as exc:  # ShapeError is a ValueError
        raise DataError(f"{path} holds no valid cell config or parameters: {exc}") from exc
    params.validate(cfg)
    return params, cfg, extra
