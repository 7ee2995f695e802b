"""Model persistence.

Checkpoints are uncompressed .npz archives (zip of .npy members, one
little-endian float64 array per parameter).  Reserved members:

    __version__   int64 scalar, format version (currently 1)
    __config__    uint8 bytes of the cell-config JSON
    __extra__     uint8 bytes of a caller JSON dict (run provenance)

plus one member per parameter array, named as in QlamParams.  Loading
never unpickles anything, and refuses a member whose header declares
more bytes than the archive holds for it before sizing any array by it.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
import zlib
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


def _read_array(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """A .npy member, read whole first, so its bytes are the ones the
    archive holds, not the size its directory claims; ValueError, before
    any array is sized, when its header declares more data than that."""
    member = io.BytesIO(archive.read(info))
    version = np.lib.format.read_magic(member)
    read = np.lib.format.read_array_header_1_0 if version == (1, 0) else \
        np.lib.format.read_array_header_2_0
    shape, _, dtype = read(member)
    held = len(member.getbuffer()) - member.tell()
    if math.prod(shape) * dtype.itemsize > held:
        raise ValueError(f"member {info.filename} declares more data than its {held} bytes")
    member.seek(0)
    return np.lib.format.read_array(member, allow_pickle=False)


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
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
            raw = sorted(info.filename for info in infos if not info.filename.endswith(".npy"))
            members = {} if raw else {info.filename[:-4]: _read_array(archive, info) for info in infos}
    # zipfile raises NotImplementedError for an unknown compression or
    # version, RuntimeError for an encrypted member, zlib.error for a bad
    # deflate stream and OSError for a member offset it cannot seek to
    except (EOFError, OSError, ValueError, zipfile.BadZipFile, NotImplementedError, RuntimeError,
            zlib.error) as exc:
        raise DataError(f"{path} is not a readable checkpoint: {exc}") from exc
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
