"""Dataset ingestion: IDX and CIFAR-10 binary parsing, image-to-sequence
conversion, downsampling plans, seeded splits, and the preset table.

Each preset is one row of a table (`DATASET_NAMES` is its keys), and the
bundle's `n_classes` sizes the trainer's classifier head.

Every parser fails with a byte offset; every writer is the exact inverse
of its parser so fixtures round-trip bit for bit.  Pixel tensors stay
uint8 (or 0..255-scaled float after pooling) until `to_sequence` divides
by 255 into [0, 1] tokens.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError, ParseError, ShapeError, ValidationError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
CIFAR_RECORD_BYTES = 3073
DATA_DIR_ENV = "QLAM_DATA_DIR"


@dataclass
class SequenceSample:
    """One causal token sequence with its class label."""

    tokens: np.ndarray
    label: int


# ---------------------------------------------------------------------------
# IDX container (big-endian magic, big-endian dims, raw uint8 payload).
# ---------------------------------------------------------------------------

def _read_bytes(path) -> bytes:
    """A file's bytes, gunzipped if it starts with the gzip magic.  A gzip
    stream that ends early fails at offset len(file), a corrupt one at 0."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        offset = len(raw) if isinstance(exc, EOFError) else 0
        raise ParseError(f"bad gzip stream in {path}: {exc}", offset) from exc


def parse_idx_bytes(data: bytes, expected_magic: int) -> np.ndarray:
    if len(data) < 4:
        raise ParseError("file too short for an IDX magic number", len(data))
    (magic,) = struct.unpack(">I", data[:4])
    if magic != expected_magic:
        raise ParseError(
            f"bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}", 0
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise ParseError(f"truncated IDX header, need {header_end} bytes", len(data))
    dims = struct.unpack(f">{ndim}I", data[4:header_end])
    payload = math.prod(dims)  # Python ints: an int64 product can wrap to 0
    if len(data) < header_end + payload:
        raise ParseError(
            f"truncated IDX payload, need {header_end + payload} bytes",
            len(data),
        )
    if len(data) > header_end + payload:
        raise ParseError("trailing bytes after IDX payload", header_end + payload)
    return np.frombuffer(
        data, dtype=np.uint8, count=payload, offset=header_end
    ).reshape(dims)


def load_idx_images(path) -> np.ndarray:
    """(count, rows, cols) uint8 tensor from an IDX3 file (gzip allowed)."""
    return parse_idx_bytes(_read_bytes(path), IDX_MAGIC_IMAGES)


def load_idx_labels(path) -> np.ndarray:
    """(count,) uint8 label vector from an IDX1 file (gzip allowed)."""
    return parse_idx_bytes(_read_bytes(path), IDX_MAGIC_LABELS)


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Paired image/label tensors; counts must agree."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"{images.shape[0]} images but {labels.shape[0]} labels "
            f"({images_path} / {labels_path})"
        )
    return images, labels


def idx_images_bytes(images: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(images, dtype=np.uint8)
    if arr.ndim != 3:
        raise ShapeError(f"images must be (count, rows, cols), got {arr.shape}")
    return struct.pack(">IIII", IDX_MAGIC_IMAGES, *arr.shape) + arr.tobytes()


def idx_labels_bytes(labels: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(labels, dtype=np.uint8)
    if arr.ndim != 1:
        raise ShapeError(f"labels must be a vector, got {arr.shape}")
    return struct.pack(">II", IDX_MAGIC_LABELS, arr.shape[0]) + arr.tobytes()


def write_idx_images(path, images: np.ndarray) -> None:
    Path(path).write_bytes(idx_images_bytes(images))


def write_idx_labels(path, labels: np.ndarray) -> None:
    Path(path).write_bytes(idx_labels_bytes(labels))


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches: records of 1 label byte + 3 channel planes.
# ---------------------------------------------------------------------------

def parse_cifar10_bytes(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    if len(data) == 0 or len(data) % CIFAR_RECORD_BYTES != 0:
        raise ParseError(
            f"file size {len(data)} is not a multiple of {CIFAR_RECORD_BYTES}",
            len(data) - len(data) % CIFAR_RECORD_BYTES,
        )
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].copy()
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise ParseError(
            f"label byte {labels[bad[0]]} out of range", int(bad[0]) * CIFAR_RECORD_BYTES
        )
    planes = records[:, 1:].reshape(-1, 3, 32, 32)
    images = np.transpose(planes, (0, 2, 3, 1)).copy()
    return images, labels


def load_cifar10_bin(path) -> tuple[np.ndarray, np.ndarray]:
    """(count, 32, 32, 3) uint8 images and (count,) labels from one batch file."""
    return parse_cifar10_bytes(_read_bytes(path))


def cifar10_bytes(images: np.ndarray, labels: np.ndarray) -> bytes:
    imgs = np.ascontiguousarray(images, dtype=np.uint8)
    labs = np.ascontiguousarray(labels, dtype=np.uint8)
    if imgs.ndim != 4 or imgs.shape[1:] != (32, 32, 3):
        raise ShapeError(f"images must be (count, 32, 32, 3), got {imgs.shape}")
    if labs.shape != (imgs.shape[0],):
        raise ShapeError(f"{imgs.shape[0]} images but labels shaped {labs.shape}")
    planes = np.transpose(imgs, (0, 3, 1, 2)).reshape(imgs.shape[0], 3072)
    records = np.concatenate([labs[:, None], planes], axis=1)
    return records.tobytes()


def write_cifar10_bin(path, images: np.ndarray, labels: np.ndarray) -> None:
    Path(path).write_bytes(cifar10_bytes(images, labels))


# ---------------------------------------------------------------------------
# Image -> token sequence, pooling, and resolution plans.
# ---------------------------------------------------------------------------

def to_sequence(image: np.ndarray, layout: str = "grayscale_raster") -> np.ndarray:
    """Causal token sequence in [0, 1] from a 0..255-scale pixel tensor.

    grayscale_raster: row-major scan of a (rows, cols) image.
    rgb_channel_concat: full red plane, then green, then blue.
    """
    img = np.asarray(image, dtype=np.float64)
    if layout == "grayscale_raster":
        if img.ndim != 2:
            raise ShapeError(f"grayscale layout expects (rows, cols), got {img.shape}")
        return img.reshape(-1) / 255.0
    if layout == "rgb_channel_concat":
        if img.ndim != 3 or img.shape[2] != 3:
            raise ShapeError(f"rgb layout expects (rows, cols, 3), got {img.shape}")
        return np.transpose(img, (2, 0, 1)).reshape(-1) / 255.0
    raise ConfigError(f"unknown sequence layout {layout!r}")


def validate_tokens(tokens) -> np.ndarray:
    """A token sequence as a float64 vector in the [0, 1] domain of
    `to_sequence`; a token outside it is a ValidationError."""
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"tokens must be a non-empty vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("tokens must be finite")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValidationError(
            f"tokens must lie in [0, 1], got range [{x.min():.6g}, {x.max():.6g}]"
        )
    return x


def downsample(image: np.ndarray, factor: int) -> np.ndarray:
    """Non-overlapping average pooling; dimensions must divide by factor."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError(f"downsample expects a 2-d image, got {img.shape}")
    if factor < 1:
        raise ConfigError(f"pool factor must be >= 1, got {factor}")
    rows, cols = img.shape
    if rows % factor or cols % factor:
        raise ShapeError(f"{img.shape} not divisible by pool factor {factor}")
    return img.reshape(rows // factor, factor, cols // factor, factor).mean(axis=(1, 3))


def center_crop(image: np.ndarray, size: int) -> np.ndarray:
    img = np.asarray(image)
    rows, cols = img.shape[:2]
    if size > rows or size > cols:
        raise ShapeError(f"cannot crop {img.shape} to {size}x{size}")
    r0 = (rows - size) // 2
    c0 = (cols - size) // 2
    return img[r0:r0 + size, c0:c0 + size]


def pad_to(image: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad a 2-d image to size x size, centered."""
    img = np.asarray(image, dtype=np.float64)
    rows, cols = img.shape
    if size < rows or size < cols:
        raise ShapeError(f"cannot pad {img.shape} up to {size}x{size}")
    out = np.zeros((size, size))
    r0 = (size - rows) // 2
    c0 = (size - cols) // 2
    out[r0:r0 + rows, c0:c0 + cols] = img
    return out


def upsample_nearest(image: np.ndarray, factor: int) -> np.ndarray:
    """Repeat every pixel into a factor x factor block."""
    return np.kron(np.asarray(image, dtype=np.float64), np.ones((factor, factor)))


def shrink_28_to_8(image: np.ndarray) -> np.ndarray:
    """28x28 -> 8x8: crop the 24x24 center, then 3x3 average pooling."""
    return downsample(center_crop(image, 24), 3)


def shrink_28_to_16(image: np.ndarray) -> np.ndarray:
    """28x28 -> 16x16: zero-pad to 32x32 centered, then 2x2 average pooling."""
    return downsample(pad_to(image, 32), 2)


# ---------------------------------------------------------------------------
# Splits: seeded shuffles of range(n_samples) into (train, test) indices.
# ---------------------------------------------------------------------------

def fold_split(n_samples: int, seed: int, n_folds: int, fold: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle cut into n_folds contiguous slices, the first
    n_samples % n_folds one longer; fold k tests on slice k and trains on
    the rest, so the folds' test slices are a disjoint cover."""
    if n_folds < 2 or n_folds > n_samples:
        raise ConfigError(
            f"need 2 <= n_folds <= n_samples, got {n_folds} folds for {n_samples} samples"
        )
    if not 0 <= fold < n_folds:
        raise ConfigError(f"fold {fold} outside [0, {n_folds})")
    perm = np.random.default_rng([seed, 2]).permutation(n_samples)
    base, extra = divmod(n_samples, n_folds)
    lo = fold * base + min(fold, extra)
    hi = lo + base + (fold < extra)
    return np.concatenate([perm[:lo], perm[hi:]]), perm[lo:hi]


def holdout_split(n_samples: int, seed: int, test_fraction: float = 0.2) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle split into one train and one test slice."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng([seed, 2])
    perm = rng.permutation(n_samples)
    n_test = max(1, int(round(n_samples * test_fraction)))
    return perm[n_test:], perm[:n_test]


# ---------------------------------------------------------------------------
# Dataset presets.
# ---------------------------------------------------------------------------

@dataclass
class DatasetBundle:
    """Train split, canonical test split or None, and metadata; the
    trainer gives its classifier one output per class of `n_classes`."""

    name: str
    train: list[SequenceSample]
    test: list[SequenceSample] | None
    seq_len: int
    n_classes: int


def data_root(override: str | None = None) -> Path:
    root = override or os.environ.get(DATA_DIR_ENV)
    if not root:
        raise ConfigError(
            f"no dataset root: pass --data-dir or set {DATA_DIR_ENV}"
        )
    path = Path(root)
    if not path.is_dir():
        raise DataError(f"dataset root {path} is not a directory")
    return path


def _find_idx(folder: Path, stem: str) -> Path:
    for suffix in ("", ".gz"):
        candidate = folder / (stem + suffix)
        if candidate.is_file():
            return candidate
    raise DataError(f"missing dataset file {folder / stem}[.gz]")


def _idx_samples(folder: Path, images_stem: str, labels_stem: str, transform) -> list[SequenceSample]:
    images, labels = load_idx(
        _find_idx(folder, images_stem), _find_idx(folder, labels_stem)
    )
    out = []
    for img, lab in zip(images, labels):
        pixels = transform(img) if transform else img
        out.append(SequenceSample(to_sequence(pixels, "grayscale_raster"), int(lab)))
    return out


def _mnist_family(root: str | None, folder: str, transform) -> tuple[list, list]:
    path = data_root(root) / folder
    return (
        _idx_samples(path, "train-images-idx3-ubyte", "train-labels-idx1-ubyte", transform),
        _idx_samples(path, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", transform),
    )


def _cifar(root: str | None) -> tuple[list, list]:
    folder = data_root(root) / "cifar-10-batches-bin"

    def batch(stem: str) -> list[SequenceSample]:
        path = folder / f"{stem}.bin"
        if not path.is_file():
            raise DataError(f"missing dataset file {path}")
        images, labels = load_cifar10_bin(path)
        return [
            SequenceSample(to_sequence(img, "rgb_channel_concat"), int(lab))
            for img, lab in zip(images, labels)
        ]

    return [s for i in range(1, 6) for s in batch(f"data_batch_{i}")], batch("test_batch")


def _digits(upsample: int) -> tuple[list, None]:
    try:
        from sklearn.datasets import load_digits
    except ImportError as exc:
        raise DataError(
            "the sdigits presets need scikit-learn (pip install scikit-learn)"
        ) from exc
    raw = load_digits()
    samples = []
    for img, lab in zip(raw.images, raw.target):
        pixels = img * (255.0 / 16.0)
        if upsample > 1:
            pixels = upsample_nearest(pixels, upsample)
        samples.append(SequenceSample(to_sequence(pixels, "grayscale_raster"), int(lab)))
    return samples, None


# preset name -> (class count, default epochs, loader); a loader takes the
# dataset root override and returns the train and test sample lists, test
# None where the preset ships no canonical test split
_PRESETS = {
    "smnist": (10, 30, lambda root: _mnist_family(root, "mnist", None)),
    "sfashion": (10, 30, lambda root: _mnist_family(root, "fashion-mnist", None)),
    "scifar10": (10, 50, _cifar),
    "smnist8": (10, 30, lambda root: _mnist_family(root, "mnist", shrink_28_to_8)),
    "smnist16": (10, 30, lambda root: _mnist_family(root, "mnist", shrink_28_to_16)),
    "sdigits8": (10, 30, lambda root: _digits(1)),
    "sdigits16": (10, 30, lambda root: _digits(2)),
}
DATASET_NAMES = tuple(_PRESETS)


def default_epochs(name: str) -> int:
    """The epochs a run on preset `name` trains when it names none."""
    return _PRESETS[name][1]


def load_dataset(name: str, root: str | None = None) -> DatasetBundle:
    """Load a named preset; its sequence length is read from its samples.

    File-backed presets look under the dataset root (argument or the
    QLAM_DATA_DIR environment variable): mnist/ and fashion-mnist/ hold
    the four standard IDX files, cifar-10-batches-bin/ the six binary
    batches.  The sdigits presets use scikit-learn's bundled 8x8 digits
    and need no files; they ship no canonical test split (test=None),
    so the trainer splits them by seed.
    """
    if name not in _PRESETS:
        raise ConfigError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    n_classes, _, loader = _PRESETS[name]
    train, test = loader(root)
    if not train:
        raise DataError(f"dataset {name} has no training samples")
    return DatasetBundle(name, train, test, train[0].tokens.shape[0], n_classes)
