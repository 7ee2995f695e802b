"""Binary dataset containers, image-to-sequence transforms, and split
plans.  Fixture bytes are assembled by hand with struct so the parser is
never checked against its own writer alone."""

import gzip
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from numpy.testing import assert_allclose, assert_array_equal
from oracles import mutations

from qlam.data import (
    CIFAR_RECORD_BYTES,
    DATA_DIR_ENV,
    DATASET_NAMES,
    cifar10_bytes,
    center_crop,
    data_root,
    downsample,
    fold_split,
    holdout_split,
    idx_images_bytes,
    idx_labels_bytes,
    load_cifar10_bin,
    load_dataset,
    load_idx,
    load_idx_images,
    pad_to,
    parse_cifar10_bytes,
    parse_idx_bytes,
    shrink_28_to_8,
    shrink_28_to_16,
    to_sequence,
    upsample_nearest,
    write_cifar10_bin,
    write_idx_images,
    write_idx_labels,
)
from qlam.errors import ConfigError, DataError, ParseError, QlamError, ShapeError

README = Path(__file__).resolve().parents[1] / "README.md"

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def hand_images_bytes(images):
    arr = np.asarray(images, dtype=np.uint8)
    return struct.pack(">IIII", IMAGES_MAGIC, *arr.shape) + arr.tobytes()


def hand_labels_bytes(labels):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", LABELS_MAGIC, arr.shape[0]) + arr.tobytes()


def hand_cifar_bytes(labels, planes):
    # planes: (count, 3, 32, 32) channel-major pixels, label byte first.
    out = bytearray()
    for lab, img in zip(labels, planes):
        out.append(lab)
        out.extend(np.asarray(img, dtype=np.uint8).tobytes())
    return bytes(out)


# ---------------------------------------------------------------------------
# IDX parsing.
# ---------------------------------------------------------------------------

def test_idx_images_parse_hand_bytes():
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
    parsed = parse_idx_bytes(hand_images_bytes(images), IMAGES_MAGIC)
    assert parsed.dtype == np.uint8
    assert_array_equal(parsed, images)


def test_idx_labels_parse_hand_bytes():
    labels = np.array([0, 9, 3, 7], dtype=np.uint8)
    parsed = parse_idx_bytes(hand_labels_bytes(labels), LABELS_MAGIC)
    assert_array_equal(parsed, labels)


def test_idx_writer_emits_hand_bytes():
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    labels = np.array([1, 8], dtype=np.uint8)
    assert idx_images_bytes(images) == hand_images_bytes(images)
    assert idx_labels_bytes(labels) == hand_labels_bytes(labels)


def test_idx_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(5, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5).astype(np.uint8)
    write_idx_images(tmp_path / "imgs", images)
    write_idx_labels(tmp_path / "labs", labels)
    got_images, got_labels = load_idx(tmp_path / "imgs", tmp_path / "labs")
    assert_array_equal(got_images, images)
    assert_array_equal(got_labels, labels)


def test_idx_gzip_transparent(tmp_path):
    images = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "imgs.gz"
    path.write_bytes(gzip.compress(hand_images_bytes(images)))
    assert_array_equal(load_idx_images(path), images)


def test_idx_bad_magic_offset_zero():
    data = struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4)
    with pytest.raises(ParseError) as info:
        parse_idx_bytes(data, IMAGES_MAGIC)
    assert info.value.offset == 0
    assert "byte offset 0" in str(info.value)


def test_idx_wrong_magic_kind_rejected():
    with pytest.raises(ParseError):
        parse_idx_bytes(hand_labels_bytes([1, 2]), IMAGES_MAGIC)


def test_idx_truncated_header():
    data = hand_images_bytes(np.zeros((1, 2, 2), dtype=np.uint8))[:9]
    with pytest.raises(ParseError) as info:
        parse_idx_bytes(data, IMAGES_MAGIC)
    assert info.value.offset == 9


def test_idx_truncated_payload():
    data = hand_images_bytes(np.zeros((2, 3, 3), dtype=np.uint8))[:-5]
    with pytest.raises(ParseError) as info:
        parse_idx_bytes(data, IMAGES_MAGIC)
    assert info.value.offset == len(data)
    assert "truncated" in str(info.value)


def test_idx_trailing_bytes():
    good = hand_images_bytes(np.zeros((2, 3, 3), dtype=np.uint8))
    with pytest.raises(ParseError) as info:
        parse_idx_bytes(good + b"\x00\x00", IMAGES_MAGIC)
    assert info.value.offset == len(good)


def test_idx_too_short_for_magic():
    with pytest.raises(ParseError):
        parse_idx_bytes(b"\x00\x00", IMAGES_MAGIC)


# dims whose 2**31 * 2**31 * 4 = 2**64 bytes an int64 product wraps to 0
WRAPPING_IDX_HEADER = struct.pack(">IIII", IMAGES_MAGIC, 2**31, 2**31, 4)


def test_idx_payload_size_does_not_wrap():
    with pytest.raises(ParseError, match="truncated IDX payload"):
        parse_idx_bytes(WRAPPING_IDX_HEADER, IMAGES_MAGIC)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=mutations(hand_images_bytes(np.arange(18, dtype=np.uint8).reshape(2, 3, 3)))
       | mutations(hand_labels_bytes([1, 2, 3])))
@example(data=WRAPPING_IDX_HEADER)
def test_a_mutated_idx_file_parses_or_is_a_qlam_error(data):
    for magic in (IMAGES_MAGIC, LABELS_MAGIC):
        try:
            parse_idx_bytes(data, magic)
        except QlamError:
            pass


def test_idx_count_mismatch(tmp_path):
    write_idx_images(tmp_path / "imgs", np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "labs", np.zeros(4, dtype=np.uint8))
    with pytest.raises(DataError):
        load_idx(tmp_path / "imgs", tmp_path / "labs")


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches.
# ---------------------------------------------------------------------------

def test_cifar_parse_hand_bytes():
    rng = np.random.default_rng(3)
    planes = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
    labels = [4, 9]
    images, got_labels = parse_cifar10_bytes(hand_cifar_bytes(labels, planes))
    assert images.shape == (2, 32, 32, 3)
    assert_array_equal(got_labels, labels)
    # Record layout is channel-major; loaded images are channel-last.
    assert_array_equal(images[0, :, :, 0], planes[0, 0])
    assert_array_equal(images[1, :, :, 2], planes[1, 2])


def test_cifar_writer_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(3, 32, 32, 3), dtype=np.uint8)
    labels = np.array([0, 5, 9], dtype=np.uint8)
    write_cifar10_bin(tmp_path / "batch.bin", images, labels)
    got_images, got_labels = load_cifar10_bin(tmp_path / "batch.bin")
    assert_array_equal(got_images, images)
    assert_array_equal(got_labels, labels)
    planes = np.transpose(images, (0, 3, 1, 2))
    assert (tmp_path / "batch.bin").read_bytes() == hand_cifar_bytes(labels, planes)


def test_cifar_bad_size():
    with pytest.raises(ParseError) as info:
        parse_cifar10_bytes(bytes(CIFAR_RECORD_BYTES + 10))
    assert info.value.offset == CIFAR_RECORD_BYTES


def test_cifar_empty_rejected():
    with pytest.raises(ParseError):
        parse_cifar10_bytes(b"")


def test_cifar_label_out_of_range():
    planes = np.zeros((2, 3, 32, 32), dtype=np.uint8)
    data = hand_cifar_bytes([3, 12], planes)
    with pytest.raises(ParseError) as info:
        parse_cifar10_bytes(data)
    assert info.value.offset == CIFAR_RECORD_BYTES


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=mutations(cifar10_bytes(np.zeros((2, 32, 32, 3), dtype=np.uint8), np.array([3, 9]))))
def test_a_mutated_cifar_batch_parses_or_is_a_qlam_error(data):
    try:
        parse_cifar10_bytes(data)
    except QlamError:
        pass


def test_cifar_writer_shape_checks():
    with pytest.raises(ShapeError):
        cifar10_bytes(np.zeros((1, 32, 32), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
    with pytest.raises(ShapeError):
        cifar10_bytes(np.zeros((2, 32, 32, 3), dtype=np.uint8), np.zeros(3, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Image to token sequence.
# ---------------------------------------------------------------------------

def test_to_sequence_grayscale_raster():
    img = np.array([[0, 255], [51, 102]])
    assert_allclose(to_sequence(img), [0.0, 1.0, 0.2, 0.4])


def test_to_sequence_rgb_plane_order():
    img = np.zeros((2, 2, 3))
    img[:, :, 0] = [[255, 0], [0, 0]]
    img[:, :, 1] = [[0, 0], [0, 255]]
    img[:, :, 2] = 255
    seq = to_sequence(img, "rgb_channel_concat")
    assert seq.shape == (12,)
    assert_allclose(seq, [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1])


def test_to_sequence_bad_layout():
    with pytest.raises(ConfigError):
        to_sequence(np.zeros((2, 2)), "column_scan")
    with pytest.raises(ShapeError):
        to_sequence(np.zeros((2, 2, 3)), "grayscale_raster")
    with pytest.raises(ShapeError):
        to_sequence(np.zeros((2, 2)), "rgb_channel_concat")


def test_downsample_mean_pool():
    img = np.array([
        [1.0, 3.0, 10.0, 20.0],
        [5.0, 7.0, 30.0, 40.0],
        [0.0, 0.0, 2.0, 2.0],
        [0.0, 4.0, 2.0, 2.0],
    ])
    assert_allclose(downsample(img, 2), [[4.0, 25.0], [1.0, 2.0]])
    assert_array_equal(downsample(img, 1), img)


def test_downsample_errors():
    with pytest.raises(ShapeError):
        downsample(np.zeros((5, 4)), 2)
    with pytest.raises(ConfigError):
        downsample(np.zeros((4, 4)), 0)
    with pytest.raises(ShapeError):
        downsample(np.zeros((2, 2, 2)), 2)


def test_center_crop():
    img = np.arange(25).reshape(5, 5)
    assert_array_equal(center_crop(img, 3), img[1:4, 1:4])
    assert_array_equal(center_crop(img, 5), img)
    with pytest.raises(ShapeError):
        center_crop(img, 6)


def test_pad_to():
    img = np.ones((2, 2))
    out = pad_to(img, 4)
    assert out.shape == (4, 4)
    assert out.sum() == 4.0
    assert_array_equal(out[1:3, 1:3], img)
    with pytest.raises(ShapeError):
        pad_to(np.ones((5, 5)), 4)


def test_upsample_nearest():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = upsample_nearest(img, 2)
    assert out.shape == (4, 4)
    assert_array_equal(out[:2, :2], [[1.0, 1.0], [1.0, 1.0]])
    assert_array_equal(out[2:, 2:], [[4.0, 4.0], [4.0, 4.0]])


def test_shrink_28_to_8():
    img = np.zeros((28, 28))
    img[2:26, 2:26] = 9.0
    out = shrink_28_to_8(img)
    assert out.shape == (8, 8)
    assert_allclose(out, 9.0)


def test_shrink_28_to_16():
    img = np.full((28, 28), 8.0)
    out = shrink_28_to_16(img)
    assert out.shape == (16, 16)
    # Pad adds two zero rows per side, so the outermost pooled ring is
    # pure padding and the interior is untouched.
    assert_allclose(out[1:15, 1:15], 8.0)
    assert_allclose(out[0, :], 0.0)
    assert_allclose(out[:, 0], 0.0)
    assert_allclose(out[15, :], 0.0)


# ---------------------------------------------------------------------------
# Splits.
# ---------------------------------------------------------------------------

def test_fold_split_partitions():
    folds = [fold_split(23, seed=5, n_folds=4, fold=k) for k in range(4)]
    sizes = [test.size for _, test in folds]
    assert sizes == [6, 6, 6, 5]
    all_test = np.concatenate([test for _, test in folds])
    assert_array_equal(np.sort(all_test), np.arange(23))
    for train, test in folds:
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == 23


def test_fold_split_deterministic():
    def permutation(seed):
        # fold k tests on slice k of the seeded shuffle, so the test
        # slices in fold order are the whole permutation
        return np.concatenate([fold_split(50, seed, 10, k)[1] for k in range(10)])

    a = permutation(9)
    b = permutation(9)
    c = permutation(10)
    assert_array_equal(a, b)
    assert np.any(a != c)


def test_fold_split_validation():
    with pytest.raises(ConfigError):
        fold_split(10, seed=0, n_folds=1, fold=0)
    with pytest.raises(ConfigError):
        fold_split(3, seed=0, n_folds=4, fold=0)
    fold_split(10, seed=0, n_folds=2, fold=1)
    with pytest.raises(ConfigError):
        fold_split(10, seed=0, n_folds=2, fold=2)


def test_holdout_split():
    train, test = holdout_split(100, seed=3, test_fraction=0.2)
    assert train.size == 80 and test.size == 20
    assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(100))
    again_train, again_test = holdout_split(100, seed=3, test_fraction=0.2)
    assert_array_equal(train, again_train)
    assert_array_equal(test, again_test)
    with pytest.raises(ConfigError):
        holdout_split(100, seed=0, test_fraction=1.0)


def test_holdout_small_fraction_keeps_one():
    train, test = holdout_split(10, seed=0, test_fraction=0.01)
    assert test.size == 1
    assert train.size == 9


# ---------------------------------------------------------------------------
# Dataset presets.
# ---------------------------------------------------------------------------

def test_data_root_env(tmp_path, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    with pytest.raises(ConfigError):
        data_root(None)
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert data_root(None) == tmp_path
    assert data_root(str(tmp_path)) == tmp_path
    with pytest.raises(DataError):
        data_root(str(tmp_path / "absent"))


def test_file_backed_preset_needs_files(tmp_path):
    (tmp_path / "mnist").mkdir()
    with pytest.raises(DataError):
        load_dataset("smnist8", root=str(tmp_path))


def test_unknown_dataset_name():
    with pytest.raises(ConfigError):
        load_dataset("mnist")


def test_readme_datasets_table_names_every_preset():
    section = README.read_text().split("\n## Datasets\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)`", section, re.M)
    assert sorted(names) == sorted(DATASET_NAMES)


def test_preset_without_training_samples_is_a_data_error(tmp_path):
    folder = tmp_path / "mnist"
    folder.mkdir()
    empty = np.zeros((0, 28, 28), dtype=np.uint8)
    for prefix in ("train", "t10k"):
        write_idx_images(folder / f"{prefix}-images-idx3-ubyte", empty)
        write_idx_labels(folder / f"{prefix}-labels-idx1-ubyte", np.zeros(0, dtype=np.uint8))
    with pytest.raises(DataError, match="no training samples"):
        load_dataset("smnist", root=str(tmp_path))


def test_unknown_dataset_name_without_a_root(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    with pytest.raises(ConfigError, match="unknown dataset"):
        load_dataset("nope")


def test_smnist8_from_synthetic_files(tmp_path):
    rng = np.random.default_rng(6)
    folder = tmp_path / "mnist"
    folder.mkdir()
    train_images = rng.integers(0, 256, size=(8, 28, 28), dtype=np.uint8)
    train_labels = rng.integers(0, 10, size=8).astype(np.uint8)
    test_images = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
    test_labels = rng.integers(0, 10, size=4).astype(np.uint8)
    write_idx_images(folder / "train-images-idx3-ubyte", train_images)
    write_idx_labels(folder / "train-labels-idx1-ubyte", train_labels)
    write_idx_images(folder / "t10k-images-idx3-ubyte", test_images)
    write_idx_labels(folder / "t10k-labels-idx1-ubyte", test_labels)
    bundle = load_dataset("smnist8", root=str(tmp_path))
    assert bundle.seq_len == 64
    assert len(bundle.train) == 8 and len(bundle.test) == 4
    sample = bundle.train[0]
    assert sample.tokens.shape == (64,)
    assert sample.label == train_labels[0]
    expected = to_sequence(shrink_28_to_8(train_images[0]))
    assert_allclose(sample.tokens, expected)


def test_smnist_gzip_fallback(tmp_path):
    folder = tmp_path / "mnist"
    folder.mkdir()
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    for stem, blob in [
        ("train-images-idx3-ubyte", idx_images_bytes(images)),
        ("train-labels-idx1-ubyte", idx_labels_bytes(labels)),
        ("t10k-images-idx3-ubyte", idx_images_bytes(images)),
        ("t10k-labels-idx1-ubyte", idx_labels_bytes(labels)),
    ]:
        (folder / (stem + ".gz")).write_bytes(gzip.compress(blob))
    bundle = load_dataset("smnist", root=str(tmp_path))
    assert bundle.seq_len == 784
    assert bundle.train[0].tokens.shape == (784,)


def test_scifar10_from_synthetic_files(tmp_path):
    rng = np.random.default_rng(7)
    folder = tmp_path / "cifar-10-batches-bin"
    folder.mkdir()
    for i in range(1, 6):
        images = rng.integers(0, 256, size=(2, 32, 32, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=2).astype(np.uint8)
        write_cifar10_bin(folder / f"data_batch_{i}.bin", images, labels)
    write_cifar10_bin(
        folder / "test_batch.bin",
        rng.integers(0, 256, size=(3, 32, 32, 3), dtype=np.uint8),
        rng.integers(0, 10, size=3).astype(np.uint8),
    )
    bundle = load_dataset("scifar10", root=str(tmp_path))
    assert bundle.seq_len == 3072
    assert len(bundle.train) == 10 and len(bundle.test) == 3
    assert bundle.train[0].tokens.shape == (3072,)
    assert bundle.train[0].tokens.min() >= 0.0
    assert bundle.train[0].tokens.max() <= 1.0


def test_sdigits8_bundle():
    pytest.importorskip("sklearn")
    bundle = load_dataset("sdigits8")
    assert bundle.test is None
    assert bundle.seq_len == 64
    assert bundle.n_classes == 10
    assert len(bundle.train) == 1797
    tokens = np.stack([s.tokens for s in bundle.train[:50]])
    assert tokens.shape == (50, 64)
    assert tokens.min() >= 0.0 and tokens.max() <= 1.0
    labels = {s.label for s in bundle.train}
    assert labels == set(range(10))


def test_sdigits16_bundle():
    pytest.importorskip("sklearn")
    bundle = load_dataset("sdigits16")
    assert bundle.seq_len == 256
    assert bundle.train[0].tokens.shape == (256,)
    # Nearest-neighbor upsampling repeats each 8x8 pixel in a 2x2 block.
    small = load_dataset("sdigits8").train[0].tokens.reshape(8, 8)
    big = bundle.train[0].tokens.reshape(16, 16)
    assert_allclose(big, np.kron(small, np.ones((2, 2))))
