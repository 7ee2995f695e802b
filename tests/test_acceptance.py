"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Criteria 7 and 8 each have a reference variant on
the file-backed MNIST presets (skipped when the IDX files are absent)
and a counterpart on the scikit-learn digits presets, pinned from the
first validated runs, that runs wherever scikit-learn is installed.
Criterion 9 trains on a seeded in-test sequence set and needs no
dataset.  The two training criteria dominate the suite's runtime (tens
of minutes on one CPU core).
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    dense_expectation,
    dense_observable_matrix,
    dense_step_matrix,
    fd_grad_dict,
    rel_err,
)

from qlam.cell import CellConfig, decoder, init_qlam_params, measure
from qlam.circuits import Steps, new_zero_state
from qlam.data import (
    CIFAR_RECORD_BYTES,
    DatasetBundle,
    SequenceSample,
    cifar10_bytes,
    idx_images_bytes,
    idx_labels_bytes,
    load_dataset,
    parse_cifar10_bytes,
    parse_idx_bytes,
    to_sequence,
)
from qlam.errors import ParseError, QlamError
from qlam.gradients import loss_and_grad, readout_param_shift, weighted_readout_grads
from qlam.observables import ShotConfig, default_pauli_pool, pauli_table
from qlam.trainer import TrainConfig, train, train_elman

README = Path(__file__).resolve().parent.parent / "README.md"


@functools.lru_cache(maxsize=None)
def digits_bundle(name):
    return load_dataset(name)


@functools.lru_cache(maxsize=None)
def mnist_bundle(name):
    """Bundle or None; the file-backed presets need IDX files on disk."""
    try:
        return load_dataset(name)
    except QlamError:
        return None


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = new_zero_state(n)
    state[:] = amps / np.linalg.norm(amps)
    return state


# ---------------------------------------------------------------------------
# 1. Scope: published full-scale benchmark numbers are explicitly not
#    reproduced here; the repository must say so.
# ---------------------------------------------------------------------------

def test_criterion_01_desk_scale_scope_is_stated():
    text = README.read_text()
    assert "784-token" in text
    assert "out of scope" in text
    assert "desk-scale" in text.lower()


# ---------------------------------------------------------------------------
# 2. Unitarity of the recurrence at depth.
# ---------------------------------------------------------------------------

def test_criterion_02_unitarity_at_depth():
    # the factored step engine of the recurrence
    cfg = CellConfig(n_qubits=4)
    rng = np.random.default_rng(2)
    theta = rng.uniform(-np.pi, np.pi, 2 * cfg.n_layers * cfg.n_qubits)
    for depth in (10_000, 3072):
        state = Steps(theta, rng.uniform(0.0, 1.0, (1, depth, 4)), cfg.entangler).sweep(depth + 1, None)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# 3. Hermiticity of every decoded observable.
# ---------------------------------------------------------------------------

def test_criterion_03_observables_hermitian():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(1000):
        n = 1 + trial % 4
        cfg = CellConfig(
            n_qubits=n, n_heads=2, d_query=3, decoder_hidden=4, n_classes=3
        )
        params = init_qlam_params(rng, cfg)
        q = rng.normal(size=cfg.d_query)
        gammas = decoder(q, params)[1]
        labels = cfg.pool
        for head in range(cfg.n_heads):
            dense = dense_observable_matrix(gammas[head], labels)
            worst = max(worst, np.abs(dense - dense.conj().T).max())
    assert worst < 1e-14, f"worst Hermiticity defect {worst}"


# ---------------------------------------------------------------------------
# 4. Dense-matrix oracle for the step and the expectation.
# ---------------------------------------------------------------------------

def test_criterion_04_dense_oracle_100_instances():
    rng = np.random.default_rng(4)
    for trial in range(100):
        n = 1 + trial % 4
        cfg = CellConfig(
            n, n_layers=1 + trial % 2,
            entangler="ring" if trial % 3 else "linear",
        )
        theta = rng.uniform(-np.pi, np.pi, 2 * cfg.n_layers * cfg.n_qubits)
        embedding = rng.uniform(-np.pi, np.pi, n)
        state = random_state(rng, n)
        before = state.copy()
        state = Steps(theta, embedding[None, None], cfg.entangler).sweep(2, None, start=state[None])[0]
        dense = dense_step_matrix(cfg, theta, embedding)
        assert np.abs(state - dense @ before).max() < 1e-10

        pool = default_pauli_pool(n)
        gammas = rng.normal(size=len(pool))
        got = gammas @ pauli_table(pool).expectations(state[None])[0]
        want = dense_expectation(
            state, dense_observable_matrix(gammas, pool)
        )
        assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# 5. Shot estimator: unbiased, with 1/sqrt(m) error scaling.
# ---------------------------------------------------------------------------

def test_criterion_05_shot_scaling_slope():
    rng = np.random.default_rng(5)
    state = random_state(rng, 2)
    pool = default_pauli_pool(2)
    gammas = rng.normal(size=len(pool))
    table = pauli_table(pool)
    exps = table.expectations(state[None])[0]
    exact = gammas @ exps

    reps = 300
    m_values = (100, 1000, 10_000)
    stds = []
    for m in m_values:
        cfg = ShotConfig(mode="sampled", shots_per_term=m, rng_seed=55)
        draws = np.array([
            gammas @ measure(state[None], table, cfg, r, 0)[0] for r in range(reps)
        ])
        predicted = np.sqrt(np.sum(gammas**2 * (1.0 - exps**2)) / m)
        assert abs(draws.mean() - exact) < 4.0 * predicted / np.sqrt(reps), (
            f"biased at m={m}: mean {draws.mean()} vs exact {exact}"
        )
        stds.append(draws.std(ddof=1))
    slope = np.polyfit(np.log10(m_values), np.log10(stds), 1)[0]
    assert -0.6 < slope < -0.4, f"std-vs-shots slope {slope}"


# ---------------------------------------------------------------------------
# 6. Gradient triangle on twenty random small models.
# ---------------------------------------------------------------------------

def test_criterion_06_gradient_triangle_20_models():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T = 3 + seed % 6
        cfg = CellConfig(
            n_qubits=1 + seed % 3,
            n_layers=1 + seed % 2,
            entangler="ring" if seed % 2 else "linear",
            d_query=2,
            n_heads=1 + seed % 2,
            decoder_hidden=3,
            t_keep=1 + seed % min(T, 3),
            n_classes=3,
        )
        params = init_qlam_params(rng, cfg)
        tokens = rng.uniform(0.0, 1.0, T)

        w = rng.normal(size=(T, cfg.n_heads))
        _, grads = weighted_readout_grads(tokens, params, cfg, w)
        for i in range(params.theta.size):
            shift = float(np.sum(w * readout_param_shift(tokens, params, cfg, i)))
            assert abs(grads["theta"][i] - shift) < 1e-8, f"seed {seed} theta[{i}]"

        sample = SequenceSample(tokens, int(rng.integers(3)))
        bundle = loss_and_grad(sample, params, cfg)
        fd = fd_grad_dict(lambda: loss_and_grad(sample, params, cfg).loss, params)
        for key, g in bundle.grads.items():
            for a, b in zip(g.reshape(-1), fd[key].reshape(-1)):
                err = rel_err(a, b, floor=1e-6)
                assert err < 1e-5, f"seed {seed} {key}: relative error {err}"


# ---------------------------------------------------------------------------
# 7. Desk-scale learning beats the recurrent baseline and the 0.70 bar.
#    Reference preset needs MNIST IDX files; the digits counterpart runs
#    wherever scikit-learn is installed, with thresholds pinned from the
#    first validated run (hybrid 0.8719 vs baseline width-97 Elman, seed 0).
# ---------------------------------------------------------------------------

LEARNING_PROTOCOL = dict(
    epochs=10, batch_size=128, base_lr=1e-3, seed=0, split_mode="holdout",
)


def test_criterion_07_learning_reference_preset(tmp_path):
    if mnist_bundle("smnist8") is None:
        pytest.skip(
            "smnist8 needs the four MNIST IDX files under $QLAM_DATA_DIR/mnist; "
            "the digits counterpart below covers this criterion wherever "
            "scikit-learn is installed"
        )
    config = TrainConfig(
        dataset="smnist8", train_subsample=2000, test_subsample=500,
        out_dir=str(tmp_path), **LEARNING_PROTOCOL,
    )
    result = train(config, mnist_bundle("smnist8"))
    _, elman_acc, _ = train_elman(config, mnist_bundle("smnist8"))
    assert result.final_test.accuracy >= 0.70
    assert result.final_test.accuracy > elman_acc
    assert elman_acc > 0.20 and result.final_test.accuracy > 0.20


def test_criterion_07_learning_digits_counterpart(tmp_path):
    pytest.importorskip("sklearn")
    config = TrainConfig(
        dataset="sdigits8", out_dir=str(tmp_path), **LEARNING_PROTOCOL
    )
    bundle = digits_bundle("sdigits8")
    result = train(config, bundle)
    _, elman_acc, elman_params = train_elman(config, bundle)
    qlam_acc = result.final_test.accuracy
    assert qlam_acc >= 0.70, f"hybrid test accuracy {qlam_acc}"
    assert qlam_acc > elman_acc, f"hybrid {qlam_acc} vs elman {elman_acc}"
    assert qlam_acc > 0.20 and elman_acc > 0.20, "both must be far above chance"
    assert abs(result.n_parameters - elman_params) / result.n_parameters < 0.05


# ---------------------------------------------------------------------------
# 8. Length stress: at T=256 the recurrent baseline falls behind the
#    hybrid model under the same reduced budget (ordering only).
#    Counterpart numbers from the validated run: hybrid 0.2841 vs Elman
#    0.2284 (seed 0, 600 train samples, 10 epochs).
# ---------------------------------------------------------------------------

LONG_PROTOCOL = dict(
    epochs=10, batch_size=128, base_lr=1e-3, seed=0, split_mode="holdout",
    train_subsample=600,
)


def test_criterion_08_length_stress_reference_preset(tmp_path):
    if mnist_bundle("smnist16") is None:
        pytest.skip(
            "smnist16 needs the four MNIST IDX files under $QLAM_DATA_DIR/mnist; "
            "the digits counterpart below covers this criterion wherever "
            "scikit-learn is installed"
        )
    config = TrainConfig(
        dataset="smnist16", test_subsample=500, out_dir=str(tmp_path),
        **LONG_PROTOCOL,
    )
    result = train(config, mnist_bundle("smnist16"))
    _, elman_acc, _ = train_elman(config, mnist_bundle("smnist16"))
    assert result.final_test.accuracy > elman_acc


def test_criterion_08_length_stress_digits_counterpart(tmp_path):
    pytest.importorskip("sklearn")
    config = TrainConfig(
        dataset="sdigits16", out_dir=str(tmp_path), **LONG_PROTOCOL
    )
    bundle = digits_bundle("sdigits16")
    result = train(config, bundle)
    _, elman_acc, _ = train_elman(config, bundle)
    assert result.final_test.accuracy > elman_acc, (
        f"hybrid {result.final_test.accuracy} vs elman {elman_acc} at T=256"
    )


# ---------------------------------------------------------------------------
# 9. Bitwise deterministic metrics across reruns and worker counts.
#    Trains on a seeded in-test sequence set shaped like sdigits8, so it
#    needs no dataset: T = 64 crosses the 32-step adjoint checkpoint
#    windows, and the seeded holdout cut and 48/24 subsamples also run
#    under workers=4.
# ---------------------------------------------------------------------------

def seeded_digits_shaped_bundle():
    """sdigits8-shaped bundle from a fixed seed: 180 8x8 grids of 0..16
    scaled and rastered as the digits loader does, 10 classes, no
    canonical test split."""
    grids = np.random.default_rng(9).integers(0, 17, size=(180, 8, 8))
    samples = [
        SequenceSample(to_sequence(grid * (255.0 / 16.0), "grayscale_raster"), i % 10)
        for i, grid in enumerate(grids)
    ]
    return DatasetBundle("sdigits8", samples, None, 64, 10)


def test_criterion_09_bitwise_determinism(tmp_path):
    base = dict(
        dataset="sdigits8", n_qubits=3, n_heads=4, d_query=4, decoder_hidden=8,
        t_keep=8, epochs=2, batch_size=16, train_subsample=48, test_subsample=24,
        seed=0,
    )
    runs = {
        "a": TrainConfig(out_dir=str(tmp_path / "a"), workers=1, **base),
        "b": TrainConfig(out_dir=str(tmp_path / "b"), workers=1, **base),
        "w4": TrainConfig(out_dir=str(tmp_path / "w4"), workers=4, **base),
    }
    bundle = seeded_digits_shaped_bundle()
    blobs = {}
    for name, config in runs.items():
        result = train(config, bundle)
        blobs[name] = result.metrics_path.read_bytes()
    assert blobs["a"] == blobs["b"], "rerun with identical config diverged"
    assert blobs["a"] == blobs["w4"], "worker count changed the metrics"


# ---------------------------------------------------------------------------
# 10. Parser fixtures: byte-exact round-trips, categorized errors with
#     documented byte offsets.
# ---------------------------------------------------------------------------

def test_criterion_10_parser_fixtures():
    rng = np.random.default_rng(10)
    images = rng.integers(0, 256, size=(4, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=4).astype(np.uint8)
    img_blob = idx_images_bytes(images)
    lab_blob = idx_labels_bytes(labels)
    assert idx_images_bytes(parse_idx_bytes(img_blob, 0x803)) == img_blob
    assert idx_labels_bytes(parse_idx_bytes(lab_blob, 0x801)) == lab_blob

    cim = rng.integers(0, 256, size=(2, 32, 32, 3), dtype=np.uint8)
    clab = np.array([1, 7], dtype=np.uint8)
    cifar_blob = cifar10_bytes(cim, clab)
    back_images, back_labels = parse_cifar10_bytes(cifar_blob)
    assert cifar10_bytes(back_images, back_labels) == cifar_blob

    cases = [
        (lambda: parse_idx_bytes(b"\x00\x00\x42\x03" + img_blob[4:], 0x803), 0),
        (lambda: parse_idx_bytes(img_blob[:-3], 0x803), len(img_blob) - 3),
        (lambda: parse_idx_bytes(img_blob + b"\x00", 0x803), len(img_blob)),
        (lambda: parse_cifar10_bytes(cifar_blob[:-1]), len(cifar_blob) - CIFAR_RECORD_BYTES),
        (
            lambda: parse_cifar10_bytes(
                cifar_blob[:CIFAR_RECORD_BYTES] + b"\xff" + cifar_blob[CIFAR_RECORD_BYTES + 1:]
            ),
            CIFAR_RECORD_BYTES,
        ),
    ]
    for fn, offset in cases:
        with pytest.raises(ParseError) as info:
            fn()
        assert info.value.category == "parse"
        assert info.value.offset == offset
        assert f"byte offset {offset}" in str(info.value)
