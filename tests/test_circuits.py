"""Encoding and ansatz circuits against the dense-matrix oracle.

The encoding is checked as the step engine folds it into layer 0: per
qubit, `times_ry` multiplies a rotation by RY(e_j), and `kron_qubits`
builds the register operator.  Whole steps run through `circuits.Steps`,
which `test_engine` checks against the same oracle at every size."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import central_diff, dense_step_matrix

from qlam import circuits
from qlam.cell import CellConfig, init_qlam_params, run
from qlam.circuits import (
    Steps,
    entangler_pairs,
    kron_qubits,
    layer_rotations,
    new_zero_state,
    times_ry,
)
from qlam.errors import ConfigError, NumericError, ShapeError
from qlam.observables import pauli_table


def random_theta(cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, size=2 * cfg.n_layers * cfg.n_qubits)


def gates(cfg, theta):
    """(n_layers, n_qubits, 2, 2) per-qubit gates RZ(b) RY(a) of every layer."""
    ry, rz = layer_rotations(theta, cfg.n_qubits)
    return rz[..., None] * ry


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def encoding(embedding):
    """The 2**n x 2**n encoding operator: per qubit j the identity times
    RY(e_j), as `Steps` folds it into layer 0."""
    embedding = np.asarray(embedding, dtype=np.float64)
    eye = np.broadcast_to(np.eye(2, dtype=np.complex128), embedding.shape + (2, 2))
    return kron_qubits(times_ry(eye, np.cos(0.5 * embedding), np.sin(0.5 * embedding)))


def swept(cfg, theta, embeddings, state):
    """The (2**n,) state after the steps of `embeddings` (T, n), swept by
    `Steps` from `state` as a one-row stack."""
    steps = Steps(theta, np.asarray(embeddings, dtype=np.float64)[None], cfg.entangler)
    return steps.sweep(len(embeddings) + 1, None, start=np.asarray(state)[None])[0]


def test_ansatz_config_validation():
    # the cell's circuit: 6 angles per layer, 12 in all, as the engine reads them
    cfg = CellConfig(3, 2)
    assert init_qlam_params(np.random.default_rng(0), cfg).theta.shape == (12,)
    assert Steps(np.zeros(12), np.zeros((1, 1, 3)), cfg.entangler).angles.shape == (2, 3, 2)
    with pytest.raises(ConfigError):
        CellConfig(3, 0)
    with pytest.raises(ConfigError):
        CellConfig(3, 1, entangler="star")


def test_entangler_pairs():
    assert entangler_pairs(1, "ring") == []
    # the two-qubit ring keeps both directed pairs
    assert entangler_pairs(2, "ring") == [(0, 1), (1, 0)]
    assert entangler_pairs(4, "ring") == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert entangler_pairs(4, "linear") == [(0, 1), (1, 2), (2, 3)]
    # an unknown entangler is refused by the engine too, not run as linear,
    # and on one qubit as well, where no pattern has any pairs
    with pytest.raises(ConfigError, match="entangler must be 'ring' or 'linear', got 'star'"):
        Steps(np.zeros(6), np.zeros((1, 1, 3)), "star")
    with pytest.raises(ConfigError):
        entangler_pairs(1, "star")


def test_encoding_zero_is_identity():
    # a zero embedding leaves layer 0's per-qubit rotations bit for bit
    u = layer_rotations(random_theta(CellConfig(3, 1), 1), 3)[0][0]
    assert np.array_equal(times_ry(u, np.cos(np.zeros(3)), np.sin(np.zeros(3))), u)


def test_encoding_pi_flips_qubit_zero():
    state = encoding([np.pi, 0.0, 0.0]) @ new_zero_state(3)
    expected = np.zeros(8, dtype=np.complex128)
    expected[1] = 1.0
    assert_allclose(state, expected, atol=1e-15)


def test_encoding_preserves_norm():
    embedding = np.random.default_rng(3).uniform(-5, 5, 4)
    state = encoding(embedding) @ random_state(4, 2)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def small_cell():
    return CellConfig(n_qubits=2, n_layers=2, n_heads=1, d_query=2, decoder_hidden=2,
                      n_classes=2)


def test_encoding_length_mismatch():
    # the recurrence checks the encoding's angle source once, at its entry
    cfg = small_cell()
    params = init_qlam_params(np.random.default_rng(0), cfg)
    params.embed_w = np.zeros(3)
    with pytest.raises(ShapeError):
        run(np.array([[0.5]]), params, cfg)
    params = init_qlam_params(np.random.default_rng(0), cfg)
    params.embed_b[0] = np.nan
    with pytest.raises(NumericError):
        run(np.array([[0.5]]), params, cfg)


def test_ansatz_zero_angles_fix_all_zeros():
    cfg = CellConfig(2, 1)
    state = swept(cfg, np.zeros(4), np.zeros((1, 2)), new_zero_state(2))
    expected = np.zeros(4, dtype=np.complex128)
    expected[0] = 1.0
    assert_allclose(state, expected, atol=1e-15)


def test_ansatz_single_qubit_no_entangler():
    cfg = CellConfig(1, 1)
    state = swept(cfg, np.array([np.pi, 0.0]), np.zeros((1, 1)), new_zero_state(1))
    assert_allclose(state, [0.0, 1.0], atol=1e-15)


def test_ansatz_param_length_mismatch():
    # the recurrence checks theta once, at its entry
    cfg = small_cell()
    params = init_qlam_params(np.random.default_rng(0), cfg)
    params.theta = np.zeros(3)
    with pytest.raises(ShapeError):
        run(np.array([[0.5]]), params, cfg)
    params.theta = np.full(2 * cfg.n_layers * cfg.n_qubits, np.inf)
    with pytest.raises(NumericError):
        run(np.array([[0.5]]), params, cfg)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("entangler", ["ring", "linear"])
def test_step_matches_dense_oracle(n_qubits, entangler):
    cfg = CellConfig(n_qubits, 2, entangler=entangler)
    rng = np.random.default_rng(17 * n_qubits)
    for trial in range(5):
        theta = random_theta(cfg, 200 + trial)
        embedding = rng.uniform(-2, 2, n_qubits)
        state = random_state(n_qubits, 300 + trial)
        expected = dense_step_matrix(cfg, theta, embedding) @ state
        state = swept(cfg, theta, embedding[None], state)
        assert_allclose(state, expected, atol=1e-12)


def test_dense_composite_is_unitary():
    cfg = CellConfig(3, 2)
    theta = random_theta(cfg, 5)
    u = dense_step_matrix(cfg, theta, np.array([0.3, -1.1, 0.9]))
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


def test_step_order_encoding_first():
    # regression pin: swapping encoding and ansatz changes the state
    cfg = CellConfig(2, 1)
    theta = random_theta(cfg, 8)
    embedding = np.array([0.7, -0.4])
    enc_first = swept(cfg, theta, embedding[None], new_zero_state(2))
    # the ansatz alone is a step with a zero embedding
    var_first = encoding(embedding) @ swept(cfg, theta, np.zeros((1, 2)), new_zero_state(2))
    assert np.abs(enc_first - var_first).max() > 1e-3


def test_norm_preserved_over_784_steps():
    cfg = CellConfig(4, 2)
    theta = random_theta(cfg, 10)
    rng = np.random.default_rng(11)
    state = swept(cfg, theta, rng.uniform(0, 1, (784, 4)), new_zero_state(4))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def test_step_deterministic_bitwise():
    cfg = CellConfig(3, 2)
    theta = random_theta(cfg, 20)
    embedding = np.array([0.2, 0.5, -0.3])
    a = swept(cfg, theta, embedding[None], random_state(3, 21))
    b = swept(cfg, theta, embedding[None], random_state(3, 21))
    assert np.array_equal(a, b)


def test_plan_covers_every_parameter_once():
    # each angle moves one gate's matrix: theta[k] sits at (layer, qubit,
    # RY/RZ) = unravel(k), e_j moves qubit j's encoding, and every layer
    # of a step is one rotation layer and one entangler gather, the
    # product of all entangler_pairs CNOTs (test_engine checks the gather)
    cfg = CellConfig(3, 2)
    theta = random_theta(cfg, 25)
    base = gates(cfg, theta)
    theta_slots = []
    for k in range(theta.size):
        bumped = theta.copy()
        bumped[k] += 0.5
        new = gates(cfg, bumped)
        for layer, qubit in np.argwhere((new != base).any(axis=(-1, -2))):
            # an RZ angle moves phases only, an RY angle magnitudes too
            rz = np.allclose(np.abs(new[layer, qubit]), np.abs(base[layer, qubit]))
            theta_slots.append(layer * 2 * cfg.n_qubits + 2 * qubit + rz)
    embedding = np.array([0.4, -0.9, 1.3])
    enc_slots = []
    for j in range(cfg.n_qubits):
        bumped = embedding.copy()
        bumped[j] += 0.5
        moved = (times_ry(base[0], np.cos(bumped / 2), np.sin(bumped / 2))
                 != times_ry(base[0], np.cos(embedding / 2), np.sin(embedding / 2)))
        enc_slots += list(np.flatnonzero(moved.any(axis=(-1, -2))))
    assert theta_slots == list(range(theta.size))
    assert enc_slots == list(range(cfg.n_qubits))
    steps = Steps(theta, embedding[None, None], cfg.entangler)
    assert 1 + len(steps.later_layers) == cfg.n_layers


@pytest.mark.parametrize("n_qubits", [3, 6])
def test_sweep_is_bitwise_whatever_the_window_length(monkeypatch, n_qubits):
    # windows hand each other the rows `Steps` carries (Y-eigenbasis rows
    # on folded registers), so a sweep in windows of 1 or 7 steps reads
    # out and ends bit for bit as in windows of CHECKPOINT_INTERVAL; and
    # an explicit |0...0> start is bit for bit the default sweep
    cfg = CellConfig(n_qubits, 2)
    theta = random_theta(cfg, 30)
    T = circuits.CHECKPOINT_INTERVAL + 9
    embeddings = np.random.default_rng(31).uniform(-2.0, 2.0, (2, T, n_qubits))
    start = np.stack([random_state(n_qubits, 32), random_state(n_qubits, 33)])

    def sweep(start):
        states = np.empty((2, T, 1 << n_qubits), dtype=np.complex128)

        def read(lo, window):
            states[:, lo:lo + window.shape[1]] = window

        final = Steps(theta, embeddings, cfg.entangler).sweep(1, read, start=start)
        return states, final

    want = sweep(start)
    for interval in (1, 7):
        monkeypatch.setattr(circuits, "CHECKPOINT_INTERVAL", interval)
        for got, expected in zip(sweep(start), want):
            assert_array_equal(got, expected)
    monkeypatch.undo()
    zero = np.zeros_like(start)
    zero[:, 0] = 1.0
    for got, expected in zip(sweep(zero), sweep(None)):
        assert_array_equal(got, expected)


def test_parameter_shift_identity_single_angle():
    # d<Z_0>/dtheta equals the +-pi/2 shift formula and finite differences
    cfg = CellConfig(2, 1)
    base = random_theta(cfg, 40)
    embedding = np.array([0.3, 0.8])
    observable = pauli_table(("ZI",))

    def expectation(theta_value, index=1):
        theta = base.copy()
        theta[index] = theta_value
        state = swept(cfg, theta, embedding[None], new_zero_state(2))
        return observable.expectations(state[None])[0, 0]

    for index in range(base.size):
        def f(v, index=index):
            return expectation(v, index)
        shift = 0.5 * (f(base[index] + np.pi / 2) - f(base[index] - np.pi / 2))
        fd = central_diff(f, base[index], h=1e-5)
        assert abs(shift - fd) < 1e-8
