"""The zero state, the gate conventions of the step engine's rotation
layers (`circuits.layer_rotations`, `circuits.kron_qubits`) and its CNOT
gather against dense Kronecker oracles; single Pauli strings through
one-term Pauli tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import PAULI, dense_1q, dense_cnot, dense_pauli_string, dense_ry, dense_rz

from qlam.circuits import (
    MAX_QUBITS,
    Steps,
    entangler_pairs,
    kron_qubits,
    layer_rotations,
    new_zero_state,
)
from qlam.errors import ConfigError
from qlam.observables import pauli_table


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def rotation_layer(n_qubits, target, ry=0.0, rz=0.0):
    """The 2**n x 2**n rotation layer RZ(rz) RY(ry) on `target`, every
    other qubit's angles zero."""
    theta = np.zeros((n_qubits, 2))
    theta[target] = ry, rz
    ry, rz = layer_rotations(theta, n_qubits)
    return kron_qubits(rz[0, :, :, None] * ry[0])


def test_zero_state_is_basis_zero():
    state = new_zero_state(3)
    expected = np.zeros(8, dtype=np.complex128)
    expected[0] = 1.0
    assert np.array_equal(state, expected)
    assert np.linalg.norm(state) == 1.0


@pytest.mark.parametrize("n_qubits", [0, -1, MAX_QUBITS + 1, True, 2.5])
def test_zero_state_rejects_bad_sizes(n_qubits):
    with pytest.raises(ConfigError):
        new_zero_state(n_qubits)


def test_ry_convention_quarter_turn():
    # RY(pi/2)|0> = (|0> + |1>)/sqrt(2), both amplitudes positive real
    state = rotation_layer(1, 0, ry=np.pi / 2) @ new_zero_state(1)
    assert_allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_ry_convention_half_turn_flips():
    state = rotation_layer(1, 0, ry=np.pi) @ new_zero_state(1)
    assert_allclose(state, [0.0, 1.0], atol=1e-15)


def test_rz_convention_phases():
    # RZ(a) = diag(exp(-ia/2), exp(+ia/2))
    state = rotation_layer(1, 0, rz=0.5) @ np.array([0.6, 0.8], dtype=np.complex128)
    assert_allclose(state[0], 0.6 * np.exp(-0.25j), atol=1e-15)
    assert_allclose(state[1], 0.8 * np.exp(+0.25j), atol=1e-15)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_ry_rz_kernels_match_dense(n_qubits):
    # a rotation layer with one non-zero angle is that gate on its qubit
    rng = np.random.default_rng(42 + n_qubits)
    for target in range(n_qubits):
        angle = float(rng.uniform(-np.pi, np.pi))
        amps = random_state(n_qubits, 100 * n_qubits + target)
        assert_allclose(rotation_layer(n_qubits, target, ry=angle) @ amps,
                        dense_1q(dense_ry(angle), target, n_qubits) @ amps, atol=1e-13)
        assert_allclose(rotation_layer(n_qubits, target, rz=angle) @ amps,
                        dense_1q(dense_rz(angle), target, n_qubits) @ amps, atol=1e-13)


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
def test_cnot_kernel_matches_dense_all_pairs(n_qubits):
    # the oracle's CNOT for every ordered pair is the textbook
    # |0><0|_c (x) I + |1><1|_c (x) X_t, and the engine's gather is the
    # product of the entangler's CNOTs, ring and linear
    for control in range(n_qubits):
        for target in range(n_qubits):
            if control == target:
                continue
            projectors = (dense_1q(np.diag([1.0, 0.0]), control, n_qubits),
                          dense_1q(np.diag([0.0, 1.0]), control, n_qubits))
            want = projectors[0] + projectors[1] @ dense_1q(PAULI["X"], target, n_qubits)
            assert np.array_equal(dense_cnot(control, target, n_qubits), want)
    for entangler in ("ring", "linear"):
        steps = Steps(np.zeros(2 * n_qubits), np.zeros((1, 1, n_qubits)), entangler)
        amps = random_state(n_qubits, 7 * n_qubits + len(entangler))
        expected = amps
        for control, target in entangler_pairs(n_qubits, entangler):
            expected = dense_cnot(control, target, n_qubits) @ expected
        assert_allclose(amps[steps.gather.reshape(-1)], expected, atol=1e-15)


@pytest.mark.parametrize("label", ["X", "Y", "Z"])
@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_pauli_kernel_matches_dense(label, n_qubits):
    for target in range(n_qubits):
        amps = random_state(n_qubits, ord(label) + target)
        chars = ["I"] * n_qubits
        chars[target] = label
        got = pauli_table(("".join(chars),)).apply(amps[None], np.ones((1, 1)))[0]
        expected = dense_pauli_string("".join(chars)) @ amps
        assert_allclose(got, expected, atol=1e-15)


def test_kernels_broadcast_over_leading_axes():
    # a stacked (2, dim) array advances exactly like two separate rows
    rng = np.random.default_rng(3)
    theta = rng.uniform(-np.pi, np.pi, 12)
    emb = rng.uniform(-2.0, 2.0, (2, 3, 3))
    stack = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    separate = stack.copy()
    stack = Steps(theta, emb, "ring").sweep(4, None, start=stack)
    for b in range(2):
        separate[b] = Steps(theta, emb[b:b + 1], "ring").sweep(4, None, start=separate[b:b + 1])[0]
    assert np.array_equal(stack, separate)


@settings(max_examples=50, deadline=None)
@given(
    n_qubits=st.integers(1, 4),
    target=st.integers(0, 3),
    angle=st.floats(-10, 10),
    seed=st.integers(0, 2**31),
)
def test_rotations_preserve_norm(n_qubits, target, angle, seed):
    amps = random_state(n_qubits, seed)
    amps = rotation_layer(n_qubits, target % n_qubits, ry=angle, rz=angle / 2) @ amps
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_gate_application_is_deterministic():
    theta = np.array([0.3, 0.0, 0.0, 0.0, 0.0, -1.2])
    emb = np.zeros((1, 1, 3))
    amps = random_state(3, 11)[None]
    a, b = (Steps(theta, emb, "ring").sweep(2, None, start=amps) for _ in range(2))
    assert np.array_equal(a, b)
