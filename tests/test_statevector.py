"""The zero state and the gate kernels against dense Kronecker oracles;
single Pauli strings through one-term Pauli tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import dense_1q, dense_cnot, dense_pauli_string, dense_ry, dense_rz

from qlam.errors import ConfigError
from qlam.observables import pauli_table
from qlam.statevector import (
    MAX_QUBITS,
    apply_cnot_kernel,
    apply_ry_kernel,
    apply_rz_kernel,
    new_zero_state,
)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def test_zero_state_is_basis_zero():
    state = new_zero_state(3)
    expected = np.zeros(8, dtype=np.complex128)
    expected[0] = 1.0
    assert np.array_equal(state, expected)
    assert np.linalg.norm(state) == 1.0


@pytest.mark.parametrize("n_qubits", [0, -1, MAX_QUBITS + 1])
def test_zero_state_rejects_bad_sizes(n_qubits):
    with pytest.raises(ConfigError):
        new_zero_state(n_qubits)


def test_ry_convention_quarter_turn():
    # RY(pi/2)|0> = (|0> + |1>)/sqrt(2), both amplitudes positive real
    state = new_zero_state(1)
    apply_ry_kernel(state, 1, 0, np.pi / 2)
    assert_allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_ry_convention_half_turn_flips():
    state = new_zero_state(1)
    apply_ry_kernel(state, 1, 0, np.pi)
    assert_allclose(state, [0.0, 1.0], atol=1e-15)


def test_rz_convention_phases():
    # RZ(a) = diag(exp(-ia/2), exp(+ia/2))
    state = np.array([0.6, 0.8], dtype=np.complex128)
    apply_rz_kernel(state, 1, 0, 0.5)
    assert_allclose(state[0], 0.6 * np.exp(-0.25j), atol=1e-15)
    assert_allclose(state[1], 0.8 * np.exp(+0.25j), atol=1e-15)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_ry_rz_kernels_match_dense(n_qubits):
    rng = np.random.default_rng(42 + n_qubits)
    for target in range(n_qubits):
        angle = float(rng.uniform(-np.pi, np.pi))
        amps = random_state(n_qubits, 100 * n_qubits + target)
        got_ry = amps.copy()
        apply_ry_kernel(got_ry, n_qubits, target, angle)
        assert_allclose(got_ry, dense_1q(dense_ry(angle), target, n_qubits) @ amps,
                        atol=1e-13)
        got_rz = amps.copy()
        apply_rz_kernel(got_rz, n_qubits, target, angle)
        assert_allclose(got_rz, dense_1q(dense_rz(angle), target, n_qubits) @ amps,
                        atol=1e-13)


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
def test_cnot_kernel_matches_dense_all_pairs(n_qubits):
    for control in range(n_qubits):
        for target in range(n_qubits):
            if control == target:
                continue
            amps = random_state(n_qubits, 7 * control + target)
            got = amps.copy()
            apply_cnot_kernel(got, n_qubits, control, target)
            expected = dense_cnot(control, target, n_qubits) @ amps
            assert_allclose(got, expected, atol=1e-15)


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
    # a stacked (2, dim) array behaves exactly like two separate calls
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    separate = stack.copy()
    apply_ry_kernel(stack, 3, 1, 0.7)
    apply_cnot_kernel(stack, 3, 0, 2)
    for row in separate:
        apply_ry_kernel(row, 3, 1, 0.7)
        apply_cnot_kernel(row, 3, 0, 2)
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
    apply_ry_kernel(amps, n_qubits, target % n_qubits, angle)
    apply_rz_kernel(amps, n_qubits, target % n_qubits, angle / 2)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_gate_application_is_deterministic():
    a = random_state(3, 11)
    b = a.copy()
    for amps in (a, b):
        apply_ry_kernel(amps, 3, 0, 0.3)
        apply_rz_kernel(amps, 3, 2, -1.2)
        apply_cnot_kernel(amps, 3, 1, 0)
    assert np.array_equal(a, b)
