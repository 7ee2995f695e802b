"""Dense statevector representation of the quantum memory and gate kernels.

The memory state of an ``n``-qubit register is a unit vector of ``2**n``
complex amplitudes.  Basis index ``i`` encodes the computational basis
state with qubit 0 as the least-significant bit of ``i``.

Gate application never materializes a ``2**n x 2**n`` matrix: a
single-qubit gate on qubit ``t`` reshapes the amplitude array to
``(..., 2**(n-1-t), 2, 2**t)`` and mixes the two slices of the middle
axis.  All kernels accept arrays with arbitrary leading axes so a ket
and an adjoint vector can be advanced in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

MAX_QUBITS = 12

# Unitarity tolerance for Gate1Q construction checks.
_UNITARY_TOL = 1e-12


@dataclass
class StateVector:
    """Quantum memory state: ``2**n_qubits`` complex amplitudes, unit norm."""

    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


@dataclass(frozen=True)
class Gate1Q:
    """A 2x2 unitary acting on a single qubit."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ConfigError(f"single-qubit gate must be 2x2, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    def check_unitary(self) -> None:
        """Raise if M†M deviates from the identity beyond 1e-12."""
        err = np.abs(self.matrix.conj().T @ self.matrix - np.eye(2)).max()
        if err > _UNITARY_TOL:
            raise ConfigError(f"gate is not unitary (deviation {err:.3e})")


def new_zero_state(n_qubits: int) -> StateVector:
    """Return |0...0> on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def norm(state: StateVector) -> float:
    """Euclidean norm of the amplitude vector (1.0 for any valid state)."""
    return float(np.linalg.norm(state.amplitudes))


def _check_target(n_qubits: int, target: int) -> None:
    if not 0 <= target < n_qubits:
        raise IndexError(f"target qubit {target} out of range for {n_qubits} qubits")


# ---------------------------------------------------------------------------
# Raw kernels.  ``amps`` is any array whose last axis has length 2**n_qubits;
# the operation is applied in place along that axis.
# ---------------------------------------------------------------------------

def apply_1q_kernel(amps: np.ndarray, n_qubits: int, matrix: np.ndarray, target: int) -> None:
    """Apply a 2x2 matrix to ``target`` in place (last axis = basis index)."""
    m00, m01 = matrix[0, 0], matrix[0, 1]
    m10, m11 = matrix[1, 0], matrix[1, 1]
    v = amps.reshape(-1, 1 << (n_qubits - 1 - target), 2, 1 << target)
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :]
    v[:, :, 0, :] = m00 * a + m01 * b
    v[:, :, 1, :] = m10 * a + m11 * b


def apply_ry_kernel(amps: np.ndarray, n_qubits: int, target: int, angle) -> None:
    """RY(a) = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]], real rotation.

    ``angle`` is a float, or an array of one angle per row of the leading
    axes of ``amps`` (broadcast against them, so only the basis axis is
    reshaped)."""
    if isinstance(angle, np.ndarray):
        half = 0.5 * angle[..., None, None]
        c, s = np.cos(half), np.sin(half)
    else:
        c = math.cos(0.5 * angle)
        s = math.sin(0.5 * angle)
    v = amps.reshape(amps.shape[:-1] + (1 << (n_qubits - 1 - target), 2, 1 << target))
    a = v[..., 0, :].copy()
    b = v[..., 1, :]
    v[..., 0, :] = c * a - s * b
    v[..., 1, :] = s * a + c * b


def apply_rz_kernel(amps: np.ndarray, n_qubits: int, target: int, angle) -> None:
    """RZ(a) = diag(e^{-ia/2}, e^{+ia/2}); diagonal, touches no cross terms.
    ``angle`` is a float or one angle per leading row, as for RY."""
    if isinstance(angle, np.ndarray):
        up = np.exp(0.5j * angle)[..., None, None]
        down = up.conj()
    else:
        half = 0.5 * angle
        down = complex(math.cos(half), -math.sin(half))
        up = complex(math.cos(half), math.sin(half))
    v = amps.reshape(amps.shape[:-1] + (1 << (n_qubits - 1 - target), 2, 1 << target))
    v[..., 0, :] *= down
    v[..., 1, :] *= up


def apply_cnot_kernel(amps: np.ndarray, n_qubits: int, control: int, target: int) -> None:
    """Swap target-bit amplitude pairs wherever the control bit is 1."""
    hi, lo = (control, target) if control > target else (target, control)
    v = amps.reshape(
        -1,
        1 << (n_qubits - 1 - hi),
        2,
        1 << (hi - 1 - lo),
        2,
        1 << lo,
    )
    if control > target:
        tmp = v[:, :, 1, :, 0, :].copy()
        v[:, :, 1, :, 0, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = tmp
    else:
        tmp = v[:, :, 0, :, 1, :].copy()
        v[:, :, 0, :, 1, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = tmp


def apply_pauli_kernel(amps: np.ndarray, n_qubits: int, label: str, target: int) -> None:
    """Apply a single-qubit Pauli ('X', 'Y' or 'Z') to ``target`` in place."""
    v = amps.reshape(-1, 1 << (n_qubits - 1 - target), 2, 1 << target)
    if label == "Z":
        v[:, :, 1, :] *= -1.0
    elif label == "X":
        tmp = v[:, :, 0, :].copy()
        v[:, :, 0, :] = v[:, :, 1, :]
        v[:, :, 1, :] = tmp
    elif label == "Y":
        # Y|0> = i|1>, Y|1> = -i|0>
        tmp = v[:, :, 0, :].copy()
        v[:, :, 0, :] = -1j * v[:, :, 1, :]
        v[:, :, 1, :] = 1j * tmp
    else:
        raise ConfigError(f"unknown Pauli label {label!r}")


# ---------------------------------------------------------------------------
# StateVector-level operations.
# ---------------------------------------------------------------------------

def apply_gate_1q(state: StateVector, gate: Gate1Q, target: int) -> StateVector:
    """Apply ``gate`` to ``target``; mutates and returns ``state``."""
    _check_target(state.n_qubits, target)
    apply_1q_kernel(state.amplitudes, state.n_qubits, gate.matrix, target)
    return state


def apply_ry(state: StateVector, target: int, angle: float) -> StateVector:
    _check_target(state.n_qubits, target)
    if not math.isfinite(angle):
        raise NumericError(f"RY angle is not finite: {angle!r}")
    apply_ry_kernel(state.amplitudes, state.n_qubits, target, angle)
    return state


def apply_rz(state: StateVector, target: int, angle: float) -> StateVector:
    _check_target(state.n_qubits, target)
    if not math.isfinite(angle):
        raise NumericError(f"RZ angle is not finite: {angle!r}")
    apply_rz_kernel(state.amplitudes, state.n_qubits, target, angle)
    return state


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    if control == target:
        raise ConfigError(f"CNOT control and target must differ, both are {control}")
    _check_target(state.n_qubits, control)
    _check_target(state.n_qubits, target)
    apply_cnot_kernel(state.amplitudes, state.n_qubits, control, target)
    return state
