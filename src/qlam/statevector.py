"""The quantum memory state and the gate kernels of the strided step plan.

The memory of an ``n``-qubit register is a plain ``(2**n,)`` complex128
array of unit norm; there is no wrapper type.  Basis index ``i`` encodes
the computational basis state with qubit 0 as the least-significant bit
of ``i``.

The RY, RZ and CNOT kernels never materialize a ``2**n x 2**n`` matrix:
a single-qubit gate on qubit ``t`` reshapes the amplitude array to
``(..., 2**(n-1-t), 2, 2**t)`` and mixes the two slices of the middle
axis.  They accept arrays with arbitrary leading axes, so a stack of
kets advances in one call.  `circuits.apply_plan_kernel` runs them
through the step plan: the gate-by-gate reference for the step engine.
A non-finite angle raises NumericError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError

MAX_QUBITS = 12


def new_zero_state(n_qubits: int) -> np.ndarray:
    """Return the (2**n_qubits,) amplitudes of |0...0>."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


# ---------------------------------------------------------------------------
# Kernels.  ``amps`` is any array whose last axis has length 2**n_qubits;
# the operation is applied in place along that axis.
# ---------------------------------------------------------------------------

def _half_angle(angle: float) -> float:
    if not math.isfinite(angle):
        raise NumericError(f"non-finite rotation angle {angle}")
    return 0.5 * angle


def apply_ry_kernel(amps: np.ndarray, n_qubits: int, target: int, angle: float) -> None:
    """RY(a) = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]], real rotation."""
    half = _half_angle(angle)
    c, s = math.cos(half), math.sin(half)
    v = amps.reshape(amps.shape[:-1] + (1 << (n_qubits - 1 - target), 2, 1 << target))
    a = v[..., 0, :].copy()
    b = v[..., 1, :]
    v[..., 0, :] = c * a - s * b
    v[..., 1, :] = s * a + c * b


def apply_rz_kernel(amps: np.ndarray, n_qubits: int, target: int, angle: float) -> None:
    """RZ(a) = diag(e^{-ia/2}, e^{+ia/2}); diagonal, touches no cross terms."""
    half = _half_angle(angle)
    down = complex(math.cos(half), -math.sin(half))
    v = amps.reshape(amps.shape[:-1] + (1 << (n_qubits - 1 - target), 2, 1 << target))
    v[..., 0, :] *= down
    v[..., 1, :] *= down.conjugate()


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
