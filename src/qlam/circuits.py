"""Input-encoding and variational circuits composing one recurrence step.

A step applies the encoding unitary first, then the trainable ansatz:
``psi <- U_var(theta) U_enc(e_t) psi``.  Encoding is RY angle rotation of
the raw embedding value on each qubit.  Each ansatz layer is RY and RZ
on every qubit followed by a CNOT entangler.

The gate sequence exists once, as an explicit plan (`build_step_plan`)
run by one engine (`apply_plan_kernel`).  `apply_encoding`,
`apply_ansatz` and `step` run slices of that plan on a StateVector; the
recurrence (`cell.evolve`) runs the whole plan per token, and
reverse-mode differentiation replays it backward gate by gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .statevector import (
    MAX_QUBITS,
    StateVector,
    apply_cnot_kernel,
    apply_ry_kernel,
    apply_rz_kernel,
)


@dataclass(frozen=True)
class AnsatzConfig:
    """Structural shape of the variational circuit."""

    n_qubits: int
    n_layers: int = 2
    entangler: Literal["ring", "linear"] = "ring"

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.entangler not in ("ring", "linear"):
            raise ConfigError(f"entangler must be 'ring' or 'linear', got {self.entangler!r}")

    @property
    def params_per_layer(self) -> int:
        return 2 * self.n_qubits

    @property
    def n_params(self) -> int:
        return self.n_layers * 2 * self.n_qubits


@dataclass(frozen=True)
class CircuitParams:
    """Flat angle vector; viewed as (n_layers, n_qubits, 2) with RY at
    [..., 0] and RZ at [..., 1]."""

    theta: np.ndarray


def check_circuit_params(cfg: AnsatzConfig, params: CircuitParams) -> None:
    theta = params.theta
    if theta.ndim != 1 or theta.shape[0] != cfg.n_params:
        raise ShapeError(
            f"theta has shape {theta.shape}, expected ({cfg.n_params},) "
            f"for {cfg.n_layers} layers on {cfg.n_qubits} qubits"
        )
    if not np.all(np.isfinite(theta)):
        raise NumericError("circuit angles must be finite")


def entangler_pairs(cfg: AnsatzConfig) -> list[tuple[int, int]]:
    """(control, target) pairs of one entangling sublayer, in application order."""
    n = cfg.n_qubits
    if n == 1:
        return []
    if cfg.entangler == "ring":
        return [(j, (j + 1) % n) for j in range(n)]
    return [(j, j + 1) for j in range(n - 1)]


# A gate plan entry is (kind, qubit_or_control, target_or_none, slot) where
# kind is "ry" / "rz" / "cnot" and slot names the parameter source:
# ("enc", j) reads embedding[j], ("theta", k) reads theta[k], None is fixed.
PlanEntry = tuple[str, int, Optional[int], Optional[tuple[str, int]]]


def build_step_plan(cfg: AnsatzConfig) -> list[PlanEntry]:
    """Gate sequence of one step: encoding first, then every ansatz layer."""
    n = cfg.n_qubits
    plan: list[PlanEntry] = [("ry", j, None, ("enc", j)) for j in range(n)]
    for layer in range(cfg.n_layers):
        base = layer * 2 * n
        for j in range(n):
            plan.append(("ry", j, None, ("theta", base + 2 * j)))
            plan.append(("rz", j, None, ("theta", base + 2 * j + 1)))
        for control, target in entangler_pairs(cfg):
            plan.append(("cnot", control, target, None))
    return plan


def slot_angle(slot: tuple[str, int], embedding: np.ndarray, theta: np.ndarray) -> float:
    kind, index = slot
    if kind == "enc":
        return float(embedding[index])
    return float(theta[index])


def apply_plan_kernel(
    amps: np.ndarray,
    n_qubits: int,
    plan: list[PlanEntry],
    embedding: Optional[np.ndarray],
    theta: Optional[np.ndarray],
) -> None:
    """Apply a gate plan in place to amplitude array(s); an angle source
    that no slot of the plan reads may be None."""
    for kind, a, b, slot in plan:
        if kind == "ry":
            apply_ry_kernel(amps, n_qubits, a, slot_angle(slot, embedding, theta))
        elif kind == "rz":
            apply_rz_kernel(amps, n_qubits, a, slot_angle(slot, embedding, theta))
        else:
            apply_cnot_kernel(amps, n_qubits, a, b)


def apply_encoding(state: StateVector, embedding) -> StateVector:
    """RY(embedding[j]) on each qubit j, in place; returns the state."""
    e = np.asarray(embedding, dtype=np.float64)
    if e.shape != (state.n_qubits,):
        raise ShapeError(
            f"embedding has shape {e.shape}, expected ({state.n_qubits},)"
        )
    if not np.all(np.isfinite(e)):
        raise NumericError("embedding values must be finite")
    n = state.n_qubits
    # the first n plan entries are the encoding; none of them reads theta
    apply_plan_kernel(state.amplitudes, n, build_step_plan(AnsatzConfig(n))[:n], e, None)
    return state


def apply_ansatz(state: StateVector, cfg: AnsatzConfig, params: CircuitParams) -> StateVector:
    """Trainable layers: RY then RZ per qubit, then the CNOT entangler."""
    if cfg.n_qubits != state.n_qubits:
        raise ShapeError(
            f"ansatz is for {cfg.n_qubits} qubits, state has {state.n_qubits}"
        )
    check_circuit_params(cfg, params)
    # the plan after its n encoding entries reads theta only
    ansatz = build_step_plan(cfg)[cfg.n_qubits:]
    apply_plan_kernel(state.amplitudes, cfg.n_qubits, ansatz, None, params.theta)
    return state


def step(state: StateVector, embedding, cfg: AnsatzConfig, params: CircuitParams) -> StateVector:
    """One recurrence step: encoding acts first, then the ansatz."""
    apply_encoding(state, embedding)
    return apply_ansatz(state, cfg, params)
