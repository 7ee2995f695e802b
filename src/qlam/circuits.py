"""Input-encoding and variational circuits composing one recurrence step.

A step applies the encoding unitary first, then the trainable ansatz:
``psi <- U_var(theta) U_enc(e_t) psi``.  Encoding is RY angle rotation of
the raw embedding value on each qubit.  Each ansatz layer is RY and RZ
on every qubit followed by a CNOT entangler.  ``theta`` is a flat angle
vector, viewed as (n_layers, n_qubits, 2) with RY at [..., 0] and RZ at
[..., 1].

The gate sequence exists once, as an explicit plan (`build_step_plan`):
its first n_qubits entries are the encoding and the rest the ansatz.
There are two step engines.  `apply_plan_kernel` runs a plan, or one of
those slices, gate by gate on amplitude arrays with the strided
kernels, and reverse-mode differentiation replays it backward.  `Steps`
advances and rewinds the recurrence a block of steps at a time: on
small registers a step is the dense ansatz matrix (the plan run on the
identity) times the Kronecker-factored encoding; larger registers run
the plan per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import ConfigError, NumericError
from .statevector import MAX_QUBITS, apply_cnot_kernel, apply_ry_kernel, apply_rz_kernel

# Registers of at most this many qubits apply and rewind a step through
# the dense U_var(theta) and Kronecker-factored encodings (`Steps`);
# larger ones run the strided gate plan.  Timed per sample at T = 64, the
# dense step is faster up to n = 8 and slower from n = 9 on.
DENSE_MAX_QUBITS = 8


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


def ansatz_matrix(cfg: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """Dense U_var(theta): the ansatz part of the step plan run on the identity."""
    n = cfg.n_qubits
    rows = np.eye(1 << n, dtype=np.complex128)
    # the kernels act on the last axis, so row i becomes U e_i, column i of U
    apply_plan_kernel(rows, n, build_step_plan(cfg)[n:], None, theta)
    return rows.T


def encoding_matrices(embeddings: np.ndarray) -> np.ndarray:
    """(L, 2**m, 2**m) real kron_j RY(e[j]) for every row e of an (L, m)
    block, column 0 the last, least significant Kronecker factor (m = 0
    gives 1 x 1 identities)."""
    half = 0.5 * np.asarray(embeddings, dtype=np.float64)
    c, s = np.cos(half), np.sin(half)
    ry = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    out = np.ones((half.shape[0], 1, 1))
    for j in range(half.shape[1] - 1, -1, -1):
        d = 2 * out.shape[1]
        out = (out[:, :, None, :, None] * ry[:, j, None, :, None, :]).reshape(-1, d, d)
    return out


class Steps:
    """The recurrence steps of one sequence, advanced and rewound a block
    of consecutive steps at a time.

    Step t is M_t = U_var(theta) U_enc(e_t), with e_t = embeddings[t - 1].
    On registers of at most DENSE_MAX_QUBITS qubits, U_var is one dense
    matrix (`ansatz_matrix`) and U_enc = kron_j RY(e_t[j]) = A_t (x) B_t
    splits into the Kronecker products of the high and the low half of the
    qubits, built for a whole block at once.  With the state reshaped to
    X (2**high x 2**low), a step is U_var vec(A_t X B_t^T): three small
    matrix products instead of one gate call per plan entry.  Larger
    registers run the strided gate plan per step.
    `shifted=(t, theta_t)` runs step t with angles theta_t.
    """

    def __init__(self, cfg: AnsatzConfig, theta: np.ndarray, embeddings: np.ndarray,
                 shifted=None):
        self.n = cfg.n_qubits
        self.plan = build_step_plan(cfg)
        self.theta, self.embeddings, self.shifted = theta, embeddings, shifted
        self.dense = self.n <= DENSE_MAX_QUBITS
        self.start = 0
        if self.dense:
            self.low = self.n // 2
            self.shape = (1 << (self.n - self.low), 1 << self.low)
            # U_var by step (None: every unshifted step) and its adjoint
            self.u = {None: ansatz_matrix(cfg, theta)}
            if shifted is not None:
                self.u[shifted[0]] = ansatz_matrix(cfg, shifted[1])
            self.u_h = {t: np.ascontiguousarray(u.conj().T) for t, u in self.u.items()}

    def angles(self, t: int) -> np.ndarray:
        shifted = self.shifted
        return shifted[1] if shifted is not None and t == shifted[0] else self.theta

    def evolve(self, psi: np.ndarray, start: int, stop: int, first: int | None = None) -> np.ndarray:
        """Advance psi in place through steps start+1..stop (1-based) and
        return the (stop - first, 2**n) states after steps first+1..stop
        (first defaults to start).  The block stays loaded for `rewind`."""
        first = start if first is None else first
        self.start = start
        states = np.empty((stop - first, psi.shape[-1]), dtype=np.complex128)
        if self.dense:
            block = self.embeddings[start:stop]
            self.high_enc = encoding_matrices(block[:, self.low:]).astype(np.complex128)
            self.low_enc = encoding_matrices(block[:, :self.low]).astype(np.complex128)
            prev, spare = psi, np.empty_like(psi)
            for t, a, b in zip(range(start + 1, stop + 1), self.high_enc, self.low_enc):
                mixed = (a @ prev.reshape(self.shape) @ b.T).reshape(-1)
                out = states[t - first - 1] if t > first else spare
                prev = np.matmul(self.u.get(t, self.u[None]), mixed, out=out)
            psi[:] = prev
        else:
            for t in range(start + 1, stop + 1):
                apply_plan_kernel(psi, self.n, self.plan, self.embeddings[t - 1], self.angles(t))
                if t > first:
                    states[t - first - 1] = psi
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            raise NumericError(
                f"non-finite amplitudes at timestep {first + 1 + int(np.argmin(finite))}"
            )
        if not np.isfinite(psi).all():
            raise NumericError(f"non-finite amplitudes by timestep {stop}")
        return states

    def rewind(self, lam: np.ndarray, t: int) -> np.ndarray:
        """U_t^H lam for a step t of the loaded block (in place when strided)."""
        if self.dense:
            i = t - self.start - 1
            mixed = self.u_h.get(t, self.u_h[None]) @ lam
            return (self.high_enc[i].T @ mixed.reshape(self.shape) @ self.low_enc[i]).reshape(-1)
        embedding, theta = self.embeddings[t - 1], self.angles(t)
        for kind, a, b, slot in reversed(self.plan):
            if kind == "cnot":
                apply_cnot_kernel(lam, self.n, a, b)
            elif kind == "ry":
                apply_ry_kernel(lam, self.n, a, -slot_angle(slot, embedding, theta))
            else:
                apply_rz_kernel(lam, self.n, a, -slot_angle(slot, embedding, theta))
        return lam
