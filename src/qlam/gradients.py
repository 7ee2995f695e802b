"""End-to-end differentiation of the hybrid model.

Production path: reverse-mode adjoint through the statevector.  Walking
the gate sequence backward with the pair (k, lam), where k is the ket
just after the current gate and lam the accumulated cost adjoint, each
angle ``a`` of a gate ``exp(-i a P/2)`` contributes

    dJ/da = Im <lam| P |k>.

Readout terms inject ``lam += sum_i c_i P_i |psi_t>`` at their timestep,
with c_i the classical weight on pool expectation i.  States needed on
the way back are recomputed from checkpoints taken every K steps, so
memory stays O(K * 2**n + T/K * 2**n) for any sequence length.

Parameter-shift and finite differences exist as oracles only; both are
exact for expectation readouts but far more expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellConfig, QlamParams, Run, evolve, readout_features, run
from .circuits import build_step_plan, slot_angle
from .data import SequenceSample
from .errors import NumericError, ShapeError
from .nn import grad_like, softmax_cross_entropy
from .observables import apply_pauli_string
from .statevector import (
    apply_cnot_kernel,
    apply_pauli_kernel,
    apply_ry_kernel,
    apply_rz_kernel,
)

CHECKPOINT_INTERVAL = 32

_GENERATOR = {"ry": "Y", "rz": "Z"}


@dataclass
class GradBundle:
    """Scalar loss plus a gradient array for every parameter array."""

    loss: float
    grads: dict[str, np.ndarray]
    logits: np.ndarray


def _decoder_backward(w_rows_by_t, r: Run, params, grads):
    """Backprop the readout weights through decoder, query, and embedding.

    Returns the per-step injection coefficients c_t[i] = sum_h w_t[h]
    gamma_t[h, i] for the quantum half of the backward pass.
    """
    c_by_t: dict[int, np.ndarray] = {}
    for t, w_row in w_rows_by_t.items():
        x_t = r.tokens[t - 1]
        e_t = r.embeddings[t - 1]
        q_t = params.w_q @ e_t
        hidden = np.tanh(params.dec_w1 @ q_t + params.dec_b1)
        gammas = np.einsum("hps,hs->hp", params.dec_w2, hidden) + params.dec_b2
        c_by_t[t] = w_row @ gammas
        dgam = np.outer(w_row, r.exps[t - r.first])
        grads["dec_w2"] += np.einsum("hp,hs->hps", dgam, hidden)
        grads["dec_b2"] += dgam
        dhidden = np.einsum("hps,hp->hs", params.dec_w2, dgam)
        du = dhidden * (1.0 - hidden * hidden)
        grads["dec_w1"] += np.einsum("hs,q->hsq", du, q_t)
        grads["dec_b1"] += du
        dq = np.einsum("hsq,hs->q", params.dec_w1, du)
        grads["w_q"] += np.outer(dq, e_t)
        de = params.w_q.T @ dq
        grads["embed_w"] += de * x_t
        grads["embed_b"] += de
    return c_by_t


def _quantum_backward(r: Run, params, cfg, c_by_t, grads):
    """Adjoint walk from step T back to 1, window by window.

    Each window is recomputed forward from its checkpoint, then consumed
    backward: inject readout adjoints, then rewind the step's gates while
    accumulating per-angle derivatives.  The ket is reset from the stored
    state at every step, so inverse-gate drift never crosses a step.
    """
    n = cfg.n_qubits
    dim = 1 << n
    pool = cfg.pool
    theta = params.theta
    lam = np.zeros(dim, dtype=np.complex128)
    pair = np.empty((2, dim), dtype=np.complex128)
    reversed_plan = list(reversed(build_step_plan(cfg.ansatz)))
    win_end = r.tokens.shape[0]
    while win_end > 0:
        win_start = ((win_end - 1) // CHECKPOINT_INTERVAL) * CHECKPOINT_INTERVAL
        seg = np.empty((win_end - win_start, dim), dtype=np.complex128)
        amps = r.checkpoints[win_start].copy()
        for t in evolve(amps, r.embeddings, cfg, theta, range(win_start + 1, win_end + 1)):
            seg[t - win_start - 1] = amps
        for t in range(win_end, win_start, -1):
            psi_t = seg[t - win_start - 1]
            c = c_by_t.get(t)
            if c is not None:
                for i, c_i in enumerate(c):
                    if c_i != 0.0:
                        lam += c_i * apply_pauli_string(psi_t, n, pool[i])
            pair[0] = psi_t
            pair[1] = lam
            e_t = r.embeddings[t - 1]
            denc = np.zeros(n)
            for kind, a, b, slot in reversed_plan:
                if slot is None:
                    apply_cnot_kernel(pair, n, a, b)
                    continue
                # pair[0] is the ket just after this gate
                pk = pair[0].copy()
                apply_pauli_kernel(pk, n, _GENERATOR[kind], a)
                g = np.vdot(pair[1], pk).imag
                if slot[0] == "theta":
                    grads["theta"][slot[1]] += g
                else:
                    denc[slot[1]] += g
                angle = slot_angle(slot, e_t, theta)
                if kind == "ry":
                    apply_ry_kernel(pair, n, a, -angle)
                else:
                    apply_rz_kernel(pair, n, a, -angle)
            lam = pair[1].copy()
            grads["embed_w"] += denc * r.tokens[t - 1]
            grads["embed_b"] += denc
        win_end = win_start


def _backward(r: Run, w_rows_by_t, params, cfg, grads):
    """Adjoint of the readouts weighted by w_rows_by_t, added into grads."""
    c_by_t = _decoder_backward(w_rows_by_t, r, params, grads)
    _quantum_backward(r, params, cfg, c_by_t, grads)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {key}")


def loss_and_grad(sample: SequenceSample, params: QlamParams, cfg: CellConfig) -> GradBundle:
    """Cross-entropy loss and exact gradients for one sequence.

    Uses exact expectations only; shot sampling is not differentiated.
    Matches `forward` followed by `softmax_cross_entropy` bit for bit on
    the loss, but skips readouts at steps the classifier never sees.
    """
    r = run(sample.tokens, params, cfg, cfg.t_keep, checkpoint_every=CHECKPOINT_INTERVAL)
    features = r.readouts.reshape(-1)
    logits = params.cls_w @ features + params.cls_b
    loss, dlogits = softmax_cross_entropy(logits, sample.label)

    grads = grad_like(params.as_dict())
    grads["cls_w"] = np.outer(dlogits, features)
    grads["cls_b"] = dlogits
    dfeatures = (params.cls_w.T @ dlogits).reshape(cfg.t_keep, cfg.n_heads)
    _backward(r, {r.first + row: w for row, w in enumerate(dfeatures)}, params, cfg, grads)
    return GradBundle(loss, grads, logits)


def weighted_readout_grads(
    tokens, params: QlamParams, cfg: CellConfig, weights: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Gradients of the linear objective J = sum_{t,h} weights[t,h] r_t[h].

    Runs the same adjoint machinery as `loss_and_grad` but with caller
    chosen readout weights over every step; classifier gradients are
    zero because J never touches the classifier.  Main use: oracle
    cross-checks against parameter-shift and finite differences.
    """
    r = run(tokens, params, cfg, checkpoint_every=CHECKPOINT_INTERVAL)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != r.readouts.shape:
        raise ShapeError(f"weights have shape {w.shape}, expected {r.readouts.shape}")
    w_rows_by_t = {t: w[t - 1] for t in range(1, len(w) + 1) if np.any(w[t - 1] != 0.0)}
    value = 0.0
    for t, w_row in w_rows_by_t.items():
        value += float(w_row @ r.readouts[t - 1])
    grads = grad_like(params.as_dict())
    _backward(r, w_rows_by_t, params, cfg, grads)
    return value, grads


# ---------------------------------------------------------------------------
# Parameter-shift oracle.  Exact for expectation readouts; circuit angles
# are shared across timesteps, so the rule shifts one occurrence at a
# time and sums.
# ---------------------------------------------------------------------------

def readouts_with_occurrence_shift(
    tokens, params: QlamParams, cfg: CellConfig,
    theta_index: int, shift_step: int, delta: float,
) -> np.ndarray:
    """(T, n_heads) exact readouts with theta[theta_index] shifted by
    delta at step `shift_step` (1-based) only."""
    shifted = params.theta.copy()
    shifted[theta_index] += delta
    return run(tokens, params, cfg, shifted=(shift_step, shifted)).readouts


def readout_param_shift(
    tokens, params: QlamParams, cfg: CellConfig, theta_index: int
) -> np.ndarray:
    """(T, n_heads) derivative of every readout with respect to one
    shared circuit angle, by per-occurrence +-pi/2 shifts."""
    x = np.asarray(tokens, dtype=np.float64)
    total = np.zeros((x.shape[0], cfg.n_heads))
    for occ in range(1, x.shape[0] + 1):
        plus = readouts_with_occurrence_shift(x, params, cfg, theta_index, occ, +np.pi / 2)
        minus = readouts_with_occurrence_shift(x, params, cfg, theta_index, occ, -np.pi / 2)
        total += 0.5 * (plus - minus)
    return total


def param_shift_grad(
    sample: SequenceSample, params: QlamParams, cfg: CellConfig, theta_index: int
) -> float:
    """Loss gradient for one circuit angle: per-readout shift rule chained
    through the classifier and loss at the unshifted point."""
    r = run(sample.tokens, params, cfg)
    x, unshifted = r.tokens, r.readouts
    features = readout_features(unshifted, cfg.t_keep)
    logits = params.cls_w @ features + params.cls_b
    _, dlogits = softmax_cross_entropy(logits, sample.label)
    dfeatures = (params.cls_w.T @ dlogits).reshape(cfg.t_keep, cfg.n_heads)
    w = np.zeros_like(unshifted)
    w[x.shape[0] - cfg.t_keep:] = dfeatures
    return float(np.sum(w * readout_param_shift(x, params, cfg, theta_index)))
