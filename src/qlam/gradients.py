"""End-to-end differentiation of the hybrid model.

Production path: reverse-mode adjoint through the statevector (Jones &
Gacon, arXiv:2009.02823).  Walking a step backward layer by layer with
the pair (K, L), where K is the ket just after a rotation layer and L
the accumulated cost adjoint there, an angle ``a`` of a gate
``exp(-i a P/2)`` on qubit j contributes

    dJ/da = Im <L| P |K> = Im tr(P rho_j),   rho_j = Tr_{not j} |K><L|,

since the layer's gates on other qubits commute with P.  One 2x2 cross
operator per qubit (`circuits.Steps.cross`) thus gives every angle of a
layer, and the encoding angles of a step are its layer-0 RY terms.

Readout terms inject ``lam += sum_i c_i P_i |psi_t>`` at their timestep,
with c_i the classical weight on pool expectation i.  Only two loops run
step by step: the forward ket recurrence (`cell.run`, recomputed here one
checkpoint window at a time) and the adjoint recurrence
``lam <- U_t^H (lam + inj_t)``.  The decoder backward runs once over all
kept steps; the injections, and the layer walk over stacked
(ket, adjoint) pairs, run once per sub-block of a window.  Memory is the
T/K checkpoints, one window of K recomputed states and a walk stack of
at most max(2**n, circuits.WALK_AMPLITUDES) (ket, adjoint) pairs:
O(K * 2**n + T/K * 2**n) for any sequence length, with
K = CHECKPOINT_INTERVAL.

Parameter-shift and finite differences exist as oracles only; both are
exact for expectation readouts but far more expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CHECKPOINT_INTERVAL, CellConfig, QlamParams, Run, readout_features, run
from .circuits import Steps
from .data import SequenceSample
from .errors import NumericError, ShapeError
from .nn import grad_like, softmax_cross_entropy
from .observables import pool_table


@dataclass
class GradBundle:
    """Scalar loss plus a gradient array for every parameter array."""

    loss: float
    grads: dict[str, np.ndarray]
    logits: np.ndarray


def _decoder_backward(w: np.ndarray, r: Run, params, grads) -> np.ndarray:
    """Backprop readout weights w (one row per kept step) through decoder,
    query and embedding, over every kept step at once.

    Returns the injection coefficients c[t, i] = sum_h w[t, h] gamma_t[h, i]
    for the quantum half of the backward pass.
    """
    x, e = r.tokens[r.first - 1:], r.embeddings[r.first - 1:]
    hidden = r.hidden
    dgam = w[:, :, None] * r.exps[:, None, :]
    grads["dec_w2"] += np.einsum("thp,ths->hps", dgam, hidden)
    grads["dec_b2"] += dgam.sum(axis=0)
    du = np.einsum("hps,thp->ths", params.dec_w2, dgam)
    du -= np.einsum("ths,ths,ths->ths", du, hidden, hidden)  # tanh' = 1 - hidden**2
    grads["dec_w1"] += np.einsum("ths,tq->hsq", du, r.queries)
    grads["dec_b1"] += du.sum(axis=0)
    dq = np.einsum("hsq,ths->tq", params.dec_w1, du)
    grads["w_q"] += np.einsum("tq,tn->qn", dq, e)
    de = dq @ params.w_q
    grads["embed_w"] += np.einsum("tn,t->n", de, x)
    grads["embed_b"] += de.sum(axis=0)
    return np.einsum("th,thp->tp", w, r.gammas)


def _quantum_backward(r: Run, params, cfg, c: np.ndarray, grads) -> None:
    """Adjoint walk from step T back to 1, window by window.

    Each window is recomputed forward from its checkpoint, then consumed
    backward in sub-blocks of `Steps.block` steps.  The adjoint recurrence
    stores lam + inj_t for every step of a sub-block.  One walk over the
    stacked (ket, adjoint) pairs, layer by layer, then reads every step's
    angle derivatives from the per-qubit cross operators rho_j just after
    each rotation layer; the adjoint row of the sub-block's first step,
    rewound through the whole step, is the next lam.  The ket of each step
    is the recomputed state, so inverse-gate drift never crosses a step.
    """
    n = cfg.n_qubits
    T = r.tokens.shape[0]
    table = pool_table(cfg.pool)
    steps = Steps(cfg.ansatz, params.theta, r.embeddings)
    rz = params.theta.reshape(cfg.n_layers, n, 2)[..., 1]
    cos_rz, sin_rz = np.cos(rz), np.sin(rz)
    dtheta = grads["theta"].reshape(cfg.n_layers, n, 2)
    lam = np.zeros(1 << n, dtype=np.complex128)
    denc = np.empty((T, n))
    last_window = ((T - 1) // CHECKPOINT_INTERVAL) * CHECKPOINT_INTERVAL
    for win_start in range(last_window, -1, -CHECKPOINT_INTERVAL):
        win_end = min(win_start + CHECKPOINT_INTERVAL, T)
        seg = steps.evolve(r.checkpoints[win_start].copy(), win_start, win_end)
        for stop in range(win_end, win_start, -steps.block):
            start = max(win_start, stop - steps.block)
            a0, b0t = steps.layer0(start, stop)
            pair = np.empty((2, stop - start, 1 << n), dtype=np.complex128)
            pair[0] = seg[start - win_start:stop - win_start]
            lo = min(max(start, r.first - 1), stop)  # steps lo+1..stop inject readouts
            if lo < stop:
                inj = table.apply(pair[0, lo - start:], c[lo - r.first + 1:stop - r.first + 1])
            for t in range(stop, start, -1):
                if t > lo:
                    lam += inj[t - lo - 1]
                pair[1, t - start - 1] = lam
                if t > start + 1:
                    lam = steps.rewind(lam, t, a0[t - start - 1], b0t[t - start - 1])
            later = steps.later_layers[None]
            for layer in range(cfg.n_layers - 1, -1, -1):
                pair = pair.reshape(2, stop - start, -1)[..., steps.scatter]
                # for U_j = RZ(b) RY(a): dJ/db = Im tr(Z rho_j), and dJ/da =
                # Im tr(RZ(b) Y RZ(b)^H rho_j) = cos(b) Im tr(Y rho_j) -
                # sin(b) Im tr(X rho_j); layer 0's encoding RY(e_t) shares
                # the RY axis, so dJ/de_t = dJ/da at step t
                rho = steps.cross(pair[0], pair[1])
                im_y = (rho[..., 0, 1] - rho[..., 1, 0]).real
                im_x = (rho[..., 0, 1] + rho[..., 1, 0]).imag
                da = cos_rz[layer] * im_y - sin_rz[layer] * im_x
                dtheta[layer, :, 0] += da.sum(axis=0)
                dtheta[layer, :, 1] += (rho[..., 0, 0] - rho[..., 1, 1]).imag.sum(axis=0)
                if layer:
                    pair = steps.unrotate(pair, *later[layer - 1])
            denc[start:stop] = da
            lam = steps.unrotate(pair[1, 0], a0[0], b0t[0]).reshape(-1)
        del seg, pair  # release the window before the next one is allocated
    grads["embed_w"] += np.einsum("tn,t->n", denc, r.tokens)
    grads["embed_b"] += denc.sum(axis=0)


def _backward(r: Run, w: np.ndarray, params, cfg, grads) -> None:
    """Adjoint of the kept readouts weighted by w, added into grads."""
    c = _decoder_backward(w, r, params, grads)
    _quantum_backward(r, params, cfg, c, grads)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {key}")


def loss_and_grad(sample: SequenceSample, params: QlamParams, cfg: CellConfig) -> GradBundle:
    """Cross-entropy loss and exact gradients for one sequence.

    Uses exact expectations only; shot sampling is not differentiated.
    Matches `forward` followed by `softmax_cross_entropy` bit for bit on
    the loss, but skips readouts at steps the classifier never sees.
    """
    r = run(sample.tokens, params, cfg, cfg.t_keep, checkpoints=True)
    features = r.readouts.reshape(-1)
    logits = params.cls_w @ features + params.cls_b
    loss, dlogits = softmax_cross_entropy(logits, sample.label)

    grads = grad_like(params.as_dict())
    grads["cls_w"] = np.outer(dlogits, features)
    grads["cls_b"] = dlogits
    dfeatures = (params.cls_w.T @ dlogits).reshape(cfg.t_keep, cfg.n_heads)
    _backward(r, dfeatures, params, cfg, grads)
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
    r = run(tokens, params, cfg, checkpoints=True)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != r.readouts.shape:
        raise ShapeError(f"weights have shape {w.shape}, expected {r.readouts.shape}")
    value = float(np.einsum("th,th->", w, r.readouts))
    grads = grad_like(params.as_dict())
    _backward(r, w, params, cfg, grads)
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
