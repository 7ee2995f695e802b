"""End-to-end differentiation of the hybrid model.

Production path: reverse-mode adjoint through the statevector, in three
pieces, for a whole stack of equal-length sequences at once
(`batch_loss_and_grad`; `loss_and_grad` is its B = 1 view).  The decoder
backward runs once over all kept steps of a sequence and yields
c[t, i], the classical weight on pool expectation i at step t.  The
engine that swept the forward pass (`Run.steps`) walks the stack back,
one window of CHECKPOINT_INTERVAL steps at a time, with
`circuits.Steps.adjoint`, injecting ``sum_i c_i P_i |psi_t>`` at each
kept step through `PauliTable.apply`.  Its circuit-angle derivatives,
and its per-step encoding derivatives chained into the embedding,
complete each sequence's gradient, bit for bit the one it gets alone.

Parameter-shift and finite differences exist as oracles only; both are
exact for expectation readouts but far more expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CHECKPOINT_INTERVAL, CellConfig, QlamParams, Run, decoder, readout_features, run
from .data import SequenceSample
from .errors import NumericError, ShapeError
from .nn import softmax_cross_entropy
from .observables import pool_table


@dataclass
class GradBundle:
    """Scalar loss plus a gradient array for every parameter array."""

    loss: float
    grads: dict[str, np.ndarray]
    logits: np.ndarray


def _decoder_backward(w: np.ndarray, r: Run, params, grads) -> np.ndarray:
    """Backprop readout weights w (B, S, n_heads), one row per kept step
    of each sequence, through decoder, query and embedding, over every
    kept step of a sequence at once; grads hold one (B, ...) gradient per
    parameter.  Every contraction is a GEMM over one sequence's S rows,
    with the heads and hidden units flattened to one heads*hidden axis.
    Sequences go one at a time, recomputing their tanh layer with
    `decoder`, so the temporaries stay the size of one sequence's.

    Returns the injection coefficients c[b, t, i] = sum_h w[b, t, h]
    gamma_bt[h, i] for the quantum half of the backward pass, as
    (w*hidden) @ W2' + w @ dec_b2 with W2' = dec_w2 as (heads*hidden, pool).
    """
    heads, width, d_query = params.dec_w1.shape
    w1 = params.dec_w1.reshape(heads * width, d_query)
    w2 = params.dec_w2.transpose(0, 2, 1).reshape(heads * width, -1)  # W2'
    c = np.empty(r.exps.shape)
    for b, wb in enumerate(w):
        x, e = r.tokens[b, r.first - 1:], r.embeddings[b, r.first - 1:]
        q, exps = r.queries[b], r.exps[b]
        hidden = decoder(q, params)[0]
        wh = (wb[:, :, None] * hidden).reshape(wb.shape[0], -1)
        grads["dec_w2"][b] += (exps.T @ wh).reshape(-1, heads, width).transpose(1, 0, 2)
        grads["dec_b2"][b] += wb.T @ exps
        du = (exps @ w2.T).reshape(hidden.shape)
        du *= wb[:, :, None]
        du *= 1.0 - hidden**2  # tanh'
        du = du.reshape(wh.shape)
        grads["dec_w1"][b] += (du.T @ q).reshape(heads, width, d_query)
        grads["dec_b1"][b] += du.sum(axis=0).reshape(heads, width)
        dq = du @ w1
        grads["w_q"][b] += dq.T @ e
        de = dq @ params.w_q
        grads["embed_w"][b] += x @ de
        grads["embed_b"][b] += de.sum(axis=0)
        c[b] = wh @ w2 + wb @ params.dec_b2
    return c


def _backward(r: Run, w: np.ndarray, params, cfg, grads) -> None:
    """Adjoint of the kept readouts weighted by w, added into grads."""
    c = _decoder_backward(w, r, params, grads)
    table = pool_table(cfg.pool)

    def inject(lo, kets):
        coeffs = c[:, lo - r.first + 1:][:, :kets.shape[1]]
        flat = table.apply(kets.reshape(-1, kets.shape[-1]), coeffs.reshape(-1, table.size))
        return flat.reshape(kets.shape)

    dtheta, denc = r.steps.adjoint(r.first, inject)
    grads["theta"] += dtheta.reshape(dtheta.shape[0], -1)
    grads["embed_w"] += np.einsum("btn,bt->bn", denc, r.tokens)
    grads["embed_b"] += denc.sum(axis=1)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {key}")


def _batch_grads(params: QlamParams, rows: int) -> dict[str, np.ndarray]:
    return {key: np.zeros((rows,) + arr.shape) for key, arr in params.as_dict().items()}


def batch_loss_and_grad(
    samples: list[SequenceSample], params: QlamParams, cfg: CellConfig
) -> list[GradBundle]:
    """Cross-entropy loss and exact gradients of each of a list of
    equal-length sequences, from one batched pass.

    Bundle b is bit for bit `loss_and_grad(samples[b], ...)`.  Uses exact
    expectations only; shot sampling is not differentiated.  Matches
    `forward` followed by `softmax_cross_entropy` bit for bit on the
    loss, but skips readouts at steps the classifier never sees.
    """
    r = run([s.tokens for s in samples], params, cfg, cfg.t_keep)
    grads = _batch_grads(params, len(samples))
    dfeatures = np.empty(r.readouts.shape)
    heads = []
    for b, sample in enumerate(samples):
        features = r.readouts[b].reshape(-1)
        logits = params.cls_w @ features + params.cls_b
        loss, dlogits = softmax_cross_entropy(logits, sample.label)
        grads["cls_w"][b] = np.outer(dlogits, features)
        grads["cls_b"][b] = dlogits
        dfeatures[b] = (params.cls_w.T @ dlogits).reshape(cfg.t_keep, cfg.n_heads)
        heads.append((loss, logits))
    _backward(r, dfeatures, params, cfg, grads)
    return [GradBundle(loss, {key: g[b] for key, g in grads.items()}, logits)
            for b, (loss, logits) in enumerate(heads)]


def loss_and_grad(sample: SequenceSample, params: QlamParams, cfg: CellConfig) -> GradBundle:
    """Cross-entropy loss and exact gradients for one sequence: the
    B = 1 view of `batch_loss_and_grad`."""
    return batch_loss_and_grad([sample], params, cfg)[0]


def weighted_readout_grads(
    tokens, params: QlamParams, cfg: CellConfig, weights: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Gradients of the linear objective J = sum_{t,h} weights[t,h] r_t[h].

    Runs the same adjoint machinery as `loss_and_grad` but with caller
    chosen readout weights over every step; classifier gradients are
    zero because J never touches the classifier.  Main use: oracle
    cross-checks against parameter-shift and finite differences.
    """
    r = run([tokens], params, cfg)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != r.readouts.shape[1:]:
        raise ShapeError(f"weights have shape {w.shape}, expected {r.readouts.shape[1:]}")
    value = float(np.einsum("th,th->", w, r.readouts[0]))
    grads = _batch_grads(params, 1)
    _backward(r, w[None], params, cfg, grads)
    return value, {key: g[0] for key, g in grads.items()}


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
    return run([tokens], params, cfg, shifted=(shift_step, shifted)).readouts[0]


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
    r = run([sample.tokens], params, cfg)
    x, unshifted = r.tokens[0], r.readouts[0]
    features = readout_features(unshifted, cfg.t_keep)
    logits = params.cls_w @ features + params.cls_b
    _, dlogits = softmax_cross_entropy(logits, sample.label)
    dfeatures = (params.cls_w.T @ dlogits).reshape(cfg.t_keep, cfg.n_heads)
    w = np.zeros_like(unshifted)
    w[x.shape[0] - cfg.t_keep:] = dfeatures
    return float(np.sum(w * readout_param_shift(x, params, cfg, theta_index)))
