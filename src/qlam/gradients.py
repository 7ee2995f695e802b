"""End-to-end differentiation of the hybrid model.

Production path: reverse-mode adjoint through the statevector, for a
whole stack of equal-length sequences at once (`batch_loss_and_grad`;
`loss_and_grad` is its B = 1 view).  The classifier backward, which the
shift oracle shares, weights the readouts from the logits `cell.run`
ends at.  The decoder backward runs once over all kept steps of a
sequence and yields c[t, i], the classical weight on pool expectation
i at step t.  The engine that swept the forward pass
(`Run.steps`) walks the stack back, one window of CHECKPOINT_INTERVAL
steps at a time, with `circuits.Steps.adjoint`: it takes each ket back
by the inverse step beside the adjoint rows, from the window's stored
end state (or reads the last window, when the sweep kept it), and
injects ``sum_i c_i P_i |psi_t>`` at each kept step through
`PauliTable.apply` of the pool's cached `pauli_table`.  Its circuit-angle derivatives,
and its per-step encoding derivatives chained into the embedding,
complete each sequence's gradient, bit for bit the one it gets alone.

Parameter-shift and finite differences exist as oracles only; both are
exact for expectation readouts but far more expensive.  The shift oracle
is the general rule for equidistant frequencies (Wierichs, Izaac, Wang &
Lin, arXiv:2107.12390), applied to an angle that every step shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellConfig, QlamParams, Run, decoder_tanh, run
from .circuits import CHECKPOINT_INTERVAL  # noqa: F401 (perfbench reads it from here)
from .data import SequenceSample
from .errors import NumericError, ShapeError
from .nn import softmax_cross_entropy
from .observables import pauli_table


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
    Sequences go one at a time, recomputing only their tanh layer
    (`decoder_tanh`, the calls `decoder` makes), so the temporaries stay
    the size of one sequence's.

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
        hidden = decoder_tanh(q, params)[:len(q)].reshape(len(q), heads, width)
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
    table = pauli_table(cfg.pool)

    def inject(lo, kets):
        coeffs = c[:, lo - r.first + 1:][:, :kets.shape[1]]
        flat = table.apply(kets.reshape(-1, kets.shape[-1]), coeffs.reshape(-1, table.size))
        return flat.reshape(kets.shape)

    dtheta, denc = r.steps.adjoint(inject)
    grads["theta"] += dtheta.reshape(dtheta.shape[0], -1)
    grads["embed_w"] += np.einsum("btn,bt->bn", denc, r.tokens)
    grads["embed_b"] += denc.sum(axis=1)
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {key}")


def _batch_grads(params: QlamParams, rows: int) -> dict[str, np.ndarray]:
    return {key: np.zeros((rows,) + arr.shape) for key, arr in params.as_dict().items()}


def _classifier_backward(r: Run, labels, params, cfg, grads) -> tuple[list[float], np.ndarray]:
    """Each row's cross-entropy loss at `r.logits` and (B, t_keep, n_heads)
    loss derivatives of its features; sets row b's cls_w, cls_b grads."""
    losses = []
    w = np.empty((len(labels), cfg.t_keep, cfg.n_heads))
    for b, label in enumerate(labels):
        loss, dlogits = softmax_cross_entropy(r.logits[b], label)
        grads["cls_w"][b] = np.outer(dlogits, r.features[b])
        grads["cls_b"][b] = dlogits
        w[b] = (params.cls_w.T @ dlogits).reshape(cfg.t_keep, cfg.n_heads)
        losses.append(loss)
    return losses, w


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
    r = run([s.tokens for s in samples], params, cfg, cfg.t_keep, backward=True)
    grads = _batch_grads(params, len(samples))
    losses, w = _classifier_backward(r, [s.label for s in samples], params, cfg, grads)
    _backward(r, w, params, cfg, grads)
    return [GradBundle(loss, {key: g[b] for key, g in grads.items()}, r.logits[b])
            for b, loss in enumerate(losses)]


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
    r = run([tokens], params, cfg, backward=True)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != r.readouts.shape[1:]:
        raise ShapeError(f"weights have shape {w.shape}, expected {r.readouts.shape[1:]}")
    value = float(np.einsum("th,th->", w, r.readouts[0]))
    grads = _batch_grads(params, 1)
    _backward(r, w[None], params, cfg, grads)
    return value, {key: g[0] for key, g in grads.items()}


# ---------------------------------------------------------------------------
# Parameter-shift oracle.  Exact for expectation readouts: the shared
# angle is moved at every step at once, by the general shift rule.
# ---------------------------------------------------------------------------

def readout_param_shift(
    tokens, params: QlamParams, cfg: CellConfig, theta_index: int
) -> np.ndarray:
    """(T, n_heads) derivative of every readout with respect to one
    shared circuit angle theta_k.  A readout r(theta_k) has the integer
    frequencies 0..T, so r'(theta_k) = sum_mu r(theta_k + x_mu)
    (-1)**(mu - 1) / (4 T sin(x_mu / 2)**2) over mu = 1..2T, with
    x_mu = (2 mu - 1) pi / 2T (arXiv:2107.12390); T = 1 is the +-pi/2
    rule."""
    x = np.asarray(tokens, dtype=np.float64)
    T = x.shape[0]
    total = np.zeros((T, cfg.n_heads))
    moved = params.copy()
    for mu in range(1, 2 * T + 1):
        shift = (2 * mu - 1) * np.pi / (2 * T)
        moved.theta[theta_index] = params.theta[theta_index] + shift
        total += (-1) ** (mu - 1) / (4 * T * np.sin(shift / 2) ** 2) * run([x], moved, cfg).readouts[0]
    return total


def param_shift_grad(
    sample: SequenceSample, params: QlamParams, cfg: CellConfig, theta_index: int
) -> float:
    """Loss gradient for one circuit angle: the shift rule's readout
    derivatives chained through the classifier and loss at params."""
    r = run([sample.tokens], params, cfg)
    _, w = _classifier_backward(r, [sample.label], params, cfg, _batch_grads(params, 1))
    w = np.pad(w[0], ((r.readouts.shape[1] - cfg.t_keep, 0), (0, 0)))  # zero at every earlier step
    return float(np.sum(w * readout_param_shift(r.tokens[0], params, cfg, theta_index)))
