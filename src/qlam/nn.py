"""Classical trainable pieces: loss, optimizer, schedule, init, RNN baseline.

Parameters travel as dicts of named float64 arrays so the optimizer,
clipping, and checkpointing can treat every model uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import validate_tokens
from .errors import ConfigError, NumericError, ShapeError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def init_affine(rng: np.random.Generator, out_dim: int, in_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight (out, in) and bias (out,) drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    b = rng.uniform(-bound, bound, size=out_dim)
    return w, b


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stable cross-entropy of softmax(logits) against a class index.

    Returns (loss, dloss/dlogits); the gradient is softmax - onehot and
    sums to zero across classes.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"logits must be a vector, got shape {z.shape}")
    if not 0 <= label < z.shape[0]:
        raise ConfigError(f"label {label} outside [0, {z.shape[0]})")
    if not np.all(np.isfinite(z)):
        raise NumericError("logits must be finite")
    shifted = z - z.max()
    log_norm = np.log(np.sum(np.exp(shifted)))
    loss = float(log_norm - shifted[label])
    dlogits = np.exp(shifted - log_norm)
    dlogits[label] -= 1.0
    return loss, dlogits


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for a named-parameter dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr_t: float,
) -> None:
    """One in-place bias-corrected Adam update over every named array."""
    if set(params) != set(grads):
        raise ShapeError(
            f"parameter/gradient key mismatch: {sorted(set(params) ^ set(grads))}"
        )
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient {key} has shape {g.shape}, param {p.shape}")
        m = state.m[key]
        v = state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr_t * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """base_lr * 0.5 * (1 + cos(pi * epoch / total_epochs))."""
    if total_epochs < 1:
        raise ConfigError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch <= total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    return float(base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs)))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float = 1.0) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def grad_like(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(p) for k, p in params.items()}


def param_count(params: dict[str, np.ndarray]) -> int:
    return int(sum(p.size for p in params.values()))


# ---------------------------------------------------------------------------
# Minimal Elman recurrent baseline.
# ---------------------------------------------------------------------------

def init_elman(rng: np.random.Generator, d_hidden: int, n_classes: int) -> dict[str, np.ndarray]:
    """Scalar-token Elman network: h_t = tanh(w_in*x_t + b_in + W_rec h_{t-1})."""
    w_in, b_in = init_affine(rng, d_hidden, 1)
    w_rec, _ = init_affine(rng, d_hidden, d_hidden)
    w_out, b_out = init_affine(rng, n_classes, d_hidden)
    return {
        "w_in": w_in[:, 0],
        "b_in": b_in,
        "w_rec": w_rec,
        "w_out": w_out,
        "b_out": b_out,
    }


def elman_forward(tokens: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Logits from the final hidden state of the tanh recurrence."""
    logits, _ = _elman_run(tokens, params)
    return logits


def _elman_run(tokens, params):
    x = validate_tokens(tokens)
    d = params["w_in"].shape[0]
    h = np.zeros(d)
    hs = np.empty((x.shape[0] + 1, d))
    hs[0] = h
    for t, x_t in enumerate(x):
        h = np.tanh(params["w_in"] * x_t + params["b_in"] + params["w_rec"] @ h)
        hs[t + 1] = h
    logits = params["w_out"] @ h + params["b_out"]
    return logits, hs


def elman_loss_and_grad(
    tokens, label: int, params: dict[str, np.ndarray]
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Cross-entropy loss, full backprop-through-time gradients, and the
    logits they were taken at."""
    x = np.asarray(tokens, dtype=np.float64)
    logits, hs = _elman_run(x, params)
    loss, dlogits = softmax_cross_entropy(logits, label)
    grads = grad_like(params)
    grads["w_out"] = np.outer(dlogits, hs[-1])
    grads["b_out"] = dlogits
    dh = params["w_out"].T @ dlogits
    for t in range(x.shape[0] - 1, -1, -1):
        # d tanh(u) = (1 - h^2) du, with h = hs[t + 1]
        du = dh * (1.0 - hs[t + 1] ** 2)
        grads["w_in"] += du * x[t]
        grads["b_in"] += du
        grads["w_rec"] += np.outer(du, hs[t])
        dh = params["w_rec"].T @ du
    return loss, grads, logits
