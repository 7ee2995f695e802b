"""Independent reference for the qlam recurrence, written from the model
description rather than from the package's kernels.

Two engines compute the same logits:

* ``kron_logits`` builds every recurrence step as one dense
  ``2**n x 2**n`` unitary from Kronecker products and every pool term as
  a dense Pauli matrix.  It holds ``4**n`` amplitudes per matrix, so it
  is only for small registers (the n=4 check).
* ``logits`` applies the same gates one by one, mixing the two halves of
  a ``(2**(n-1-q), 2, 2**q)`` view, and takes Pauli expectations from
  basis-index bit arithmetic; it is fast enough for n=12.

Qubit 0 is the least-significant bit of the basis index.  Shot sampling
follows the package's documented stream layout: one Philox generator per
(seed, sample, timestep, term), keyed by (seed, sample) with the
timestep and term in the two high counter words.
"""

from __future__ import annotations

import math
import time

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _ry(a: float) -> np.ndarray:
    c, s = math.cos(0.5 * a), math.sin(0.5 * a)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(a: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def _cnot_pairs(n: int, entangler: str) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if entangler == "ring":
        return [(j, (j + 1) % n) for j in range(n)]
    return [(j, j + 1) for j in range(n - 1)]


def step_ops(n, n_layers, entangler, embedding, theta):
    """Gates of one step in order: ("u", qubit, 2x2) or ("cx", control, target)."""
    ops = [("u", j, _ry(embedding[j])) for j in range(n)]
    layered = np.asarray(theta).reshape(n_layers, n, 2)
    for layer in range(n_layers):
        for j in range(n):
            ops.append(("u", j, _ry(layered[layer, j, 0])))
            ops.append(("u", j, _rz(layered[layer, j, 1])))
        ops += [("cx", c, t) for c, t in _cnot_pairs(n, entangler)]
    return ops


def pool_terms(n: int) -> list[str]:
    """Pauli labels (label[j] acts on qubit j): Z_j, X_j, then ZZ ring pairs."""
    def single(p, j):
        return "".join(p if k == j else "I" for k in range(n))

    terms = [single("Z", j) for j in range(n)] + [single("X", j) for j in range(n)]
    seen = set()
    for j in range(n if n > 1 else 0):
        pair = frozenset((j, (j + 1) % n))
        if len(pair) == 2 and pair not in seen:
            seen.add(pair)
            terms.append("".join("Z" if k in pair else "I" for k in range(n)))
    return terms


def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return np.where((idx >> control) & 1, idx ^ (1 << target), idx)


def shot_mean(expectation, shots, seed, sample_index, timestep, term):
    key = np.array([seed & _U64, sample_index & _U64], dtype=np.uint64)
    counter = np.array([0, 0, term & _U64, timestep & _U64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
    p_plus = min(max(0.5 * (1.0 + expectation), 0.0), 1.0)
    n_plus = int(np.count_nonzero(rng.random(shots) < p_plus))
    return (2 * n_plus - shots) / shots


class _Dense:
    """Kronecker engine: whole-register matrices."""

    def __init__(self, n):
        self.n = n
        self.terms = [self._kron([_PAULI[c] for c in label]) for label in pool_terms(n)]

    def _kron(self, per_qubit):
        out = np.ones((1, 1), dtype=complex)
        for m in reversed(per_qubit):  # qubit n-1 is the most significant factor
            out = np.kron(out, m)
        return out

    def advance(self, psi, ops):
        u = np.eye(1 << self.n, dtype=complex)
        for kind, a, b in ops:
            if kind == "u":
                factors = [np.eye(2, dtype=complex)] * self.n
                factors[a] = b
                g = self._kron(factors)
            else:
                g = np.eye(1 << self.n, dtype=complex)[_cnot_perm(self.n, a, b)]
            u = g @ u
        return u @ psi

    def expectations(self, psi):
        return np.array([np.vdot(psi, p @ psi).real for p in self.terms])


class _Strided:
    """Gate-by-gate engine with bit-arithmetic expectations."""

    def __init__(self, n):
        self.n = n
        idx = np.arange(1 << n)
        self.sign = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1)
        self.flip = [idx ^ (1 << q) for q in range(n)]
        self.terms = pool_terms(n)
        self.perms = {}

    def advance(self, psi, ops):
        """Apply ``ops``; 1-qubit gates act in place on ``psi``."""
        n = self.n
        for kind, a, b in ops:
            if kind == "u":
                v = psi.reshape(-1, 2, 1 << a)
                lo, hi = v[:, 0, :].copy(), v[:, 1, :]
                v[:, 0, :] = b[0, 0] * lo + b[0, 1] * hi
                v[:, 1, :] = b[1, 0] * lo + b[1, 1] * hi
            else:
                perm = self.perms.get((a, b))
                if perm is None:
                    perm = self.perms[(a, b)] = _cnot_perm(n, a, b)
                psi = psi[perm]
        return psi

    def expectations(self, psi):
        prob = np.abs(psi) ** 2
        out = []
        for label in self.terms:
            zs = [q for q, c in enumerate(label) if c == "Z"]
            xs = [q for q, c in enumerate(label) if c == "X"]
            if xs:
                out.append(float(np.vdot(psi, psi[self.flip[xs[0]]]).real))
            else:
                out.append(float(prob @ np.prod(self.sign[:, zs], axis=1)))
        return np.array(out)


def _logits(engine, tokens, params, cfg, shots, shot_seed, sample_index):
    n = cfg.n_qubits
    x = np.asarray(tokens, dtype=np.float64)
    first_kept = x.shape[0] - cfg.t_keep
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    readouts = []
    for t, x_t in enumerate(x):
        e_t = params.embed_w * x_t + params.embed_b
        psi = engine.advance(psi, step_ops(n, cfg.n_layers, cfg.entangler, e_t, params.theta))
        if t < first_kept:
            continue
        hidden = np.tanh(params.dec_w1 @ (params.w_q @ e_t) + params.dec_b1)
        gammas = np.einsum("hps,hs->hp", params.dec_w2, hidden) + params.dec_b2
        exps = engine.expectations(psi)
        if shots:
            exps = np.array([
                shot_mean(e, shots, shot_seed, sample_index, t, i) for i, e in enumerate(exps)
            ])
        readouts.append(gammas @ exps)
    return params.cls_w @ np.concatenate(readouts) + params.cls_b


def kron_logits(tokens, params, cfg, shots=0, shot_seed=0, sample_index=0):
    """Logits from dense Kronecker-product step unitaries (small n only)."""
    return _logits(_Dense(cfg.n_qubits), tokens, params, cfg, shots, shot_seed, sample_index)


def logits(tokens, params, cfg, shots=0, shot_seed=0, sample_index=0, engine=None):
    """Logits from the gate-by-gate engine; pass ``engine`` to reuse its tables."""
    engine = engine or _Strided(cfg.n_qubits)
    return _logits(engine, tokens, params, cfg, shots, shot_seed, sample_index)


def cross_entropy(z: np.ndarray, label: int) -> float:
    m = z.max()
    return float(m + math.log(np.sum(np.exp(z - m))) - z[label])


def loss_and_accuracy(samples, params, cfg, shots=0, shot_seed=0):
    """(mean cross-entropy, accuracy) as `trainer.evaluate_samples` defines them."""
    engine = _Strided(cfg.n_qubits)
    loss = correct = 0.0
    for index, s in enumerate(samples):
        z = logits(s.tokens, params, cfg, shots, shot_seed, index, engine)
        loss += cross_entropy(z, s.label)
        correct += int(np.argmax(z)) == s.label
    return loss / len(samples), correct / len(samples)


class ReferenceClock:
    """A fixed amount of work from this module: the strided engine advancing
    an n-qubit register by ``steps`` steps at fixed angles.

    A shared virtual machine can change speed by up to 2x within seconds.
    This work mixes interpreter overhead and small-array arithmetic the
    way the package's kernels do, so it slows down with them; timings
    divided by a reading taken next to them are steady where raw seconds
    are not.  Its code must never change, or readings before and after
    the change stop being comparable.
    """

    def __init__(self, n_qubits: int, steps: int):
        self.engine = _Strided(n_qubits)
        rng = np.random.default_rng(0)
        self.ops = step_ops(n_qubits, 2, "ring", rng.uniform(0, 1, n_qubits),
                            rng.uniform(-math.pi, math.pi, 4 * n_qubits))
        self.steps = steps
        self.read()  # the first reading also builds the CNOT permutations

    def read(self) -> float:
        psi = np.zeros(1 << self.engine.n, dtype=complex)
        psi[0] = 1.0
        start = time.perf_counter()
        for _ in range(self.steps):
            psi = self.engine.advance(psi, self.ops)
            self.engine.expectations(psi)
        return time.perf_counter() - start
