"""Independent oracles for the test suite.

Everything here is deliberately brute force: dense Kronecker matrices,
explicit matrix products, and straight-line re-implementations.  None of
it shares code with the package's factored step engine, so agreement
is evidence, not tautology.  `dense_step` is the gate-by-gate reference
of one recurrence step at every register size: it contracts one gate at
a time with the columns it is given, so no 2**n x 2**n matrix is built
unless the columns are the identity.  `shot_stream` and
`sample_term_mean` are the one-coordinate shot reference, with the
Philox layout written out.  Qubit 0 is the least-significant bit of the
basis index, matching the package convention: the dense operator for a
per-qubit list [op_0 ... op_{n-1}] is kron(op_{n-1}, ..., op_0).
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def dense_ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def dense_rz(angle: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle), np.exp(+0.5j * angle)])


def dense_1q(matrix: np.ndarray, target: int, n_qubits: int) -> np.ndarray:
    ops = [I2] * n_qubits
    ops[target] = matrix
    out = ops[n_qubits - 1]
    for j in range(n_qubits - 2, -1, -1):
        out = np.kron(out, ops[j])
    return out


def cnot_image(i, control: int, target: int):
    """Basis index (int or integer array) that CNOT maps i to: the target
    bit flips where the control bit is set.  The map is its own inverse."""
    return i ^ (((i >> control) & 1) << target)


def dense_cnot(control: int, target: int, n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        out[cnot_image(i, control, target), i] = 1.0
    return out


def dense_pauli_string(labels: str) -> np.ndarray:
    out = PAULI[labels[-1]]
    for ch in labels[-2::-1]:
        out = np.kron(out, PAULI[ch])
    return out


def apply_dense_1q(matrix: np.ndarray, target: int, u: np.ndarray) -> np.ndarray:
    """``dense_1q(matrix, target, n) @ u`` for a (2**n, cols) u, as a
    contraction on the target's axis of the row index split (high, bit, low)."""
    dim, cols = u.shape
    view = u.reshape(dim >> (target + 1), 2, 1 << target, cols)
    return np.einsum("ab,hblc->halc", matrix, view).reshape(dim, cols)


def apply_dense_cnot(control: int, target: int, u: np.ndarray) -> np.ndarray:
    """``dense_cnot(control, target, n) @ u``: a permutation of u's rows,
    gathered through `cnot_image` (its own inverse)."""
    return u[cnot_image(np.arange(u.shape[0]), control, target)]


def dense_step(cfg, theta: np.ndarray, embedding: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One recurrence step applied to a (2**n, cols) array u: encoding RY
    on each qubit, then per layer RY/RZ per qubit and the CNOT entangler.
    Each gate is applied as the contraction or row gather that equals
    multiplying by its `dense_1q` / `dense_cnot` matrix."""
    n = cfg.n_qubits
    u = np.asarray(u, dtype=np.complex128)
    for j in range(n):
        u = apply_dense_1q(dense_ry(embedding[j]), j, u)
    layered = np.asarray(theta, dtype=np.float64).reshape(cfg.n_layers, n, 2)
    for layer in range(cfg.n_layers):
        for j in range(n):
            u = apply_dense_1q(dense_ry(layered[layer, j, 0]), j, u)
            u = apply_dense_1q(dense_rz(layered[layer, j, 1]), j, u)
        if n > 1:
            if cfg.entangler == "ring":
                pairs = [(j, (j + 1) % n) for j in range(n)]
            else:
                pairs = [(j, j + 1) for j in range(n - 1)]
            for control, target in pairs:
                u = apply_dense_cnot(control, target, u)
    return u


def dense_step_matrix(cfg, theta: np.ndarray, embedding: np.ndarray) -> np.ndarray:
    """Full 2**n x 2**n matrix of one recurrence step: `dense_step` of the
    identity."""
    return dense_step(cfg, theta, embedding, np.eye(1 << cfg.n_qubits))


def dense_observable_matrix(gammas, labels_list) -> np.ndarray:
    terms = [g * dense_pauli_string(labels) for g, labels in zip(gammas, labels_list)]
    return np.sum(terms, axis=0)


def dense_expectation(amps: np.ndarray, matrix: np.ndarray) -> float:
    return float(np.real(np.conj(amps) @ matrix @ amps))


def dense_recurrence_readouts(tokens, params, cfg, step_thetas=None) -> np.ndarray:
    """(T, n_heads) readouts computed entirely with dense matrices and a
    straight-line decoder re-evaluation; the independent model oracle.
    Step t (0-based) runs the circuit angles step_thetas[t] of a
    (T, 2 * n_layers * n_qubits) array when one is given, params.theta otherwise."""
    from qlam.observables import default_pauli_pool

    pool = default_pauli_pool(cfg.n_qubits)
    dim = 1 << cfg.n_qubits
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    x = np.asarray(tokens, dtype=np.float64)
    readouts = np.empty((x.shape[0], cfg.n_heads))
    for t, x_t in enumerate(x):
        e_t = params.embed_w * x_t + params.embed_b
        theta = params.theta if step_thetas is None else step_thetas[t]
        psi = dense_step_matrix(cfg, theta, e_t) @ psi
        q_t = params.w_q @ e_t
        for h in range(cfg.n_heads):
            hidden = np.tanh(params.dec_w1[h] @ q_t + params.dec_b1[h])
            gam = params.dec_w2[h] @ hidden + params.dec_b2[h]
            obs = dense_observable_matrix(gam, pool)
            readouts[t, h] = dense_expectation(psi, obs)
    return readouts


def einsum_decoder(q: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """The decoder as per-head einsums: tanh layer (..., n_heads,
    decoder_hidden) and observable weights (..., n_heads, pool_size) of
    queries (..., d_query).  The reference for `cell.decoder`."""
    hidden = np.einsum("hsq,...q->...hs", params.dec_w1, q)
    hidden += params.dec_b1
    np.tanh(hidden, out=hidden)
    gammas = np.einsum("hps,...hs->...hp", params.dec_w2, hidden)
    gammas += params.dec_b2
    return hidden, gammas


def einsum_decoder_backward(w, tokens, embeddings, queries, exps, params):
    """Backprop of one sequence's readout weights w (S, n_heads) through
    the decoder, query and embedding of its S kept steps, as per-head
    einsums.  Returns the gradients of dec_w1, dec_b1, dec_w2, dec_b2,
    w_q, embed_w and embed_b, and the injection coefficients
    c[t, i] = sum_h w[t, h] gamma_t[h, i].  The reference for
    `gradients._decoder_backward`."""
    hidden, gammas = einsum_decoder(queries, params)
    dgam = w[:, :, None] * exps[:, None, :]
    grads = {
        "dec_w2": np.einsum("thp,ths->hps", dgam, hidden),
        "dec_b2": dgam.sum(axis=0),
    }
    du = np.einsum("hps,thp->ths", params.dec_w2, dgam)
    du -= np.einsum("ths,ths,ths->ths", du, hidden, hidden)  # tanh' = 1 - hidden**2
    grads["dec_w1"] = np.einsum("ths,tq->hsq", du, queries)
    grads["dec_b1"] = du.sum(axis=0)
    dq = np.einsum("hsq,ths->tq", params.dec_w1, du)
    grads["w_q"] = np.einsum("tq,tn->qn", dq, embeddings)
    de = dq @ params.w_q
    grads["embed_w"] = np.einsum("tn,t->n", de, tokens)
    grads["embed_b"] = de.sum(axis=0)
    return grads, np.einsum("th,thp->tp", w, gammas)


# ---------------------------------------------------------------------------
# Shot sampling, one coordinate at a time.
# ---------------------------------------------------------------------------

_U64 = 0xFFFFFFFFFFFFFFFF


def shot_stream(seed: int, sample_index: int, timestep: int, term_index: int) -> np.random.Generator:
    """A fresh Philox stream for one (seed, sample, timestep, term)
    coordinate: key ``(seed, sample_index)``, 256-bit counter words
    ``[0, 0, term_index, timestep]``, so draws advance the low words and
    distinct coordinates never overlap.  The reference for
    `observables.sample_means`."""
    key = np.array([seed & _U64, sample_index & _U64], dtype=np.uint64)
    counter = np.array([0, 0, term_index & _U64, timestep & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def sample_term_mean(expectation: float, m: int, rng: np.random.Generator) -> float:
    """Average of m simulated +-1 measurement outcomes with mean ``expectation``."""
    p_plus = min(max(0.5 * (1.0 + expectation), 0.0), 1.0)
    n_plus = int(np.count_nonzero(rng.random(m) < p_plus))
    return (2 * n_plus - m) / m


# ---------------------------------------------------------------------------
# Numerical differentiation.
# ---------------------------------------------------------------------------

def central_diff(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def rel_err(a: float, b: float, floor: float = 1e-4) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_grad_dict(loss_fn, params, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient for every entry of a QlamParams-like
    object with ndarray attributes, mutating in place and restoring."""
    out = {}
    for key, arr in params.as_dict().items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * h)
        out[key] = g
    return out


# ---------------------------------------------------------------------------
# Corrupted inputs.
# ---------------------------------------------------------------------------

def mutate(blob: bytes, edits: list[tuple[int, int]], length: int | None = None) -> bytes:
    """blob with byte ``pos % len(blob)`` set to value for each (pos, value)
    of edits, then cut, or padded with zero bytes, to length if given."""
    data = bytearray(blob)
    for pos, value in edits:
        data[pos % len(data)] = value
    if length is not None:
        data = data[:length].ljust(length, b"\0")
    return bytes(data)


def mutations(blob: bytes):
    """A hypothesis strategy of `mutate`d copies of blob: up to six bytes
    overwritten, then, half the time, a length up to 8 bytes past blob's."""
    from hypothesis import strategies as st

    edits = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)), max_size=6)
    return st.builds(mutate, st.just(blob), edits, st.one_of(st.none(), st.integers(0, len(blob) + 8)))
