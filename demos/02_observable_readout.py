"""Query-conditioned observable readout.

The readout side of the model: a classical decoder turns a query vector
into real coefficients over a fixed Pauli pool, and the head's value is
the expectation of that Hermitian combination: its coefficients dotted
with the pool's expectations. This script prints the
pool, decodes observables for a few random queries, and checks
Hermiticity and the mixing bound |<O>| <= sum |gamma_i|.
"""

import numpy as np

from qlam.cell import CellConfig, decoder, init_qlam_params
from qlam.observables import pauli_table


def dense(labels, n):
    mats = {
        "I": np.eye(2), "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Z": np.diag([1.0, -1.0]).astype(complex),
    }
    out = np.array([[1.0 + 0j]])
    # Kronecker order: the last factor acts on qubit 0 (the low bit).
    for q in reversed(range(n)):
        out = np.kron(out, mats[labels[q]])
    return out


def main():
    cfg = CellConfig(n_qubits=3, n_heads=2, d_query=4, decoder_hidden=8,
                     n_classes=4)
    print(f"Pauli pool for {cfg.n_qubits} qubits "
          f"({len(cfg.pool)} terms):")
    for term in cfg.pool:
        print("  ", term)

    rng = np.random.default_rng(11)
    params = init_qlam_params(rng, cfg)

    # the product state of RY(a_q)|0> on every qubit q, qubit 0 the last
    # Kronecker factor
    state = np.ones(1, dtype=np.complex128)
    for a in rng.uniform(0, np.pi, cfg.n_qubits):
        state = np.kron([np.cos(a / 2), np.sin(a / 2)], state)
    # the pool expectations are shared by every head and query
    exps = pauli_table(cfg.pool).expectations(state[None])[0]

    for trial in range(3):
        q_vec = rng.normal(size=cfg.d_query)
        gammas = decoder(q_vec, params)[1]
        for head in range(cfg.n_heads):
            matrix = sum(g * dense(t, cfg.n_qubits)
                         for g, t in zip(gammas[head], cfg.pool))
            defect = np.abs(matrix - matrix.conj().T).max()
            value = gammas[head] @ exps
            bound = np.abs(gammas[head]).sum()
            print(f"query {trial} head {head}: readout {value:+.4f}, "
                  f"|gamma|_1 bound {bound:.4f}, "
                  f"Hermiticity defect {defect:.1e}")
            assert defect < 1e-14 and abs(value) <= bound + 1e-12


if __name__ == "__main__":
    main()
