"""Simulated shot noise on the readout.

Replaces exact expectations with finite-shot estimates and shows the two
properties the estimator must have: no bias, and statistical error
falling like 1/sqrt(shots). The shot stream is counter-based, so any
(sample, term, timestep) cell is reproducible in isolation.
"""

import numpy as np

from qlam.cell import measure
from qlam.observables import ShotConfig, default_pauli_pool, pauli_table


def main():
    rng = np.random.default_rng(3)
    n = 2
    # the product state of RY(a_q)|0> on every qubit q, qubit 0 the last
    # Kronecker factor
    state = np.ones(1, dtype=np.complex128)
    for a in rng.uniform(0, np.pi, n):
        state = np.kron([np.cos(a / 2), np.sin(a / 2)], state)

    pool = default_pauli_pool(n)
    table = pauli_table(pool)
    gammas = rng.normal(size=len(pool))
    exps = table.expectations(state[None])[0]
    exact = gammas @ exps
    print(f"exact readout: {exact:+.6f}")

    def sampled(cfg, sample_index):
        # m-shot means of every pool term at timestep 0, weighted
        return gammas @ measure(state[None], table, cfg, sample_index, 0)[0]

    reps = 200
    print(f"{'shots':>7} {'mean of {0} reps'.format(reps):>18} "
          f"{'measured std':>13} {'predicted std':>14}")
    stds, shots_axis = [], (100, 1000, 10_000)
    for m in shots_axis:
        cfg = ShotConfig(mode="sampled", shots_per_term=m, rng_seed=9)
        draws = np.array([sampled(cfg, r) for r in range(reps)])
        # sqrt(sum_i gamma_i^2 (1 - <P_i>^2) / m)
        predicted = np.sqrt(np.sum(gammas**2 * (1.0 - exps**2)) / m)
        print(f"{m:>7} {draws.mean():>18.6f} {draws.std(ddof=1):>13.6f} "
              f"{predicted:>14.6f}")
        assert abs(draws.mean() - exact) < 5 * predicted / np.sqrt(reps)
        stds.append(draws.std(ddof=1))

    slope = np.polyfit(np.log10(shots_axis), np.log10(stds), 1)[0]
    print(f"log-log slope of std vs shots: {slope:.3f} (ideal -0.5)")

    # Same seed and indices give the same draw; a different sample index
    # gives an independent one.
    cfg = ShotConfig(mode="sampled", shots_per_term=500, rng_seed=9)
    a = sampled(cfg, 0)
    b = sampled(cfg, 0)
    c = sampled(cfg, 1)
    print(f"replayed draw: {a:+.6f} == {b:+.6f}, fresh index: {c:+.6f}")
    assert a == b and a != c


if __name__ == "__main__":
    main()
