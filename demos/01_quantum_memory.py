"""Statevector memory basics.

Builds a small register (a plain array of 2**n complex amplitudes),
applies rotation and entangling gates to it by hand, and shows that
every operation preserves the state norm exactly as a unitary must.
Also demonstrates the basis convention: qubit 0 is the least
significant bit of the basis index.
"""

import numpy as np

from qlam.circuits import new_zero_state


def apply_ry(state, n, target, angle):
    """RY(angle) on one qubit: the 2x2 rotation contracted with that
    qubit's axis of the amplitudes viewed as (2**(n-1-target), 2, 2**target)."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    view = state.reshape(1 << (n - 1 - target), 2, 1 << target)
    return np.einsum("ab,hbl->hal", [[c, -s], [s, c]], view).reshape(-1)


def apply_cnot(state, control, target):
    """CNOT as an index gather: the target bit flips where the control
    bit is set."""
    i = np.arange(state.size)
    return state[i ^ (((i >> control) & 1) << target)]


def main():
    state = new_zero_state(3)
    print("fresh |000> register, 8 amplitudes:")
    print(" ", np.round(state, 3))

    # A pi rotation on qubit 0 flips it: the population moves from index
    # 0b000 to index 0b001, confirming qubit 0 is the low bit.
    state = apply_ry(state, 3, 0, np.pi)
    probs = np.abs(state) ** 2
    print("after RY(pi) on qubit 0, probability mass sits at index",
          int(np.argmax(probs)))

    # CNOT with control 0 copies the flip onto qubit 2: index 0b101.
    state = apply_cnot(state, 0, 2)
    probs = np.abs(state) ** 2
    print("after CNOT(0 -> 2), probability mass sits at index",
          int(np.argmax(probs)))

    # Norm is preserved through a long random gate stream.
    rng = np.random.default_rng(7)
    for _ in range(5000):
        state = apply_ry(state, 3, int(rng.integers(3)),
                         float(rng.uniform(-np.pi, np.pi)))
        c, t = rng.choice(3, size=2, replace=False)
        state = apply_cnot(state, int(c), int(t))
    drift = abs(np.linalg.norm(state) - 1.0)
    print(f"norm drift after 10000 random gates: {drift:.2e}")
    assert drift < 1e-12


if __name__ == "__main__":
    main()
