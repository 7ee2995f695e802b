"""Pauli strings, their exact expectation values, and shot sampling.

A Pauli string is its label, a ``str`` over I/X/Y/Z whose character j
acts on qubit j, and a pool is a tuple of labels; `pauli_table` builds
and caches the tables of a pool, the only thing built from it.  A
readout observable is a real-weighted sum of Pauli strings
``O = sum_i gamma_i P_i``.  Real weights on Hermitian terms make ``O``
Hermitian, so every expectation value is real and the readout has valid
measurement semantics.  There is no observable object: the weights stay
a vector and ``<O> = gammas @ <P>``, with the per-string expectations
``<P>`` from `PauliTable`.  The tables never build the ``2**n x 2**n``
matrix: each string is a sign row and an index flip, and a whole pool is
evaluated or applied on a stack of states at once.

Shot sampling averages m simulated +-1 outcomes per string, drawn from
counter-based Philox streams (Salmon et al., SC'11): the key is
the validated ``(seed, sample_index)`` as given (`ShotConfig` and
`cell.run` refuse either outside [0, MAX_SEED]) and the counter starts
at ``(timestep, term)``, so parallel evaluation of different samples or
timesteps can never perturb each other's draws.  `sample_means`, which
`cell.measure` calls, draws a whole stack of coordinates from one
generator re-pointed at each coordinate's counter, and counts each
coordinate's raw 64-bit words below an integer threshold
(`plus_thresholds`) instead of making doubles: a word falls below it
exactly when the double numpy draws from that word falls below the
outcome's probability.  The tests check it bit for bit
against a fresh generator per coordinate drawing doubles.  The m-shot
estimate of ``<O>`` has variance ``sum_i gamma_i^2 (1 - <P_i>^2) / m``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuits import check_register
from .errors import ConfigError, check_fields

# Weights of the (re, im) axis that turn sum_c a_c b_(1-c) into Im(conj(a) b).
_IM_WEIGHTS = np.array([1.0, -1.0])


class PauliTable:
    """Sign rows and index flips of a list of Pauli strings on one register.

    With f the qubits a string acts on with X or Y and z those with Z or
    Y, the string is ``(P psi)[j] = (-i)**#Y * (-1)**|j & z| * psi[j ^ f]``.
    Strings with f = 0 (only I and Z) share one real sign table, so their
    expectations on a stack of states are one contraction with |psi|^2.
    Every other string flips the bits of f: a reversed-axis view of the
    state reshaped to one axis per qubit, times its sign row and phase.
    Both methods take a (S, 2**n) stack of states, one per row.
    """

    def __init__(self, labels: tuple[str, ...]):
        n = len(labels[0])
        self.n_qubits = n
        self.size = len(labels)
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # bits[i, q]: qubit q of i

        def sign_row(on: list[bool]) -> np.ndarray:
            return 1.0 - 2.0 * (bits[:, on].sum(axis=1) & 1)

        diag, signs = [], []
        # (term, flipped axes of the per-qubit view, sign row or None, phase)
        self.flips: list[tuple[int, tuple, np.ndarray | None, complex]] = []
        for k, label in enumerate(labels):
            z = [ch in "ZY" for ch in label]
            if not any(ch in "XY" for ch in label):
                diag.append(k)
                signs.append(sign_row(z))
                continue
            # qubit axis a of the per-qubit view is qubit n - 1 - a
            flip = tuple(slice(None, None, -1) if label[n - 1 - a] in "XY" else slice(None)
                         for a in range(n))
            sign = sign_row(z).reshape((2,) * n) if any(z) else None
            self.flips.append((k, flip, sign, (-1j) ** label.count("Y")))
        self.diag = diag
        self.signs = np.array(signs).reshape(len(diag), 1 << n)

    def _qubit_view(self, amps: np.ndarray) -> np.ndarray:
        return amps.reshape((amps.shape[0],) + (2,) * self.n_qubits)

    def expectations(self, states: np.ndarray) -> np.ndarray:
        """(S, len(labels)) real expectations <psi_s|P_k|psi_s>.

        Every entry is reduced on its own row and term only, so it does
        not depend on which other states or strings share the call.  A
        one-row stack would reduce along another einsum path, and differ
        in the last bit from the same row in a taller call, so it is
        evaluated as a pair of rows."""
        if states.shape[0] == 1:
            return self.expectations(np.concatenate([states, states]))[:1]
        states = np.ascontiguousarray(states)
        n = self.n_qubits
        out = np.empty((states.shape[0], self.size))
        w = states.view(np.float64)
        if self.diag:
            pairs = w.reshape(states.shape[0], -1, 2)
            probs = np.einsum("sdc,sdc->sd", pairs, pairs)
            out[:, self.diag] = np.einsum("sd,kd->sk", probs, self.signs)
        w = w.reshape((states.shape[0],) + (2,) * n + (2,))
        axes, c = list(range(1, n + 1)), n + 1
        for k, flip, sign, phase in self.flips:
            # Re(phase * <psi| sign * flipped psi>): phase 1 or -i gives +Re
            # or +Im of the inner product, phase -1 or i their negatives
            imag = phase.real == 0.0
            flipped = w[(slice(None),) + flip + (slice(None, None, -1) if imag else slice(None),)]
            ops = [w, [0, *axes, c], flipped, [0, *axes, c]]
            if sign is not None:
                ops += [sign, axes]
            if imag:
                ops += [_IM_WEIGHTS, [c]]
            value = np.einsum(*ops, [0])
            out[:, k] = -value if phase.real - phase.imag < 0.0 else value
        return out

    def apply(self, states: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """(S, 2**n) stack of sum_k coeffs[s, k] P_k |psi_s>, as a new array."""
        out = states * np.einsum("sk,kd->sd", coeffs[:, self.diag], self.signs)
        view, src = self._qubit_view(out), self._qubit_view(states)
        lead = (-1,) + (1,) * self.n_qubits
        for k, flip, sign, phase in self.flips:
            term = src[(slice(None),) + flip]
            if sign is not None:
                term = term * sign
            coeff = coeffs[:, k] if phase == 1 else coeffs[:, k] * phase
            view += coeff.reshape(lead) * term
        return out


@functools.lru_cache(maxsize=64)
def pauli_table(labels: tuple[str, ...]) -> PauliTable:
    """Tables of a tuple of Pauli labels, built on first use and cached."""
    return PauliTable(labels)


# ---------------------------------------------------------------------------
# Shot sampling.
# ---------------------------------------------------------------------------

# The most shots per term a readout takes: a term's mean over 2**20 shots
# has a standard error of at most 2**-10, finer than any readout here
# needs, and a mistyped count is refused by the config, not by an
# allocation.
MAX_SHOTS = 1 << 20
# The largest seed or sample index: one 64-bit Philox key word.
MAX_SEED = (1 << 64) - 1
# Raw words per block of draws in `sample_means`: a step's terms share
# one block up to this budget, so the block stops growing with pool size
# times shots past it.  At least MAX_SHOTS, so one term's draws fit a row.
SHOT_WORDS = MAX_SHOTS


@dataclass(frozen=True)
class ShotConfig:
    """Measurement settings: exact expectations or an m-shot estimator."""

    mode: str = "exact"  # "exact" or "sampled"
    shots_per_term: int = 1024
    rng_seed: int = 0

    # int ranges for `check_fields`
    RANGES = {"shots_per_term": (0, MAX_SHOTS), "rng_seed": (0, MAX_SEED)}

    def __post_init__(self):
        check_fields(self)
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"shot mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.mode == "sampled" and self.shots_per_term < 1:
            raise ConfigError(
                f"shots_per_term must be >= 1 in sampled mode, got {self.shots_per_term}"
            )


def stream_key(seed: int, sample_index: int) -> list[int]:
    """Philox key words of every shot stream of one sample,
    (seed, sample_index), as Python ints in [0, MAX_SEED]."""
    return [seed, sample_index]


def stream_counter(timestep: int, term_index: int) -> list[int]:
    """Start of the (timestep, term) stream's 256-bit Philox counter,
    ``timestep * 2**192 + term_index * 2**128``, as four Python int words,
    lowest first.  Draws advance the low words, so distinct coordinates
    can never overlap."""
    return [0, 0, term_index, timestep]


def plus_thresholds(p_plus: np.ndarray) -> np.ndarray:
    """uint64 thresholds ``ceil(p * 2**53) << 11`` of probabilities p in
    [0, 1].  numpy draws the double ``(x >> 11) * 2**-53`` from a raw
    Philox word x, and that double is below p exactly when x is below the
    threshold, as ``x >> 11`` is an integer.  p = 1, whose threshold 2**64
    no word reaches, wraps to 0; `sample_means` counts all its draws."""
    return np.ceil(p_plus * 2.0**53).astype(np.uint64) << np.uint64(11)


def sample_means(exps: np.ndarray, m: int, seed: int, sample_index: int, t0: int) -> np.ndarray:
    """(S, P) m-shot means of (S, P) expectations at timesteps t0, t0+1, ...

    Entry (s, k) is the mean of m +-1 outcomes, +1 where a uniform draw
    falls below ``p = (1 + exps[s, k]) / 2``, clipped to [0, 1] (a NaN p
    counts no draw), from the Philox stream that starts at
    ``stream_counter(t0 + s, k)`` under ``stream_key(seed, sample_index)``.
    One generator serves the whole stack: each coordinate assigns it the
    state of a fresh stream, whose counter is the coordinate's start and
    whose 4-word output buffer is spent, all Python ints, which the state
    setter reads fastest.  Each term's m raw words fill one row of a block
    (at most SHOT_WORDS words, one step's terms when they fit), and one
    compare per block counts every row's words below its
    `plus_thresholds`: the same outcomes as comparing the doubles, bit for
    bit.  m is 1..MAX_SHOTS, as `ShotConfig` checks.
    """
    key = stream_key(seed, sample_index)
    bits = np.random.Philox(key=np.array(key, dtype=np.uint64))
    # never read back, so it stays a fresh stream's state; buffer_pos 4 is
    # spent: the first draw generates from the counter
    state = {"bit_generator": "Philox", "state": {"key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    p_plus = np.fmin(np.fmax(0.5 * (1.0 + exps), 0.0), 1.0)  # NaN to 0
    thresholds = plus_thresholds(p_plus)
    terms = min(exps.shape[1], SHOT_WORDS // m)  # rows per block
    block = np.empty((terms, m), dtype=np.uint64)
    below = np.empty(block.shape, dtype=bool)
    n_plus = np.empty(exps.shape, dtype=np.int64)
    for s, t in enumerate(range(t0, t0 + exps.shape[0])):
        for lo in range(0, exps.shape[1], terms):
            rows = min(terms, exps.shape[1] - lo)
            for row in range(rows):
                state["state"]["counter"] = stream_counter(t, lo + row)
                bits.state = state
                block[row] = bits.random_raw(m)
            np.less(block[:rows], thresholds[s, lo:lo + rows, None], out=below[:rows])
            n_plus[s, lo:lo + rows] = below[:rows].sum(axis=1)
    n_plus[p_plus == 1.0] = m
    return (2 * n_plus - m) / m


# ---------------------------------------------------------------------------
# Default measurement pool.
# ---------------------------------------------------------------------------

def default_pauli_pool(n_qubits: int) -> tuple[str, ...]:
    """Labels of Z and X on every qubit plus nearest-neighbour ZZ ring pairs.

    ``label[j]`` acts on qubit j.  Ordering: Z_0..Z_{n-1}, X_0..X_{n-1},
    then Z_j Z_{j+1} around the ring.  On two qubits the ring closes on
    itself, so the single pair appears once; one qubit has no pairs.
    Pool size is 2n plus the number of distinct adjacent pairs.  Built
    once per register size, after `check_register`, so a bad n_qubits
    raises ConfigError, not a cache's TypeError.
    """
    return _pool(check_register(n_qubits))


@functools.cache
def _pool(n_qubits: int) -> tuple[str, ...]:
    def single(label: str, j: int) -> str:
        chars = ["I"] * n_qubits
        chars[j] = label
        return "".join(chars)

    pool = [single("Z", j) for j in range(n_qubits)]
    pool += [single("X", j) for j in range(n_qubits)]
    if n_qubits >= 2:
        seen = set()
        for j in range(n_qubits):
            pair = frozenset((j, (j + 1) % n_qubits))
            if len(pair) == 2 and pair not in seen:
                seen.add(pair)
                chars = ["I"] * n_qubits
                chars[j] = "Z"
                chars[(j + 1) % n_qubits] = "Z"
                pool.append("".join(chars))
    return tuple(pool)
