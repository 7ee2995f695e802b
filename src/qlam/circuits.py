"""Input-encoding and variational circuits composing one recurrence step.

The memory of an n-qubit register is a plain (2**n,) complex128 array of
unit norm (`new_zero_state`); basis index i encodes the computational
basis state with qubit 0 as the least-significant bit of i.

A step applies the encoding unitary first, then the trainable ansatz:
``psi <- U_var(theta) U_enc(e_t) psi``.  Encoding is RY angle rotation of
the raw embedding value on each qubit.  Each ansatz layer is RY and RZ
on every qubit followed by a CNOT entangler.  ``theta`` is a flat angle
vector, viewed as (n_layers, n_qubits, 2) with RY at [..., 0] and RZ at
[..., 1].  Every step runs the same theta, so an engine holds one angle
set; the shift oracle in `gradients` moves an angle at every step.
`cell.CellConfig` sets the circuit's shape; `Steps` reads it off its arrays.

`Steps` is the step engine at every register size, and it owns the whole
sweep over a stack of B equal-length sequences, advanced together as one
(B, 2**n) array; a single sequence is B = 1.  `Steps.sweep`, the one
loop that runs the steps, evolves |0...0> (or a given start state) one
window of K = `CHECKPOINT_INTERVAL` steps at a time and hands each
window's states to a readout callback; for a gradient it also keeps the
last window when all of it is read out, and stores the end state of
every other window.  `Steps.adjoint` walks back from step T,
starting from the kept window, and takes the kets of every other one
back from its end state by the inverse steps, in the same backward sweep
as the adjoint rows (Jones & Gacon, arXiv:2009.02823), reading two angle
derivatives per qubit, layer and step (`Steps.cross`).  A forward-only
sweep stores neither.  Memory is at most the B * T/K end states, one
window of B swept sequences (the sweep's, or the kept one), one window's
layer 0, built in one call (per row and step, d**2 float64 per factor
group of d amplitudes: at most 1.25x the float64 a state holds, and 768
against its 8,192 at n = 12; folded, one phase per amplitude), and a
walk over kets of at most max(B * 2**n, WALK_AMPLITUDES) amplitudes plus
n_layers ket and n_layers adjoint rows per ket: O(B * (K + T/K) * 2**n)
for any sequence length.  A layer's rotations are a tensor product, so
with a state viewed as a tensor over k groups of qubits (two up to
n = 10, three from n = 11; `factor_widths`) they are k small real RY
matrix products on the state's float64 view, one per group, and the
layer's RZ gates are one diagonal phase.  The encoding folds into layer
0, and the CNOT entangler is one index gather, which also applies the
phase.  Only layer 0 changes from step to step; the rest of a step is
fixed by theta.  On registers of at most FOLD_QUBITS qubits, where a
step costs numpy calls rather than arithmetic, the engine carries each
row in the Y eigenbasis V = v (x) ... (x) v, v = [[1, 1], [i, -i]] /
sqrt(2) (`y_basis`), where the encoding RY(e_t) and layer 0's RY(a),
which turn about the same axis, are one diagonal phase per row and step:
a forward step is one multiply by it and one product with the fixed
tail, V^H T V, built per `Steps` (`Steps.fold`).  The adjoint folds the
same way: one matrix built on its first run gives every layer's read
point and layer 0's in the eigenbasis, so a rewind step, of a ket or of
an adjoint row, is one product and one conjugate-phase multiply, and the
kept window's rows take the same product (`Steps.reads`).  The basis
stays inside `Steps`: the start state, the readout, the final states,
the kets handed to the injection callback and the read points `cross`
takes are computational, changed out of the basis once per window or
walk sub-block, and the start state and the injections changed into
it.  Folded, a step or a rewind is two numpy calls into buffers built
once per window or walk sub-block, and allocates nothing: a step's
multiply overwrites one scratch block and its product writes the step's
slot of the window's rows (the sweep's own rows for a step not read
out), and a rewind's product writes the step's slot of read points and
its multiply overwrites the walk's own rows, the adjoint rows or the ket
taken out of `checkpoints`.  Every array handed to the readout or the
injection callback, the final states, and the kept window the walk reads
are allocated for that use and never written again.  Larger registers
run the layers one by one.  Folded, every stack a
`Steps` walks is zero-padded to whole blocks of READ_ROWS rows
(`Steps.height`).  Every reduction runs on one row of the stack, in an
order that does not depend on B, and every product over rows runs on
blocks of a fixed row count (`block_matmul`, which `cell.decoder`
shares), so a sequence's states and derivatives are bit for bit those of
a B = 1 sweep.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# The largest register the simulator accepts.
MAX_QUBITS = 12
# The CNOT patterns of an ansatz layer (`entangler_pairs`).
ENTANGLERS = ("ring", "linear")
# The sweep runs in windows of this many steps, aligned at multiples of it.
CHECKPOINT_INTERVAL = 32
# The adjoint walks the kets of at most `walk_rows(n)` rows (sequences x
# steps) at a time, which bounds the memory of its walk, and of the
# adjoint rows it reads, beside the states of its window.
WALK_AMPLITUDES = 1 << 12


def check_register(n_qubits: int) -> int:
    """n_qubits as a plain int; ConfigError unless it is an int (a bool is
    not) in [1, MAX_QUBITS]."""
    integer = isinstance(n_qubits, numbers.Integral) and not isinstance(n_qubits, bool)
    if not (integer and 1 <= n_qubits <= MAX_QUBITS):
        raise ConfigError(f"n_qubits must be an int in [1, {MAX_QUBITS}], got {n_qubits!r}")
    return int(n_qubits)


def new_zero_state(n_qubits: int) -> np.ndarray:
    """Return the (2**n_qubits,) amplitudes of |0...0>."""
    amps = np.zeros(1 << check_register(n_qubits), dtype=np.complex128)
    amps[0] = 1.0
    return amps


def walk_rows(n_qubits: int) -> int:
    """States of 2**n_qubits amplitudes that fill WALK_AMPLITUDES, at
    least one: the steps of a one-sequence adjoint walk sub-block, and
    the most sequences a batched pass takes (the trainer's chunk).  The
    sweep builds layer 0 a window at a time whatever it is."""
    return max(1, WALK_AMPLITUDES >> n_qubits)


def entangler_pairs(n_qubits: int, entangler: str) -> list[tuple[int, int]]:
    """(control, target) pairs of one entangling sublayer of a ring or
    linear entangler, in application order; ConfigError for an entangler
    outside ENTANGLERS, the one check of the name."""
    if entangler not in ENTANGLERS:
        raise ConfigError(f"entangler must be {' or '.join(map(repr, ENTANGLERS))}, got {entangler!r}")
    if n_qubits == 1:
        return []
    if entangler == "ring":
        return [(j, (j + 1) % n_qubits) for j in range(n_qubits)]
    return [(j, j + 1) for j in range(n_qubits - 1)]


def kron_qubits(u: np.ndarray) -> np.ndarray:
    """(..., r**m, c**m) Kronecker products of (..., m, r, c) per-qubit
    matrices, qubit 0 the last, least significant factor (m = 0 gives
    1 x 1 identities)."""
    out = np.ones(u.shape[:-3] + (1, 1), dtype=u.dtype)
    for j in range(u.shape[-3]):
        rows, cols = u.shape[-2] * out.shape[-2], u.shape[-1] * out.shape[-1]
        out = (u[..., j, :, None, :, None] * out[..., None, :, None, :]).reshape(
            out.shape[:-2] + (rows, cols))
    return out


def layer_rotations(theta: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n_layers, n_qubits, 2, 2) real matrices RY(a) and the
    (n_layers, n_qubits, 2) diagonals of RZ(b) of every ansatz layer of
    the angles theta: qubit j's gate in layer l is diag(rz[l, j]) @ ry[l, j]."""
    half = 0.5 * np.asarray(theta, dtype=np.float64).reshape(-1, n_qubits, 2)
    c, s = np.cos(half[..., 0]), np.sin(half[..., 0])
    down = np.exp(-1j * half[..., 1])  # RZ(b) scales |0> by e^{-ib/2}, |1> by its conjugate
    ry = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    return ry, np.stack([down, down.conj()], -1)


def factor_widths(n_qubits: int) -> tuple[int, ...]:
    """Qubits in each factor group of a rotation layer, most significant
    first: two halves up to 10 qubits, and from 11 three groups, whose
    smaller Kronecker factors cost fewer multiply-adds per real or
    imaginary part of an amplitude."""
    if n_qubits <= 10:
        return n_qubits - n_qubits // 2, n_qubits // 2
    return n_qubits - 8, 4, 4


# Registers of at most this many qubits carry each row in the Y
# eigenbasis (`y_basis`) and advance a step as one multiply by layer 0's
# phases and one product with the step's fixed tail (`Steps.fold`), a
# real (2 * 2**n)**2 matrix, and rewind it as one product with every
# layer's read points (`Steps.reads`) and one conjugate-phase multiply;
# larger ones run both passes layer by layer.  The bound is the largest
# register where the dense products time faster than the layered passes
# (tools/time_engine.py times both).
FOLD_QUBITS = 5
# Rows per product of a folded stack with `Steps.tail`, `Steps.reads` or
# a change of basis (`Steps.change`, through `block_matmul`).
READ_ROWS = 4


def padded(count: int, rows: int = READ_ROWS) -> int:
    """count rounded up to a whole number of blocks of rows."""
    return -(-count // rows) * rows


def block_matmul(x: np.ndarray, w: np.ndarray, rows: int, out: np.ndarray | None = None) -> np.ndarray:
    """The (padded(R, rows), m) product of x (R, k) with w (k, m), into out
    if given, as one GEMM per block of `rows` rows, the last one
    zero-padded unless x is whole blocks high, as `Steps` stacks are.  A
    BLAS call can round a row differently with its row count (OpenBLAS
    picks gemv for one row, and a small-matrix kernel below a size that
    depends on the shape), but not with its position or the other rows;
    so here a row's bits depend on neither R nor the other rows."""
    height = padded(len(x), rows)
    if height > len(x):
        x = np.concatenate([x, np.zeros((height - len(x), x.shape[-1]))])
    if out is None:
        out = np.empty((height, w.shape[-1]))
    np.matmul(x.reshape(-1, rows, x.shape[-1]), w, out=out.reshape(-1, rows, w.shape[-1]))
    return out


def planar(x: np.ndarray) -> np.ndarray:
    """The planar float64 rows (..., 2 * 2**n), real parts first, of the
    complex rows x (..., 2**n): the layout `Steps.rotate` returns."""
    parts = x.view(np.float64).reshape(x.shape + (2,))
    return parts.swapaxes(-1, -2).reshape(x.shape[:-1] + (-1,))


def inverse(layer: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The factors of the inverse of a layer's RY gates held as `Steps`
    holds them: each held real factor's transpose (`Steps` holds the
    conjugate of the layer's RZ phase).  Stacked factors stay stacked."""
    return tuple(f.swapaxes(-1, -2) for f in layer)


def check_finite(states: np.ndarray, x: np.ndarray, first: int, stop: int) -> None:
    """NumericError naming the first step, first+1 on (1-based), of the
    (B, S, ...) states with a non-finite amplitude, or, failing that,
    step stop if x, the rows after it, has one."""
    finite = np.isfinite(states).all(axis=(0, 2))
    if not finite.all():
        raise NumericError(f"non-finite amplitudes at timestep {first + 1 + int(np.argmin(finite))}")
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite amplitudes by timestep {stop}")


def times_ry(u: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """u RY(e) for per-qubit matrices u (..., m, 2, 2), given c = cos(e/2)
    and s = sin(e/2) of shape (..., m)."""
    c, s = c[..., None], s[..., None]
    return np.stack([u[..., 0] * c + u[..., 1] * s, u[..., 1] * c - u[..., 0] * s], -1)


@functools.cache
def derivative_weights(width: int) -> np.ndarray:
    """(2 * 4**width, 2 * width) read-only +-1 weights, built once per
    width, from the float64 view of a d x d complex matrix G, d = 2**width,
    to [Re(rho01 - rho10), Im(rho00 - rho11)] of each bit j of its index,
    rho the partial trace of G over every other bit."""
    d = 1 << width
    i, j = np.arange(d), np.arange(width)[:, None]
    sign = 1 - 2 * ((i >> j) & 1)  # +1 where row bit j is 0
    weights = np.zeros((d, d, 2, width, 2))
    weights[i, i ^ (1 << j), 0, j, 0] = sign
    weights[i, i, 1, j, 1] = sign
    weights.setflags(write=False)
    return weights.reshape(2 * d * d, 2 * width)


def real_form(w: np.ndarray) -> np.ndarray:
    """The real (2k, 2m) form of a complex (k, m) matrix w on the float64
    view of interleaved complex rows: for complex rows x, the float64 view
    of x @ w is x's float64 view times real_form(w)."""
    k, m = w.shape
    out = np.empty((k, 2, m, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = w.real
    out[:, 0, :, 1] = w.imag
    out[:, 1, :, 0] = -w.imag
    return out.reshape(2 * k, 2 * m)


def polar(w: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step from a nearly unitary w toward its unitary
    polar factor: w (3 - w^H w) / 2."""
    return 1.5 * w - 0.5 * w @ (w.conj().T @ w)


@functools.cache
def y_basis(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only, built once per register size: the complex
    (2**n, 2**n) V = v (x) ... (x) v, v = [[1, 1], [i, -i]] / sqrt(2),
    whose column k is the product of Y eigenstates with eigenvalue +1 on
    the qubits whose bit of k is 0, so that any layer of RY gates is
    V diag(phases) V^H; and the real forms (`real_form`) of the changes of
    interleaved complex rows into that basis, conj(V), and out of it, V^T.
    The 1/sqrt(2) factors are one scale, exact at even n."""
    v = np.array([[1.0, 1.0], [1j, -1j]])
    basis = kron_qubits(np.broadcast_to(v, (n_qubits, 2, 2))) * 2.0 ** (-0.5 * n_qubits)
    out = basis, real_form(basis.conj()), real_form(basis.T)
    for m in out:
        m.setflags(write=False)
    return out


@functools.cache
def wiring(n_qubits: int, pairs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """Built once per register size and CNOT pattern (the
    `entangler_pairs` of one sublayer) and shared by every `Steps` of
    that shape, which never writes them: the entangler as a gather on a
    flattened row, shaped (d_0, 2**n / d_0) like a `Steps` state, and as
    (d_0, 2**n / d_0, 2) indices into a planar row, [..., c] part c (re,
    im) of an amplitude, so that a take on a stack of planar rows writes
    each row's next (gather) or previous (scatter) state as complex rows.
    They are not flagged read-only: numpy's take copies a read-only index
    array at every call (64 KiB per layer and step at n = 12)."""
    # CNOT(c, t) flips bit t of the index where bit c is set; after the
    # entangler, amplitude i is the one at i put through its CNOTs last first
    gather = np.arange(1 << n_qubits)
    for control, target in reversed(pairs):
        gather ^= ((gather >> control) & 1) << target
    shape = (1 << factor_widths(n_qubits)[0], -1)
    parts = np.arange(2) << n_qubits
    return (gather.reshape(shape), gather.reshape(shape)[..., None] + parts,
            np.argsort(gather).reshape(shape)[..., None] + parts)


class Steps:
    """The recurrence steps of a stack of B equal-length sequences: swept
    forward from |0...0>, and walked back by the adjoint, a run of
    consecutive steps at a time.  A single sequence is B = 1.

    Step t of row b is M_t = U_var(theta) U_enc(e_t), with e_t =
    embeddings[b, t - 1].  The arrays give the shape: n = embeddings.shape[-1]
    qubits (`check_register`) and theta.size // 2n layers (ShapeError
    unless the angles fill a whole number, at least one).  `entangler` is
    "ring" or "linear".  Each ansatz layer l is a rotation layer
    F_0 (x) ... (x) F_{k-1}, the Kronecker products of its per-qubit
    matrices over k groups of qubits (`factor_widths`, most significant
    first), then the entangler, one index gather on a flattened row.  A
    row's state is a tensor X[a_0, ..., a_{k-1}] of shape (d_0, ..., d_{k-1}),
    d_g = 2**(qubits of group g).  The F_g are Kronecker products of the
    real RY(a), held as (F_0^T, ..., F_{k-1}^T) and applied to X's float64
    view [a_0, ..., a_{k-1}, re/im] as k GEMMs, each contracting the
    leading axis and moving it last, so the result is planar (re/im
    first).  The entangler's take reads it and writes interleaved complex
    rows, then the layer's RZ gates scale them: one phase per amplitude,
    taken through the same gather.  An inverse layer mirrors it: the
    scatter and the conjugate phase (`unentangle`), then each factor's
    transpose (`inverse`) through `rotate`.  The B rows advance together
    as one (height, 2**n) stack, height = padded(B) up to FOLD_QUBITS
    qubits and B above: every stack walked has rows past B zero, from
    zero embeddings, and only outputs are cut to the B rows.  Layer 0
    also carries the encoding, as the per-qubit products RY(a) RY(e_t[j]),
    which differ per row and step (`layer0`); its phase does not.  The
    other layers' factors are built once, from the one angle set theta,
    and shared by every row and step.  Above FOLD_QUBITS qubits the rows
    are computational, `tail` is None and `step` runs `advance` per layer,
    layer 0's RY factors as per-row GEMMs.  Up to FOLD_QUBITS qubits the
    rows `step` takes and returns are in the Y eigenbasis (`y_basis`),
    where layer 0's RY gates are (height, 2**n) phases per step, and
    `tail` is the rest of the step, layer 0's gather and phase and every
    later layer, in that basis, as the real form of one unitary complex
    matrix on interleaved rows (`fold`): `step` is one multiply by the
    phases and one product per block of READ_ROWS rows.  `change` takes
    rows into the basis and out of it (`walk`, `computational`), one
    product per block of READ_ROWS rows, once per sweep, window or walk
    sub-block.  The adjoint reads each layer between its RY and RZ gates.
    Up to FOLD_QUBITS qubits `reads`, built on the adjoint's first run,
    takes an eigenbasis row to every layer's computational read point and
    to layer 0's read point in the eigenbasis in one real product, which
    `rewind` (each ket and adjoint row the walk takes back a step, then
    the conjugate phases) and `points` (the rows of a kept window) run in
    blocks of READ_ROWS rows; above it both go layer by layer (`unwind`)
    on planar rows.  At every size `cross` reads each qubit's two angle
    derivatives there.
    Non-finite angles or embeddings raise NumericError.
    """

    def __init__(self, theta: np.ndarray, embeddings: np.ndarray, entangler: str):
        n = self.n = check_register(embeddings.shape[-1])
        n_layers = np.size(theta) // (2 * n)
        if n_layers < 1 or np.size(theta) != 2 * n * n_layers:
            raise ShapeError(f"{np.size(theta)} circuit angles fill no whole number of "
                             f"{2 * n}-angle layers of {n} qubits")
        if not np.isfinite(theta).all():
            raise NumericError("non-finite circuit angles")
        finite = np.isfinite(embeddings).all(axis=(0, 2))
        if not finite.all():
            raise NumericError(f"non-finite embedding at timestep {int(np.argmin(finite)) + 1}")
        widths = factor_widths(n)
        self.dims = tuple(1 << w for w in widths)
        # group g holds the qubits below the groups before it
        tops = [n - sum(widths[:g]) for g in range(len(widths) + 1)]
        self.groups = [slice(lo, hi) for hi, lo in zip(tops, tops[1:])]
        self.shape = (self.dims[0], (1 << n) // self.dims[0])
        self.rows = len(embeddings)
        self.height = padded(self.rows) if n <= FOLD_QUBITS else self.rows
        self.embeddings = np.zeros((self.height,) + embeddings.shape[1:], dtype=embeddings.dtype)
        self.embeddings[:self.rows] = embeddings
        self.angles = np.reshape(theta, (n_layers, n, 2))
        self.gather, self.planar_gather, self.planar_scatter = wiring(
            n, tuple(entangler_pairs(n, entangler)))
        ry, rz = layer_rotations(theta, n)
        # the diagonal of a layer's RZ gates is their Kronecker product
        phases = kron_qubits(rz[..., None, :])[..., 0, :]
        self.phases = phases[:, self.gather]
        self.inverse_phases = phases.conj().reshape((-1,) + self.shape)
        # layer 0's RY matrices and the held factors of the later layers,
        # and their inverses
        self.first_layer = ry[0]
        self.later_layers = list(zip(*self.factors(ry[1:])))
        self.later_inverses = [inverse(layer) for layer in self.later_layers]
        if n <= FOLD_QUBITS:  # the changes of basis, into and out of the Y eigenbasis
            _, self.into_y, self.from_y = y_basis(n)
        self.tail = self.fold() if n <= FOLD_QUBITS else None

    def factors(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """The held factors, one (..., d_g, d_g) stack per group, of the
        rotation layers with real per-qubit matrices u (..., n, 2, 2)."""
        ut = u.swapaxes(-1, -2)
        return tuple(kron_qubits(ut[..., qubits, :, :]) for qubits in self.groups)

    def rotate(self, factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
        """Real rotation factors, held as `factors` holds them, applied to
        the complex states x (..., d_0, 2**n / d_0) through their float64
        view; returns planar float64 states, real parts before imaginary
        ones, flattened over the last two axes."""
        x = x.view(np.float64)
        for f, d in zip(factors, self.dims):
            x = x.reshape(x.shape[:-2] + (d, -1)).swapaxes(-1, -2) @ f
        return x

    def advance(self, layer: int, factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
        """The (R, d_0, 2**n / d_0) states x through ansatz layer `layer`,
        with RY factors `factors`: the RY gates, then `entangle`."""
        return self.entangle(layer, self.rotate(factors, x).reshape(len(x), -1))

    def entangle(self, layer: int, x: np.ndarray) -> np.ndarray:
        """The complex states (R, d_0, 2**n / d_0) of the planar rows x
        (R, 2 * 2**n) through ansatz layer `layer`'s entangler and RZ
        phase, both in one take."""
        x = x.take(self.planar_gather, axis=-1).view(np.complex128)[..., 0]
        x *= self.phases[layer]
        return x

    def fold(self) -> np.ndarray:
        """The fixed tail of a step in the Y eigenbasis (`y_basis`), as the
        real form (`real_form`) of one unitary complex (2**n, 2**n) matrix
        V^T T conj(V) on interleaved rows, T layer 0's entangler and phase,
        then every later layer: the Y basis rows' computational rows
        (V^T) run through T, changed back into the basis and made unitary
        to rounding by one `polar` step."""
        v = y_basis(self.n)[0]
        x = self.entangle(0, planar(np.ascontiguousarray(v.T)))
        for layer, factors in enumerate(self.later_layers, 1):
            x = self.advance(layer, factors, x)
        return real_form(polar(x.reshape(len(v), -1) @ v.conj()))

    def step(self, first, x: np.ndarray, out, scratch) -> np.ndarray:
        """The (height, 2**n) rows x through one step, given its layer 0
        (`per_step`), into out.  On registers of at most FOLD_QUBITS
        qubits x and the result are Y-eigenbasis rows, and out and scratch
        are pairs of complex (height, 2**n) rows and their float64
        `blocks`, built once per window: a step is one multiply by layer
        0's phases, which overwrites scratch, and one stacked product of
        its blocks with the folded tail, one per block of READ_ROWS rows
        (without `block_matmul`'s per-call work, which every step would
        pay), which overwrites out and allocates nothing; the result is
        out's rows, and out may be x.  Above them x holds computational
        rows, each layer runs in turn (`advance`), its RY gates as GEMMs
        with the held factors, layer 0's per row, into new rows, copied
        into out unless it is None; scratch is unused."""
        if self.tail is None:
            x = x.reshape((len(x),) + self.shape)
            for layer, factors in enumerate([first] + self.later_layers):
                x = self.advance(layer, factors, x)
            x = x.reshape(len(x), -1)
            if out is not None:
                out[...] = x
            return x
        np.multiply(x, first, out=scratch[0])
        np.matmul(scratch[1], self.tail, out=out[1])
        return out[0]

    def blocks(self, x: np.ndarray) -> np.ndarray:
        """The float64 view of the complex rows x (..., height, 2**n) as
        (..., height / READ_ROWS, READ_ROWS, 2 * 2**n) blocks, the operand
        of one folded product per block."""
        blocks = (x.shape[-2] // READ_ROWS, READ_ROWS, 2 << self.n)
        return x.view(np.float64).reshape(x.shape[:-2] + blocks)

    def unentangle(self, layer: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The inverse of `entangle` for ansatz layer `layer`: the complex
        states (..., d_0, 2**n / d_0) after its RY gates, given its planar
        (..., 2 * 2**n) output rows.  The scatter, then the conjugate RZ
        phase, into out if given; a "clip" take writes there directly, a
        "raise" one buffers."""
        if out is None:
            out = np.empty(x.shape[:-1] + self.shape, dtype=np.complex128)
        x.take(self.planar_scatter, axis=-1, out=out[..., None].view(np.float64), mode="clip")
        out *= self.inverse_phases[layer]
        return out

    def layer0(self, start: int, stop: int):
        """Layer 0 of steps start+1..stop, the encoding folded in, per row
        and step.  On registers of at most FOLD_QUBITS qubits its RY gates
        are diagonal in the Y eigenbasis: (height, S, 2**n) phases, the
        Kronecker products over the qubits of diag(z, conj(z)), z =
        exp(-i a / 2) exp(-i e_t / 2).  Above them, the held factors
        (height, S, d_g, d_g) of the per-qubit products RY(a) RY(e_t).  The
        encoding is multiplied in either way, not added to the RY angle: a
        finite theta + e_t can overflow."""
        e = self.embeddings[:, start:stop]
        if self.tail is None:
            return self.factors(times_ry(self.first_layer, np.cos(0.5 * e), np.sin(0.5 * e)))
        z = np.exp(-0.5j * self.angles[0, :, 0]) * np.exp(-0.5j * e)
        return kron_qubits(np.stack([z, z.conj()], -1)[..., None, :])[..., 0, :]

    def per_step(self, f0, start: int = 0, stop: int | None = None, back: bool = False) -> list:
        """Each step's layer 0, for `step`, or with back its inverse, for
        `rewind`, of steps start+1..stop of the `layer0` of a window:
        folded, (height, 2**n) phases, conjugated back; layered, tuples of
        (height, d_g, d_g) held factors, each one's transpose back
        (`inverse`)."""
        if self.tail is not None:
            f = f0[:, start:stop]
            return list((f.conj() if back else f).swapaxes(0, 1))
        factors = [f[:, start:stop] for f in f0]
        return list(zip(*(f.swapaxes(0, 1) for f in (inverse(factors) if back else factors))))

    def change(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The complex rows x (..., 2**n) times the real form w of a
        change of basis, one product per block of READ_ROWS rows."""
        rows = np.ascontiguousarray(x).reshape(-1, x.shape[-1]).view(np.float64)
        return block_matmul(rows, w, READ_ROWS)[:len(rows)].view(np.complex128).reshape(x.shape)

    def walk(self, x: np.ndarray) -> np.ndarray:
        """The complex computational rows x (..., 2**n) as `rewind` takes
        them: their Y-eigenbasis rows up to FOLD_QUBITS qubits, planar
        rows (..., 2 * 2**n) above them."""
        return planar(x) if self.tail is None else self.change(x, self.into_y)

    def computational(self, x: np.ndarray) -> np.ndarray:
        """The complex computational rows (..., 2**n) of rows x as `step`
        or `rewind` returns them: Y-eigenbasis rows up to FOLD_QUBITS
        qubits (`change`); above them x itself, or, for the planar rows
        (..., 2 * 2**n) of the walk, their parts joined."""
        if self.tail is not None:
            return self.change(x, self.from_y)
        if x.dtype == np.complex128:
            return x
        out = np.empty(x.shape[:-1] + (x.shape[-1] // 2,), dtype=np.complex128)
        out.real, out.imag = x[..., :out.shape[-1]], x[..., out.shape[-1]:]
        return out

    def window(self, x: np.ndarray, start: int, stop: int, first: int) -> tuple[np.ndarray, object]:
        """Advance the (height, 2**n) rows x in place, as `step` takes
        them, through steps start+1..stop (1-based) of one window, and
        return the (height, stop - first, 2**n) rows after steps
        first+1..stop and layer 0 of steps start+1..stop, built in one
        call (`layer0`), which the adjoint walk reuses when the sweep keeps
        the window.  Each step writes its rows into its slot of the
        returned array, allocated here per window, so rows returned are
        never written again; folded, every buffer a step uses is built once
        per window, one scratch block for the phase multiply, and x itself
        takes the rows of a step not returned.  Layer 0 is built after the
        rows are allocated, so it does not split the block the last
        window's rows freed; and x is written back rather than replaced by
        the last step's rows, which view the window and would keep it
        alive."""
        states = np.empty((self.height, stop - first, x.shape[-1]), dtype=np.complex128)
        f0 = self.layer0(start, stop)
        slots, spare, scratch = states.swapaxes(0, 1), None, None
        if self.tail is not None:
            buffer = np.empty(x.shape, dtype=np.complex128)
            slots, spare = list(zip(slots, self.blocks(slots))), (x, self.blocks(x))
            scratch = buffer, self.blocks(buffer)
        y = x
        for j, own in enumerate(self.per_step(f0), start - first):
            y = self.step(own, y, slots[j] if j >= 0 else spare, scratch)
        check_finite(states[:self.rows], y, first, stop)
        if y is not x:
            x[...] = y
        return states, f0

    def sweep(self, first: int, read, backward: bool = False,
              start: np.ndarray | None = None) -> np.ndarray:
        """Evolve every row from the (B, 2**n) computational rows start
        (|0...0> when None) one window of CHECKPOINT_INTERVAL steps at a
        time (`window`) and return the (B, 2**n) final states.  A window
        holding kept steps (first..T, 1-based, recorded as `first`) calls
        read(lo, states) with the (B, S, 2**n) computational states after
        its steps lo+1..lo+S, changed out of the Y eigenbasis once per
        window on folded registers (`computational`); with first > T, read
        is never called.  With backward, for a pass the adjoint follows,
        `kept` holds the last window's (height, S, 2**n) rows, as `window`
        returned them (Y-eigenbasis rows up to FOLD_QUBITS qubits), and
        layer 0 when every one of its steps is kept (else None, rather
        than hold its unread steps), which `adjoint` starts from, and
        `checkpoints` maps the end step (K, 2K, ..., T) of every window the
        walk uncomputes, every other one, to its end state as the
        (height, ...) rows the walk starts from (`rewind`); a forward-only
        pass stores neither."""
        T = self.embeddings.shape[1]
        x = np.zeros((self.height, 1 << self.n), dtype=np.complex128)
        x[:self.rows] = new_zero_state(self.n) if start is None else start
        if self.tail is not None:  # into the Y eigenbasis, as `step` takes rows
            x = self.change(x, self.into_y)
        self.first, self.checkpoints, self.kept = first, {}, None
        for begin in range(0, T, CHECKPOINT_INTERVAL):
            stop = min(begin + CHECKPOINT_INTERVAL, T)
            lo = min(max(begin, first - 1), stop)  # 0-based index of the window's first kept step
            states, f0 = self.window(x, begin, stop, lo)
            if backward and stop == T and lo == begin:  # only a last window read out whole
                self.kept = states, f0
            elif backward:  # the walk uncomputes this window from its end state
                self.checkpoints[stop] = planar(x) if self.tail is None else x.copy()
            del f0  # release layer 0, unless kept, before the readout allocates
            if lo < stop:
                states = self.computational(states[:self.rows])
                read(lo, states)
            del states  # release the window before the next one is allocated
        return self.computational(x[:self.rows])

    def adjoint(self, inject) -> tuple[np.ndarray, np.ndarray]:
        """Per-row dJ/dtheta (B, n_layers, n, 2) and dJ/de (B, T, n) of a
        readout objective J, after a backward `sweep`.  inject(lo, kets)
        returns the (B, S, 2**n) injections sum_i c_i P_i |psi_t> of the
        kept steps lo+1..lo+S (`first`..T, 1-based), given their
        (B, S, 2**n) computational kets.

        Windows are walked back last first, each in sub-blocks of
        walk_rows(n) // B steps (at least one), last first.  A sub-block's
        kets are the rows the sweep kept (`kept`), taken to each layer's
        read point, between its RY and RZ gates, by `points`; in every other
        window they are uncomputed: the ket starts at the window's end state,
        taken out of `checkpoints`, and `rewind` takes it back a step at a
        time, writing its read points.  Either way the sub-block's rows
        change to computational ones once (`computational`); one `inject`
        call takes its B computational kets, and its injections are
        changed once to the walk's rows (`walk`), padded to `height`.
        The adjoint recurrence lam <- M_t^H (lam + inj_t), with lam the
        walk's rows, as the ket is (Y-eigenbasis rows up to
        FOLD_QUBITS qubits, planar computational ones above), then runs
        once per step (`rewind`) and keeps the adjoint rows L at the same
        points, and one `cross` call reads, on the B real rows, the
        derivative Im <L| P |K> = Im tr(P rho_j) of every angle a of a gate
        exp(-i a P/2) on qubit j, for every layer and step (the layer's
        other gates commute with P), in the axis order `slots` gives.  A
        window's layer 0 is built once (`layer0`), or kept by the sweep.
        Folded, the walk rewinds its ket and adjoint rows in place, through
        block views built once per window or pass and per-step slots built
        once per sub-block (`outputs`); the kets handed to `inject` are
        new arrays, and the kept rows are read, never written.
        The ket restarts at each window, so inverse-gate drift crosses at
        most CHECKPOINT_INTERVAL steps, which move an amplitude by at most
        about 3e-14.  A window's angle derivatives are summed in one
        reduction over its steps.
        """
        rows, T = self.rows, self.embeddings.shape[1]
        dim = 1 << self.n
        dtheta = np.zeros((rows,) + self.angles.shape)
        denc = np.empty((rows, T, self.n))
        lam = self.walk(np.zeros((self.height, dim), dtype=np.complex128))
        folded = self.reads is not None
        lam_blocks = self.blocks(lam) if folded else None
        block = max(1, walk_rows(self.n) // rows)
        kept, self.kept = self.kept, None
        for win_start in reversed(range(0, T, CHECKPOINT_INTERVAL)):
            win_end = min(win_start + CHECKPOINT_INTERVAL, T)
            if kept is None:
                seg, f0 = None, self.layer0(win_start, win_end)
                ket = self.checkpoints.pop(win_end)
                ket_blocks = self.blocks(ket) if folded else None
            else:
                (seg, f0), kept = kept, None
            # every angle derivative of every step of the window
            dwin = np.empty((rows, win_end - win_start) + self.angles.shape)
            for stop in range(win_end, win_start, -block):
                start = max(win_start, stop - block)
                inv0 = self.per_step(f0, start - win_start, stop - win_start, back=True)
                lo = min(max(start, self.first - 1), stop)  # steps lo+1..stop inject readouts
                ket_slots, ket_points, _ = self.slots(stop - start)
                if seg is None:
                    walked = np.empty((rows, stop - lo) + ket.shape[1:], dtype=ket.dtype)
                    outs = self.outputs(ket_slots)
                    for t in range(stop, start, -1):
                        if t > lo:
                            walked[:, t - lo - 1] = ket[:rows]
                        ket = self.rewind(ket, inv0[t - start - 1], outs[t - start - 1], ket_blocks)
                else:
                    self.points(seg[:, start - win_start:stop - win_start], ket_slots)
                    walked = seg[:rows, lo - win_start:stop - win_start]
                kets = self.computational(walked)
                if lo < stop:
                    inj = np.zeros((stop - lo,) + lam.shape, dtype=lam.dtype)
                    inj[:, :rows] = self.walk(inject(lo, kets)).swapaxes(0, 1)
                slots, points, order = self.slots(stop - start)
                outs = self.outputs(slots)
                for t in range(stop, start, -1):
                    if t > lo:
                        lam += inj[t - lo - 1]
                    lam = self.rewind(lam, inv0[t - start - 1], outs[t - start - 1], lam_blocks)
                # read between the gates of U_j = RZ(b) RY(a): dJ/da =
                # Im tr(Y rho_j), dJ/db = Im tr(Z rho_j); layer 0's encoding
                # RY(e_t) shares the RY axis, so dJ/de_t = dJ/da at step t
                derivs = self.cross(ket_points, points).transpose(order + (3, 4))
                dwin[:, start - win_start:stop - win_start] = derivs
                denc[:, start:stop] = derivs[:, :, 0, :, 0]
            dtheta += dwin.sum(axis=1)
            # release the window before the next one's layer 0 is built
            del seg, f0, kets, ket_slots, ket_points, slots, points, outs, derivs
        return dtheta, denc

    def slots(self, steps: int) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
        """Empty read points of the walked rows over `steps` steps: the
        per-step slots `rewind` writes straight into, contiguous, or
        numpy's `take(out=)` copies through a temporary; one complex view
        of the B real rows of all of them for `cross`; and the axes of
        that view in (B, steps, n_layers) order.  Folded, a slot is a
        float64 (height, (n_layers + 1) * 2 * 2**n) block, every layer's
        read point and then layer 0's in the Y eigenbasis, and the view
        (steps, B, n_layers, 2**n); layered, one complex
        (B, d_0, 2**n / d_0) block per layer, and the view
        (n_layers, steps, B, 2**n)."""
        n_layers = len(self.angles)
        if self.reads is None:
            points = np.empty((n_layers, steps, self.rows) + self.shape, dtype=np.complex128)
            return points.swapaxes(0, 1), points.reshape(n_layers, steps, self.rows, -1), (2, 1, 0)
        slots = np.empty((steps, self.height, (n_layers + 1) << (self.n + 1)))
        points = slots.view(np.complex128).reshape(steps, self.height, n_layers + 1, 1 << self.n)
        return slots, points[:, :self.rows, :n_layers], (1, 0, 2)

    def unwind(self, x: np.ndarray, out: np.ndarray | None = None) -> list[np.ndarray]:
        """Every layer's read point, between its RY and RZ gates, of the
        planar rows x (..., 2 * 2**n) after a step, layer 0's first, as
        complex (..., d_0, 2**n / d_0) states, layer by layer: per layer,
        last first, `unentangle` (into out[layer] if given), then, past
        layer 0, its inverse RY factors."""
        points = []
        for layer in range(len(self.angles) - 1, -1, -1):
            x = self.unentangle(layer, x, None if out is None else out[layer])
            points.append(x)
            if layer:
                x = self.rotate(self.later_inverses[layer - 1], x).reshape(x.shape[:-2] + (-1,))
        return points[::-1]

    @functools.cached_property
    def reads(self) -> np.ndarray | None:
        """The rewind's fixed product on registers of at most FOLD_QUBITS
        qubits, None above them: one real (2 * 2**n, (n_layers + 1) *
        2 * 2**n) matrix from Y-eigenbasis rows after a step to every
        layer's computational read point, layer 0's first, the real forms
        (`real_form`) of `unwind` of the Y basis rows' computational rows
        (V^T), then to layer 0's read point back in the eigenbasis, the
        inverse of the step's tail, `tail` transposed, which layer 0's
        conjugate phases take to the rows before the step.  Built the first
        time the adjoint runs, so a forward pass never pays for it."""
        if self.tail is None:
            return None
        v = y_basis(self.n)[0]
        points = self.unwind(planar(np.ascontiguousarray(v.T)))
        return np.concatenate([real_form(p.reshape(len(v), -1)) for p in points] + [self.tail.T], axis=1)

    def points(self, x: np.ndarray, slots: np.ndarray) -> None:
        """The read points of the (height, S, 2**n) rows x, as `step`
        returns them, into the slots of S steps (`slots`), as `rewind`
        reads its rows: one product with `reads` per block of READ_ROWS
        rows up to FOLD_QUBITS qubits, and `unwind` of their planar rows
        above them."""
        x = x.swapaxes(0, 1)
        if self.reads is None:
            self.unwind(planar(x), slots.swapaxes(0, 1))
        else:
            rows = x.reshape(-1, x.shape[-1]).view(np.float64)
            block_matmul(rows, self.reads, READ_ROWS, slots.reshape(-1, slots.shape[-1]))

    def rewind(self, x: np.ndarray, first, out=None, blocks: np.ndarray | None = None) -> np.ndarray:
        """M_t^H x for the (height, ...) rows x of the walk (`walk`), given
        step t's inverse layer 0 (`per_step` with back): every layer's read
        point, into out if given, then layer 0's inverse; returns rows of
        the same form.  Up to FOLD_QUBITS qubits x holds Y-eigenbasis rows
        and is overwritten by the result, and out is one step's slot as
        `outputs` gives it (a slot of its own when None): one product of
        x's `blocks` (built here when None) with `reads` per block of
        READ_ROWS rows writes every read point into the slot, and its last
        block, layer 0's read point in the Y eigenbasis, times the
        conjugate phases is written back into x; nothing is allocated.
        Above them x holds planar rows, out is a complex (n_layers, height,
        d_0, 2**n / d_0) array, filled by `unwind`, and layer 0's inverse
        is its transposed factors through `rotate`, into new rows."""
        if self.reads is None:
            points = self.unwind(x, out)[0]
            return self.rotate(first, points).reshape(len(x), -1)
        if out is None:
            out = self.outputs(np.empty((1, len(x), self.reads.shape[-1])))[0]
        np.matmul(self.blocks(x) if blocks is None else blocks, self.reads, out=out[0])
        np.multiply(out[1], first, out=x)
        return x

    def outputs(self, slots):
        """The per-step `out` of `rewind` into `slots` (S steps): the slots
        themselves above FOLD_QUBITS qubits; folded, per step its float64
        (height / READ_ROWS, READ_ROWS, width) blocks, the product's
        output, and the complex (height, 2**n) rows of its last block,
        built once per walk sub-block."""
        if self.reads is None:
            return slots
        return list(zip(slots.reshape(len(slots), -1, READ_ROWS, slots.shape[-1]),
                        slots[..., -(2 << self.n):].view(np.complex128)))

    def cross(self, kets: np.ndarray, adjoints: np.ndarray) -> np.ndarray:
        """(..., n, 2) angle derivatives [Re(rho01 - rho10), Im(rho00 -
        rho11)] of the cross operator rho_j = Tr_{not j} |k><l| of every
        qubit j, for rows of kets k and adjoints l (..., 2**n): per factor
        group g, the Gram matrix of k and conj(l) over every axis but a_g,
        then its float64 view times the group's `derivative_weights`.  The
        Gram matrices are stacked per-row products and the weights run in
        blocks of READ_ROWS rows, so each row rounds the same whatever the
        other rows are."""
        size = 1 << self.n
        k = kets.reshape(-1, size)
        lc = adjoints.conj().reshape(k.shape)
        rows = len(k)
        derivs = np.empty((rows, self.n, 2))
        outer = 1  # values of the axes before group g
        for d, qubits in zip(self.dims, self.groups):
            if d == 1:
                continue  # the empty second group at n = 1
            view = (rows, outer, d, size // (outer * d))
            kg, lg = (v.reshape(view).swapaxes(1, 2).reshape(rows, d, -1) for v in (k, lc))
            gram = (kg @ lg.swapaxes(-1, -2)).view(np.float64).reshape(rows, -1)
            weights = derivative_weights(qubits.stop - qubits.start)
            derivs[:, qubits] = block_matmul(gram, weights, READ_ROWS)[:rows].reshape(rows, -1, 2)
            outer *= d
        return derivs.reshape(kets.shape[:-1] + derivs.shape[1:])
