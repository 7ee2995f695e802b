"""The factored step engine and the Pauli tables against the dense
oracles, which apply each step gate by gate, and every view of the
recurrence on registers with equal and unequal qubit halves."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    central_diff,
    cnot_image,
    dense_1q,
    dense_cnot,
    dense_pauli_string,
    dense_ry,
    dense_rz,
    dense_step,
    dense_step_matrix,
    rel_err,
)

from qlam import circuits
from qlam.cell import (
    CellConfig,
    batch_logits,
    decoder,
    embed_token,
    final_logits,
    forward,
    init_qlam_params,
    run,
)
from qlam.circuits import (
    CHECKPOINT_INTERVAL,
    FOLD_QUBITS,
    MAX_QUBITS,
    READ_ROWS,
    Steps,
    entangler_pairs,
    inverse,
    new_zero_state,
    planar,
    times_ry,
    walk_rows,
)
from qlam.data import SequenceSample
from qlam.errors import ConfigError, NumericError, ShapeError
from qlam.gradients import batch_loss_and_grad, loss_and_grad, param_shift_grad
from qlam.nn import softmax_cross_entropy
from qlam.observables import ShotConfig, default_pauli_pool, pauli_table

# an odd register: unequal high (5 qubits) and low (4 qubits) halves
STRIDED_N = 9


# ---------------------------------------------------------------------------
# Steps.
# ---------------------------------------------------------------------------

def complex_rows(x):
    """The complex rows of planar rows x (..., 2 * 2**n), real parts first,
    as `Steps.rewind` takes and returns them (`planar` is the inverse)."""
    half = x.shape[-1] // 2
    return x[..., :half] + 1j * x[..., half:]


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_qubits", range(1, 6))
def test_dense_step_matrix_matches_gate_matrix_products(n_qubits, entangler):
    # the oracle's per-gate contractions and row gathers against the
    # product of the full dense_1q / dense_cnot matrices
    cfg = CellConfig(n_qubits, 2, entangler)
    rng = np.random.default_rng(90 + n_qubits)
    theta = rng.uniform(-np.pi, np.pi, 2 * cfg.n_layers * n_qubits)
    emb = rng.uniform(-2.0, 2.0, n_qubits)
    layered = theta.reshape(cfg.n_layers, n_qubits, 2)
    u = np.eye(1 << n_qubits, dtype=np.complex128)
    for j in range(n_qubits):
        u = dense_1q(dense_ry(emb[j]), j, n_qubits) @ u
    for layer in range(cfg.n_layers):
        for j in range(n_qubits):
            u = dense_1q(dense_ry(layered[layer, j, 0]), j, n_qubits) @ u
            u = dense_1q(dense_rz(layered[layer, j, 1]), j, n_qubits) @ u
        if n_qubits > 1:
            ring = [(j, (j + 1) % n_qubits) for j in range(n_qubits)]
            for control, target in ring if entangler == "ring" else ring[:-1]:
                u = dense_cnot(control, target, n_qubits) @ u
    assert_allclose(dense_step_matrix(cfg, theta, emb), u, atol=1e-13)


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_qubits", range(1, 11))
def test_dense_steps_match_dense_step_matrix(n_qubits, entangler):
    cfg = CellConfig(n_qubits, 2, entangler)
    rng = np.random.default_rng(100 + n_qubits)
    theta = rng.uniform(-np.pi, np.pi, 2 * cfg.n_layers * n_qubits)
    theta_2 = rng.uniform(-np.pi, np.pi, 2 * cfg.n_layers * n_qubits)
    emb = rng.uniform(-2.0, 2.0, (2, n_qubits))
    dim = 1 << n_qubits
    # one row per basis vector: row i of the swept stack is column i of
    # the step matrix; step 2 runs on an engine of its own angles
    for t, angles in ((1, theta), (2, theta_2)):
        steps = Steps(angles, np.broadcast_to(emb[t - 1], (dim, 1, n_qubits)), entangler)
        want = dense_step_matrix(cfg, angles, emb[t - 1])
        swept = steps.sweep(2, None, start=np.eye(dim))
        assert_allclose(swept.T, want, atol=1e-12)
        first = steps.per_step(steps.layer0(0, 1), back=True)[0]
        # the walk's rows of a stack of the engine's height: folded, n = 1
        # pads 2 rows to 4
        x = np.zeros((steps.height, dim), dtype=np.complex128)
        x[:dim] = np.eye(dim)
        rewound = steps.computational(steps.rewind(steps.walk(x), first)[:dim])
        assert_allclose(rewound.T, want.conj().T, atol=1e-12)


@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("n_qubits", range(1, FOLD_QUBITS + 1))
def test_folded_tail_is_orthogonal(n_qubits, n_layers):
    # a unitary's real form, read from planar rows into interleaved ones
    rng = np.random.default_rng(160 + n_qubits)
    theta = rng.uniform(-np.pi, np.pi, 2 * n_layers * n_qubits)
    tail = Steps(theta, np.zeros((1, 1, n_qubits)), "ring").tail
    assert tail.shape == (2 << n_qubits, 2 << n_qubits)
    assert_allclose(tail @ tail.T, np.eye(2 << n_qubits), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_qubits", range(1, FOLD_QUBITS + 1))
def test_long_sweeps_stay_unit_norm_on_folded_registers(n_qubits):
    # the sweep carries each row in the Y eigenbasis through T = 3072
    # random steps: the folded tail is unitary to rounding (`polar`), so
    # no norm drifts (5.3e-13 at most here, 7.8e-13 with no polar step)
    rng = np.random.default_rng(220 + n_qubits)
    T = 96 * CHECKPOINT_INTERVAL
    steps = Steps(rng.uniform(-np.pi, np.pi, 4 * n_qubits), rng.uniform(-2.0, 2.0, (3, T, n_qubits)), "ring")
    psi = steps.sweep(T, lambda lo, states: None)
    assert_allclose(np.linalg.norm(psi, axis=1), 1.0, rtol=0, atol=1e-11)


@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("n_qubits", range(1, FOLD_QUBITS + 1))
def test_read_points_are_orthogonal(n_qubits, n_layers):
    # each layer's block of `state_reads` and of `reads`, and the last
    # block of `reads`, layer 0's read point in the Y eigenbasis, is the
    # real form of a unitary, from interleaved rows into interleaved ones;
    # built on first use, None above the fold
    rng = np.random.default_rng(165 + n_qubits)
    theta = rng.uniform(-np.pi, np.pi, 2 * n_layers * n_qubits)
    steps = Steps(theta, np.zeros((1, 1, n_qubits)), "ring")
    for reads, blocks in ((steps.state_reads, n_layers), (steps.reads, n_layers + 1)):
        assert reads.shape == (2 << n_qubits, blocks * (2 << n_qubits))
        for block in np.split(reads, blocks, axis=1):
            assert_allclose(block @ block.T, np.eye(2 << n_qubits), rtol=0, atol=1e-14)
    wide = Steps(np.zeros(2 * (FOLD_QUBITS + 1)), np.zeros((1, 1, FOLD_QUBITS + 1)), "ring")
    assert wide.reads is None and wide.state_reads is None


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("n_qubits", [FOLD_QUBITS, FOLD_QUBITS + 1])
def test_adjoint_matches_dense_shifts_at_the_fold_crossover(n_qubits, n_layers, entangler):
    # J = sum_t <psi_t| A_t |psi_t> over random Hermitian A_t from step 3 on,
    # over T = K + 1 steps, so the adjoint walks back the window the sweep
    # kept and one it uncomputes, with the folded read points at
    # FOLD_QUBITS and the layered ones above; against the +-pi/2 rule at
    # each occurrence of an angle, through the dense oracle's steps
    cfg = CellConfig(n_qubits, n_layers, entangler)
    rng = np.random.default_rng(180 + 4 * n_qubits + n_layers)
    T, first, dim = CHECKPOINT_INTERVAL + 1, 3, 1 << n_qubits
    theta = rng.uniform(-np.pi, np.pi, 2 * n_layers * n_qubits)
    emb = rng.uniform(-2.0, 2.0, (1, T, n_qubits))
    a = rng.normal(size=(T, dim, dim)) + 1j * rng.normal(size=(T, dim, dim))
    a += a.conj().swapaxes(1, 2)
    steps = Steps(theta, emb, entangler)
    assert (steps.reads is None) == (n_qubits > FOLD_QUBITS)
    steps.sweep(first, lambda lo, states: None, backward=True)
    dtheta, denc = steps.adjoint(
        lambda lo, kets: np.einsum("sij,bsj->bsi", a[lo:lo + kets.shape[1]], kets))

    mats = [dense_step_matrix(cfg, theta, e) for e in emb[0]]
    before = [new_zero_state(n_qubits)]  # the state before each step
    for m in mats[:-1]:
        before.append(m @ before[-1])

    def shifted(t, k=None, j=None):
        # the +-pi/2 rule on angle k, or on encoding angle j, at step t
        # (0-based) alone; the terms of earlier steps cancel
        total = 0.0
        for sign in (1, -1):
            angles, e = theta.copy(), emb[0, t].copy()
            if k is None:
                e[j] += sign * np.pi / 2
            else:
                angles[k] += sign * np.pi / 2
            psi = dense_step(cfg, angles, e, before[t][:, None])[:, 0]
            for s in range(t, T):
                psi = psi if s == t else mats[s] @ psi
                if s + 1 >= first:
                    total += 0.5 * sign * np.vdot(psi, a[s] @ psi).real
        return total

    # layer 0's first RY angle and the last layer's last RZ angle
    for k in (0, theta.size - 1):
        want = sum(shifted(t, k=k) for t in range(T))
        assert_allclose(dtheta[0].reshape(-1)[k], want, rtol=0, atol=1e-9, err_msg=f"theta[{k}]")
    # a step of the uncomputed window and the last, kept one
    for t in (1, T - 1):
        want = [shifted(t, j=j) for j in range(n_qubits)]
        assert_allclose(denc[0, t], want, rtol=0, atol=1e-9, err_msg=f"step {t + 1}")


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("n_qubits", [FOLD_QUBITS, FOLD_QUBITS + 1])
def test_evolve_matches_dense_steps_at_the_fold_crossover(n_qubits, n_layers, entangler):
    # the largest folded register and the smallest layered one, over
    # steps of a stack of three rows against the dense step matrices
    cfg = CellConfig(n_qubits, n_layers, entangler)
    rng = np.random.default_rng(170 + n_qubits)
    theta = rng.uniform(-np.pi, np.pi, 2 * n_layers * n_qubits)
    emb = rng.uniform(-2.0, 2.0, (3, 5, n_qubits))
    dim = 1 << n_qubits
    psi = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    steps = Steps(theta, emb, entangler)
    assert (steps.tail is None) == (n_qubits > FOLD_QUBITS)
    want = psi
    states = np.empty((3, 5, dim), dtype=np.complex128)

    def read(lo, window):
        states[:, lo:lo + window.shape[1]] = window

    psi = steps.sweep(1, read, start=psi)
    for t in range(5):
        want = np.stack([dense_step_matrix(cfg, theta, emb[b, t]) @ want[b] for b in range(3)])
        assert_allclose(states[:, t], want, rtol=0, atol=1e-12)
    assert_array_equal(psi, states[:, -1])


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_qubits", [11, 12])
def test_steps_match_dense_step_on_large_registers(n_qubits, entangler):
    # gate by gate on three columns, with no 2**n x 2**n matrix
    cfg = CellConfig(n_qubits, 2, entangler)
    rng = np.random.default_rng(130 + n_qubits)
    theta = rng.uniform(-np.pi, np.pi, 2 * cfg.n_layers * n_qubits)
    theta_2 = rng.uniform(-np.pi, np.pi, 2 * cfg.n_layers * n_qubits)
    emb = rng.uniform(-2.0, 2.0, (3, 2, n_qubits))
    dim = 1 << n_qubits
    psi = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    phi = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    want = psi.T
    for t, angles in ((1, theta), (2, theta_2)):
        stepped = np.stack([dense_step(cfg, angles, emb[b, t - 1], want[:, b:b + 1])[:, 0]
                            for b in range(3)], axis=1)
        # the adjoint identity <M_t^H phi, psi> = <phi, M_t psi> checks
        # `rewind` (the conjugate phase, the transposed real factors)
        steps = Steps(angles, emb, entangler)
        first = inverse([f[:, 0] for f in steps.layer0(t - 1, t)])
        rewound = complex_rows(steps.rewind(planar(phi), first))
        for b in range(3):
            assert_allclose(np.vdot(rewound[b], want[:, b]), np.vdot(phi[b], stepped[:, b]), atol=1e-12)
        want = stepped
    for t, angles in ((1, theta), (2, theta_2)):
        psi = Steps(angles, emb[:, t - 1:t], entangler).sweep(2, None, start=psi)
    assert_allclose(psi.T, want, atol=1e-12)


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n_qubits", [1, 4, FOLD_QUBITS, FOLD_QUBITS + 1, 12])
def test_walk_uncomputes_the_swept_kets(monkeypatch, n_qubits, rows, entangler):
    # read out from step T - 2 of T = K + 5: the last window is read out
    # only in part, so the sweep keeps none and the adjoint takes every
    # window's kets back from its end state.  Each ket it injects is the
    # swept state, and each read point it crosses is the swept state
    # before that step, run forward through the layer's RY gates
    # (`rotate`, then `entangle` to the next layer), which no rewind runs
    rng = np.random.default_rng(200 + 4 * n_qubits + rows)
    T, first, dim = CHECKPOINT_INTERVAL + 5, CHECKPOINT_INTERVAL + 3, 1 << n_qubits
    theta = rng.uniform(-np.pi, np.pi, 4 * n_qubits)
    emb = rng.uniform(-2.0, 2.0, (rows, T, n_qubits))
    before = np.zeros((rows, T + 1, dim), dtype=np.complex128)  # the state before each step
    before[:, 0, 0] = 1.0

    def read(lo, states):
        before[:, lo + 1:lo + 1 + states.shape[1]] = states

    Steps(theta, emb, entangler).sweep(1, read)

    crossed, injected = [], {}
    cross = Steps.cross

    def recorded(self, kets, adjoints):
        crossed.append(kets.copy())
        return cross(self, kets, adjoints)

    def inject(lo, kets):
        for s in range(kets.shape[1]):
            injected[lo + s + 1] = kets[:, s].copy()
        return kets

    monkeypatch.setattr(Steps, "cross", recorded)
    steps = Steps(theta, emb, entangler)
    steps.sweep(first, lambda lo, states: None, backward=True)
    assert steps.kept is None
    steps.adjoint(inject)
    assert sorted(injected) == list(range(first, T + 1))
    for t, ket in injected.items():
        assert_allclose(ket, before[:, t], rtol=0, atol=1e-12, err_msg=f"ket of step {t}")
    # sub-blocks are crossed last first; each call holds (steps, rows,
    # layers) folded and (layers, steps, rows) layered
    order = (1, 0, 2, 3) if n_qubits <= FOLD_QUBITS else (2, 1, 0, 3)
    points = np.concatenate([c.transpose(order) for c in reversed(crossed)], axis=1)
    assert points.shape == (rows, T, 2, dim)
    # layer 0's held factors, of RY(a) RY(e_t) per qubit, as the layered
    # engine builds them
    f0 = steps.factors(times_ry(steps.first_layer, np.cos(0.5 * emb), np.sin(0.5 * emb)))
    for t in range(T):
        x = before[:, t].reshape((rows,) + steps.shape)
        for layer, factors in enumerate([tuple(f[:, t] for f in f0)] + steps.later_layers):
            p = steps.rotate(factors, x).reshape(rows, -1)
            assert_allclose(points[:, t, layer], p[:, :dim] + 1j * p[:, dim:], rtol=0, atol=1e-12,
                            err_msg=f"step {t + 1}, layer {layer}")
            x = steps.entangle(layer, p)


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_qubits", [1, FOLD_QUBITS, FOLD_QUBITS + 1, 12])
def test_sweeps_differing_at_one_step_keep_their_overlap(n_qubits, entangler):
    # the memory is unitary: two sweeps whose tokens differ only at step k
    # keep, at every later step, the overlap they had after step k, which
    # is what lets the adjoint take a ket back by the inverse steps
    cfg = small_cfg(n_qubits, entangler=entangler)
    params = init_qlam_params(np.random.default_rng(210 + n_qubits), cfg)
    rng = np.random.default_rng(211)
    params.theta[:] = rng.uniform(-np.pi, np.pi, params.theta.shape)
    T, k = CHECKPOINT_INTERVAL + 8, 5
    tokens = np.repeat(rng.uniform(0.0, 1.0, (1, T)), 2, axis=0)
    tokens[1, k - 1] = 1.0 - tokens[0, k - 1]
    states = np.empty((2, T, 1 << n_qubits), dtype=np.complex128)
    for b, row in enumerate(tokens):
        steps = Steps(params.theta, embed_token(row[None], params), entangler)

        def read(lo, window, b=b):
            states[b, lo:lo + window.shape[1]] = window[0]

        steps.sweep(1, read)
    assert_array_equal(states[0, :k - 1], states[1, :k - 1])
    overlap = np.abs(np.einsum("ti,ti->t", states[0].conj(), states[1]))
    assert overlap[k - 1] < 1.0 - 1e-6
    assert_allclose(overlap[k - 1:], overlap[k - 1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_qubits", range(1, 13))
def test_gather_is_the_entanglers_cnot_images(n_qubits, entangler):
    # exact at every size, also at n = 11 and 12, where no test builds
    # the dense step matrix
    steps = Steps(np.zeros(2 * n_qubits), np.zeros((1, 1, n_qubits)), entangler)
    want = np.arange(1 << n_qubits)
    for control, target in reversed(entangler_pairs(n_qubits, entangler)):
        want = cnot_image(want, control, target)
    assert_array_equal(steps.gather.reshape(-1), want)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 5, STRIDED_N, 11, 12])
def test_cross_operators_match_partial_traces(n_qubits):
    # n = 11 and 12 take three factor groups, whose middle Gram matrix
    # contracts over the groups on both sides of it
    steps = Steps(np.zeros(2 * n_qubits), np.zeros((1, 1, n_qubits)), "ring")
    rng = np.random.default_rng(120 + n_qubits)
    dim = 1 << n_qubits
    kets, adjoints = (rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim)) for _ in range(2))
    derivs = steps.cross(kets, adjoints)
    assert derivs.shape == (3, n_qubits, 2)
    index = np.arange(dim)
    for j in range(n_qubits):
        # rho_j[a, b] sums k[i] conj(l[i']) over index pairs that agree
        # on every bit but bit j, which is a in i and b in i'
        rho = np.zeros((3, 2, 2), dtype=np.complex128)
        for a in range(2):
            rows = index[(index >> j) & 1 == a]
            for b in range(2):
                partners = (rows & ~(1 << j)) | (b << j)
                rho[:, a, b] = (kets[:, rows] * adjoints[:, partners].conj()).sum(axis=1)
        # the RY and RZ angle derivatives the adjoint reads off rho_j
        assert_allclose(derivs[:, j, 0], (rho[:, 0, 1] - rho[:, 1, 0]).real, atol=1e-12)
        assert_allclose(derivs[:, j, 1], (rho[:, 0, 0] - rho[:, 1, 1]).imag, atol=1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 5, STRIDED_N, 11, 12])
def test_cross_operators_of_a_row_do_not_depend_on_the_stack(n_qubits):
    # the determinism contract at the walk's reduction: a row's angle
    # derivatives round the same in a stack of three as on their own
    steps = Steps(np.zeros(2 * n_qubits), np.zeros((1, 1, n_qubits)), "ring")
    rng = np.random.default_rng(125 + n_qubits)
    dim = 1 << n_qubits
    kets, adjoints = (rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim)) for _ in range(2))
    derivs = steps.cross(kets, adjoints)
    for s in range(3):
        assert_array_equal(derivs[s], steps.cross(kets[s:s + 1], adjoints[s:s + 1])[0])


# ---------------------------------------------------------------------------
# Pauli tables.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 6])
def test_pool_table_terms_match_dense_pauli_strings(n_qubits):
    labels = default_pauli_pool(n_qubits)
    table = pauli_table(labels)
    dim = 1 << n_qubits
    for k, label in enumerate(labels):
        coeffs = np.zeros((dim, len(labels)))
        coeffs[:, k] = 1.0
        # row i of apply(identity) is P e_i, column i of P
        assert_array_equal(table.apply(np.eye(dim, dtype=np.complex128), coeffs).T,
                           dense_pauli_string(label))
    rng = np.random.default_rng(n_qubits)
    states = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
    coeffs = rng.normal(size=(5, len(labels)))
    dense = [dense_pauli_string(label) for label in labels]
    want_exps = np.array([[np.vdot(s, p @ s).real for p in dense] for s in states])
    assert_allclose(table.expectations(states), want_exps, atol=1e-12)
    want_inj = np.array([sum(c * (p @ s) for c, p in zip(row, dense))
                         for row, s in zip(coeffs, states)])
    assert_allclose(table.apply(states, coeffs), want_inj, atol=1e-12)


def test_y_bearing_string_matches_dense():
    label = "XYZIY"
    dim = 1 << len(label)
    table = pauli_table((label,))
    got = table.apply(np.eye(dim, dtype=np.complex128), np.ones((dim, 1)))
    assert_array_equal(got.T, dense_pauli_string(label))
    rng = np.random.default_rng(3)
    states = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
    want = [np.vdot(s, dense_pauli_string(label) @ s).real for s in states]
    assert_allclose(table.expectations(states)[:, 0], want, atol=1e-12)


# ---------------------------------------------------------------------------
# Views of the recurrence, and the engine's numerics.
# ---------------------------------------------------------------------------

def small_cfg(n_qubits, **kwargs):
    defaults = dict(n_qubits=n_qubits, n_heads=3, d_query=3, decoder_hidden=4, n_classes=3)
    defaults.update(kwargs)
    return CellConfig(**defaults)


@pytest.mark.parametrize("n_qubits, T, t_keep", [
    # T = 65 crosses two checkpoint windows, and t_keep = 40 starts the
    # kept readouts inside the first one
    pytest.param(4, 2 * CHECKPOINT_INTERVAL + 1, 40, id="4"),
    pytest.param(STRIDED_N, 2 * CHECKPOINT_INTERVAL + 1, 40, id=str(STRIDED_N)),
    pytest.param(12, CHECKPOINT_INTERVAL + 1, 8, id="12"),
])
def test_logits_bitwise_across_views_and_windows(n_qubits, T, t_keep):
    cfg = small_cfg(n_qubits, t_keep=t_keep)
    params = init_qlam_params(np.random.default_rng(60 + n_qubits), cfg)
    rng = np.random.default_rng(61)
    sample = SequenceSample(rng.uniform(0.0, 1.0, T), 1)
    trace = forward(sample.tokens, params, cfg)
    assert_array_equal(final_logits(sample.tokens, params, cfg), trace.logits)
    assert_array_equal(loss_and_grad(sample, params, cfg).logits, trace.logits)


@pytest.mark.parametrize("n_qubits, batch, chunks", [
    # one chunk of several sequences, where size-1 axes of the one- and
    # two-qubit stacks can change numpy's reduction order (and a real GEMM
    # over a 1 x 1 factor runs at n = 1); and chunks of walk_rows(9) = 8,
    # so a batch of 10 runs as 8 + 2
    pytest.param(1, 5, 1, id="1"),
    pytest.param(2, 3, 1, id="2"),
    pytest.param(3, 2, 1, id="3"),
    pytest.param(4, 4, 1, id="4"),
    # the largest folded register, with one row past a block of READ_ROWS,
    # so the products with `Steps.reads` pad a second block
    pytest.param(FOLD_QUBITS, READ_ROWS + 1, 1, id=str(FOLD_QUBITS)),
    # the smallest register that runs each step's tail layer by layer
    pytest.param(FOLD_QUBITS + 1, 3, 1, id=str(FOLD_QUBITS + 1)),
    pytest.param(STRIDED_N, 10, 2, id=str(STRIDED_N)),
    # three factor groups, in chunks of walk_rows(11) = 2: 2 + 1
    pytest.param(11, 3, 2, id="11"),
])
def test_batch_outputs_match_single_sequence_views_bitwise(n_qubits, batch, chunks):
    # the determinism contract: a sequence's logits (exact and sampled),
    # loss and gradients do not depend on the batch it runs in, its
    # position there, or how the batch is split
    cfg = small_cfg(n_qubits, t_keep=2)
    params = init_qlam_params(np.random.default_rng(130 + n_qubits), cfg)
    rng = np.random.default_rng(131)
    params.theta[:] = rng.uniform(-np.pi, np.pi, params.theta.shape)
    # T = K + 1 crosses a window and ends on a one-step window
    samples = [SequenceSample(rng.uniform(0.0, 1.0, CHECKPOINT_INTERVAL + 1), i % 3)
               for i in range(batch)]
    shot = ShotConfig("sampled", 64, 5)
    order = rng.permutation(batch)
    size = walk_rows(n_qubits)
    assert -(-batch // size) == chunks
    for lo in range(0, batch, size):
        part = order[lo:lo + size]
        tokens = [samples[i].tokens for i in part]
        bundles = batch_loss_and_grad([samples[i] for i in part], params, cfg)
        exact = batch_logits(tokens, params, cfg)
        sampled = batch_logits(tokens, params, cfg, shot, sample_index=part)
        for i, bundle, row, shot_row in zip(part, bundles, exact, sampled):
            single = loss_and_grad(samples[i], params, cfg)
            assert bundle.loss == single.loss
            assert_array_equal(bundle.logits, single.logits)
            for key, g in single.grads.items():
                assert_array_equal(bundle.grads[key], g, err_msg=key)
            assert_array_equal(row, final_logits(samples[i].tokens, params, cfg))
            assert_array_equal(shot_row, final_logits(samples[i].tokens, params, cfg, shot,
                                                      sample_index=int(i)))


def close_to(got, want, err_msg=""):
    # relative to the array's largest entry
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=err_msg)


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, FOLD_QUBITS), n_layers=st.integers(1, 3),
       entangler=st.sampled_from(["ring", "linear"]), rows=st.integers(1, 2 * READ_ROWS + 1),
       T=st.sampled_from([1, CHECKPOINT_INTERVAL - 1, CHECKPOINT_INTERVAL, CHECKPOINT_INTERVAL + 1,
                          2 * CHECKPOINT_INTERVAL + 3]),
       data=st.data())
def test_layered_engine_is_the_folded_engines_oracle(n_qubits, n_layers, entangler, rows, T, data):
    # FOLD_QUBITS = 0 runs the same register layer by layer, on computational
    # rows B high: every output of a folded pass, its padded rows, Y
    # eigenbasis, kept window and walk sub-blocks, agrees with it
    t_keep = data.draw(st.integers(1, T), label="t_keep")
    cfg = small_cfg(n_qubits, n_layers=n_layers, entangler=entangler, t_keep=t_keep)
    seed = data.draw(st.integers(0, 2**31), label="seed")
    rng = np.random.default_rng(seed)
    params = init_qlam_params(rng, cfg)
    params.theta[:] = rng.uniform(-np.pi, np.pi, params.theta.shape)
    samples = [SequenceSample(rng.uniform(0.0, 1.0, T), b % 3) for b in range(rows)]
    tokens = [s.tokens for s in samples]
    folded = batch_loss_and_grad(samples, params, cfg), batch_logits(tokens, params, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuits, "FOLD_QUBITS", 0)
        layered = batch_loss_and_grad(samples, params, cfg), batch_logits(tokens, params, cfg)
    for got, want in zip(folded[0], layered[0]):
        close_to(got.loss, want.loss, "loss")
        close_to(got.logits, want.logits, "logits")
        for key, g in want.grads.items():
            close_to(got.grads[key], g, key)
    close_to(folded[1], layered[1], "batch_logits")


@pytest.mark.parametrize("rows", [1, READ_ROWS - 1, READ_ROWS + 1, 2 * READ_ROWS])
@pytest.mark.parametrize("n_qubits", [1, FOLD_QUBITS])
def test_every_product_with_reads_runs_on_read_rows(n_qubits, rows):
    # the products with `Steps.tail` of every forward step, with
    # `Steps.reads` of the adjoint rewind and of the ket rewind of the
    # uncomputed window, with `Steps.state_reads` of the kept window's
    # read points, and the changes of basis, out of the Y eigenbasis
    # (`from_y`: each window's readout states, the uncomputed kets handed
    # to `inject`, the final states) and into it (`into_y`: the first
    # state, the injections), each take exactly READ_ROWS rows, whatever
    # the stack's height: with some BLAS builds one GEMM over every padded
    # row passes the bitwise tests too
    heights = {"tail": [], "reads": [], "state_reads": [], "into_y": [], "from_y": []}

    def recorded(name, matrix):
        class Recorded(np.ndarray):
            """The matrix, recording the rows of each matmul it is an
            operand of under `name`."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    heights[name].append(inputs[0].shape[-2])
                inputs = [x.view(np.ndarray) if isinstance(x, Recorded) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        return matrix.view(Recorded)

    rng = np.random.default_rng(140 + rows)
    T = CHECKPOINT_INTERVAL + 1  # the kept window and an uncomputed one
    steps = Steps(rng.uniform(-np.pi, np.pi, 4 * n_qubits), rng.uniform(-1.0, 1.0, (rows, T, n_qubits)),
                  "ring")
    for name in heights:
        setattr(steps, name, recorded(name, getattr(steps, name)))
    steps.sweep(1, lambda lo, states: None, backward=True)
    steps.adjoint(lambda lo, kets: kets)
    assert len(heights["tail"]) == T and len(heights["reads"]) > T
    assert heights["state_reads"] and heights["into_y"] and heights["from_y"]
    for name, seen in heights.items():
        assert set(seen) == {READ_ROWS}, name


@pytest.mark.parametrize("n_qubits", [4, 12])
def test_layer0_is_built_once_per_step_and_pass(monkeypatch, n_qubits):
    # each pass builds a window's layer-0 factors in one call; the adjoint
    # starts from the last window, which the sweep keeps when all of it is
    # read out, so a gradient builds the factors of the last window's steps
    # once and of every other step twice, in the sweep and in the adjoint,
    # and a forward pass builds each once; the adjoint rewinds each step's
    # adjoint rows once, the first step of every walk sub-block too, and
    # the ket of each step of a window that was not kept, which the walk
    # uncomputes; a forward pass never rewinds
    built, rewound = [], []
    layer0, rewind = Steps.layer0, Steps.rewind

    def counted(self, start, stop):
        built.append(self.rows * (stop - start))
        return layer0(self, start, stop)

    def counted_rewind(self, x, first, *args, **kwargs):
        rewound.append(self.rows)  # sequences rewound: folded, x carries zero padding
        return rewind(self, x, first, *args, **kwargs)

    monkeypatch.setattr(Steps, "layer0", counted)
    monkeypatch.setattr(Steps, "rewind", counted_rewind)
    T = 2 * CHECKPOINT_INTERVAL + 1
    windows = -(-T // CHECKPOINT_INTERVAL)
    cfg = small_cfg(n_qubits, t_keep=2)
    params = init_qlam_params(np.random.default_rng(150), cfg)
    sample = SequenceSample(np.random.default_rng(151).uniform(0.0, 1.0, T), 1)
    last = T - (windows - 1) * CHECKPOINT_INTERVAL  # steps of the last window
    loss_and_grad(sample, params, cfg)
    assert sum(built) == 2 * T - last
    assert len(built) == 2 * windows - 1
    assert sum(rewound) == 2 * T - last
    # a last window read out only in part is not kept, so the adjoint
    # uncomputes it: every step's factors are built twice
    built.clear()
    loss_and_grad(SequenceSample(sample.tokens[:T - last], 1), params, cfg)
    assert sum(built) == 2 * (T - last)
    built.clear()
    rewound.clear()
    final_logits(sample.tokens, params, cfg)
    assert sum(built) == T
    assert len(built) == windows
    assert rewound == []


def test_only_a_gradient_pass_keeps_the_last_window():
    # the adjoint starts from the sweep's last window; a forward-only pass
    # has no adjoint, so it keeps no window past its readout
    cfg = small_cfg(4, t_keep=2)
    params = init_qlam_params(np.random.default_rng(152), cfg)
    tokens = np.random.default_rng(153).uniform(0.0, 1.0, (2, CHECKPOINT_INTERVAL + 1))
    assert run(tokens, params, cfg).steps.kept is None
    states, f0 = run(tokens, params, cfg, backward=True).steps.kept
    assert states.shape == (2, 1, 16)


@pytest.mark.parametrize("n_qubits, t_keep", [(4, 2), (FOLD_QUBITS + 1, 2), (4, 5), (FOLD_QUBITS + 1, 5)],
                         ids=["folded", "layered", "folded-last-window-whole", "layered-last-window-whole"])
def test_a_pass_stores_only_the_end_states_its_walk_reads(n_qubits, t_keep):
    # a forward-only pass stores no walk state; a gradient's pass stores
    # the end state of each window the walk uncomputes, as the rows of the
    # stack the walk starts from (padding rows zero), and no start state:
    # none for a last window read out whole, which the sweep keeps.  The
    # walk reads every end state stored
    cfg = small_cfg(n_qubits, t_keep=t_keep)
    params = init_qlam_params(np.random.default_rng(154), cfg)
    K = CHECKPOINT_INTERVAL
    T = 2 * K + 5
    tokens = np.random.default_rng(155).uniform(0.0, 1.0, (2, T))
    steps = run(tokens, params, cfg).steps
    assert steps.checkpoints == {} and steps.kept is None
    r = run(tokens, params, cfg, cfg.t_keep, backward=True)
    whole = t_keep == T - 2 * K
    assert (r.steps.kept is not None) == whole
    assert sorted(r.steps.checkpoints) == ([K, 2 * K] if whole else [K, 2 * K, T])
    swept = np.empty((2, T, 1 << n_qubits), dtype=np.complex128)

    def read(lo, states):
        swept[:, lo:lo + states.shape[1]] = states

    Steps(params.theta, r.embeddings, cfg.entangler).sweep(1, read)
    for t, rows in r.steps.checkpoints.items():
        walked = r.steps.walk(swept[:, t - 1])  # the form `rewind` takes
        assert rows.dtype == walked.dtype and rows.shape == (r.steps.height,) + walked.shape[1:], t
        assert_array_equal(r.steps.computational(rows[:2]), swept[:, t - 1], err_msg=f"step {t}")
        assert not rows[2:].any(), t
    r.steps.adjoint(lambda lo, kets: np.zeros_like(kets))
    assert r.steps.checkpoints == {} and r.steps.kept is None


@pytest.mark.parametrize("sample_index", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]]],
                         ids=["short", "long", "nested"])
@pytest.mark.parametrize("shot", [ShotConfig(), ShotConfig("sampled", 8, 5)], ids=["exact", "sampled"])
def test_batch_logits_rejects_sample_indices_not_one_per_row(shot, sample_index):
    cfg = small_cfg(2, t_keep=2)
    params = init_qlam_params(np.random.default_rng(140), cfg)
    tokens = np.random.default_rng(141).uniform(0.0, 1.0, (3, 4))
    with pytest.raises(ShapeError, match="sample_index"):
        batch_logits(tokens, params, cfg, shot, sample_index=sample_index)


@pytest.mark.parametrize("n_qubits, n_layers, indices, T, entangler", [
    pytest.param(4, 2, (0, 9), 2 * CHECKPOINT_INTERVAL + 1, "ring", id="4-2-indices0"),
    pytest.param(STRIDED_N, 1, (3,), 2 * CHECKPOINT_INTERVAL + 1, "ring", id=f"{STRIDED_N}-1-indices1"),
    # T ends on a window boundary, and t_keep 2 reads the last window out
    # only in part, so the sweep keeps no window and the adjoint uncomputes
    # every one: on the folded engine, and on the layered one
    pytest.param(4, 2, (2, 15), 2 * CHECKPOINT_INTERVAL, "ring", id="4-2-boundary"),
    pytest.param(FOLD_QUBITS + 1, 2, (3, 4 * (FOLD_QUBITS + 1) - 2), 2 * CHECKPOINT_INTERVAL, "ring",
                 id=f"{FOLD_QUBITS + 1}-2-boundary"),
    # a high-half RY angle of layer 0 and a low-half RZ angle of layer 1
    pytest.param(12, 2, (16, 31), CHECKPOINT_INTERVAL + 1, "ring", id="12-2-indices2"),
    # the largest folded register and the smallest layered one: layer 0's
    # second RY angle and the last layer's last RY angle
    *[pytest.param(n, layers, (2, 2 * n * layers - 2), CHECKPOINT_INTERVAL + 1, entangler,
                   id=f"{n}-{layers}-{entangler}")
      for n in (FOLD_QUBITS, FOLD_QUBITS + 1) for layers in (1, 3) for entangler in ("ring", "linear")],
])
def test_loss_and_grad_matches_param_shift_across_windows(n_qubits, n_layers, indices, T, entangler):
    cfg = small_cfg(n_qubits, n_layers=n_layers, entangler=entangler, t_keep=2)
    params = init_qlam_params(np.random.default_rng(70 + n_qubits), cfg)
    params.theta[:] = np.random.default_rng(71).uniform(-np.pi, np.pi, params.theta.shape)
    rng = np.random.default_rng(72)
    sample = SequenceSample(rng.uniform(0.0, 1.0, T), 2)
    bundle = loss_and_grad(sample, params, cfg)
    for i in indices:
        shift = param_shift_grad(sample, params, cfg, i)
        assert abs(bundle.grads["theta"][i] - shift) < 1e-9, f"theta[{i}]"


@pytest.mark.parametrize("n_qubits", [STRIDED_N, 12])
def test_encoding_grads_match_central_differences(n_qubits):
    # the encoding angles have no shift-rule oracle: their derivatives are
    # the per-step RY terms of layer 0, which also carries theta
    cfg = small_cfg(n_qubits, t_keep=2)
    params = init_qlam_params(np.random.default_rng(110 + n_qubits), cfg)
    rng = np.random.default_rng(111)
    params.theta[:] = rng.uniform(-np.pi, np.pi, params.theta.shape)
    sample = SequenceSample(rng.uniform(0.0, 1.0, CHECKPOINT_INTERVAL + 1), 1)
    grads = loss_and_grad(sample, params, cfg).grads
    for key in ("embed_w", "embed_b"):
        arr = getattr(params, key)
        for j in range(n_qubits):
            orig = arr[j]

            def loss_at(value):
                arr[j] = value
                return softmax_cross_entropy(final_logits(sample.tokens, params, cfg),
                                             sample.label)[0]

            fd = central_diff(loss_at, orig)
            arr[j] = orig
            assert rel_err(grads[key][j], fd, floor=1e-6) < 2e-5, f"{key}[{j}]"


def plan_logits(tokens, params, cfg):
    """`final_logits` with every step run gate by gate through the dense
    oracle."""
    emb = embed_token(np.asarray(tokens, dtype=np.float64), params)
    table = pauli_table(cfg.pool)
    psi = new_zero_state(cfg.n_qubits)
    exps = []
    for t, e in enumerate(emb, 1):
        psi = dense_step(cfg, params.theta, e, psi[:, None])[:, 0]
        if t > len(emb) - cfg.t_keep:
            exps.append(table.expectations(psi[None])[0])
    gammas = decoder(np.einsum("qn,tn->tq", params.w_q, emb[len(emb) - cfg.t_keep:]), params)[1]
    readouts = np.einsum("thp,tp->th", gammas, np.array(exps))
    return params.cls_w @ readouts.reshape(-1) + params.cls_b


@pytest.mark.parametrize("n_qubits", [4, STRIDED_N])
def test_huge_finite_angles_stay_finite(n_qubits):
    # theta[0] + e_t[0] = 2e308 overflows: the encoding must fold into
    # layer 0 as a product of rotations, not as a sum of angles
    cfg = small_cfg(n_qubits, n_layers=1, t_keep=2)
    params = init_qlam_params(np.random.default_rng(90), cfg)
    params.theta[0] = params.embed_b[0] = 1e308
    params.embed_w[0] = 0.0
    sample = SequenceSample(np.random.default_rng(91).uniform(0.0, 1.0, 6), 1)
    want = plan_logits(sample.tokens, params, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logits = final_logits(sample.tokens, params, cfg)
        bundle = loss_and_grad(sample, params, cfg)
    assert_allclose(logits, want, rtol=0, atol=1e-12)
    assert_allclose(bundle.logits, want, rtol=0, atol=1e-12)
    assert abs(bundle.loss - softmax_cross_entropy(want, sample.label)[0]) < 1e-12
    for key, g in bundle.grads.items():
        assert np.isfinite(g).all(), key


@pytest.mark.parametrize("n_qubits", [4, STRIDED_N])
def test_non_finite_angles_raise_numeric_error(n_qubits):
    zeros, emb = np.zeros(2 * n_qubits), np.zeros((2, 2, n_qubits))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, -np.inf, np.nan):
            theta = zeros.copy()
            theta[1] = bad
            with pytest.raises(NumericError, match="angles"):
                Steps(theta, emb, "ring")
            bad_emb = emb.copy()
            bad_emb[1, 1, n_qubits - 1] = bad
            with pytest.raises(NumericError, match="timestep 2"):
                Steps(zeros, bad_emb, "ring")


def test_steps_read_their_shape_from_their_arrays():
    # the register from the embedding width, the layer count from the angles
    emb = np.zeros((1, 1, 3))
    assert Steps(np.zeros(12), emb, "ring").angles.shape == (2, 3, 2)
    for size in (0, 5, 2 * 3 * 2 + 1):
        with pytest.raises(ShapeError):
            Steps(np.zeros(size), emb, "ring")
    for n_qubits in (0, MAX_QUBITS + 1):
        with pytest.raises(ConfigError):
            Steps(np.zeros(2 * max(n_qubits, 1)), np.zeros((1, 1, n_qubits)), "ring")


@pytest.mark.parametrize("n_qubits", [4, STRIDED_N])
def test_overflowing_embedding_names_its_step(n_qubits):
    cfg = small_cfg(n_qubits, n_layers=1)
    params = init_qlam_params(np.random.default_rng(80), cfg)
    params.embed_w[:] = 1e308
    params.embed_b[:] = 1e308
    tokens = np.zeros(8)
    tokens[4] = 1.0  # 1e308 * 1.0 + 1e308 overflows at step 5 only
    calls = (
        lambda: forward(tokens, params, cfg),
        lambda: final_logits(tokens, params, cfg),
        lambda: loss_and_grad(SequenceSample(tokens, 0), params, cfg),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="timestep 5"):
                call()
