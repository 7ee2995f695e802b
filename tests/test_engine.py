"""The block step engine and the Pauli tables against the dense oracles,
and every view of the recurrence on both sides of the dense/strided
threshold."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import dense_pauli_string, dense_step_matrix

from qlam.cell import CHECKPOINT_INTERVAL, CellConfig, final_logits, forward, init_qlam_params
from qlam.circuits import DENSE_MAX_QUBITS, AnsatzConfig, Steps
from qlam.data import SequenceSample
from qlam.errors import NumericError
from qlam.gradients import loss_and_grad, param_shift_grad
from qlam.observables import default_pauli_pool, pauli_table

# the smallest register that runs the strided gate plan
STRIDED_N = DENSE_MAX_QUBITS + 1


def basis_images(dim, apply):
    """Matrix whose column i is apply(e_i)."""
    out = np.empty((dim, dim), dtype=np.complex128)
    for i in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[i] = 1.0
        out[:, i] = apply(e)
    return out


# ---------------------------------------------------------------------------
# Dense steps.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_qubits", range(1, DENSE_MAX_QUBITS + 1))
def test_dense_steps_match_dense_step_matrix(n_qubits, entangler):
    cfg = AnsatzConfig(n_qubits, 2, entangler)
    rng = np.random.default_rng(100 + n_qubits)
    theta = rng.uniform(-np.pi, np.pi, cfg.n_params)
    theta_2 = rng.uniform(-np.pi, np.pi, cfg.n_params)
    emb = rng.uniform(-2.0, 2.0, (2, n_qubits))
    steps = Steps(cfg, theta, emb, shifted=(2, theta_2))
    assert steps.dense
    dim = 1 << n_qubits

    def advance(t):
        def apply(e):
            steps.evolve(e, t - 1, t)
            return e
        return apply

    for t, angles in ((1, theta), (2, theta_2)):
        want = dense_step_matrix(cfg, angles, emb[t - 1])
        assert_allclose(basis_images(dim, advance(t)), want, atol=1e-12)
        # the block of step t is loaded, so rewind applies its adjoint
        assert_allclose(basis_images(dim, lambda e: steps.rewind(e, t)), want.conj().T,
                        atol=1e-12)


def test_strided_rewind_inverts_a_step():
    n = STRIDED_N
    cfg = AnsatzConfig(n, 1, "ring")
    rng = np.random.default_rng(7)
    steps = Steps(cfg, rng.uniform(-np.pi, np.pi, cfg.n_params), rng.uniform(-2, 2, (3, n)))
    assert not steps.dense
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    states = steps.evolve(psi.copy(), 0, 3)
    assert_allclose(steps.rewind(states[2].copy(), 3), states[1], atol=1e-12)


# ---------------------------------------------------------------------------
# Pauli tables.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 6])
def test_pool_table_terms_match_dense_pauli_strings(n_qubits):
    labels = tuple(p.labels for p in default_pauli_pool(n_qubits))
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
# Views of the recurrence on both paths.
# ---------------------------------------------------------------------------

def small_cfg(n_qubits, **kwargs):
    defaults = dict(n_qubits=n_qubits, n_heads=3, d_query=3, decoder_hidden=4, n_classes=3)
    defaults.update(kwargs)
    return CellConfig(**defaults)


@pytest.mark.parametrize("n_qubits", [4, STRIDED_N])
def test_logits_bitwise_across_views_and_windows(n_qubits):
    # T = 65 crosses two checkpoint windows, and t_keep = 40 starts the
    # kept readouts inside the first one
    cfg = small_cfg(n_qubits, t_keep=40)
    params = init_qlam_params(np.random.default_rng(60 + n_qubits), cfg)
    rng = np.random.default_rng(61)
    sample = SequenceSample(rng.uniform(0.0, 1.0, 2 * CHECKPOINT_INTERVAL + 1), 1)
    trace = forward(sample.tokens, params, cfg)
    assert_array_equal(final_logits(sample.tokens, params, cfg), trace.logits)
    assert_array_equal(loss_and_grad(sample, params, cfg).logits, trace.logits)


@pytest.mark.parametrize("n_qubits, n_layers, indices", [(4, 2, (0, 9)), (STRIDED_N, 1, (3,))])
def test_loss_and_grad_matches_param_shift_across_windows(n_qubits, n_layers, indices):
    cfg = small_cfg(n_qubits, n_layers=n_layers, t_keep=2)
    params = init_qlam_params(np.random.default_rng(70 + n_qubits), cfg)
    params.theta[:] = np.random.default_rng(71).uniform(-np.pi, np.pi, params.theta.shape)
    rng = np.random.default_rng(72)
    sample = SequenceSample(rng.uniform(0.0, 1.0, 2 * CHECKPOINT_INTERVAL + 1), 2)
    bundle = loss_and_grad(sample, params, cfg)
    for i in indices:
        shift = param_shift_grad(sample, params, cfg, i)
        assert abs(bundle.grads["theta"][i] - shift) < 1e-9, f"theta[{i}]"


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
