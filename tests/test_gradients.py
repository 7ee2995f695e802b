"""Adjoint gradient engine against closed forms, parameter-shift, and
finite differences."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import dense_recurrence_readouts, einsum_decoder_backward, fd_grad_dict, rel_err

from qlam.cell import CellConfig, forward, init_qlam_params, run
from qlam.circuits import CHECKPOINT_INTERVAL
from qlam.data import SequenceSample
from qlam.errors import NumericError, ShapeError
from qlam.gradients import (
    GradBundle,
    _batch_grads,
    _decoder_backward,
    loss_and_grad,
    param_shift_grad,
    readout_param_shift,
    weighted_readout_grads,
)
from qlam.nn import grad_like, softmax_cross_entropy


def small_cfg(**kwargs):
    defaults = dict(n_qubits=2, n_heads=3, d_query=3, decoder_hidden=4, n_classes=3)
    defaults.update(kwargs)
    return CellConfig(**defaults)


def make(cfg, seed=0):
    return init_qlam_params(np.random.default_rng(seed), cfg)


def rand_weights(rng, T, n_heads):
    return rng.normal(size=(T, n_heads))


# ---------------------------------------------------------------------------
# Closed form on one qubit.
# ---------------------------------------------------------------------------

def test_one_qubit_closed_form():
    # RY(e) then RY(theta0) then RZ(theta1) on |0>, read gamma * <Z>.
    # <Z> = cos(e + theta0), so dJ/dtheta0 = -gamma sin(e + theta0) and
    # theta1 never matters.  Pins the overall sign and factor convention.
    cfg = small_cfg(n_qubits=1, n_layers=1, n_heads=1, d_query=1, n_classes=2)
    params = make(cfg)
    gamma = 0.8
    params.dec_w1[:] = 0.0
    params.dec_b1[:] = 0.0
    params.dec_w2[:] = 0.0
    params.dec_b2[:] = 0.0
    params.dec_b2[0, 0] = gamma  # pool is ["Z", "X"] on one qubit
    params.embed_w[0] = 0.9
    params.embed_b[0] = 0.2
    params.theta[:] = [0.5, 1.3]
    x = np.array([0.7])
    e = 0.9 * 0.7 + 0.2

    value, grads = weighted_readout_grads(x, params, cfg, np.ones((1, 1)))
    assert abs(value - gamma * np.cos(e + 0.5)) < 1e-12
    expected = -gamma * np.sin(e + 0.5)
    assert abs(grads["theta"][0] - expected) < 1e-12
    assert abs(grads["theta"][1]) < 1e-15
    assert abs(grads["embed_b"][0] - expected) < 1e-12
    assert abs(grads["embed_w"][0] - 0.7 * expected) < 1e-12


@pytest.mark.parametrize("cfg", [small_cfg(), CellConfig()], ids=["small", "default"])
@pytest.mark.parametrize("keep", [1, 2, 9])
def test_decoder_backward_matches_einsum_oracle(cfg, keep):
    params = make(cfg, seed=13)
    rng = np.random.default_rng(14)
    r = run(rng.random((3, 9)), params, cfg, keep)
    w = rng.normal(size=r.readouts.shape)
    grads = _batch_grads(params, 3)
    c = _decoder_backward(w, r, params, grads)
    lo = r.first - 1
    for b in range(3):
        want, want_c = einsum_decoder_backward(
            w[b], r.tokens[b, lo:], r.embeddings[b, lo:], r.queries[b], r.exps[b], params)
        assert_allclose(c[b], want_c, rtol=1e-12, atol=1e-12)
        for key, g in grads.items():
            assert_allclose(g[b], want.get(key, 0.0), rtol=1e-12, atol=1e-12, err_msg=key)


def test_zero_decoder_gives_zero_circuit_grads():
    cfg = small_cfg(n_qubits=3)
    params = make(cfg, seed=3)
    for key in ("dec_w1", "dec_b1", "dec_w2", "dec_b2"):
        getattr(params, key)[:] = 0.0
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=6)
    value, grads = weighted_readout_grads(x, params, cfg, rand_weights(rng, 6, cfg.n_heads))
    assert value == 0.0
    assert_array_equal(grads["theta"], np.zeros_like(params.theta))
    assert_array_equal(grads["embed_w"], np.zeros_like(params.embed_w))
    assert_array_equal(grads["embed_b"], np.zeros_like(params.embed_b))
    assert_array_equal(grads["w_q"], np.zeros_like(params.w_q))
    # The gamma bias still sees the expectations directly.
    assert np.any(grads["dec_b2"] != 0.0)


def test_zero_weights_give_zero_everything():
    cfg = small_cfg()
    params = make(cfg, seed=1)
    x = np.random.default_rng(2).uniform(0.0, 1.0, size=5)
    value, grads = weighted_readout_grads(x, params, cfg, np.zeros((5, cfg.n_heads)))
    assert value == 0.0
    for key, g in grads.items():
        assert_array_equal(g, np.zeros_like(g), err_msg=key)


def test_grads_linear_in_weights():
    cfg = small_cfg()
    params = make(cfg, seed=4)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=4)
    w1 = rand_weights(rng, 4, cfg.n_heads)
    w2 = rand_weights(rng, 4, cfg.n_heads)
    va, ga = weighted_readout_grads(x, params, cfg, w1)
    vb, gb = weighted_readout_grads(x, params, cfg, w2)
    vs, gs = weighted_readout_grads(x, params, cfg, w1 + w2)
    assert abs(vs - (va + vb)) < 1e-12
    for key in ga:
        assert_allclose(gs[key], ga[key] + gb[key], atol=1e-12, err_msg=key)
    vn, gn = weighted_readout_grads(x, params, cfg, -w1)
    assert abs(vn + va) < 1e-12
    for key in ga:
        assert_allclose(gn[key], -ga[key], atol=1e-15, err_msg=key)


# ---------------------------------------------------------------------------
# Parameter-shift cross-checks.  The general shift rule, moving a shared
# angle at every step at once, is exact for expectation readouts.
# ---------------------------------------------------------------------------

def test_adjoint_matches_param_shift_on_readouts():
    cfg = small_cfg()
    params = make(cfg, seed=5)
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, size=5)
    w = rand_weights(rng, 5, cfg.n_heads)
    _, grads = weighted_readout_grads(x, params, cfg, w)
    for i in range(params.theta.size):
        shift = float(np.sum(w * readout_param_shift(x, params, cfg, i)))
        assert abs(grads["theta"][i] - shift) < 1e-10, f"theta[{i}]"


@pytest.mark.parametrize("entangler", ["ring", "linear"])
@pytest.mark.parametrize("n_qubits, T", [(1, 9), (2, 5), (3, 3)])
def test_general_shift_rule_equals_per_occurrence_dense_shifts(n_qubits, T, entangler):
    # the derivative in a shared angle is the sum over its occurrences of
    # the +-pi/2 rule on that step alone, here from the dense oracle
    cfg = small_cfg(n_qubits=n_qubits, entangler=entangler, t_keep=1)
    params = make(cfg, seed=30 + n_qubits)
    x = np.random.default_rng(31 + T).uniform(0.0, 1.0, size=T)
    for k in range(params.theta.size):
        want = np.zeros((T, cfg.n_heads))
        for t in range(T):
            for sign in (1, -1):
                step_thetas = np.tile(params.theta, (T, 1))
                step_thetas[t, k] += sign * np.pi / 2
                want += 0.5 * sign * dense_recurrence_readouts(x, params, cfg, step_thetas)
        assert_allclose(readout_param_shift(x, params, cfg, k), want, rtol=0, atol=1e-10,
                        err_msg=f"theta[{k}]")


def test_param_shift_loss_grad_matches_adjoint():
    cfg = small_cfg(t_keep=2)
    params = make(cfg, seed=8)
    rng = np.random.default_rng(9)
    sample = SequenceSample(rng.uniform(0.0, 1.0, size=6), 1)
    bundle = loss_and_grad(sample, params, cfg)
    for i in range(params.theta.size):
        assert abs(bundle.grads["theta"][i] - param_shift_grad(sample, params, cfg, i)) < 1e-10


# ---------------------------------------------------------------------------
# Finite differences over every parameter entry.
# ---------------------------------------------------------------------------

def test_adjoint_matches_fd_everywhere():
    # T = 40 crosses the first checkpoint boundary, so the uncomputed
    # window and the cross-window rewind both participate.
    assert CHECKPOINT_INTERVAL == 32
    cfg = small_cfg(t_keep=3)
    params = make(cfg, seed=20)
    rng = np.random.default_rng(21)
    sample = SequenceSample(rng.uniform(0.0, 1.0, size=40), 2)
    bundle = loss_and_grad(sample, params, cfg)
    fd = fd_grad_dict(lambda: loss_and_grad(sample, params, cfg).loss, params)
    for key, g in bundle.grads.items():
        worst = max(
            rel_err(a, b, floor=1e-6)
            for a, b in zip(g.reshape(-1), fd[key].reshape(-1))
        )
        assert worst < 2e-5, f"{key}: worst relative error {worst}"


def test_weighted_grads_match_fd_with_early_weights():
    # Nonzero weights at early steps exercise injection long before the
    # final step; every kept step adds its own adjoint seed.
    cfg = small_cfg()
    params = make(cfg, seed=30)
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, size=10)
    w = np.zeros((10, cfg.n_heads))
    w[1] = rng.normal(size=cfg.n_heads)
    w[4] = rng.normal(size=cfg.n_heads)
    w[9] = rng.normal(size=cfg.n_heads)
    _, grads = weighted_readout_grads(x, params, cfg, w)
    fd = fd_grad_dict(lambda: weighted_readout_grads(x, params, cfg, w)[0], params)
    for key in ("theta", "embed_w", "embed_b", "w_q", "dec_w1", "dec_b2"):
        worst = max(
            rel_err(a, b, floor=1e-6)
            for a, b in zip(grads[key].reshape(-1), fd[key].reshape(-1))
        )
        assert worst < 2e-5, f"{key}: worst relative error {worst}"


def test_checkpoint_window_crossing_matches_param_shift():
    # Two boundaries: T = 65 stores the end states of steps 32, 64 and 65,
    # and the rewind walks through all three windows.
    cfg = small_cfg(n_heads=2)
    params = make(cfg, seed=40)
    rng = np.random.default_rng(41)
    x = rng.uniform(0.0, 1.0, size=2 * CHECKPOINT_INTERVAL + 1)
    w = np.zeros((x.shape[0], cfg.n_heads))
    w[-1] = [1.0, -0.5]
    _, grads = weighted_readout_grads(x, params, cfg, w)
    for i in (0, 5):
        shift = float(np.sum(w * readout_param_shift(x, params, cfg, i)))
        assert abs(grads["theta"][i] - shift) < 1e-9, f"theta[{i}]"


# ---------------------------------------------------------------------------
# Contract details.
# ---------------------------------------------------------------------------

def test_loss_and_logits_match_forward_bitwise():
    cfg = small_cfg(t_keep=2)
    params = make(cfg, seed=50)
    rng = np.random.default_rng(51)
    sample = SequenceSample(rng.uniform(0.0, 1.0, size=7), 0)
    bundle = loss_and_grad(sample, params, cfg)
    trace = forward(sample.tokens, params, cfg)
    assert_array_equal(bundle.logits, trace.logits)
    loss, _ = softmax_cross_entropy(trace.logits, sample.label)
    assert bundle.loss == loss


def test_grad_keys_match_params():
    cfg = small_cfg()
    params = make(cfg)
    sample = SequenceSample(np.full(3, 0.5), 1)
    bundle = loss_and_grad(sample, params, cfg)
    assert set(bundle.grads) == set(params.as_dict())
    for key, g in bundle.grads.items():
        assert g.shape == getattr(params, key).shape, key


def test_grad_determinism():
    cfg = small_cfg()
    params = make(cfg, seed=60)
    sample = SequenceSample(np.random.default_rng(61).uniform(size=9), 2)
    a = loss_and_grad(sample, params, cfg)
    b = loss_and_grad(sample, params, cfg)
    assert a.loss == b.loss
    for key in a.grads:
        assert_array_equal(a.grads[key], b.grads[key], err_msg=key)


def test_numpy_int_register_size_gives_the_same_gradients():
    sample = SequenceSample(np.random.default_rng(62).uniform(size=9), 1)
    want = loss_and_grad(sample, make(small_cfg(), seed=63), small_cfg())
    cfg = small_cfg(n_qubits=np.int64(2))
    got = loss_and_grad(sample, make(cfg, seed=63), cfg)
    assert got.loss == want.loss
    assert_array_equal(got.logits, want.logits)
    for key in want.grads:
        assert_array_equal(got.grads[key], want.grads[key], err_msg=key)


def test_short_sequence_rejected():
    cfg = small_cfg(t_keep=4)
    params = make(cfg)
    with pytest.raises(ShapeError):
        loss_and_grad(SequenceSample(np.full(3, 0.5), 0), params, cfg)


def test_bad_weight_shape_rejected():
    cfg = small_cfg()
    params = make(cfg)
    with pytest.raises(ShapeError):
        weighted_readout_grads(np.full(4, 0.5), params, cfg, np.ones((4, cfg.n_heads + 1)))


def test_nonfinite_parameters_raise():
    cfg = small_cfg()
    params = make(cfg)
    params.theta[0] = np.nan
    with pytest.raises(NumericError):
        loss_and_grad(SequenceSample(np.full(4, 0.5), 0), params, cfg)


def test_bundle_is_compact():
    fields = [f for f in vars(GradBundle).get("__dataclass_fields__", {})]
    assert fields == ["loss", "grads", "logits"]


def test_grad_like_shapes():
    cfg = small_cfg()
    params = make(cfg)
    grads = grad_like(params.as_dict())
    for key, g in grads.items():
        assert g.shape == getattr(params, key).shape
        assert not np.any(g)
