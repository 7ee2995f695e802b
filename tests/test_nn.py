"""Classical pieces: loss, Adam, schedule, clipping, Elman baseline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import central_diff, rel_err

from qlam.cell import CellConfig, final_logits, init_qlam_params
from qlam.errors import ConfigError, NumericError, ShapeError, ValidationError
from qlam.nn import (
    AdamState,
    adam_step,
    clip_global_norm,
    cosine_lr,
    elman_forward,
    elman_loss_and_grad,
    grad_like,
    init_affine,
    init_elman,
    param_count,
    softmax_cross_entropy,
)


def test_cross_entropy_uniform_logits():
    loss, _ = softmax_cross_entropy(np.zeros(10), 3)
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)


def test_cross_entropy_saturated():
    loss, dlogits = softmax_cross_entropy(np.array([50.0, -50.0]), 0)
    assert loss == pytest.approx(0.0, abs=1e-10)
    assert_allclose(dlogits, [0.0, 0.0], atol=1e-10)


def test_cross_entropy_gradient_sums_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        logits = rng.normal(size=6) * 5
        _, dlogits = softmax_cross_entropy(logits, int(rng.integers(6)))
        assert abs(dlogits.sum()) < 1e-12


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=5)
    label = 2
    _, dlogits = softmax_cross_entropy(logits, label)
    for i in range(5):
        def f(v, i=i):
            z = logits.copy()
            z[i] = v
            return softmax_cross_entropy(z, label)[0]
        assert rel_err(dlogits[i], central_diff(f, logits[i])) < 1e-7


def test_cross_entropy_large_logits_stable():
    loss, dlogits = softmax_cross_entropy(np.array([1e4, 1e4 - 5.0]), 0)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(dlogits))


def test_cross_entropy_validation():
    with pytest.raises(ConfigError):
        softmax_cross_entropy(np.zeros(3), 3)
    with pytest.raises(ConfigError):
        softmax_cross_entropy(np.zeros(3), -1)
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros((2, 2)), 0)


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.zeros(2)}, state, 0.1)
    assert_allclose(params["w"], [1.0, 2.0], atol=1e-12)
    assert state.step == 1


def test_adam_first_step_magnitude():
    # bias correction makes the first update approximately lr * sign(g)
    params = {"w": np.zeros(3)}
    state = AdamState.for_params(params)
    grads = {"w": np.array([5.0, -0.01, 100.0])}
    adam_step(params, grads, state, 0.001)
    assert np.all(np.abs(params["w"]) <= 0.001 + 1e-9)
    assert_allclose(np.abs(params["w"]), 0.001, rtol=1e-3)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(4)
        params = {"w": rng.normal(size=4), "b": rng.normal(size=2)}
        state = AdamState.for_params(params)
        for _ in range(10):
            grads = {"w": rng.normal(size=4), "b": rng.normal(size=2)}
            adam_step(params, grads, state, 0.01)
        return params

    a, b = run(), run()
    assert np.array_equal(a["w"], b["w"])
    assert np.array_equal(a["b"], b["b"])


def test_adam_matches_reference_implementation():
    # straight-line reference written independently of the package code
    rng = np.random.default_rng(8)
    w = rng.normal(size=5)
    params = {"w": w.copy()}
    state = AdamState.for_params(params)
    m = np.zeros(5)
    v = np.zeros(5)
    ref = w.copy()
    for t in range(1, 8):
        g = rng.normal(size=5)
        adam_step(params, {"w": g.copy()}, state, 0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert_allclose(params["w"], ref, atol=1e-14)


def test_adam_key_mismatch():
    params = {"w": np.zeros(2)}
    state = AdamState.for_params(params)
    with pytest.raises(ShapeError):
        adam_step(params, {"v": np.zeros(2)}, state, 0.1)


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 10, 1e-3) == pytest.approx(1e-3)
    assert cosine_lr(10, 10, 1e-3) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(5, 10, 1e-3) == pytest.approx(5e-4)
    assert isinstance(cosine_lr(3, 10, 1e-3), float)
    with pytest.raises(ConfigError):
        cosine_lr(11, 10, 1e-3)
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 1e-3)


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    pre = clip_global_norm(grads, max_norm=1.0)
    assert pre == pytest.approx(5.0)
    joint = np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
    assert joint == pytest.approx(1.0)
    small = {"a": np.array([0.1])}
    pre = clip_global_norm(small, max_norm=1.0)
    assert pre == pytest.approx(0.1)
    assert small["a"][0] == pytest.approx(0.1)


def test_init_affine_bounds():
    rng = np.random.default_rng(2)
    w, b = init_affine(rng, 20, 25)
    bound = 1 / np.sqrt(25)
    assert w.shape == (20, 25) and b.shape == (20,)
    assert np.all(np.abs(w) <= bound) and np.all(np.abs(b) <= bound)


def test_param_count_and_grad_like():
    params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    assert param_count(params) == 10
    zeros = grad_like(params)
    assert zeros["a"].shape == (2, 3)
    assert np.all(zeros["a"] == 0)


# ---------------------------------------------------------------------------
# Elman baseline.
# ---------------------------------------------------------------------------

def test_elman_zero_weights_yield_bias():
    params = init_elman(np.random.default_rng(0), 6, 4)
    for key in ("w_in", "b_in", "w_rec", "w_out"):
        params[key][:] = 0.0
    logits = elman_forward(np.random.default_rng(1).random(10), params)
    assert_allclose(logits, params["b_out"], atol=1e-15)


def test_elman_hidden_state_bounded():
    params = init_elman(np.random.default_rng(3), 8, 3)
    params["w_rec"] *= 10
    logits = elman_forward(np.random.default_rng(4).random(50), params)
    # logits are a bounded readout of a tanh state
    bound = np.abs(params["w_out"]).sum(axis=1) + np.abs(params["b_out"])
    assert np.all(np.abs(logits) <= bound + 1e-12)


def test_elman_gradients_match_fd():
    rng = np.random.default_rng(5)
    params = init_elman(rng, 5, 3)
    tokens = rng.random(16)
    label = 1
    _, grads, _ = elman_loss_and_grad(tokens, label, params)
    for key, arr in params.items():
        flat = arr.reshape(-1)
        gflat = grads[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]

            def f(v, flat=flat, i=i, orig=orig):
                flat[i] = v
                loss, _, _ = elman_loss_and_grad(tokens, label, params)
                flat[i] = orig
                return loss

            assert rel_err(gflat[i], central_diff(f, orig)) < 1e-5, (key, i)


def test_elman_empty_tokens_rejected():
    params = init_elman(np.random.default_rng(0), 4, 2)
    with pytest.raises(ShapeError):
        elman_forward(np.array([]), params)


def test_elman_and_hybrid_reject_the_same_tokens():
    cfg = CellConfig(n_qubits=2, n_heads=2, d_query=3)
    hybrid = init_qlam_params(np.random.default_rng(0), cfg)
    elman = init_elman(np.random.default_rng(0), 4, 10)
    cases = [([0.5, 1.5], ValidationError), ([0.5, -0.2], ValidationError),
             ([0.5, np.nan], NumericError), ([], ShapeError)]
    for tokens, error in cases:
        for call in (lambda: final_logits(tokens, hybrid, cfg), lambda: elman_forward(tokens, elman),
                     lambda: elman_loss_and_grad(tokens, 0, elman)):
            with pytest.raises(error):
                call()


def test_separable_toy_loss_decreases_monotonically():
    # full-batch exact gradients on a linearly separable 2-class set:
    # class 0 tokens near 0.2, class 1 tokens near 0.8
    rng = np.random.default_rng(9)
    n_per = 10
    xs = np.concatenate([
        rng.uniform(0.1, 0.3, n_per), rng.uniform(0.7, 0.9, n_per)
    ])
    labels = np.array([0] * n_per + [1] * n_per)
    params = init_elman(np.random.default_rng(1), 4, 2)
    state = AdamState.for_params(params)
    losses = []
    for _ in range(20):
        total = grad_like(params)
        loss_sum = 0.0
        for x, label in zip(xs, labels):
            loss, grads, _ = elman_loss_and_grad(np.array([x, x]), int(label), params)
            loss_sum += loss
            for key in total:
                total[key] += grads[key]
        for key in total:
            total[key] /= len(xs)
        losses.append(loss_sum / len(xs))
        adam_step(params, total, state, 1e-2)
    diffs = np.diff(losses)
    assert np.all(diffs < 1e-9), losses
