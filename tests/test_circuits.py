"""Encoding and ansatz circuits against the dense-matrix oracle.

The strided engine runs the step plan through `apply_plan_kernel`: its
first n entries are the encoding, the rest the ansatz.  The block engine
`Steps` is checked against the same oracle in `test_engine`."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import central_diff, dense_step_matrix

from qlam.cell import CellConfig, init_qlam_params, run
from qlam.circuits import AnsatzConfig, apply_plan_kernel, build_step_plan, entangler_pairs
from qlam.errors import ConfigError, NumericError, ShapeError
from qlam.observables import pauli_table
from qlam.statevector import new_zero_state


def random_theta(cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, size=cfg.n_params)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def test_ansatz_config_validation():
    cfg = AnsatzConfig(3, 2)
    assert cfg.params_per_layer == 6
    assert cfg.n_params == 12
    with pytest.raises(ConfigError):
        AnsatzConfig(3, 0)
    with pytest.raises(ConfigError):
        AnsatzConfig(3, 1, entangler="star")


def test_entangler_pairs():
    assert entangler_pairs(AnsatzConfig(1, 1)) == []
    # the two-qubit ring keeps both directed pairs
    assert entangler_pairs(AnsatzConfig(2, 1)) == [(0, 1), (1, 0)]
    assert entangler_pairs(AnsatzConfig(4, 1)) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert entangler_pairs(AnsatzConfig(4, 1, entangler="linear")) == [(0, 1), (1, 2), (2, 3)]


def test_encoding_zero_is_identity():
    state = random_state(3, 1)
    before = state.copy()
    apply_plan_kernel(state, 3, build_step_plan(AnsatzConfig(3))[:3], np.zeros(3), None)
    assert np.array_equal(state, before)


def test_encoding_pi_flips_qubit_zero():
    state = new_zero_state(3)
    encoding = build_step_plan(AnsatzConfig(3))[:3]
    apply_plan_kernel(state, 3, encoding, np.array([np.pi, 0.0, 0.0]), None)
    expected = np.zeros(8, dtype=np.complex128)
    expected[1] = 1.0
    assert_allclose(state, expected, atol=1e-15)


def test_encoding_preserves_norm():
    state = random_state(4, 2)
    embedding = np.random.default_rng(3).uniform(-5, 5, 4)
    apply_plan_kernel(state, 4, build_step_plan(AnsatzConfig(4))[:4], embedding, None)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def small_cell():
    return CellConfig(n_qubits=2, n_layers=2, n_heads=1, d_query=2, decoder_hidden=2,
                      n_classes=2)


def test_encoding_length_mismatch():
    # the recurrence checks the encoding's angle source once, at its entry
    cfg = small_cell()
    params = init_qlam_params(np.random.default_rng(0), cfg)
    params.embed_w = np.zeros(3)
    with pytest.raises(ShapeError):
        run(np.array([[0.5]]), params, cfg)
    params = init_qlam_params(np.random.default_rng(0), cfg)
    params.embed_b[0] = np.nan
    with pytest.raises(NumericError):
        run(np.array([[0.5]]), params, cfg)


def test_ansatz_zero_angles_fix_all_zeros():
    cfg = AnsatzConfig(2, 1)
    state = new_zero_state(2)
    apply_plan_kernel(state, 2, build_step_plan(cfg)[2:], None, np.zeros(cfg.n_params))
    expected = np.zeros(4, dtype=np.complex128)
    expected[0] = 1.0
    assert_allclose(state, expected, atol=1e-15)


def test_ansatz_single_qubit_no_entangler():
    cfg = AnsatzConfig(1, 1)
    state = new_zero_state(1)
    apply_plan_kernel(state, 1, build_step_plan(cfg)[1:], None, np.array([np.pi, 0.0]))
    assert_allclose(state, [0.0, 1.0], atol=1e-15)


def test_ansatz_param_length_mismatch():
    # the recurrence checks theta once, at its entry
    cfg = small_cell()
    params = init_qlam_params(np.random.default_rng(0), cfg)
    params.theta = np.zeros(3)
    with pytest.raises(ShapeError):
        run(np.array([[0.5]]), params, cfg)
    params.theta = np.full(cfg.ansatz.n_params, np.inf)
    with pytest.raises(NumericError):
        run(np.array([[0.5]]), params, cfg)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("entangler", ["ring", "linear"])
def test_step_matches_dense_oracle(n_qubits, entangler):
    cfg = AnsatzConfig(n_qubits, 2, entangler=entangler)
    plan = build_step_plan(cfg)
    rng = np.random.default_rng(17 * n_qubits)
    for trial in range(5):
        theta = random_theta(cfg, 200 + trial)
        embedding = rng.uniform(-2, 2, n_qubits)
        state = random_state(n_qubits, 300 + trial)
        expected = dense_step_matrix(cfg, theta, embedding) @ state
        apply_plan_kernel(state, n_qubits, plan, embedding, theta)
        assert_allclose(state, expected, atol=1e-12)


def test_dense_composite_is_unitary():
    cfg = AnsatzConfig(3, 2)
    theta = random_theta(cfg, 5)
    u = dense_step_matrix(cfg, theta, np.array([0.3, -1.1, 0.9]))
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


def test_step_order_encoding_first():
    # regression pin: swapping encoding and ansatz changes the state
    cfg = AnsatzConfig(2, 1)
    theta = random_theta(cfg, 8)
    embedding = np.array([0.7, -0.4])
    plan = build_step_plan(cfg)
    enc_first = new_zero_state(2)
    apply_plan_kernel(enc_first, 2, plan, embedding, theta)
    var_first = new_zero_state(2)
    apply_plan_kernel(var_first, 2, plan[2:], None, theta)
    apply_plan_kernel(var_first, 2, plan[:2], embedding, None)
    assert np.abs(enc_first - var_first).max() > 1e-3


def test_norm_preserved_over_784_steps():
    cfg = AnsatzConfig(4, 2)
    theta = random_theta(cfg, 10)
    plan = build_step_plan(cfg)
    rng = np.random.default_rng(11)
    state = new_zero_state(4)
    for _ in range(784):
        apply_plan_kernel(state, 4, plan, rng.uniform(0, 1, 4), theta)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def test_step_deterministic_bitwise():
    cfg = AnsatzConfig(3, 2)
    theta = random_theta(cfg, 20)
    plan = build_step_plan(cfg)
    embedding = np.array([0.2, 0.5, -0.3])
    a = random_state(3, 21)
    b = a.copy()
    apply_plan_kernel(a, 3, plan, embedding, theta)
    apply_plan_kernel(b, 3, plan, embedding, theta)
    assert np.array_equal(a, b)


def test_plan_covers_every_parameter_once():
    cfg = AnsatzConfig(3, 2)
    plan = build_step_plan(cfg)
    theta_slots = [slot[1] for _, _, _, slot in plan if slot and slot[0] == "theta"]
    enc_slots = [slot[1] for _, _, _, slot in plan if slot and slot[0] == "enc"]
    assert sorted(theta_slots) == list(range(cfg.n_params))
    assert sorted(enc_slots) == list(range(cfg.n_qubits))
    n_cnots = sum(1 for kind, *_ in plan if kind == "cnot")
    assert n_cnots == cfg.n_layers * len(entangler_pairs(cfg))


def test_plan_kernel_equals_step():
    # the encoding slice then the ansatz slice is the whole plan, bit for bit
    cfg = AnsatzConfig(3, 2)
    theta = random_theta(cfg, 30)
    embedding = np.array([0.4, -0.9, 1.3])
    plan = build_step_plan(cfg)
    via_slices = random_state(3, 31)
    via_plan = via_slices.copy()
    apply_plan_kernel(via_slices, 3, plan[:3], embedding, None)
    apply_plan_kernel(via_slices, 3, plan[3:], None, theta)
    apply_plan_kernel(via_plan, 3, plan, embedding, theta)
    assert np.array_equal(via_slices, via_plan)


def test_parameter_shift_identity_single_angle():
    # d<Z_0>/dtheta equals the +-pi/2 shift formula and finite differences
    cfg = AnsatzConfig(2, 1)
    base = random_theta(cfg, 40)
    embedding = np.array([0.3, 0.8])
    plan = build_step_plan(cfg)
    observable = pauli_table(("ZI",))

    def expectation(theta_value, index=1):
        theta = base.copy()
        theta[index] = theta_value
        state = new_zero_state(2)
        apply_plan_kernel(state, 2, plan, embedding, theta)
        return observable.expectations(state[None])[0, 0]

    for index in range(cfg.n_params):
        def f(v, index=index):
            return expectation(v, index)
        shift = 0.5 * (f(base[index] + np.pi / 2) - f(base[index] - np.pi / 2))
        fd = central_diff(f, base[index], h=1e-5)
        assert abs(shift - fd) < 1e-8
