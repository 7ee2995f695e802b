"""The full recurrence cell: embedding, memory evolution, readout,
classification, causality."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import dense_observable_matrix, dense_recurrence_readouts, einsum_decoder

from qlam import cell
from qlam.cell import (
    DECODER_ROWS,
    MAX_LAYERS,
    MAX_T_KEEP,
    MAX_WIDTH,
    CellConfig,
    QlamParams,
    ReadoutTrace,
    batch_logits,
    decoder,
    embed_token,
    final_logits,
    forward,
    init_qlam_params,
    param_shapes,
    predict,
    run,
)
from qlam.data import SequenceSample
from qlam.errors import ConfigError, NumericError, ShapeError, ValidationError
from qlam.gradients import loss_and_grad, param_shift_grad, readout_param_shift, weighted_readout_grads
from qlam.observables import MAX_SEED, ShotConfig


def small_cfg(**kwargs):
    defaults = dict(n_qubits=2, n_heads=2, d_query=3, decoder_hidden=4, n_classes=3)
    defaults.update(kwargs)
    return CellConfig(**defaults)


def make_params(cfg, seed=0):
    return init_qlam_params(np.random.default_rng(seed), cfg)


def test_cell_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(n_heads=0)
    with pytest.raises(ConfigError):
        small_cfg(t_keep=0)
    cfg = small_cfg()
    assert cfg.pool_size == 5
    assert cfg.feature_dim == 2


@pytest.mark.parametrize("field, most", [
    ("n_layers", MAX_LAYERS), ("t_keep", MAX_T_KEEP),
    ("d_query", MAX_WIDTH), ("n_heads", MAX_WIDTH), ("decoder_hidden", MAX_WIDTH),
])
def test_cell_config_refuses_sizes_above_their_bound(field, most):
    # refused when the config is built, naming the field, before any
    # array is sized by it; the bound itself is accepted
    assert getattr(small_cfg(**{field: most}), field) == most
    for value in (most + 1, 2**70):
        with pytest.raises(ConfigError, match=f"{field} must be <= {most}, got {value}"):
            small_cfg(**{field: value})


def test_params_shapes_and_validation():
    cfg = small_cfg()
    params = make_params(cfg)
    params.validate(cfg)
    assert params.theta.shape == (2 * cfg.n_layers * cfg.n_qubits,)
    assert params.dec_w2.shape == (2, 5, 4)
    # every field is checked: a wrong shape, then a non-finite value
    for field in dataclasses.fields(QlamParams):
        bad = params.copy()
        setattr(bad, field.name, np.zeros(getattr(params, field.name).shape + (1,)))
        with pytest.raises(ShapeError, match=field.name):
            bad.validate(cfg)
        bad = params.copy()
        getattr(bad, field.name).flat[-1] = np.nan
        with pytest.raises(NumericError, match=field.name):
            bad.validate(cfg)


def test_a_field_without_a_shape_fails_the_first_validate(monkeypatch):
    cfg = small_cfg()
    params = make_params(cfg)
    shapes = param_shapes(cfg)
    del shapes["dec_b2"]
    monkeypatch.setattr(cell, "param_shapes", lambda cfg: shapes)
    with pytest.raises(KeyError, match="dec_b2"):
        params.validate(cfg)


def test_params_dict_round_trip():
    cfg = small_cfg()
    params = make_params(cfg, 3)
    rebuilt = QlamParams.from_dict(params.as_dict())
    for key in params.as_dict():
        assert np.array_equal(getattr(params, key), getattr(rebuilt, key))
    with pytest.raises(ShapeError):
        QlamParams.from_dict({"embed_w": np.zeros(2)})


def test_init_angle_scale():
    cfg = small_cfg()
    params = make_params(cfg, 11)
    assert np.all(np.abs(params.theta) <= 0.1)


def test_query_identity_and_linearity():
    # the run's queries are W_Q e_t of each kept step
    cfg = small_cfg(d_query=2)
    params = make_params(cfg)
    tokens = np.array([0.0, 0.4, 1.0])
    params.w_q = np.eye(2)
    r = run([tokens], params, cfg)
    assert_allclose(r.queries, r.embeddings, atol=1e-15)
    params.embed_w[:] = 0.0
    params.embed_b[:] = 0.0
    assert_allclose(run([tokens], params, cfg).queries, np.zeros((1, 3, 2)), atol=1e-15)
    params = make_params(cfg)
    params.w_q = 2 * np.eye(2)
    assert_allclose(run([tokens], params, cfg).queries, 2 * r.embeddings, atol=1e-15)


def test_decoder_matches_straight_line_reimplementation():
    cfg = small_cfg()
    params = make_params(cfg, 7)
    rng = np.random.default_rng(9)
    q = rng.normal(size=cfg.d_query)
    _, stacked = decoder(q, params)
    for head in range(cfg.n_heads):
        hidden = np.tanh(params.dec_w1[head] @ q + params.dec_b1[head])
        expected = params.dec_w2[head] @ hidden + params.dec_b2[head]
        assert_allclose(stacked[head], expected, atol=1e-12)
    # a stack of queries decodes row by row
    qs = rng.normal(size=(4, cfg.d_query))
    rows = decoder(qs, params)[1]
    for row, q_row in zip(rows, qs):
        assert_allclose(row, decoder(q_row, params)[1], atol=1e-15)


@pytest.mark.parametrize("cfg", [small_cfg(), CellConfig()], ids=["small", "default"])
def test_decoder_matches_einsum_oracle(cfg):
    params = make_params(cfg, 11)
    rng = np.random.default_rng(12)
    for shape in ((cfg.d_query,), (1, cfg.d_query), (2, cfg.d_query), (7, cfg.d_query), (64, cfg.d_query)):
        q = rng.normal(size=shape)
        for got, want in zip(decoder(q, params), einsum_decoder(q, params)):
            assert got.shape == want.shape
            assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, DECODER_ROWS - 1, DECODER_ROWS, DECODER_ROWS + 1, 70])
def test_every_decoder_product_runs_on_decoder_rows(rows):
    # both of the decoder's products take exactly DECODER_ROWS rows per
    # block, whatever the stack's height, called alone or from a pass:
    # one GEMM over every row passes the bitwise tests too with some BLAS
    # builds
    heights = []

    class Recorded(np.ndarray):
        """A decoder weight, recording the rows of each matmul it is an operand of."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                heights.append(inputs[0].shape[-2])
            inputs = [x.view(np.ndarray) if isinstance(x, Recorded) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    cfg = small_cfg(t_keep=rows)
    params = make_params(cfg, 5)
    params.dec_w1, params.dec_w2 = params.dec_w1.view(Recorded), params.dec_w2.view(Recorded)
    tokens = np.random.default_rng(6).uniform(size=rows)
    decoder(np.random.default_rng(7).normal(size=(rows, cfg.d_query)), params)
    assert heights == [DECODER_ROWS] * 2
    forward(tokens, params, cfg)
    assert heights == [DECODER_ROWS] * 4


@pytest.mark.parametrize("cfg", [small_cfg(), CellConfig(), CellConfig(n_qubits=9, decoder_hidden=32)],
                         ids=["small", "default", "n9-hidden32"])
def test_decoder_rows_do_not_depend_on_the_stack(cfg):
    # every decoder GEMM has the same shape: every slice of a stack, and
    # every single query, gives the stack's bits
    params = make_params(cfg, 3)
    qs = np.random.default_rng(4).normal(size=(130, cfg.d_query))
    hidden, gammas = decoder(qs[:9], params)
    for i in range(9):
        for j in range(i + 1, 10):
            h, g = decoder(qs[i:j], params)
            assert np.array_equal(h, hidden[i:j]) and np.array_equal(g, gammas[i:j]), (i, j)
        h, g = decoder(qs[i], params)
        assert h.shape == (cfg.n_heads, cfg.decoder_hidden) and g.shape == (cfg.n_heads, cfg.pool_size)
        assert np.array_equal(h, hidden[i]) and np.array_equal(g, gammas[i]), i
    # long stacks, where a single GEMM would change kernels with the row count
    hidden, gammas = decoder(qs, params)
    for i, j in ((0, 130), (3, 120), (17, 50), (100, 104), (129, 130)):
        h, g = decoder(qs[i:j], params)
        assert np.array_equal(h, hidden[i:j]) and np.array_equal(g, gammas[i:j]), (i, j)


def test_decode_observable_zero_decoder():
    cfg = small_cfg()
    params = make_params(cfg)
    params.dec_w1[:] = 0
    params.dec_b1[:] = 0
    params.dec_w2[:] = 0
    params.dec_b2[:] = 0
    gammas = decoder(np.ones(cfg.d_query), params)[1]
    assert np.all(gammas == 0.0)


def test_decode_observable_hermitian_dense():
    cfg = small_cfg()
    params = make_params(cfg, 21)
    rng = np.random.default_rng(5)
    labels = cfg.pool
    for _ in range(10):
        gammas = decoder(rng.normal(size=cfg.d_query), params)[1][1]
        dense = dense_observable_matrix(gammas, labels)
        assert np.abs(dense - dense.conj().T).max() < 1e-14


def test_forward_all_zero_path():
    cfg = small_cfg()
    params = make_params(cfg)
    params.embed_w[:] = 0
    params.embed_b[:] = 0
    params.theta[:] = 0
    params.dec_w1[:] = 0
    params.dec_b1[:] = 0
    params.dec_w2[:] = 0
    params.dec_b2[:] = 0
    trace = forward(np.array([0.0]), params, cfg)
    assert_allclose(trace.readouts, np.zeros((1, 2)), atol=1e-15)
    assert_allclose(trace.logits, params.cls_b, atol=1e-15)


def test_forward_matches_dense_recurrence_oracle():
    cfg = small_cfg()
    params = make_params(cfg, 33)
    tokens = np.random.default_rng(44).random(3)
    trace = forward(tokens, params, cfg)
    expected = dense_recurrence_readouts(tokens, params, cfg)
    assert_allclose(trace.readouts, expected, atol=1e-10)


def test_forward_causality_and_prefix_property():
    cfg = small_cfg()
    params = make_params(cfg, 50)
    rng = np.random.default_rng(51)
    tokens = rng.random(12)
    full = forward(tokens, params, cfg)
    edited = tokens.copy()
    edited[-1] = rng.random()
    perturbed = forward(edited, params, cfg)
    assert np.array_equal(full.readouts[:-1], perturbed.readouts[:-1])
    prefix = forward(tokens[:7], params, cfg)
    assert np.array_equal(full.readouts[:7], prefix.readouts)


def test_forward_norm_stays_one():
    cfg = CellConfig(n_qubits=3, n_heads=2, d_query=4, decoder_hidden=4, n_classes=3)
    params = make_params(cfg, 60)
    tokens = np.random.default_rng(61).random(500)
    trace = forward(tokens, params, cfg)
    assert abs(np.linalg.norm(trace.final_state) - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), t=st.integers(1, 20))
def test_readout_bound_property(seed, t):
    cfg = small_cfg()
    params = make_params(cfg, seed % 100)
    rng = np.random.default_rng(seed)
    tokens = rng.random(t)
    trace = forward(tokens, params, cfg)
    for step_idx, x_t in enumerate(tokens):
        e_t = embed_token(float(x_t), params)
        gammas = decoder(params.w_q @ e_t, params)[1]
        bound = np.abs(gammas).sum(axis=1)
        assert np.all(np.abs(trace.readouts[step_idx]) <= bound + 1e-12)


def test_trace_holds_no_per_token_state_cache():
    cfg = small_cfg()
    params = make_params(cfg)
    t_long = 200
    trace = forward(np.random.default_rng(0).random(t_long), params, cfg)
    names = {f.name for f in dataclasses.fields(ReadoutTrace)}
    assert names == {"readouts", "features", "logits", "final_state"}
    # the only stored quantum state is the final 2**n amplitude vector
    assert trace.final_state.shape == (1 << cfg.n_qubits,)
    assert trace.readouts.shape == (t_long, cfg.n_heads)


def test_shot_consistency_large_m():
    cfg = small_cfg()
    params = make_params(cfg, 70)
    tokens = np.random.default_rng(71).random(5)
    exact = forward(tokens, params, cfg)
    m = 200_000
    sampled = forward(
        tokens, params, cfg, ShotConfig(mode="sampled", shots_per_term=m, rng_seed=1)
    )
    gap = np.abs(sampled.readouts - exact.readouts).max()
    # bound the gap by 3x the largest per-readout predicted std,
    # sqrt(sum_i gamma_i^2 (1 - <P_i>^2) / m) with the exact <P_i>
    r = run([tokens], params, cfg)
    gammas = decoder(r.queries[0], params)[1]
    var = np.einsum("thp,tp->th", gammas**2, 1.0 - r.exps[0]**2) / m
    worst_std = np.sqrt(var).max()
    assert gap < 3.0 * worst_std


def test_sampled_forward_deterministic():
    cfg = small_cfg()
    params = make_params(cfg, 80)
    tokens = np.random.default_rng(81).random(4)
    shot = ShotConfig(mode="sampled", shots_per_term=64, rng_seed=3)
    a = forward(tokens, params, cfg, shot, sample_index=2)
    b = forward(tokens, params, cfg, shot, sample_index=2)
    assert np.array_equal(a.readouts, b.readouts)
    c = forward(tokens, params, cfg, shot, sample_index=5)
    assert not np.array_equal(a.readouts, c.readouts)


def test_sample_index_outside_one_key_word_is_refused():
    # a sample index is one 64-bit word of its shot streams' key: -1 once
    # drew the shots of 2**64 - 1, its wrap, 2**64 those of 0, and 1.5
    # and True, truncated, those of 1
    cfg = small_cfg()
    params = make_params(cfg, 82)
    tokens = np.random.default_rng(83).random(4)
    shot = ShotConfig(mode="sampled", shots_per_term=8, rng_seed=3)
    for index in (-1, MAX_SEED + 1, 1.5, True):
        with pytest.raises(ConfigError, match="sample_index"):
            final_logits(tokens, params, cfg, shot, sample_index=index)
        with pytest.raises(ConfigError, match="sample_index"):
            batch_logits([tokens, tokens], params, cfg, shot, sample_index=[0, index])
    assert np.array_equal(batch_logits([tokens], params, cfg, shot, sample_index=[MAX_SEED])[0],
                          final_logits(tokens, params, cfg, shot, sample_index=MAX_SEED))


def test_final_logits_equals_forward():
    cfg = small_cfg(t_keep=2)
    params = make_params(cfg, 90)
    tokens = np.random.default_rng(91).random(9)
    assert np.array_equal(
        final_logits(tokens, params, cfg), forward(tokens, params, cfg).logits
    )
    shot = ShotConfig(mode="sampled", shots_per_term=32, rng_seed=7)
    assert np.array_equal(
        final_logits(tokens, params, cfg, shot, sample_index=4),
        forward(tokens, params, cfg, shot, sample_index=4).logits,
    )


# (n_qubits, T, t_keep): one kept step, and kept readouts that start
# inside a window of 32 steps, with one, two or three windows swept
VIEW_GRID = [(n, T, k) for n in (2, 4, 9)
             for T, k in ((64, 33), (64, 1), (65, 34), (40, 9), (96, 65))]


def assert_final_logits_equal_forward(tokens, params, cfg):
    for shot in (ShotConfig(), ShotConfig(mode="sampled", shots_per_term=32, rng_seed=5)):
        assert np.array_equal(
            final_logits(tokens, params, cfg, shot, sample_index=2),
            forward(tokens, params, cfg, shot, sample_index=2).logits,
        ), shot.mode


@pytest.mark.parametrize("n_qubits, T, t_keep", VIEW_GRID)
def test_final_logits_equals_forward_bitwise_on_grid(n_qubits, T, t_keep):
    cfg = CellConfig(n_qubits=n_qubits, t_keep=t_keep)
    rng = np.random.default_rng([n_qubits, T, t_keep])
    params = init_qlam_params(rng, cfg)
    assert_final_logits_equal_forward(rng.random(T), params, cfg)


@pytest.mark.parametrize("T, t_keep", [(150, 64), (300, 1)])
def test_final_logits_equals_forward_bitwise_training_cell(T, t_keep):
    # the `qlam train` cell has 32 hidden units; there one GEMM over all
    # of a sequence's steps would switch BLAS kernels from 101 steps on
    cfg = CellConfig(decoder_hidden=32, t_keep=t_keep)
    rng = np.random.default_rng([T, t_keep])
    params = init_qlam_params(rng, cfg)
    assert_final_logits_equal_forward(rng.random(T), params, cfg)


def test_final_logits_equals_forward_bitwise_default_cell():
    # t_keep = 1: final_logits reads one step where forward reads 64
    cfg = CellConfig()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = init_qlam_params(rng, cfg)
        assert_final_logits_equal_forward(rng.random(64), params, cfg)


def test_predict_tie_breaks_to_lowest_index():
    cfg = small_cfg()
    params = make_params(cfg)
    params.cls_w[:] = 0.0
    params.cls_b[:] = np.array([1.0, 5.0, 5.0])
    tokens = np.array([0.5, 0.2])
    assert predict(tokens, params, cfg) == 1
    params.cls_b[:] = np.array([2.0, 2.0, 2.0])
    assert predict(tokens, params, cfg) == 0
    params.cls_b[:] = np.array([0.0, 0.0, 3.0])
    assert predict(tokens, params, cfg) == 2


def test_token_validation():
    cfg = small_cfg()
    params = make_params(cfg)
    with pytest.raises(ShapeError):
        forward(np.array([]), params, cfg)
    with pytest.raises(ValidationError):
        forward(np.array([0.5, 1.5]), params, cfg)
    with pytest.raises(ValidationError):
        forward(np.array([-0.1]), params, cfg)
    with pytest.raises(NumericError):
        forward(np.array([np.nan]), params, cfg)


def test_short_sequence_vs_t_keep():
    # `run` classifies the last t_keep readouts, so every view of it,
    # the readout-only oracles included, refuses a shorter sequence
    cfg = small_cfg(t_keep=4)
    params = make_params(cfg)
    x = np.array([0.1, 0.2])
    sample = SequenceSample(x, 1)
    views = {
        "forward": lambda: forward(x, params, cfg),
        "final_logits": lambda: final_logits(x, params, cfg),
        "batch_logits": lambda: batch_logits([x, x], params, cfg),
        "loss_and_grad": lambda: loss_and_grad(sample, params, cfg),
        "weighted_readout_grads": lambda: weighted_readout_grads(x, params, cfg, np.ones((2, cfg.n_heads))),
        "readout_param_shift": lambda: readout_param_shift(x, params, cfg, 0),
        "param_shift_grad": lambda: param_shift_grad(sample, params, cfg, 0),
    }
    for name, view in views.items():
        with pytest.raises(ShapeError, match="length 2 is shorter than t_keep=4"):
            view()
            pytest.fail(name)


def test_readout_features_order():
    # the features are the last t_keep readout vectors, oldest first: of
    # six steps of two heads, the flat readouts 6..11, however many
    # steps the pass reads out
    cfg = small_cfg(t_keep=3)
    params = make_params(cfg)
    tokens = np.linspace(0.0, 1.0, 6)
    r = run([tokens], params, cfg)
    flat = r.readouts[0].reshape(-1)
    assert len(set(flat)) == flat.size
    feats = [int(np.flatnonzero(flat == f)[0]) for f in r.features[0]]
    assert_allclose(feats, [6, 7, 8, 9, 10, 11])
    assert np.array_equal(run([tokens], params, cfg, cfg.t_keep).features, r.features)
