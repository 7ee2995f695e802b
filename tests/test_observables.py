"""Pauli strings, exact expectations through the Pauli tables, and the
shot estimator of `cell.measure`.  An observable's value is its weights
dotted with the pool expectations."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import dense_observable_matrix, dense_pauli_string, sample_term_mean, shot_stream

from qlam.cell import CellConfig, measure
from qlam.circuits import new_zero_state
from qlam.errors import ConfigError
from qlam.observables import (
    MAX_SHOTS,
    ShotConfig,
    default_pauli_pool,
    pauli_table,
    plus_thresholds,
    sample_means,
)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def test_eigenstate_expectations():
    zero = new_zero_state(1)
    one = np.array([0, 1], dtype=np.complex128)
    plus = np.array([1, 1], dtype=np.complex128) / np.sqrt(2)
    y_plus = np.array([1, 1j], dtype=np.complex128) / np.sqrt(2)
    # rows: |0>, |1>, |+>, |+i>; columns: Z, X, Y
    exps = pauli_table(("Z", "X", "Y")).expectations(np.stack([zero, one, plus, y_plus]))
    assert exps[0, 0] == pytest.approx(1.0)
    assert exps[1, 0] == pytest.approx(-1.0)
    assert exps[2, 1] == pytest.approx(1.0)
    assert exps[2, 0] == pytest.approx(0.0, abs=1e-15)
    assert exps[3, 2] == pytest.approx(1.0)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_pauli_expectation_matches_dense(n_qubits):
    rng = np.random.default_rng(5 + n_qubits)
    for trial in range(10):
        labels = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        state = random_state(n_qubits, 31 * n_qubits + trial)
        got = pauli_table((labels,)).expectations(state[None])[0, 0]
        dense = dense_pauli_string(labels)
        expected = np.real(np.conj(state) @ dense @ state)
        assert_allclose(got, expected, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), term=st.integers(0, 8))
def test_pauli_expectation_bounded(seed, term):
    state = random_state(3, seed)
    pool = default_pauli_pool(3)
    value = pauli_table((pool[term % len(pool)],)).expectations(state[None])[0, 0]
    assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_expectation_exact_matches_dense():
    rng = np.random.default_rng(77)
    for n_qubits in (1, 2, 3, 4):
        pool = default_pauli_pool(n_qubits)
        gammas = rng.normal(size=len(pool))
        state = random_state(n_qubits, 900 + n_qubits)
        dense = dense_observable_matrix(gammas, pool)
        expected = np.real(np.conj(state) @ dense @ state)
        got = gammas @ pauli_table(pool).expectations(state[None])[0]
        assert_allclose(got, expected, atol=1e-12)


def test_observable_dense_matrix_is_hermitian():
    rng = np.random.default_rng(13)
    pool = default_pauli_pool(3)
    for _ in range(20):
        gammas = rng.normal(size=len(pool))
        dense = dense_observable_matrix(gammas, pool)
        assert np.abs(dense - dense.conj().T).max() < 1e-14


def test_default_pool_sizes_and_order():
    assert list(default_pauli_pool(1)) == ["Z", "X"]
    # the two-qubit ring closes on itself: the ZZ pair appears once
    assert list(default_pauli_pool(2)) == ["ZI", "IZ", "XI", "IX", "ZZ"]
    pool3 = list(default_pauli_pool(3))
    assert pool3 == ["ZII", "IZI", "IIZ", "XII", "IXI", "IIX", "ZZI", "IZZ", "ZIZ"]
    assert len(default_pauli_pool(4)) == 12
    assert len(default_pauli_pool(6)) == 18
    # the pool checks its register as every other n_qubits is checked, so
    # a bool, a float and a register past MAX_QUBITS are refused like 0
    for bad in (0, True, 2.5, 13):
        with pytest.raises(ConfigError):
            default_pauli_pool(bad)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_pool_is_label_strings_with_one_cached_table(n_qubits):
    pool = default_pauli_pool(n_qubits)
    assert type(pool) is tuple and all(type(label) is str for label in pool)
    assert pauli_table(CellConfig(n_qubits=n_qubits).pool) is pauli_table(pool)


def test_pool_is_built_once_per_register(monkeypatch):
    # every `CellConfig.pool` and `pool_size` access reads the same tuple;
    # the register is checked before the cache, so an unhashable or bad
    # n_qubits raises ConfigError
    from qlam import observables

    built = []
    pool = observables._pool.__wrapped__

    def counted(n_qubits):
        built.append(n_qubits)
        return pool(n_qubits)

    monkeypatch.setattr(observables, "_pool", functools.cache(counted))
    cfg = CellConfig(n_qubits=4)
    assert cfg.pool is default_pauli_pool(4) is CellConfig(n_qubits=4).pool
    assert cfg.pool_size == 12 and default_pauli_pool(2) == ("ZI", "IZ", "XI", "IX", "ZZ")
    assert built == [4, 2]
    for bad in ([4], 0, 13):
        with pytest.raises(ConfigError):
            default_pauli_pool(bad)
    assert built == [4, 2]


def test_pool_expectations_match_loop():
    # the pool's table agrees bit for bit with one-term tables
    state = random_state(3, 123)
    pool = default_pauli_pool(3)
    vec = pauli_table(pool).expectations(state[None])[0]
    for i, pauli in enumerate(pool):
        assert vec[i] == pauli_table((pauli,)).expectations(state[None])[0, 0]


# ---------------------------------------------------------------------------
# Shot sampling.
# ---------------------------------------------------------------------------

def test_shot_config_validation():
    ShotConfig(mode="exact")
    ShotConfig(mode="sampled", shots_per_term=1)
    with pytest.raises(ConfigError):
        ShotConfig(mode="bogus")
    with pytest.raises(ConfigError):
        ShotConfig(mode="sampled", shots_per_term=0)


def test_shot_config_bounds_shots_and_seed():
    # refused at construction, before any stream is drawn: 2**70 shots
    # would fail allocating, and seeds 2**64 and -1 are one stream key
    # word past 64 bits, so they would draw the shots of seeds 0 and
    # 2**64 - 1
    ShotConfig("sampled", MAX_SHOTS, 2**64 - 1)
    for field, value in (("shots_per_term", 2**70), ("shots_per_term", MAX_SHOTS + 1),
                         ("rng_seed", 2**64)):
        with pytest.raises(ConfigError, match=f"{field} must be <="):
            ShotConfig("sampled", **{field: value})
    with pytest.raises(ConfigError, match="rng_seed must be >= 0, got -1"):
        ShotConfig("sampled", rng_seed=-1)


@pytest.mark.parametrize("field, value", [
    ("shots_per_term", 2.5), ("shots_per_term", True), ("rng_seed", 1.5), ("rng_seed", True),
])
def test_shot_config_rejects_non_int_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        ShotConfig(mode="sampled", **{field: value})


def test_numpy_int_shot_config_draws_the_same_shots():
    plain = ShotConfig("sampled", 64, 2**64 - 5)
    numpy_ints = ShotConfig("sampled", np.int64(64), np.uint64(2**64 - 5))
    states = np.stack([random_state(2, 30), random_state(2, 31)])
    table = pauli_table(default_pauli_pool(2))
    assert np.array_equal(measure(states, table, numpy_ints, 3, 5), measure(states, table, plain, 3, 5))


def sampled_value(state, gammas, pool, cfg, sample_index, timestep=0):
    """gammas @ the m-shot pool means of one state at one timestep."""
    return gammas @ measure(state[None], pauli_table(pool), cfg, sample_index, timestep)[0]


def test_sampled_deterministic_given_seed():
    state = random_state(2, 4)
    gammas = np.array([0.5, -0.3, 0.2, 0.1, 0.7])
    pool = default_pauli_pool(2)
    cfg = ShotConfig(mode="sampled", shots_per_term=500, rng_seed=9)
    a = sampled_value(state, gammas, pool, cfg, 3, 7)
    b = sampled_value(state, gammas, pool, cfg, 3, 7)
    assert a == b
    c = sampled_value(state, gammas, pool, cfg, 4, 7)
    assert a != c


def test_shot_streams_are_independent():
    # distinct coordinates give distinct draw sequences
    base = shot_stream(1, 2, 3, 4).random(8)
    for coords in [(0, 2, 3, 4), (1, 3, 3, 4), (1, 2, 4, 4), (1, 2, 3, 5)]:
        other = shot_stream(*coords).random(8)
        assert not np.array_equal(base, other)


def reference_means(exps, m, seed, sample_index, t0):
    """Per-coordinate means, each from a freshly built `shot_stream`."""
    return np.array([
        [sample_term_mean(e, m, shot_stream(seed, sample_index, t0 + s, k))
         for k, e in enumerate(row)]
        for s, row in enumerate(exps)
    ])


# +-1, one rounding step inside and past them, and interior values
EDGE_EXPS = np.array([
    [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.0, 0.3],
    [-1.0, np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0), -0.0, -0.7],
])


@pytest.mark.parametrize("t0", [0, 33, 2**40])
@pytest.mark.parametrize("sample_index", [0, 2**64 - 1])
@pytest.mark.parametrize("m", [1, 3, 5, 1023, 1024])
def test_sampled_measure_matches_per_coordinate_streams(m, sample_index, t0):
    # one re-pointed generator per call reproduces every coordinate's own
    # stream, also when m is not a multiple of Philox's 4-draw block
    pool = default_pauli_pool(2)
    table = pauli_table(pool)
    basis = np.eye(4, dtype=np.complex128)
    states = np.stack([basis[0], basis[3], random_state(2, 7), random_state(2, 8)])
    shot = ShotConfig(mode="sampled", shots_per_term=m, rng_seed=11)
    got = measure(states, table, shot, sample_index, t0)
    want = reference_means(table.expectations(states), m, 11, sample_index, t0)
    assert np.array_equal(got, want)
    got = sample_means(EDGE_EXPS, m, 11, sample_index, t0)
    assert np.array_equal(got, reference_means(EDGE_EXPS, m, 11, sample_index, t0))


def drawn_multiple(seed, sample_index, m):
    """(t, p): the first timestep t whose (t, term 0) stream draws, among
    its first m words, one with its 11 low bits 0 and p = (x >> 11) *
    2**-53 in [1/4, 1), so that word equals p's threshold and the double
    drawn from it equals p; (1 + e) / 2 = p holds exactly for e = 2p - 1."""
    for t in range(64):
        words = shot_stream(seed, sample_index, t, 0).bit_generator.random_raw(m)
        hits = words[(words & 0x7FF == 0) & (words >= 1 << 62)]
        if hits.size:
            return t, float(hits[0] >> 11) * 2.0**-53
    raise AssertionError("no drawn word on a threshold")


# the smallest p = (1 + e) / 2 above 0 and the largest below 1, then 0, 1
# and NaN; a smaller p such as 2**-60 is no (1 + e) / 2 of a double e
EDGE_P_EXPS = [-1.0 + 2**-53, 1.0 - 2**-52, -1.0, 1.0, np.nan]


def test_sampled_means_at_the_threshold_edges():
    # against the reference's double comparison: a p that a draw equals
    # (whose word is the threshold, so it must not count), the extremes
    # and NaN, which counts no draw and warns of nothing
    m, seed, sample_index = 1024, 11, 4
    t0, p = drawn_multiple(seed, sample_index, m)
    assert p in shot_stream(seed, sample_index, t0, 0).random(m)
    exps = np.array([[2.0 * p - 1.0, *EDGE_P_EXPS]])
    assert (0.5 * (1.0 + exps[0, :3])).tolist() == [p, 2**-54, 1.0 - 2**-53]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_means(exps, m, seed, sample_index, t0)
        want = reference_means(exps, m, seed, sample_index, t0)
    assert np.array_equal(got, want)
    assert got[0, 3:].tolist() == [-1.0, 1.0, -1.0]


def count_below(words, p):
    """Words under the integer rule: below p's threshold, or any at p = 1."""
    return np.count_nonzero(words < plus_thresholds(np.asarray(p))) if p < 1.0 else len(words)


@pytest.mark.parametrize("p", ["drawn", 2**-60, 2**-54, 1.0 - 2**-53, 0.0, 1.0])
def test_threshold_counts_match_the_streams_doubles(p):
    # the raw words of a stream, counted under the integer rule, against
    # its doubles compared with p, for p down to 2**-60
    m, seed, sample_index = 1024, 5, 9
    t = 0
    if p == "drawn":
        t, p = drawn_multiple(seed, sample_index, m)
    words = shot_stream(seed, sample_index, t, 0).bit_generator.random_raw(m)
    doubles = shot_stream(seed, sample_index, t, 0).random(m)
    assert count_below(words, p) == np.count_nonzero(doubles < p)


def around_a_block(a):
    """A multiple of 2**11 and its neighbours: the words where the rule's
    rounding and comparison show."""
    return st.sampled_from([max(0, (a << 11) - 1), a << 11, (a << 11) + 1])


WORDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**53 - 1).flatmap(around_a_block),
                  st.integers(0, 2**64 - 1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(x=WORDS, data=st.data())
def test_integer_rule_equals_the_double_comparison(x, data):
    # numpy draws the double (x >> 11) * 2**-53 from the word x: p at that
    # double, a rounding step either side, and anywhere in [0, 1]
    u = (x >> 11) * 2.0**-53
    p = data.draw(st.one_of(
        st.sampled_from([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0), 0.0, 1.0, 2**-60, 1.0 - 2**-53]),
        st.floats(0.0, 1.0)))
    assert bool(count_below(np.array([x], dtype=np.uint64), p)) == (u < p)


def test_sample_term_mean_extremes():
    rng = shot_stream(0, 0, 0, 0)
    assert sample_term_mean(1.0, 100, rng) == 1.0
    assert sample_term_mean(-1.0, 100, rng) == -1.0
    mean = sample_term_mean(0.0, 10000, shot_stream(0, 1, 0, 0))
    assert abs(mean) < 0.05


def test_sampled_estimator_unbiased():
    state = random_state(2, 55)
    pool = default_pauli_pool(2)
    gammas = np.array([0.4, -0.2, 0.3, 0.15, -0.5])
    exps = pauli_table(pool).expectations(state[None])[0]
    exact = gammas @ exps
    cfg = ShotConfig(mode="sampled", shots_per_term=200, rng_seed=17)
    reps = 400
    estimates = [sampled_value(state, gammas, pool, cfg, i) for i in range(reps)]
    predicted = np.sqrt(np.sum(gammas**2 * (1.0 - exps**2)) / 200)
    # the mean of unbiased estimates sits within 4 standard errors
    assert abs(np.mean(estimates) - exact) < 4 * predicted / np.sqrt(reps)


def test_sampling_std_matches_empirical():
    state = random_state(2, 21)
    pool = default_pauli_pool(2)
    gammas = np.array([0.6, -0.4, 0.2, 0.3, 0.1])
    exps = pauli_table(pool).expectations(state[None])[0]
    m = 100
    cfg = ShotConfig(mode="sampled", shots_per_term=m, rng_seed=5)
    estimates = [sampled_value(state, gammas, pool, cfg, i) for i in range(600)]
    predicted = np.sqrt(np.sum(gammas**2 * (1.0 - exps**2)) / m)
    empirical = np.std(estimates)
    assert 0.75 * predicted < empirical < 1.25 * predicted
