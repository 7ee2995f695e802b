"""The full recurrence: embed tokens, evolve quantum memory, read it out
through query-conditioned observables, classify from the final readouts.

Per timestep t (causal, left to right):

    e_t   = embed_w * x_t + embed_b          classical token embedding
    psi   <- U_var(theta) U_enc(e_t) psi     quantum memory update
    q_t   = W_Q e_t                          query (no bias)
    gamma = MLP_head(q_t)                    observable weights, one per head
    r_t[h] = sum_i gamma_i <psi| P_i |psi>   readout over the shared Pauli pool

The classifier consumes the last `t_keep` readout vectors (default 1,
"the final readout"), concatenated oldest first.  The quantum memory is
a single 2**n amplitude vector regardless of sequence length; the trace
never stores per-token states.

`run` is the one pass of the recurrence, over a (B, T) stack of
equal-length sequences.  It builds one `circuits.Steps` and lets
`Steps.sweep` advance every memory together; only that advance is
sequential.  Everything else runs once per window or once per stack on
stacked arrays: pool expectations of each window's kept states through
`measure` (exact, or shot-sampled from each sequence's own streams) on
the cached `pauli_table` of the pool, a tuple of Pauli labels
(`CellConfig.pool`), called back from the sweep, and the query and
`decoder` of every kept step.  The decoder runs one sequence at a time
as BLAS products, a GEMM and a stacked matmul over the heads, on fixed
blocks of DECODER_ROWS rows.  A head's readout is its weight row
dotted with the pool expectations, one mat-vec per step; no observable
object is built.  The pass ends at the logits, one classifier mat-vec
per sequence.  `forward`, `batch_logits`, `final_logits`, the adjoint
gradients and the parameter-shift oracle in `gradients` are all views
of `run`, the single-sequence ones with B = 1; the adjoint walks back
the same `Steps`.  A sequence's outputs are bit for bit the same in
any stack, at any position, and a step's readout is the same however
many steps share its window or its decoder call:
`PauliTable.expectations` computes a one-row call, whose einsum would
round along another path, as a pair of rows, and every BLAS call of
`decoder` has the same shape.  The memory is a plain (B, 2**n) complex
array throughout.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .circuits import Steps, block_matmul, check_register, entangler_pairs
from .data import validate_tokens
from .errors import ConfigError, NumericError, ShapeError, check_fields
from .observables import (
    MAX_SEED,
    PauliTable,
    ShotConfig,
    default_pauli_pool,
    pauli_table,
    sample_means,
)


# The most ansatz layers, kept readouts and query, head and decoder
# widths a cell takes: far above any trained value, and low enough that a
# mistyped size is refused here, not by an allocation in
# `init_qlam_params` (at MAX_WIDTH each, dec_w1 holds 2**24 floats).
MAX_LAYERS = 256
MAX_T_KEEP = 1 << 16
MAX_WIDTH = 256


@dataclass(frozen=True)
class CellConfig:
    """Structural hyperparameters of one recurrence cell.  Every field but
    `n_classes`, which the dataset sets, is a `TrainConfig` field."""

    n_qubits: int = 4
    n_layers: int = 2
    entangler: str = "ring"
    d_query: int = 8
    n_heads: int = 8
    decoder_hidden: int = 16
    t_keep: int = 1
    n_classes: int = 10

    # int ranges for `check_fields`, but n_qubits' (`check_register`)
    RANGES = {"n_layers": (1, MAX_LAYERS), "d_query": (1, MAX_WIDTH), "n_heads": (1, MAX_WIDTH),
              "decoder_hidden": (1, MAX_WIDTH), "t_keep": (1, MAX_T_KEEP), "n_classes": (1, None)}

    def __post_init__(self):
        check_fields(self)
        check_register(self.n_qubits)
        entangler_pairs(self.n_qubits, self.entangler)  # ConfigError unless in circuits.ENTANGLERS

    @property
    def pool(self) -> tuple[str, ...]:
        return default_pauli_pool(self.n_qubits)

    @property
    def pool_size(self) -> int:
        return len(self.pool)

    @property
    def feature_dim(self) -> int:
        return self.n_heads * self.t_keep


@dataclass
class QlamParams:
    """Every trainable array of the hybrid model, shaped by `param_shapes`."""

    embed_w: np.ndarray
    embed_b: np.ndarray
    theta: np.ndarray
    w_q: np.ndarray
    dec_w1: np.ndarray
    dec_b1: np.ndarray
    dec_w2: np.ndarray
    dec_b2: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, arrays: dict[str, np.ndarray]) -> "QlamParams":
        names = [f.name for f in fields(cls)]
        missing = set(names) - set(arrays)
        if missing:
            raise ShapeError(f"parameter dict is missing {sorted(missing)}")
        return cls(**{k: np.asarray(arrays[k], dtype=np.float64) for k in names})

    def copy(self) -> "QlamParams":
        return QlamParams(**{k: v.copy() for k, v in self.as_dict().items()})

    def validate(self, cfg: CellConfig) -> None:
        shapes = param_shapes(cfg)
        for key, arr in self.as_dict().items():
            if arr.shape != shapes[key]:
                raise ShapeError(f"{key} has shape {arr.shape}, expected {shapes[key]}")
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{key} contains non-finite values")


def param_shapes(cfg: CellConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every `QlamParams` array of a cell, by field name."""
    n, h, hidden, p = cfg.n_qubits, cfg.n_heads, cfg.decoder_hidden, cfg.pool_size
    return {
        "embed_w": (n,), "embed_b": (n,),
        "theta": (2 * cfg.n_layers * n,), "w_q": (cfg.d_query, n),
        "dec_w1": (h, hidden, cfg.d_query), "dec_b1": (h, hidden),
        "dec_w2": (h, p, hidden), "dec_b2": (h, p),
        "cls_w": (cfg.n_classes, cfg.feature_dim), "cls_b": (cfg.n_classes,),
    }


def init_qlam_params(rng: np.random.Generator, cfg: CellConfig) -> QlamParams:
    """Fan-in uniform init for affine maps; small uniform circuit angles.

    Angles start in (-0.1, 0.1), so each ansatz layer starts near the
    identity; the memory does not stay near |0...0> for long.  The
    embedding is a fan-in-1 affine map, so each encoding rotates every
    qubit by up to about 2 rad, and the CNOTs spread it: with 64 rows of
    U[0, 1] tokens and the default cell, the mean fidelity with |0...0>
    falls from 0.72 after one step to 0.05 after 16 at n = 4, and from
    0.30 to 0.003 at n = 8, near the Haar value 2**-n.
    """
    from .nn import init_affine

    params = QlamParams(**{k: np.empty(shape) for k, shape in param_shapes(cfg).items()})
    ew, params.embed_b[:] = init_affine(rng, cfg.n_qubits, 1)
    params.embed_w[:] = ew[:, 0]
    params.w_q[:], _ = init_affine(rng, cfg.d_query, cfg.n_qubits)
    for i in range(cfg.n_heads):
        params.dec_w1[i], params.dec_b1[i] = init_affine(rng, cfg.decoder_hidden, cfg.d_query)
        params.dec_w2[i], params.dec_b2[i] = init_affine(rng, cfg.pool_size, cfg.decoder_hidden)
    params.cls_w[:], params.cls_b[:] = init_affine(rng, cfg.n_classes, cfg.feature_dim)
    params.theta[:] = rng.uniform(-0.1, 0.1, size=params.theta.shape)
    return params


def embed_token(tokens, params: QlamParams) -> np.ndarray:
    """e_t = embed_w * x_t + embed_b; a vector of T tokens gives (T, n_qubits)."""
    return np.multiply.outer(tokens, params.embed_w) + params.embed_b


# Rows per decoder GEMM call (`circuits.block_matmul`).
DECODER_ROWS = 16


def decoder(q: np.ndarray, params: QlamParams) -> tuple[np.ndarray, np.ndarray]:
    """Every head's tanh layer (..., n_heads, decoder_hidden) and observable
    weights (..., n_heads, pool_size) for queries of shape (..., d_query).

    The S query rows go through BLAS in blocks of DECODER_ROWS, the last
    one zero-padded: one (DECODER_ROWS, d_query) @ (d_query, heads*hidden)
    GEMM per block (`block_matmul`), the tanh, and one (heads,
    DECODER_ROWS, hidden) @ (heads, hidden, pool) stacked matmul per
    block.  Every call has the same shape, so a row's bits do not depend
    on S or on the other rows."""
    heads, width, d_query = params.dec_w1.shape
    rows = q.reshape(-1, d_query)
    count = rows.shape[0]
    hidden = block_matmul(rows, params.dec_w1.reshape(heads * width, d_query).T, DECODER_ROWS)
    hidden += params.dec_b1.reshape(-1)
    np.tanh(hidden, out=hidden)
    hidden = hidden.reshape(-1, DECODER_ROWS, heads, width)
    gammas = np.matmul(hidden.transpose(0, 2, 1, 3), params.dec_w2.transpose(0, 2, 1))
    gammas = gammas.transpose(0, 2, 1, 3).reshape(-1, heads, gammas.shape[-1])[:count] + params.dec_b2
    lead = q.shape[:-1]
    return (hidden.reshape(-1, heads, width)[:count].reshape(lead + (heads, width)),
            gammas.reshape(lead + gammas.shape[1:]))


@dataclass
class ReadoutTrace:
    """Forward-pass outputs.  Holds one readout vector per step and the
    final 2**n-amplitude memory; deliberately no per-token state cache."""

    readouts: np.ndarray  # (T, n_heads)
    features: np.ndarray  # (t_keep * n_heads,)
    logits: np.ndarray    # (n_classes,)
    final_state: np.ndarray  # (2**n_qubits,) amplitudes


def measure(states: np.ndarray, table: PauliTable, shot: ShotConfig,
            sample_index, t0: int) -> np.ndarray:
    """(..., S, pool_size) pool expectations of stacks of states
    (..., S, 2**n) at 0-based timesteps t0, t0+1, ...: exact, or in
    sampled mode the mean of shots_per_term simulated shots per term.
    Stack i draws from the streams of (seed, sample_index[i], t, term);
    a scalar sample_index serves every stack.  One Philox generator
    serves a stack, re-pointed at each (t, term) counter
    (`observables.sample_means`).  Heads reuse the same outcomes, as they
    would on hardware reading one measurement register.  The exact
    expectations are one table call over every stacked state; each row is
    reduced on its own, so a step's values do not depend on how many
    steps or sequences share the call."""
    exps = table.expectations(states.reshape(-1, states.shape[-1]))
    exps = exps.reshape(states.shape[:-1] + (table.size,))
    if shot.mode == "sampled":
        indices = np.broadcast_to(sample_index, exps.shape[:-2])
        for i in np.ndindex(indices.shape):
            exps[i] = sample_means(exps[i], shot.shots_per_term, shot.rng_seed, int(indices[i]), t0)
    return exps


@dataclass
class Run:
    """One pass of the recurrence over a stack of B sequences, ending at
    the logits.  Rows of `queries`, `exps` and `readouts` are, per
    sequence, the kept 1-based steps first..T; `features` are its last
    t_keep readouts, oldest first.  `steps` is the swept engine, which
    the adjoint walks back after a backward pass.  The decoder's
    activations are not kept, since they are B times one sequence's: the
    backward pass recomputes them one sequence at a time, one more
    `decoder` call per sequence."""

    tokens: np.ndarray      # (B, T), validated
    embeddings: np.ndarray  # (B, T, n_qubits)
    first: int
    queries: np.ndarray     # (B, T - first + 1, d_query)
    exps: np.ndarray        # (B, T - first + 1, pool_size)
    readouts: np.ndarray    # (B, T - first + 1, n_heads)
    features: np.ndarray    # (B, t_keep * n_heads)
    logits: np.ndarray      # (B, n_classes)
    state: np.ndarray       # (B, 2**n_qubits) amplitudes after step T
    steps: Steps


def run(
    tokens,
    params: QlamParams,
    cfg: CellConfig,
    keep: int | None = None,
    shot: ShotConfig = ShotConfig(),
    *,
    sample_index=0,
    backward: bool = False,
) -> Run:
    """Validate and embed a (B, T) stack of equal-length token rows,
    evolve each row's memory from |0...0>, read it out at the last
    `keep` steps (t_keep..T of them; every step when None) and classify
    its last t_keep readouts.  `sample_index` gives each row's shot
    streams (one per row, or one for all), each an int in [0, MAX_SEED]
    (ConfigError otherwise).  `backward` marks a pass whose `steps.adjoint`
    will run, so the sweep stores what the walk starts from (`Steps.sweep`).
    A sequence shorter than t_keep, or any other length of `sample_index`,
    raises ShapeError.  An embedding that overflows raises NumericError
    naming its step.

    Forward, logits and gradients are all views of this pass, the
    single-sequence ones with B = 1; the parameter-shift oracle calls it
    with the shared angle moved at every step.  Each
    readout is reduced on its own row and step only, so it does not
    depend on `keep`, on the window that computed it, or on the other
    rows of the stack.
    """
    rows = [validate_tokens(row) for row in tokens]
    lengths = sorted({row.shape[0] for row in rows})
    if len(lengths) != 1:
        raise ShapeError(f"a token stack needs one or more rows of one length, got lengths {lengths}")
    x = np.stack(rows)
    if np.ndim(sample_index) and np.shape(sample_index) != (x.shape[0],):
        raise ShapeError(f"sample_index has shape {np.shape(sample_index)} for {x.shape[0]} token rows")
    # each is one word of its shot streams' key (`observables.stream_key`)
    if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) and 0 <= i <= MAX_SEED
               for i in np.ravel(np.asarray(sample_index, dtype=object))):
        raise ConfigError(f"sample_index must be ints in [0, {MAX_SEED}], got {sample_index!r}")
    params.validate(cfg)
    T = x.shape[1]
    if T < cfg.t_keep:
        raise ShapeError(f"sequence of length {T} is shorter than t_keep={cfg.t_keep}")
    keep = T if keep is None else keep
    if not cfg.t_keep <= keep <= T:
        raise ShapeError(f"keep={keep} is outside [t_keep={cfg.t_keep}, T={T}]")
    first = T - keep + 1
    with np.errstate(over="ignore", invalid="ignore"):
        emb = embed_token(x, params)
    steps = Steps(params.theta, emb, cfg.entangler)  # rejects a non-finite embedding
    q = np.einsum("qn,btn->btq", params.w_q, emb[:, first - 1:])
    table = pauli_table(cfg.pool)
    exps = np.empty((x.shape[0], keep, table.size))

    def read(lo, states):
        exps[:, lo - first + 1:][:, :states.shape[1]] = measure(states, table, shot, sample_index, lo)

    psi = steps.sweep(first, read, backward)
    # decoded one sequence at a time, so one sequence's activations are alive
    readouts = np.stack([(decoder(qb, params)[1] @ eb[:, :, None])[:, :, 0]
                         for qb, eb in zip(q, exps)])
    features = readouts[:, keep - cfg.t_keep:].reshape(x.shape[0], -1)
    # one mat-vec per row: a stacked product may round a row differently
    logits = np.stack([params.cls_w @ row + params.cls_b for row in features])
    return Run(x, emb, first, q, exps, readouts, features, logits, psi, steps)


def forward(
    tokens,
    params: QlamParams,
    cfg: CellConfig,
    shot: ShotConfig = ShotConfig(),
    *,
    sample_index: int = 0,
) -> ReadoutTrace:
    """Run the full causal recurrence, reading out every step, and classify."""
    r = run([tokens], params, cfg, None, shot, sample_index=sample_index)
    return ReadoutTrace(r.readouts[0], r.features[0], r.logits[0], r.state[0])


def batch_logits(
    tokens,
    params: QlamParams,
    cfg: CellConfig,
    shot: ShotConfig = ShotConfig(),
    *,
    sample_index=0,
) -> np.ndarray:
    """(B, n_classes) logits of a (B, T) stack of token rows, skipping
    readouts at steps the classifier never sees.  Row b draws its shots
    from the streams of sample_index[b], or, for one index (the default
    0), every row from that index's.  Row b is bit for bit
    `final_logits(tokens[b], ..., sample_index=i)`, i its index.
    """
    return run(tokens, params, cfg, cfg.t_keep, shot, sample_index=sample_index).logits


def final_logits(
    tokens,
    params: QlamParams,
    cfg: CellConfig,
    shot: ShotConfig = ShotConfig(),
    *,
    sample_index: int = 0,
) -> np.ndarray:
    """Logits only, skipping readouts at steps the classifier never sees.

    Identical result to `forward(...).logits`, bit for bit; the batched
    evaluation path `batch_logits` gives it too.  The skipped readouts
    are a large share of a forward pass, and in sampled mode each skipped
    step also saves its shot draws.
    """
    return batch_logits([tokens], params, cfg, shot, sample_index=sample_index)[0]


def predict(tokens, params: QlamParams, cfg: CellConfig) -> int:
    """Class index with the largest logit; ties go to the lowest index."""
    return int(np.argmax(final_logits(tokens, params, cfg)))
