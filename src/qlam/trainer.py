"""Training loop, evaluation, and fold orchestration.

`TrainConfig` is the one schema of a run: each field is a `qlam` flag
and a config-file key.  It checks its fields when it is built, and again
on every `dataclasses.replace`, so no function here meets an unchecked
config.
Both models get one output per class of `DatasetBundle.n_classes`, and
the splits' labels are checked against it before the first epoch.
Everything downstream of the config is deterministic: seeded streams are
namespaced as [seed, 0] for parameter init, [seed, 1, epoch] for batch
shuffling, and [seed, 2, fold] for data splitting and subsampling, and
batch gradients are reduced in sample-index order regardless of worker
count.  Gradient and evaluation passes cut a sample list, in order, into
chunks of consecutive equal-length samples, each one batched pass of the
engine; a sample's outputs do not depend on its chunk, and `workers`
threads run chunks side by side.  Metrics therefore reproduce bitwise
for a fixed config; wall times go to a separate timing file so the
metrics CSV stays comparable.  One appender writes every CSV file, and
`evaluate` names, in one error, every split or cell field where the
config differs from the checkpoint.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .cell import CellConfig, QlamParams, batch_logits, init_qlam_params, param_shapes
from .checkpoint import load_checkpoint, save_checkpoint
from .circuits import walk_rows
from .data import (
    DATASET_NAMES,
    DatasetBundle,
    SequenceSample,
    default_epochs,
    fold_split,
    holdout_split,
    load_dataset,
)
from .errors import ConfigError, DataError, NumericError, check_fields, field_parser
from .gradients import GradBundle, batch_loss_and_grad
from .nn import (
    AdamState,
    adam_step,
    clip_global_norm,
    cosine_lr,
    elman_forward,
    elman_loss_and_grad,
    grad_like,
    init_elman,
    param_count,
    softmax_cross_entropy,
)
from .observables import MAX_SEED, MAX_SHOTS, ShotConfig

TIMING_COLUMNS = ("epoch", "wall_seconds")

# The most epochs and folds a run takes: far above any preset's (30 to
# 50 epochs, 10 folds), so a mistyped count is refused, not trained.
MAX_EPOCHS = 10_000
MAX_FOLDS = 1_000
# The most threads that run a pass's chunks side by side: from n = 12
# every sample is its own chunk, so an unbounded count could start one
# thread per sample.
MAX_WORKERS = 64

# TrainConfig fields that decide the train/test split; a checkpoint
# records them so evaluation can refuse a split it was trained on
SPLIT_FIELDS = (
    "dataset", "seed", "fold", "split_mode", "n_folds", "test_fraction",
    "train_subsample", "test_subsample",
)


@dataclass(frozen=True)
class TrainConfig:
    """One training run, fully determined by its field values."""

    dataset: str = "sdigits8"
    n_qubits: int = 4
    n_layers: int = 2
    n_heads: int = 8
    d_query: int = 8
    decoder_hidden: int = 32
    t_keep: int = 64
    entangler: str = "ring"
    epochs: int | None = None
    batch_size: int = 128
    base_lr: float = 1e-3
    clip_norm: float = 1.0
    seed: int = 0
    fold: int = 0
    n_folds: int = 10
    split_mode: str = "holdout"
    test_fraction: float = 0.2
    shots: int = 0
    train_subsample: int | None = None
    test_subsample: int | None = None
    out_dir: str = "runs"
    data_dir: str | None = None
    workers: int = 1

    # int ranges but the cell's (`CellConfig.RANGES`) and fold's; the seed
    # is one 64-bit word of the shot streams' key (`observables.stream_key`)
    RANGES = {"epochs": (1, MAX_EPOCHS), "batch_size": (1, None), "seed": (0, MAX_SEED),
              "n_folds": (1, MAX_FOLDS), "shots": (0, MAX_SHOTS), "train_subsample": (1, None),
              "test_subsample": (1, None), "workers": (1, MAX_WORKERS)}

    def __post_init__(self):
        check_fields(self)
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(
                f"unknown dataset {self.dataset!r}; choose from {DATASET_NAMES}"
            )
        if self.split_mode not in ("holdout", "kfold"):
            raise ConfigError(f"split_mode must be holdout or kfold, got {self.split_mode!r}")
        if self.split_mode == "kfold" and self.n_folds < 2:
            raise ConfigError(f"kfold needs n_folds >= 2, got {self.n_folds}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0 <= self.fold < self.n_folds:
            raise ConfigError(f"fold {self.fold} outside [0, {self.n_folds})")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        self.cell_config()

    @property
    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return default_epochs(self.dataset)

    def cell_config(self) -> CellConfig:
        """This config's cell: every `CellConfig` field but `n_classes` is a
        field here, and `train` sets the class count from the dataset."""
        names = [f.name for f in fields(CellConfig) if f.name != "n_classes"]
        return CellConfig(**{name: getattr(self, name) for name in names})

    def shot_config(self) -> ShotConfig:
        """`shots` draws per pool term, seeded by `seed`; 0 is exact readout."""
        return ShotConfig("sampled", self.shots, self.seed) if self.shots else ShotConfig()

    def run_tag(self) -> str:
        return f"s{self.seed}_f{self.fold}"


@dataclass
class MetricsRow:
    """One logged split at one epoch.  Wall time goes to the timing
    sidecar instead, because it can never reproduce bitwise."""

    epoch: int
    split: str
    loss: float
    accuracy: float
    lr: float
    seed: int
    fold: int


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


@dataclass
class TrainResult:
    config: TrainConfig
    final_train: MetricsRow
    final_test: MetricsRow
    metrics_path: Path
    timing_path: Path
    checkpoint_path: Path
    params: QlamParams
    n_parameters: int


# ---------------------------------------------------------------------------
# Metrics file round-trip.
# ---------------------------------------------------------------------------

def _append_rows(path: Path, header: tuple, rows) -> None:
    """Append rows to the CSV file at path, after the header if the file is
    new; the csv module writes a float, numpy's too, as its exact repr."""
    new_file = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(header)
        writer.writerows(rows)


def append_metrics(path: Path, rows: list[MetricsRow]) -> None:
    _append_rows(path, METRICS_COLUMNS, [astuple(row) for row in rows])


def read_metrics(path) -> list[MetricsRow]:
    """Parse a metrics CSV back into rows, each column by its field's
    annotation; inverse of append_metrics.  ConfigError names the file
    and line of a missing or other header and of a row that does not parse."""
    parsers = [field_parser(f) for f in fields(MetricsRow)]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != METRICS_COLUMNS:
            raise ConfigError(f"{path} line 1 has header {header}, expected {METRICS_COLUMNS}")
        for rec in reader:
            try:
                if len(rec) != len(parsers):
                    raise ValueError(f"{len(rec)} values for {len(parsers)} columns")
                rows.append(MetricsRow(*(parse(text) for parse, text in zip(parsers, rec))))
            except ValueError as exc:
                raise ConfigError(f"{path} line {reader.line_num}: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# Data split resolution.
# ---------------------------------------------------------------------------

def _subsample(samples: list[SequenceSample], size: int | None, rng) -> list[SequenceSample]:
    if size is None or size >= len(samples):
        return samples
    picks = rng.choice(len(samples), size=size, replace=False)
    return [samples[i] for i in picks]


def resolve_splits(
    config: TrainConfig, bundle: DatasetBundle
) -> tuple[list[SequenceSample], list[SequenceSample]]:
    """Train/test sample lists for this config's fold.

    holdout on a dataset with a canonical test split keeps that split and
    varies only the seeded subsample per fold (repeated independent
    runs); holdout without one cuts a seeded test fraction.  kfold pools
    every sample and takes fold k of a seeded n_folds-fold cut.
    """
    rng = np.random.default_rng([config.seed, 2, config.fold])
    if config.split_mode == "holdout" and bundle.test is not None:
        train, test = bundle.train, bundle.test
    else:
        pool = bundle.train + (bundle.test or [])
        if config.split_mode == "kfold":
            train_idx, test_idx = fold_split(len(pool), config.seed, config.n_folds, config.fold)
        else:
            train_idx, test_idx = holdout_split(
                len(pool), config.seed * config.n_folds + config.fold, config.test_fraction
            )
        train = [pool[i] for i in train_idx]
        test = [pool[i] for i in test_idx]
    return (
        _subsample(train, config.train_subsample, rng),
        _subsample(test, config.test_subsample, rng),
    )


# ---------------------------------------------------------------------------
# Batched passes, the epoch loop, and training.
# ---------------------------------------------------------------------------

def _chunks(samples: list[SequenceSample], size: int) -> list[range]:
    """Index ranges that cut samples, in order, into runs of consecutive
    samples of one token shape, at most `size` long."""
    bounds = [0]
    for i in range(1, len(samples)):
        if i - bounds[-1] == size or np.shape(samples[i].tokens) != np.shape(samples[i - 1].tokens):
            bounds.append(i)
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:] + [len(samples)])]


def _chunk_map(fn, samples: list[SequenceSample], size: int, workers: int) -> list:
    """The rows of fn(indices, chunk) over the chunks of samples (`_chunks`),
    one per sample, in sample order, on up to `workers` threads, which
    overlap where numpy releases the GIL; ConfigError for no samples."""
    if not samples:
        raise ConfigError("cannot run on an empty sample list")
    ranges = _chunks(samples, size)
    chunks = [samples[r.start:r.stop] for r in ranges]
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return [row for block in pool.map(fn, ranges, chunks) for row in block]
    return [row for block in map(fn, ranges, chunks) for row in block]


def _mean_gradients(samples, size: int, per_chunk, params: dict[str, np.ndarray], workers: int):
    """Mean of per-sample GradBundles over a batch: per_chunk(indices,
    chunk) returns one bundle per sample of a chunk (`_chunk_map`), and
    the reduction runs in sample order; returns (mean grads, mean loss,
    number correct)."""
    bundles = _chunk_map(per_chunk, samples, size, workers)
    total = grad_like(params)
    loss_sum = 0.0
    correct = 0
    for sample, bundle in zip(samples, bundles):
        for key in total:
            total[key] += bundle.grads[key]
        loss_sum += bundle.loss
        if int(np.argmax(bundle.logits)) == sample.label:
            correct += 1
    scale = 1.0 / len(samples)
    for key in total:
        total[key] *= scale
    return total, loss_sum * scale, correct


def batch_gradients(
    samples: list[SequenceSample],
    params: QlamParams,
    cfg: CellConfig,
    workers: int = 1,
) -> tuple[dict[str, np.ndarray], float, int]:
    """Mean gradient over a batch, reduced in sample-index order.

    The batch is cut, in order, into chunks of equal-length samples
    (at most `circuits.walk_rows` of them), each one batched pass of `batch_loss_and_grad`;
    workers only run chunks side by side.  A sample's gradient does not
    depend on its chunk, and the reduction walks results in sample order,
    so the outcome is identical for any worker count.  Returns (mean
    grads, mean loss, number correct).
    """
    return _mean_gradients(
        samples, walk_rows(cfg.n_qubits), lambda _, chunk: batch_loss_and_grad(chunk, params, cfg),
        params.as_dict(), workers,
    )


def _score(samples: list[SequenceSample], size: int, logits_of, workers: int) -> tuple[float, float]:
    """(mean loss, accuracy) over a sample list; logits_of(indices,
    chunk) returns the logits of each sample of a chunk (`_chunk_map`),
    whose indices in the list are `indices`."""
    rows = _chunk_map(logits_of, samples, size, workers)
    loss_sum = 0.0
    correct = 0
    for sample, logits in zip(samples, rows):
        loss, _ = softmax_cross_entropy(logits, sample.label)
        loss_sum += loss
        if int(np.argmax(logits)) == sample.label:
            correct += 1
    return loss_sum / len(samples), correct / len(samples)


def evaluate_samples(
    samples: list[SequenceSample],
    params: QlamParams,
    cfg: CellConfig,
    shot: ShotConfig = ShotConfig(),
    workers: int = 1,
) -> tuple[float, float]:
    """(mean loss, accuracy) over a sample list, exact or sampled mode.
    Chunks as `batch_gradients` does; sample i draws its shots from the
    streams of sample index i."""
    return _score(
        samples, walk_rows(cfg.n_qubits),
        lambda indices, chunk: batch_logits(
            [s.tokens for s in chunk], params, cfg, shot, sample_index=list(indices)),
        workers,
    )


def _splits(config: TrainConfig, bundle: DatasetBundle | None) -> tuple[list, list, CellConfig]:
    """The config's train and test split, neither empty and every label
    in [0, n_classes), and the config's cell with the dataset's class count."""
    if bundle is None:
        bundle = load_dataset(config.dataset, config.data_dir)
    train_set, test_set = resolve_splits(config, bundle)
    if not train_set or not test_set:
        raise ConfigError(
            f"empty split: {len(train_set)} train / {len(test_set)} test samples"
        )
    n_classes = bundle.n_classes
    for split, samples in (("train", train_set), ("test", test_set)):
        for i, sample in enumerate(samples):
            if not 0 <= sample.label < n_classes:
                raise DataError(f"{split} sample {i} has label {sample.label}, outside [0, {n_classes})")
    return train_set, test_set, replace(config.cell_config(), n_classes=n_classes)


def _epochs(config: TrainConfig, train_set: list[SequenceSample], params: dict[str, np.ndarray], gradients):
    """The one epoch loop: updates params in place from gradients(batch)
    -> (mean grads, mean loss, number correct) and yields (epoch, lr,
    mean train loss, train accuracy) after each epoch."""
    epochs = config.resolved_epochs
    adam = AdamState.for_params(params)
    for epoch in range(1, epochs + 1):
        lr = cosine_lr(epoch - 1, epochs, config.base_lr)
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(train_set))
        loss_sum = 0.0
        correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
            grads, batch_loss, batch_correct = gradients(batch)
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}"
                )
            clip_global_norm(grads, config.clip_norm)
            adam_step(params, grads, adam, lr)
            loss_sum += batch_loss * len(batch)
            correct += batch_correct
        yield epoch, lr, loss_sum / len(train_set), correct / len(train_set)


def train(config: TrainConfig, bundle: DatasetBundle | None = None) -> TrainResult:
    """Full seeded run: init, epoch loop, metrics emission, checkpoint.

    Train-split metrics are accumulated from the optimization passes
    themselves (loss and prediction before each update); test metrics
    come from a dedicated exact-mode evaluation per epoch.
    """
    train_set, test_set, cell_cfg = _splits(config, bundle)
    params = init_qlam_params(np.random.default_rng([config.seed, 0]), cell_cfg)

    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create out_dir {config.out_dir!r}: {exc}") from exc
    tag = config.run_tag()
    metrics_path = out_dir / f"metrics_{tag}.csv"
    timing_path = out_dir / f"timing_{tag}.csv"
    checkpoint_path = out_dir / f"checkpoint_{tag}.npz"
    for stale in (metrics_path, timing_path):
        stale.unlink(missing_ok=True)

    epochs = _epochs(
        config, train_set, params.as_dict(),
        lambda batch: batch_gradients(batch, params, cell_cfg, config.workers),
    )
    started = time.perf_counter()
    for epoch, lr, train_loss, train_acc in epochs:
        test_loss, test_acc = evaluate_samples(test_set, params, cell_cfg, workers=config.workers)
        last_train = MetricsRow(epoch, "train", train_loss, train_acc, lr, config.seed, config.fold)
        last_test = MetricsRow(epoch, "test", test_loss, test_acc, lr, config.seed, config.fold)
        append_metrics(metrics_path, [last_train, last_test])
        _append_rows(timing_path, TIMING_COLUMNS, [(epoch, time.perf_counter() - started)])
        started = time.perf_counter()

    save_checkpoint(checkpoint_path, params, cell_cfg, {
        **{name: getattr(config, name) for name in SPLIT_FIELDS},
        "epochs": config.resolved_epochs,
        "final_test_accuracy": last_test.accuracy,
    })
    return TrainResult(
        config, last_train, last_test, metrics_path, timing_path,
        checkpoint_path, params, param_count(params.as_dict()),
    )


def evaluate(checkpoint_path, config: TrainConfig, bundle: DatasetBundle | None = None) -> float:
    """Accuracy of a saved model on this config's test split.

    Refuses a checkpoint that does not record its split settings, and a
    config whose split differs from them, since its "test" split would
    hold training samples, and cell settings or a class count other than
    the checkpoint's.  Reads out with the config's shot settings.
    """
    params, cell_cfg, extra = load_checkpoint(checkpoint_path)
    missing = [name for name in SPLIT_FIELDS if name not in extra]
    if missing:
        raise DataError(f"checkpoint {checkpoint_path} records no {', '.join(missing)} of its split")
    # every split and cell field the config sets is refused before the
    # data loads, the class count the dataset sets after
    saved = [(name, extra[name]) for name in SPLIT_FIELDS]
    saved += [(f.name, getattr(cell_cfg, f.name)) for f in fields(CellConfig) if f.name != "n_classes"]
    differ = [
        f"checkpoint has {name}={value!r}, the config has {name}={getattr(config, name)!r}"
        for name, value in saved if value != getattr(config, name)
    ]
    if differ:
        raise ConfigError("; ".join(differ))
    _, test_set, mine = _splits(config, bundle)
    if mine.n_classes != cell_cfg.n_classes:
        raise ConfigError(f"checkpoint has n_classes={cell_cfg.n_classes!r}, "
                          f"the dataset has n_classes={mine.n_classes!r}")
    _, accuracy = evaluate_samples(
        test_set, params, cell_cfg, config.shot_config(), workers=config.workers
    )
    return accuracy


@dataclass
class FoldsResult:
    accuracies: list[float]
    mean: float
    std: float
    summary_path: Path


def run_folds(config: TrainConfig, bundle: DatasetBundle | None = None) -> FoldsResult:
    """Train and evaluate every fold; emit per-fold and aggregate rows.

    The aggregate std is the population standard deviation (ddof=0) of
    the per-fold test accuracies.
    """
    if bundle is None:
        bundle = load_dataset(config.dataset, config.data_dir)
    accuracies = []
    for fold in range(config.n_folds):
        result = train(replace(config, fold=fold), bundle)
        accuracies.append(result.final_test.accuracy)
    mean = float(np.mean(accuracies))
    std = float(np.std(accuracies))
    summary_path = Path(config.out_dir) / f"folds_summary_s{config.seed}.csv"
    summary_path.unlink(missing_ok=True)
    _append_rows(summary_path, ("fold", "test_accuracy"),
                 [*enumerate(accuracies), ("mean", mean), ("std", std)])
    return FoldsResult(accuracies, mean, std, summary_path)


# ---------------------------------------------------------------------------
# Elman baseline under the same budget.
# ---------------------------------------------------------------------------

def train_elman(config: TrainConfig, bundle: DatasetBundle | None = None) -> tuple[float, float, int]:
    """Train the recurrent baseline with the same data, schedule, and
    optimizer; returns (final train accuracy, test accuracy, param count).

    The hybrid this config trains sizes the baseline: with C classes, a
    width d has d^2 + (C + 2) d + C parameters, and d is the width whose
    count is nearest the hybrid's, the smaller on a tie.  The default cell
    on ten classes (10,658 parameters) gives d = 97 (10,583).
    """
    train_set, test_set, cell_cfg = _splits(config, bundle)
    n_classes = cell_cfg.n_classes
    target = sum(math.prod(shape) for shape in param_shapes(cell_cfg).values())
    d_hidden = min(
        range(1, math.isqrt(target) + 2),
        key=lambda d: abs(d * d + (n_classes + 2) * d + n_classes - target),
    )
    params = init_elman(np.random.default_rng([config.seed, 0]), d_hidden, n_classes)

    epochs = _epochs(config, train_set, params, lambda batch: _mean_gradients(
        batch, 1, lambda _, chunk: [GradBundle(*elman_loss_and_grad(s.tokens, s.label, params))
                                 for s in chunk],
        params, config.workers,
    ))
    for *_, train_acc in epochs:
        pass
    _, test_acc = _score(
        test_set, 1, lambda _, chunk: [elman_forward(s.tokens, params) for s in chunk],
        config.workers,
    )
    return train_acc, test_acc, param_count(params)
