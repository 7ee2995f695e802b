"""Training harness: split resolution, metrics files, determinism, and
learning capacity on synthetic data."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import qlam.trainer
from qlam.cell import CellConfig, final_logits, init_qlam_params
from qlam.checkpoint import load_checkpoint, save_checkpoint
from qlam.cli import main
from qlam.circuits import walk_rows
from qlam.data import DatasetBundle, SequenceSample
from qlam.errors import ConfigError, DataError
from qlam.gradients import loss_and_grad
from qlam.nn import init_elman, softmax_cross_entropy
from qlam.observables import MAX_SHOTS, ShotConfig
from qlam.trainer import (
    MAX_WORKERS,
    METRICS_COLUMNS,
    SPLIT_FIELDS,
    MetricsRow,
    TrainConfig,
    append_metrics,
    batch_gradients,
    evaluate,
    evaluate_samples,
    read_metrics,
    resolve_splits,
    run_folds,
    train,
    train_elman,
)


def synthetic_bundle(n_per_class=12, T=8, n_classes=4, noise=0.03, seed=0):
    """Well separated class prototypes plus small noise.  The bundle says
    10 classes, so the model gets a 10-way head; only the first n_classes
    labels occur."""
    rng = np.random.default_rng(seed)
    prototypes = rng.uniform(0.15, 0.85, size=(n_classes, T))
    samples = []
    for label in range(n_classes):
        for _ in range(n_per_class):
            tokens = np.clip(prototypes[label] + rng.normal(0, noise, T), 0.0, 1.0)
            samples.append(SequenceSample(tokens, label))
    return DatasetBundle("sdigits8", samples, None, T, 10)


def tiny_config(**kwargs):
    defaults = dict(
        dataset="sdigits8", n_qubits=2, n_heads=2, d_query=3, decoder_hidden=4,
        t_keep=2, epochs=2, batch_size=8, test_fraction=0.25,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# Config validation.
# ---------------------------------------------------------------------------

def test_config_validation():
    tiny_config()
    bad = [
        dict(dataset="imagenet"),
        dict(epochs=0),
        dict(batch_size=0),
        dict(split_mode="random"),
        dict(shots=-1),
        dict(seed=-1),
        dict(workers=0),
        dict(fold=10),
        dict(fold=-1),
        # split rules, checked before any data loads, even where the
        # dataset's own test split would leave them unused
        dict(test_fraction=1.5),
        dict(test_fraction=0.0),
        dict(test_fraction=float("nan")),
        dict(split_mode="kfold", n_folds=1),
        dict(train_subsample=0),
        dict(test_subsample=0),
        dict(base_lr=0.0),
        dict(base_lr=float("nan")),
        dict(base_lr=float("inf")),
        dict(n_qubits=0),
        dict(entangler="star"),
        dict(out_dir=""),  # Path("") is the working directory
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            tiny_config(**kwargs)


def test_seed_and_shots_have_upper_bounds():
    # the seed is one 64-bit word of the shot streams' key: seed 2**64
    # would draw seed 0's shots while its other streams differ; from
    # n = 12 every sample is its own chunk, so an unbounded worker count
    # could start a thread per sample (refused by construction: no
    # thread starts here)
    tiny_config(seed=2**64 - 1, shots=MAX_SHOTS, workers=MAX_WORKERS)
    for field, value in (("seed", 2**64), ("shots", MAX_SHOTS + 1), ("shots", 2**70),
                         ("workers", MAX_WORKERS + 1)):
        with pytest.raises(ConfigError, match=f"{field} must be <="):
            tiny_config(**{field: value})


@pytest.mark.parametrize(
    "kwargs",
    [dict(epochs="ten"), dict(clip_norm=-1.0), dict(clip_norm=0.0)],
    ids=["epochs-str", "clip-negative", "clip-zero"],
)
def test_config_rejects_bad_type_and_nonpositive_clip(kwargs):
    # a negative clip_norm flips every gradient, zero erases them
    with pytest.raises(ConfigError):
        tiny_config(**kwargs)


def test_every_int_field_has_a_stated_range():
    # each int field's range is stated once: in its config's RANGES table,
    # by `check_register` (n_qubits), against another field (fold, in
    # [0, n_folds)), or, for a run's cell fields, in CellConfig's table;
    # every table's ends are accepted and the ints just past them refused
    stated_elsewhere = {"n_qubits", "fold"}
    for config in (CellConfig(), ShotConfig(), tiny_config()):
        ranges = dict(config.RANGES)
        if isinstance(config, TrainConfig):
            ranges.update({k: v for k, v in CellConfig.RANGES.items() if k != "n_classes"})
        for f in dataclasses.fields(config):
            if f.type.split(" | ")[0] == "int":
                assert f.name in ranges or f.name in stated_elsewhere, (type(config), f.name)
        for name, (least, most) in ranges.items():
            for end, past, sign in ((least, -1, ">="), (most, 1, "<=")):
                if end is not None:
                    assert getattr(dataclasses.replace(config, **{name: end}), name) == end
                    with pytest.raises(ConfigError, match=f"{name} must be {sign} {end}, got {end + past}"):
                        dataclasses.replace(config, **{name: end + past})


def test_every_int_field_of_every_config_rejects_floats_and_bools():
    for config in (CellConfig(), ShotConfig(), TrainConfig()):
        names = [f.name for f in dataclasses.fields(config) if f.type.split(" | ")[0] == "int"]
        assert names, config
        for name in names:
            for value in (4.5, True):
                with pytest.raises(ConfigError, match=name):
                    dataclasses.replace(config, **{name: value})


def test_every_cell_field_is_a_run_field():
    # one schema: a run sets every cell value but the dataset's class count
    run_fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    for f in dataclasses.fields(CellConfig):
        if f.name != "n_classes":
            assert run_fields.get(f.name) == f.type, f.name


def test_config_file_with_wrong_type_exits_as_config_error(tmp_path, capsys):
    from qlam.cli import EXIT_CODES, main

    path = tmp_path / "run.json"
    path.write_text('{"epochs": "ten"}')
    assert main(["train", "--config", str(path)]) == EXIT_CODES["config"]
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, name",
    [('{"base_lr": NaN}', "base_lr"), ('{"base_lr": Infinity}', "base_lr"),
     # the readout fields that `shots` replaced are unknown keys now
     ('{"shot_mode": "sampled", "shots_per_term": 0}', "shots_per_term"),
     ('{"shots": -1}', "shots"), ('{"seed": -1}', "seed")],
    ids=["lr-nan", "lr-inf", "zero-shots", "negative-shots", "negative-seed"],
)
def test_config_file_with_bad_value_exits_before_data_loads(tmp_path, capsys, monkeypatch, text, name):
    import qlam.trainer
    from qlam.cli import EXIT_CODES, main

    def no_data(*args, **kwargs):
        raise AssertionError("data loaded before the config was validated")

    monkeypatch.setattr(qlam.trainer, "load_dataset", no_data)
    path = tmp_path / "run.json"
    path.write_text(text)
    assert main(["train", "--config", str(path)]) == EXIT_CODES["config"]
    assert name in capsys.readouterr().err


def test_resolved_epochs_defaults():
    assert tiny_config(epochs=None).resolved_epochs == 30
    assert tiny_config(epochs=None, dataset="scifar10").resolved_epochs == 50
    assert tiny_config(epochs=7).resolved_epochs == 7


def test_run_tag():
    assert tiny_config(seed=3, fold=2, n_folds=5).run_tag() == "s3_f2"


# ---------------------------------------------------------------------------
# Metrics files.
# ---------------------------------------------------------------------------

def test_metrics_round_trip_exact(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = [
        MetricsRow(1, "train", 2.1234567890123456, 0.1, 1e-3, 0, 0),
        MetricsRow(1, "test", 1.0 / 3.0, 2.0 / 7.0, 0.000975528, 0, 0),
    ]
    append_metrics(path, rows)
    got = read_metrics(path)
    assert len(got) == 2
    for row, back in zip(rows, got):
        assert back.epoch == row.epoch and back.split == row.split
        assert back.loss == row.loss
        assert back.accuracy == row.accuracy
        assert back.lr == row.lr
    header = path.read_text().splitlines()[0]
    assert header == ",".join(METRICS_COLUMNS)


def test_read_metrics_refuses_a_malformed_file_naming_its_line(tmp_path):
    # a short or long row, a value that does not parse and an empty file
    # are each a ConfigError naming the file and the line
    path = tmp_path / "metrics.csv"
    append_metrics(path, [MetricsRow(1, "train", 1.0, 0.5, 1e-3, 0, 0)])
    good = path.read_text()
    for text, line in ((good + "2,test,0.9\n", 3), (good + "2,test,0.9,0.6,1e-3,0,0,7\n", 3),
                       (good + "2,test,x,0.6,1e-3,0,0\n", 3), ("", 1)):
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path} line {line}")):
            read_metrics(path)


def test_metrics_header_written_once(tmp_path):
    path = tmp_path / "metrics.csv"
    append_metrics(path, [MetricsRow(1, "train", 1.0, 0.5, 1e-3, 0, 0)])
    append_metrics(path, [MetricsRow(2, "train", 0.9, 0.6, 1e-3, 0, 0)])
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("epoch,")


# ---------------------------------------------------------------------------
# Split resolution.
# ---------------------------------------------------------------------------

def test_holdout_without_canonical_test():
    bundle = synthetic_bundle()
    cfg = tiny_config()
    train_set, test_set = resolve_splits(cfg, bundle)
    assert len(train_set) + len(test_set) == len(bundle.train)
    assert len(test_set) == round(len(bundle.train) * 0.25)
    again = resolve_splits(cfg, bundle)
    assert [id(s) for s in train_set] == [id(s) for s in again[0]]


def test_holdout_keeps_canonical_test():
    bundle = synthetic_bundle()
    canonical = DatasetBundle(
        bundle.name, bundle.train[:30], bundle.train[30:], bundle.seq_len, 10
    )
    train_set, test_set = resolve_splits(tiny_config(), canonical)
    assert train_set == canonical.train
    assert test_set == canonical.test


def test_holdout_folds_differ():
    bundle = synthetic_bundle()
    a = resolve_splits(tiny_config(fold=0), bundle)
    b = resolve_splits(tiny_config(fold=1), bundle)
    assert {id(s) for s in a[1]} != {id(s) for s in b[1]}


def test_kfold_disjoint_cover():
    bundle = synthetic_bundle()
    cfg = tiny_config(split_mode="kfold", n_folds=4)
    seen = []
    for fold in range(4):
        _, test_set = resolve_splits(dataclasses.replace(cfg, fold=fold), bundle)
        seen.extend(id(s) for s in test_set)
    assert len(seen) == len(bundle.train)
    assert len(set(seen)) == len(seen)


def test_subsample_sizes():
    bundle = synthetic_bundle()
    train_set, test_set = resolve_splits(
        tiny_config(train_subsample=10, test_subsample=5), bundle
    )
    assert len(train_set) == 10 and len(test_set) == 5
    full, _ = resolve_splits(tiny_config(train_subsample=10 ** 6), bundle)
    assert len(full) == 36


# ---------------------------------------------------------------------------
# Batched passes.
# ---------------------------------------------------------------------------

def test_batch_gradients_worker_invariance():
    bundle = synthetic_bundle()
    cfg = tiny_config().cell_config()
    params = init_qlam_params(np.random.default_rng(0), cfg)
    batch = bundle.train[:6]
    g1, loss1, correct1 = batch_gradients(batch, params, cfg, workers=1)
    g3, loss3, correct3 = batch_gradients(batch, params, cfg, workers=3)
    assert loss1 == loss3 and correct1 == correct3
    for key in g1:
        assert_array_equal(g1[key], g3[key], err_msg=key)


def test_mixed_lengths_reduce_in_sample_order():
    # interleaved lengths cut the batch into runs of equal length; at
    # n = 9 a run is also cut at walk_rows(9) = 8 samples
    cfg = tiny_config(n_qubits=9).cell_config()
    params = init_qlam_params(np.random.default_rng(4), cfg)
    rng = np.random.default_rng(5)
    lengths = [33, 40, 40, 33, 33] + [40] * 10 + [33]
    samples = [SequenceSample(rng.uniform(0.0, 1.0, T), i % 4) for i, T in enumerate(lengths)]
    ranges = qlam.trainer._chunks(samples, walk_rows(cfg.n_qubits))
    assert [(r.start, r.stop) for r in ranges] == [(0, 1), (1, 3), (3, 5), (5, 13), (13, 15), (15, 16)]

    grads = {key: np.zeros_like(arr) for key, arr in params.as_dict().items()}
    loss_sum, correct = 0.0, 0
    for sample in samples:
        bundle = loss_and_grad(sample, params, cfg)
        for key in grads:
            grads[key] += bundle.grads[key]
        loss_sum += bundle.loss
        correct += int(np.argmax(bundle.logits)) == sample.label
    scale = 1.0 / len(samples)
    shot = ShotConfig("sampled", 64, 2)
    scores = {}
    for mode, shots in (("exact", ShotConfig()), ("sampled", shot)):
        losses = [softmax_cross_entropy(final_logits(s.tokens, params, cfg, shots, sample_index=i),
                                        s.label)[0] for i, s in enumerate(samples)]
        hits = [int(np.argmax(final_logits(s.tokens, params, cfg, shots, sample_index=i))) == s.label
                for i, s in enumerate(samples)]
        scores[mode] = (sum(losses) / len(samples), sum(hits) / len(samples))
    for workers in (1, 3):
        mean, loss, hits = batch_gradients(samples, params, cfg, workers=workers)
        assert loss == loss_sum * scale and hits == correct
        for key, g in grads.items():
            assert_array_equal(mean[key], g * scale, err_msg=key)
        assert evaluate_samples(samples, params, cfg, workers=workers) == scores["exact"]
        assert evaluate_samples(samples, params, cfg, shot, workers=workers) == scores["sampled"]


def test_untrained_model_is_near_chance():
    bundle = synthetic_bundle(n_per_class=25, n_classes=10)
    cfg = tiny_config().cell_config()
    params = init_qlam_params(np.random.default_rng(1), cfg)
    loss, acc = evaluate_samples(bundle.train, params, cfg)
    # Ten-way head with small random parameters: cross entropy close to
    # log(10) and accuracy in the broad chance band.
    assert abs(loss - np.log(10.0)) < 0.3
    assert 0.0 <= acc <= 0.35


def test_evaluate_samples_empty_rejected():
    # both batched passes refuse an empty sample list the same way
    cfg = tiny_config().cell_config()
    params = init_qlam_params(np.random.default_rng(2), cfg)
    for run in (lambda: evaluate_samples([], params, cfg), lambda: batch_gradients([], params, cfg)):
        with pytest.raises(ConfigError, match="empty sample list"):
            run()


# ---------------------------------------------------------------------------
# Full runs on synthetic data.
# ---------------------------------------------------------------------------

def test_train_outputs_and_determinism(tmp_path):
    bundle = synthetic_bundle()
    cfg_a = tiny_config(out_dir=str(tmp_path / "a"))
    cfg_b = tiny_config(out_dir=str(tmp_path / "b"))
    cfg_w = tiny_config(out_dir=str(tmp_path / "w"), workers=3)
    ra = train(cfg_a, bundle)
    rb = train(cfg_b, bundle)
    rw = train(cfg_w, bundle)
    bytes_a = ra.metrics_path.read_bytes()
    assert bytes_a == rb.metrics_path.read_bytes()
    assert bytes_a == rw.metrics_path.read_bytes()
    for key, arr in ra.params.as_dict().items():
        assert_array_equal(arr, rb.params.as_dict()[key], err_msg=key)
    rows = read_metrics(ra.metrics_path)
    assert [r.epoch for r in rows] == [1, 1, 2, 2]
    assert [r.split for r in rows] == ["train", "test"] * 2
    timing = ra.timing_path.read_text().splitlines()
    assert timing[0] == "epoch,wall_seconds"
    assert len(timing) == 3
    assert float(timing[1].split(",")[1]) > 0.0
    assert ra.checkpoint_path.exists()
    assert ra.n_parameters > 0


def test_stale_metrics_replaced(tmp_path):
    bundle = synthetic_bundle()
    out = str(tmp_path / "run")
    train(tiny_config(out_dir=out, epochs=2), bundle)
    result = train(tiny_config(out_dir=out, epochs=1), bundle)
    rows = read_metrics(result.metrics_path)
    assert [r.epoch for r in rows] == [1, 1]


def test_evaluate_reproduces_logged_accuracy(tmp_path):
    bundle = synthetic_bundle()
    cfg = tiny_config(out_dir=str(tmp_path))
    result = train(cfg, bundle)
    acc = evaluate(result.checkpoint_path, cfg, bundle)
    assert acc == result.final_test.accuracy


def three_class_bundle():
    return dataclasses.replace(synthetic_bundle(n_classes=3), n_classes=3)


def test_bundle_class_count_sizes_the_head(tmp_path):
    bundle = three_class_bundle()
    cfg = tiny_config(out_dir=str(tmp_path))
    result = train(cfg, bundle)
    assert result.params.cls_w.shape[0] == 3
    _, cell_cfg, _ = load_checkpoint(result.checkpoint_path)
    assert cell_cfg.n_classes == 3
    assert evaluate(result.checkpoint_path, cfg, bundle) == result.final_test.accuracy
    d = 8  # the width whose count is nearest the hybrid's 115 on 3 classes
    _, _, n_params = train_elman(cfg, bundle)
    assert n_params == 2 * d + d * d + 3 * d + 3


def test_label_outside_the_class_count_is_a_data_error(tmp_path):
    bundle = three_class_bundle()
    cfg = tiny_config(out_dir=str(tmp_path / "clean"))
    checkpoint_path = train(cfg, bundle).checkpoint_path
    bad = bundle.train[5] = SequenceSample(bundle.train[5].tokens, 3)
    where = [
        (split, i)
        for split, samples in zip(("train", "test"), resolve_splits(cfg, bundle))
        for i, sample in enumerate(samples) if sample is bad
    ]
    assert len(where) == 1
    split, i = where[0]
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "bad"))
    for run in (
        lambda: train(cfg, bundle),
        lambda: train_elman(cfg, bundle),
        lambda: evaluate(checkpoint_path, cfg, bundle),
    ):
        with pytest.raises(DataError, match=f"{split} sample {i} has label 3, outside \\[0, 3\\)"):
            run()
    # raised before the first epoch: no run directory, no metrics
    assert not (tmp_path / "bad").exists()


def test_evaluate_refuses_a_checkpoint_of_another_class_count(tmp_path):
    bundle = synthetic_bundle(n_classes=3)
    cfg = tiny_config(out_dir=str(tmp_path))
    result = train(cfg, bundle)
    assert result.params.cls_w.shape[0] == 10
    with pytest.raises(ConfigError, match="checkpoint has n_classes=10, the dataset has n_classes=3"):
        evaluate(result.checkpoint_path, cfg, dataclasses.replace(bundle, n_classes=3))


def test_evaluate_refuses_cell_settings_other_than_the_checkpoints(tmp_path):
    # the cell comes from the checkpoint, so a config that sets another
    # one would be scored as the trained cell without a word
    bundle = synthetic_bundle()
    cfg = tiny_config(out_dir=str(tmp_path))
    result = train(cfg, bundle)
    other = dataclasses.replace(cfg, n_qubits=5, t_keep=3, entangler="linear", decoder_hidden=77)
    with pytest.raises(ConfigError) as info:
        evaluate(result.checkpoint_path, other, bundle)
    assert str(info.value).split("; ") == [
        "checkpoint has n_qubits=2, the config has n_qubits=5",
        "checkpoint has entangler='ring', the config has entangler='linear'",
        "checkpoint has decoder_hidden=4, the config has decoder_hidden=77",
        "checkpoint has t_keep=2, the config has t_keep=3",
    ]
    # fields outside the cell do not matter
    same_cell = dataclasses.replace(cfg, shots=16, base_lr=0.5, epochs=9, workers=2)
    assert 0.0 <= evaluate(result.checkpoint_path, same_cell, bundle) <= 1.0


def test_evaluate_refuses_a_split_other_than_the_training_one(tmp_path):
    bundle = synthetic_bundle()
    result = train(tiny_config(out_dir=str(tmp_path), seed=3), bundle)
    with pytest.raises(ConfigError, match="seed"):
        evaluate(result.checkpoint_path, tiny_config(out_dir=str(tmp_path)), bundle)
    acc = evaluate(result.checkpoint_path, tiny_config(out_dir=str(tmp_path), seed=3), bundle)
    assert acc == result.final_test.accuracy


def test_evaluate_refuses_a_checkpoint_without_its_split(tmp_path, capsys):
    # with no split record any config's test split would be scored, and
    # it may hold the samples the model was trained on
    bundle = synthetic_bundle()
    cfg = tiny_config(out_dir=str(tmp_path))
    params, cell, _ = load_checkpoint(train(cfg, bundle).checkpoint_path)
    path = tmp_path / "bare.npz"
    save_checkpoint(path, params, cell)
    record = f"records no {', '.join(SPLIT_FIELDS)} of its split"
    for seed in (0, 1, 2):
        with pytest.raises(DataError, match=record):
            evaluate(path, dataclasses.replace(cfg, seed=seed), bundle)
    assert main(["eval", "--checkpoint", str(path), "--dataset", "sdigits8"]) == 3
    assert record in capsys.readouterr().err


def test_evaluate_names_every_split_field_other_than_the_checkpoints(tmp_path):
    bundle = synthetic_bundle()
    cfg = tiny_config(out_dir=str(tmp_path))
    result = train(cfg, bundle)
    other = dataclasses.replace(cfg, seed=1, test_fraction=0.3)
    with pytest.raises(ConfigError) as info:
        evaluate(result.checkpoint_path, other, bundle)
    assert str(info.value).split("; ") == [
        "checkpoint has seed=0, the config has seed=1",
        "checkpoint has test_fraction=0.25, the config has test_fraction=0.3",
    ]


def test_seed_changes_trajectory(tmp_path):
    bundle = synthetic_bundle()
    r0 = train(tiny_config(out_dir=str(tmp_path / "s0")), bundle)
    r1 = train(tiny_config(out_dir=str(tmp_path / "s1"), seed=1), bundle)
    assert r0.final_train.loss != r1.final_train.loss


def test_checkpoint_extra_provenance(tmp_path):
    from qlam.checkpoint import load_checkpoint

    bundle = synthetic_bundle()
    cfg = tiny_config(out_dir=str(tmp_path), seed=5)
    result = train(cfg, bundle)
    _, _, extra = load_checkpoint(result.checkpoint_path)
    assert extra["dataset"] == "sdigits8"
    assert extra["seed"] == 5
    assert extra["epochs"] == 2
    assert extra["final_test_accuracy"] == result.final_test.accuracy


def test_train_with_numpy_int_fields_writes_its_checkpoint(tmp_path):
    from qlam.checkpoint import load_checkpoint

    bundle = synthetic_bundle()
    plain = train(tiny_config(out_dir=str(tmp_path / "int"), seed=2), bundle)
    result = train(tiny_config(out_dir=str(tmp_path / "np"), seed=np.int64(2), n_qubits=np.int64(2)), bundle)
    _, cell_cfg, extra = load_checkpoint(result.checkpoint_path)
    assert extra["seed"] == 2 and cell_cfg == plain.config.cell_config()
    assert result.metrics_path.read_bytes() == plain.metrics_path.read_bytes()


def test_run_folds_aggregate(tmp_path):
    bundle = synthetic_bundle(n_per_class=8)
    cfg = tiny_config(
        out_dir=str(tmp_path), split_mode="kfold", n_folds=2, fold=0, epochs=1
    )
    result = run_folds(cfg, bundle)
    assert len(result.accuracies) == 2
    assert result.mean == pytest.approx(np.mean(result.accuracies))
    assert result.std == pytest.approx(np.std(result.accuracies))
    lines = result.summary_path.read_text().splitlines()
    assert lines[0] == "fold,test_accuracy"
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    assert lines[3].startswith("mean,") and lines[4].startswith("std,")
    assert float(lines[3].split(",")[1]) == result.mean
    for fold in range(2):
        assert (tmp_path / f"checkpoint_s0_f{fold}.npz").exists()
    # a rerun replaces the summary instead of appending to it
    again = run_folds(cfg, bundle)
    assert again.summary_path.read_text().splitlines() == lines


def test_model_learns_synthetic_classes(tmp_path):
    # Capacity check: four well separated prototypes should be learnable
    # to high train accuracy within a small epoch budget.
    bundle = synthetic_bundle(n_per_class=12, n_classes=4, noise=0.02, seed=3)
    cfg = tiny_config(
        out_dir=str(tmp_path), epochs=30, batch_size=12, base_lr=1e-2,
        n_heads=4, t_keep=8, decoder_hidden=8, test_fraction=0.25,
    )
    result = train(cfg, bundle)
    assert result.final_train.accuracy >= 0.9, result.final_train
    assert result.final_test.accuracy >= 0.7, result.final_test


def test_elman_baseline_runs(tmp_path):
    bundle = synthetic_bundle(n_per_class=6)
    cfg = tiny_config(epochs=2, out_dir=str(tmp_path))
    train_acc, test_acc, n_params = train_elman(cfg, bundle)
    assert 0.0 <= train_acc <= 1.0
    assert 0.0 <= test_acc <= 1.0
    # width 7: 143 parameters, the nearest count to the tiny hybrid's 150
    assert n_params == 7 + 7 + 49 + 10 * 7 + 10


def test_elman_baseline_matches_the_hybrid_parameter_count(tmp_path):
    bundle = synthetic_bundle(n_per_class=2)
    for t_keep in (8, 64):
        cfg = TrainConfig(t_keep=t_keep, epochs=1, test_fraction=0.25, out_dir=str(tmp_path))
        hybrid = init_qlam_params(np.random.default_rng(0), cfg.cell_config())
        hybrid_count = sum(arr.size for arr in hybrid.as_dict().values())
        _, _, n_params = train_elman(cfg, bundle)
        assert abs(n_params - hybrid_count) / hybrid_count < 0.05, (t_keep, n_params, hybrid_count)


def test_empty_test_split_is_a_config_error_for_both_models(tmp_path):
    bundle = synthetic_bundle(n_per_class=2)
    no_test = DatasetBundle(bundle.name, bundle.train, [], bundle.seq_len, 10)
    cfg = tiny_config(out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="empty split"):
        train(cfg, no_test)
    with pytest.raises(ConfigError, match="empty split"):
        train_elman(cfg, no_test)


def test_elman_baseline_is_deterministic(tmp_path, monkeypatch):
    made = []

    def init(*args):
        made.append(init_elman(*args))
        return made[-1]

    monkeypatch.setattr(qlam.trainer, "init_elman", init)
    bundle = synthetic_bundle(n_per_class=6)
    cfg = tiny_config(epochs=3, out_dir=str(tmp_path))
    train_set, _ = resolve_splits(cfg, bundle)
    assert len(train_set) % cfg.batch_size != 0
    first = train_elman(cfg, bundle)
    again = train_elman(cfg, bundle)
    threaded = train_elman(dataclasses.replace(cfg, workers=3), bundle)
    assert first == again == threaded
    for key, arr in made[0].items():
        assert_array_equal(arr, made[1][key], err_msg=key)
        assert_array_equal(arr, made[2][key], err_msg=key)
    untrained = init_elman(np.random.default_rng([cfg.seed, 0]), 7, 10)
    assert made[0]["w_rec"].shape == untrained["w_rec"].shape
    assert not np.array_equal(made[0]["w_rec"], untrained["w_rec"])
    # the default cell on ten classes: width 97
    default_cell = TrainConfig(epochs=1, batch_size=8, test_fraction=0.25, out_dir=str(tmp_path))
    _, _, n_params = train_elman(default_cell, bundle)
    assert n_params == 10583
