"""Workload definitions, seeded inputs, the timed calls and their checks.

Each workload is a closed loop in one process and one thread: it calls
the public qlam API and calls again only when the previous call has
returned.  The package only ever receives `SequenceSample`s and a
`DatasetBundle` built here, so no dataset files are read.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from qlam import cell, checkpoint, circuits, gradients, trainer
from qlam.data import DatasetBundle, SequenceSample
from qlam.observables import ShotConfig

N_CLASSES = 10
BATCH_SIZE = 16
# What the recorded references hold, and how far a later commit may drift
# from them: losses by a relative 1e-6, accuracies by one sample.
REFERENCE_KEYS = {
    "train": ("train_loss", "test_loss", "test_accuracy"),
    "eval": ("loss", "accuracy"),
}
REFERENCE_TOLERANCE = {"loss_rel": 1e-6, "accuracy_samples": 1}


@dataclass(frozen=True)
class Workload:
    """One input shape; the cell is TrainConfig's default apart from these."""

    name: str
    kind: str        # "train": trainer.train for one epoch; "eval": evaluate_samples
    n_qubits: int
    seq_len: int
    t_keep: int
    n_train: int     # training samples, all in one batch (train only)
    n_test: int      # per-epoch test samples (train) or evaluated samples (eval)
    shots: int = 0   # shots per pool term (eval only); 0 is exact readout

    def __post_init__(self):
        if self.kind == "train" and not 1 <= self.n_train <= BATCH_SIZE:
            # one batch per epoch, so the epoch's train loss is the loss at init
            raise ValueError(f"a train workload needs 1 <= n_train <= {BATCH_SIZE}")

    def train_config(self, seed: int, out_dir: Path) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            dataset="sdigits8",  # a valid name; the bundle passed to train() replaces it
            n_qubits=self.n_qubits, t_keep=self.t_keep, epochs=1,
            batch_size=BATCH_SIZE, seed=seed, out_dir=str(out_dir), workers=1,
        )


WORKLOADS = {
    w.name: w for w in (
        Workload("train-n4-T64", "train", 4, 64, 64, n_train=4, n_test=4),
        Workload("train-n12-T256", "train", 12, 256, 16, n_train=1, n_test=1),
        Workload("eval-n4-T64-shots", "eval", 4, 64, 64, n_train=0, n_test=8, shots=1024),
    )
}


def make_samples(rng: np.random.Generator, count: int, seq_len: int) -> list[SequenceSample]:
    """Class c is a sine with c+1 periods per sequence, random phase, small
    noise, clipped to [0, 1]; classes are balanced and separable by frequency."""
    t = np.arange(seq_len) / seq_len
    samples = []
    for label in rng.permutation(count) % N_CLASSES:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        x = 0.5 + 0.35 * np.sin(2.0 * math.pi * (label + 1) * t + phase)
        x += 0.05 * rng.standard_normal(seq_len)
        samples.append(SequenceSample(np.clip(x, 0.0, 1.0), int(label)))
    return samples


def _same_params(a: cell.QlamParams, b: cell.QlamParams) -> bool:
    return all(np.array_equal(x, b.as_dict()[k]) for k, x in a.as_dict().items())


class Session:
    """Inputs and model of one workload at one seed (everything set-up does).

    `call` is the timed call.  It returns (outcome, seconds by metric):
    a train call runs `trainer.train` for one epoch, reads ``clock`` if
    one is given, then evaluates the trained model on the test split with
    `trainer.evaluate_samples`; an eval call is one `evaluate_samples`
    pass with shot sampling.
    """

    def __init__(self, spec: Workload, seed: int, out_dir: Path):
        self.spec, self.seed, self.out_dir = spec, seed, out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 7])
        self.config = spec.train_config(seed, out_dir)
        self.cell = self.config.cell_config()
        self.train_set = make_samples(rng, spec.n_train, spec.seq_len)
        self.test_set = make_samples(rng, spec.n_test, spec.seq_len)
        # the trainer's documented init stream is [seed, 0]
        self.init_params = cell.init_qlam_params(np.random.default_rng([seed, 0]), self.cell)
        self.shot = ShotConfig()
        self.params = self.init_params
        if spec.kind == "train":
            self.bundle = DatasetBundle(
                "synthetic", self.train_set, self.test_set, spec.seq_len, N_CLASSES
            )
        else:
            self.shot = ShotConfig("sampled", spec.shots, seed)
            self.params = self.round_trip(self.init_params)
        self.first_result = None

    def round_trip(self, params: cell.QlamParams) -> cell.QlamParams:
        """Save and reload through the checkpoint module."""
        path = self.out_dir / "model.npz"
        checkpoint.save_checkpoint(path, params, self.cell, {"seed": self.seed})
        loaded, _, _ = checkpoint.load_checkpoint(path)
        return loaded

    def call(self, tracer=None, clock=None):
        now = time.perf_counter
        if self.spec.kind == "eval":
            with tracer or nullcontext():
                t0 = now()
                loss, acc = trainer.evaluate_samples(
                    self.test_set, self.params, self.cell, self.shot, workers=1
                )
                seconds = now() - t0
            return {"loss": loss, "accuracy": acc}, {"epoch_s": seconds, "eval_s": seconds}
        with tracer or nullcontext():
            t0 = now()
            result = trainer.train(self.config, self.bundle)
            epoch_s = now() - t0
        mid_ref_s = clock.read() if clock else None  # pairs with both halves of the call
        t0 = now()
        eval_loss, eval_acc = trainer.evaluate_samples(self.test_set, result.params, self.cell)
        eval_s = now() - t0
        rows = trainer.read_metrics(result.metrics_path)
        self.first_result = self.first_result or result
        outcome = {
            "train_loss": rows[0].loss, "test_loss": rows[1].loss,
            "test_accuracy": rows[1].accuracy,
            "eval_loss": eval_loss, "eval_accuracy": eval_acc,
        }
        return outcome, {"epoch_s": epoch_s, "eval_s": eval_s, "mid_ref_s": mid_ref_s}

    # -- checks --------------------------------------------------------

    def oracle_problems(self, outcome: dict, tol: float) -> list[str]:
        """Compare the first call's outcome with the independent simulator."""
        problems = []

        def near(name, got, want):
            if not abs(got - want) <= tol * max(1.0, abs(want)):
                problems.append(f"{name}: got {got!r}, oracle {want!r}")

        if self.spec.kind == "eval":
            loss, acc = oracle.loss_and_accuracy(
                self.test_set, self.params, self.cell, self.spec.shots, self.seed
            )
            near("loss", outcome["loss"], loss)
            near("accuracy", outcome["accuracy"], acc)
            if not _same_params(self.params, self.init_params):
                problems.append("checkpoint round trip changed the parameters")
            return problems
        result = self.first_result
        init_loss, _ = oracle.loss_and_accuracy(self.train_set, self.init_params, self.cell)
        near("train_loss", outcome["train_loss"], init_loss)
        loss, acc = oracle.loss_and_accuracy(self.test_set, result.params, self.cell)
        for key, want in (("test_loss", loss), ("eval_loss", loss),
                          ("test_accuracy", acc), ("eval_accuracy", acc)):
            near(key, outcome[key], want)
        saved, _, _ = checkpoint.load_checkpoint(result.checkpoint_path)
        if not _same_params(saved, result.params):
            problems.append("saved checkpoint differs from the trained parameters")
        return problems


def reference_problems(spec: Workload, outcome: dict, reference: dict) -> list[str]:
    """Compare with the values recorded at an earlier commit."""
    tol = REFERENCE_TOLERANCE
    problems = []
    for key, want in reference.items():
        got = outcome[key]
        if key.endswith("accuracy"):
            ok = abs(got - want) <= tol["accuracy_samples"] / spec.n_test + 1e-12
        else:
            ok = abs(got - want) <= tol["loss_rel"] * max(1.0, abs(want))
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


def kronecker_problems(seed: int, tol: float) -> list[str]:
    """`cell.final_logits` on one n=4 sample (default cell, T=64) against the
    dense Kronecker reconstruction, in exact and in sampled readout."""
    cfg = trainer.TrainConfig(n_qubits=4).cell_config()
    rng = np.random.default_rng([seed, 3])
    params = cell.init_qlam_params(rng, cfg)
    params.theta[:] = rng.uniform(-math.pi, math.pi, params.theta.shape)
    sample = make_samples(rng, 1, 64)[0]
    problems = []
    for shots in (0, 1024):
        shot = ShotConfig("sampled", shots, seed) if shots else ShotConfig()
        got = cell.final_logits(sample.tokens, params, cfg, shot, sample_index=5)
        dense = oracle.kron_logits(sample.tokens, params, cfg, shots, seed, 5)
        strided = oracle.logits(sample.tokens, params, cfg, shots, seed, 5)
        scale = max(1.0, float(np.abs(dense).max()))
        for label, want in (("kronecker", dense), ("strided oracle", strided)):
            err = float(np.abs(got - want).max())
            if not err <= tol * scale:
                problems.append(f"final_logits vs {label} ({shots} shots): max error {err:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Per-layer metrics.  Counts and seconds are per timed call (one epoch, or
# one evaluation pass), except the checkpoint timings, which are per call
# of the checkpoint function.
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "gradients.loss_and_grad.calls": "count",
    "gradients.loss_and_grad.s": "s",
    "gradients.loss_and_grad.self_s": "s",
    "gradients.checkpoint_bytes_computed": "B",
    "circuits.steps": "count",
    "circuits.s": "s",
    "circuits.gates_per_step": "count",
    "circuits.steps_per_token": "ratio",
    "statevector.gate_calls": "count",
    "statevector.kernel_s": "s",
    "statevector.bytes_computed": "B",
    "observables.pool_expectations.calls": "count",
    "observables.pool_expectations.s": "s",
    "observables.apply_pauli_string.calls": "count",
    "observables.apply_pauli_string.s": "s",
    "observables.sample_term_mean.calls": "count",
    "observables.sample_term_mean.s": "s",
    "cell.all_head_gammas.calls": "count",
    "cell.all_head_gammas.s": "s",
    "cell.final_logits.calls": "count",
    "cell.final_logits.s": "s",
    "cell.final_logits.self_s": "s",
    "trainer.batch_gradients.self_s": "s",
    "nn.adam_step.s": "s",
    "nn.clip_global_norm.s": "s",
    "checkpoint.save_checkpoint.s": "s",
    "checkpoint.load_checkpoint.s": "s",
    "trace.overhead": "ratio",
}

_CIRCUIT_STEPS = ("circuits.step", "circuits.apply_plan_kernel")


def layer_metrics(tracer, session: Session, n_calls: int, overhead: float) -> dict[str, float]:
    spec = session.spec
    calls, secs, self_secs, kbytes = 0, 1, 2, 3

    def per_call(name, field, exclude=()):
        return tracer.total(name, field, exclude) / n_calls

    def mean(name):
        n = tracer.total(name, calls)
        return tracer.total(name, secs) / n if n else 0.0

    # outermost step calls only, so a step built on another step counts once
    steps = sum(tracer.total(s, calls, ("circuits.",)) for s in _CIRCUIT_STEPS)
    step_s = sum(tracer.total(s, secs, ("circuits.",)) for s in _CIRCUIT_STEPS)
    sequences = tracer.total("gradients.loss_and_grad", calls) + tracer.total("cell.final_logits", calls)
    dim = 1 << spec.n_qubits
    interval = getattr(gradients, "CHECKPOINT_INTERVAL", spec.seq_len)
    stored_states = spec.seq_len / interval + interval
    plan = getattr(circuits, "build_step_plan", None)
    if plan:
        gates = len(plan(session.cell.ansatz))
    else:
        c, zeros = session.cell, np.zeros(2 * spec.n_qubits * session.cell.n_layers)
        gates = len(oracle.step_ops(c.n_qubits, c.n_layers, c.entangler, zeros, zeros))
    return {
        "gradients.loss_and_grad.calls": per_call("gradients.loss_and_grad", calls),
        "gradients.loss_and_grad.s": per_call("gradients.loss_and_grad", secs),
        "gradients.loss_and_grad.self_s": per_call("gradients.loss_and_grad", self_secs),
        "gradients.checkpoint_bytes_computed":
            stored_states * dim * 16 if spec.kind == "train" else 0.0,
        "circuits.steps": steps / n_calls,
        "circuits.s": step_s / n_calls,
        "circuits.gates_per_step": gates,
        "circuits.steps_per_token": steps / (sequences * spec.seq_len) if sequences else 0.0,
        "statevector.gate_calls": per_call("statevector.", calls),
        "statevector.kernel_s": per_call("statevector.", secs),
        "statevector.bytes_computed": per_call("statevector.", kbytes),
        "observables.pool_expectations.calls": per_call("observables.pool_expectations", calls),
        "observables.pool_expectations.s": per_call("observables.pool_expectations", secs),
        # readout injections of the adjoint sweep, not the pool's own expectations
        "observables.apply_pauli_string.calls": per_call(
            "observables.apply_pauli_string", calls, ("observables.pool_expectations",)),
        "observables.apply_pauli_string.s": per_call(
            "observables.apply_pauli_string", secs, ("observables.pool_expectations",)),
        "observables.sample_term_mean.calls": per_call("observables.sample_term_mean", calls),
        "observables.sample_term_mean.s": per_call("observables.sample_term_mean", secs),
        "cell.all_head_gammas.calls": per_call("cell.all_head_gammas", calls),
        "cell.all_head_gammas.s": per_call("cell.all_head_gammas", secs),
        "cell.final_logits.calls": per_call("cell.final_logits", calls),
        "cell.final_logits.s": per_call("cell.final_logits", secs),
        "cell.final_logits.self_s": per_call("cell.final_logits", self_secs),
        "trainer.batch_gradients.self_s": per_call("trainer.batch_gradients", self_secs),
        "nn.adam_step.s": per_call("nn.adam_step", secs),
        "nn.clip_global_norm.s": per_call("nn.clip_global_norm", secs),
        "checkpoint.save_checkpoint.s": mean("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.s": mean("checkpoint.load_checkpoint"),
        "trace.overhead": overhead,
    }
