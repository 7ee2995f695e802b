#!/usr/bin/env python3
"""Dump every public output of qlam on a fixed model grid, or compare dumps.

    python3 tools/dump_outputs.py OUT.npz
    python3 tools/dump_outputs.py --compare A.npz B.npz

A dump holds, for each model of the grid: `forward` (readouts, final
state, logits), exact and shot-sampled `final_logits`, `loss_and_grad`
(loss, logits, every gradient), `weighted_readout_grads` (value, every
gradient), up to 4 qubits `param_shift_grad` of two circuit angles, and
the batched passes the trainer runs on a stack of three rows:
`batch_loss_and_grad` (losses, logits, every gradient, one row each) and
exact and shot-sampled `batch_logits` with one sample index per row.
The grid runs n = 1..12 qubits, ring and linear entanglers, with
sequence lengths that cross checkpoint windows and kept readouts that
start inside one.  Keys are "<model>/<output>".

`--compare` reports, per kind of output (the key after the model) and
then per register size, how many arrays are bitwise equal and the worst
relative difference max|a - b| / max(1, max|b|); it exits 1 when the key
sets differ.  Run the dump with the `src` of each tree on PYTHONPATH to
compare two versions of the package.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

import numpy as np

# (T, t_keep) per register size: T = 65 and 40 cross one or two windows
# of 32 steps, t_keep = 33 and 40 - 9 start the kept readouts inside one
SHAPES = {
    **{n: ((65, 1), (40, 9), (33, 33), (64, 2)) for n in range(1, 9)},
    9: ((40, 3), (65, 1)), 10: ((40, 3), (65, 1)),
    11: ((33, 2), (64, 3)), 12: ((33, 2), (64, 3)),
}
SHOTS = (1, 64)
SHIFT_MAX_QUBITS = 4
# the sample index of each row of the batched stack: its shot streams
STACK_INDICES = (3, 0, 5)


def grid() -> list[tuple[int, str, int, int]]:
    return [(n, entangler, T, t_keep) for n in sorted(SHAPES)
            for entangler in ("ring", "linear") for T, t_keep in SHAPES[n]]


def model_outputs(n: int, entangler: str, T: int, t_keep: int) -> dict[str, np.ndarray]:
    # imported here, so that --compare runs without the package
    from qlam.cell import CellConfig, batch_logits, final_logits, forward, init_qlam_params
    from qlam.data import SequenceSample
    from qlam.gradients import (batch_loss_and_grad, loss_and_grad, param_shift_grad,
                                weighted_readout_grads)
    from qlam.observables import ShotConfig

    cfg = CellConfig(n_qubits=n, entangler=entangler, d_query=3, n_heads=3,
                     decoder_hidden=4, t_keep=t_keep, n_classes=3)
    rng = np.random.default_rng([n, T, t_keep, entangler == "ring"])
    params = init_qlam_params(rng, cfg)
    params.theta[:] = rng.uniform(-np.pi, np.pi, params.theta.shape)
    sample = SequenceSample(rng.uniform(0.0, 1.0, T), int(rng.integers(3)))
    out = {}
    trace = forward(sample.tokens, params, cfg)
    out["forward.readouts"] = trace.readouts
    out["forward.final_state"] = trace.final_state
    out["forward.logits"] = trace.logits
    out["final_logits.exact"] = final_logits(sample.tokens, params, cfg)
    for m in SHOTS:
        shot = ShotConfig("sampled", m, 7)
        out[f"final_logits.shots{m}"] = final_logits(sample.tokens, params, cfg, shot, sample_index=3)
    bundle = loss_and_grad(sample, params, cfg)
    out["loss_and_grad.loss"] = np.array(bundle.loss)
    out["loss_and_grad.logits"] = bundle.logits
    for key, g in bundle.grads.items():
        out[f"loss_and_grad.{key}"] = g
    weights = rng.normal(size=trace.readouts.shape)
    value, grads = weighted_readout_grads(sample.tokens, params, cfg, weights)
    out["weighted_readout_grads.value"] = np.array(value)
    for key, g in grads.items():
        out[f"weighted_readout_grads.{key}"] = g
    if n <= SHIFT_MAX_QUBITS:
        indices = (0, params.theta.size - 1)
        out["param_shift_grad"] = np.array([param_shift_grad(sample, params, cfg, i) for i in indices])
    stack = [SequenceSample(rng.uniform(0.0, 1.0, T), int(label))
             for label in rng.integers(3, size=len(STACK_INDICES))]
    bundles = batch_loss_and_grad(stack, params, cfg)
    out["batch_loss_and_grad.loss"] = np.array([b.loss for b in bundles])
    out["batch_loss_and_grad.logits"] = np.stack([b.logits for b in bundles])
    for key in bundles[0].grads:
        out[f"batch_loss_and_grad.{key}"] = np.stack([b.grads[key] for b in bundles])
    tokens = [s.tokens for s in stack]
    out["batch_logits.exact"] = batch_logits(tokens, params, cfg)
    for m in SHOTS:
        shot = ShotConfig("sampled", m, 7)
        out[f"batch_logits.shots{m}"] = batch_logits(tokens, params, cfg, shot,
                                                     sample_index=list(STACK_INDICES))
    return out


def dump(path, models: int | None = None) -> int:
    arrays = {}
    for n, entangler, T, t_keep in grid()[:models]:
        name = f"n{n}-{entangler}-T{T}-k{t_keep}"
        for key, arr in model_outputs(n, entangler, T, t_keep).items():
            arrays[f"{name}/{key}"] = arr
    np.savez(path, **arrays)
    return len(arrays)


def compare(path_a, path_b) -> tuple[dict[str, list], dict[int, list], set[str]]:
    """{kind: [arrays, bitwise equal, worst relative difference]} and the
    same per register size, {n: [...]}, over the keys both dumps hold, and
    the keys only one of them holds."""
    with np.load(path_a) as a, np.load(path_b) as b:
        shared = sorted(set(a.files) & set(b.files))
        kinds: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        sizes: dict[int, list] = defaultdict(lambda: [0, 0, 0.0])
        for key in shared:
            x, y = a[key], b[key]
            model, kind = key.split("/", 1)
            if x.shape != y.shape:
                equal, worst = 0, np.inf
            else:
                equal = int(np.array_equal(x, y))
                diff = float(np.abs(x - y).max()) if x.size else 0.0
                worst = diff / max(1.0, float(np.abs(y).max()) if y.size else 1.0)
            for row in (kinds[kind], sizes[int(model.split("-", 1)[0][1:])]):
                row[0] += 1
                row[1] += equal
                row[2] = max(row[2], worst)
        return dict(kinds), dict(sizes), set(a.files) ^ set(b.files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="dump file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = parser.parse_args(argv)
    if args.compare:
        kinds, sizes, unmatched = compare(*args.compare)
        width = max(map(len, kinds), default=4)
        print(f"{'kind':<{width}}  arrays  bitwise  worst rel diff")
        for kind, (count, equal, worst) in sorted(kinds.items()):
            print(f"{kind:<{width}}  {count:6d}  {equal:7d}  {worst:.3e}")
        print("qubits  arrays  bitwise  worst rel diff")
        for n, (count, equal, worst) in sorted(sizes.items()):
            print(f"n = {n:2d}  {count:6d}  {equal:7d}  {worst:.3e}")
        total = sum(r[0] for r in kinds.values())
        print(f"total: {total} arrays, {sum(r[1] for r in kinds.values())} bitwise equal")
        if unmatched:
            print(f"keys in one dump only: {len(unmatched)}", file=sys.stderr)
            return 1
        return 0
    if not args.out:
        parser.error("give an output file or --compare A B")
    print(f"{dump(args.out)} arrays written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
