#!/usr/bin/env python3
"""Time the step engine: microseconds per forward step and per adjoint step.

    PYTHONPATH=src python3 tools/time_engine.py [--qubits 1 2 ...] [--rounds R]

--qubits takes register sizes 1..MOST_QUBITS (8), --rounds a positive count.

For each register size n and stack of B rows (1, 4, 16, the chunk
`qlam train` runs by default, min(TrainConfig().batch_size, walk_rows(n)),
and walk_rows(n)), each pass runs on both engines: layered, every layer
of a step one by one on computational rows, and folded, each row carried
in the Y eigenbasis, where layer 0 is one multiply by its phases and the
rest of a step one product with a fixed real matrix (`Steps.tail`, the
real form of V^H T V), and a rewind one product with every layer's read
point and layer 0's in the eigenbasis (`Steps.reads`), then the
conjugate phases.  `circuits.FOLD_QUBITS` picks the engine when a
`Steps` is built, so the timing sets it to 0 or MAX_QUBITS; the package
folds up to its own FOLD_QUBITS, marked "*" in the output.

A forward step is a forward `Steps.sweep` over one window of
CHECKPOINT_INTERVAL steps of the default 2-layer ring cell that reads
out every step, divided by the window's steps; folded, it changes the
window's states out of the eigenbasis once for the readout.  An adjoint
step is `Steps.adjoint` after a gradient's `sweep` of the same window,
timed twice: "kept", after a sweep that reads out every step, so the
sweep keeps the window's rows and the walk reads them; and "uncomputed",
after one that reads out every step but the first, so the sweep keeps no
window and the walk takes every ket back from the window's end state.
Each times the rewinds, the read points, the angle derivatives and the
injections (the kets themselves) of every step it reads out, with the
changes of basis of the kets and injections.  The one-time builds, of a
`Steps` (with `tail` when folded) and of `reads`, are timed apart, once
per register size and engine, on their own line.  Each round times every
cell once per engine, alternating which engine runs first, and keeps the
best of REPEAT calls; the output is the median over rounds of those
minima.  Beside each pass's times, "faults" gives the minor page faults
(`getrusage` ru_minflt) per call of that pass, layered/folded, over the
same timed calls: pages the heap takes back from the system while the
pass runs.  One BLAS thread is pinned before numpy loads.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import resource
import sys
import time

import numpy as np

ENGINES = ("layered", "folded")
PASSES = ("forward", "kept adjoint", "uncomputed adjoint")
LAYERS = 2  # the default cell's ansatz layers
REPEAT = 3  # calls per cell and round
# The largest register timed.  Both engines run at every n, and the
# folded one holds real (2 * 2**n)-wide matrices: at n = 8 `tail` and
# `reads` take 8 MiB together, at n = 12 2 GiB.
MOST_QUBITS = 8


def positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not positive")
    return n


def stacks(n: int) -> list[int]:
    from qlam.circuits import walk_rows
    from qlam.trainer import TrainConfig

    return sorted({1, 4, 16, min(TrainConfig().batch_size, walk_rows(n)), walk_rows(n)})


def engine(n: int, rows: int, folded: bool):
    """A `Steps` of one window of random steps, layered or folded."""
    from qlam import circuits

    rng = np.random.default_rng([n, rows])
    theta = rng.uniform(-np.pi, np.pi, 2 * LAYERS * n)
    embeddings = rng.uniform(-1.0, 1.0, (rows, circuits.CHECKPOINT_INTERVAL, n))
    saved = circuits.FOLD_QUBITS
    circuits.FOLD_QUBITS = circuits.MAX_QUBITS if folded else 0
    try:
        return circuits.Steps(theta, embeddings, "ring")
    finally:
        circuits.FOLD_QUBITS = saved


def time_build(n: int, folded: bool) -> float:
    """Best of REPEAT builds, in microseconds, of a one-row `Steps` and
    of its `reads`."""
    best = np.inf
    for _ in range(REPEAT):
        begin = time.perf_counter()
        _ = engine(n, 1, folded).reads
        best = min(best, time.perf_counter() - begin)
    return best * 1e6


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_cell(n: int, rows: int, folded: bool) -> np.ndarray:
    """Best of REPEAT calls, in microseconds per step, of one forward
    window and of one adjoint over it, kept and uncomputed; then the
    minor page faults per call of each pass, over the same timed calls."""
    steps = engine(n, rows, folded)
    _ = steps.reads  # built here, outside the timing
    T = steps.embeddings.shape[1]
    best = [np.inf] * len(PASSES)
    faults = [0] * len(PASSES)
    for _ in range(REPEAT):
        flt, begin = minor_faults(), time.perf_counter()
        steps.sweep(1, lambda lo, states: None)
        best[0] = min(best[0], time.perf_counter() - begin)
        faults[0] += minor_faults() - flt
        for i in (1, 2):  # read out from step 1, kept, or from step 2, uncomputed
            steps.sweep(i, lambda lo, states: None, backward=True)
            flt, begin = minor_faults(), time.perf_counter()
            steps.adjoint(lambda lo, kets: kets)
            best[i] = min(best[i], time.perf_counter() - begin)
            faults[i] += minor_faults() - flt
    return np.array([b * 1e6 / T for b in best] + [f / REPEAT for f in faults])


def measure(qubits, rounds: int) -> dict:
    """{(n, B, engine): a time per pass} and {(n, engine): a build time}
    medians of per-round minima."""
    cells = [(n, rows) for n in qubits for rows in stacks(n)] + [(n, None) for n in qubits]
    seen: dict = {}
    for r in range(rounds):
        for n, rows in cells:
            # alternate which engine runs first, round by round
            for name in ENGINES[::1 if r % 2 == 0 else -1]:
                folded = name == "folded"
                key, timed = ((n, name), time_build(n, folded)) if rows is None else (
                    (n, rows, name), time_cell(n, rows, folded))
                seen.setdefault(key, []).append(timed)
    return {key: np.median(np.array(values), axis=0) for key, values in seen.items()}


def report(times: dict, qubits) -> list[str]:
    from qlam.circuits import FOLD_QUBITS

    lines = ["  n     B" + "".join(f"  {name + ' us/step:':>24} layered  folded  ratio  faults"
                                    for name in PASSES)]
    count = len(PASSES)  # each cell holds count times, then count fault counts
    for n in qubits:
        for rows in stacks(n):
            layered, folded = (times[n, rows, name] for name in ENGINES)
            mark = "*" if n <= FOLD_QUBITS else " "
            lines.append(f"{n:3d}{mark} {rows:5d}" + "".join(
                f"  {lay:32.2f} {fold:7.2f} {lay / fold:6.2f} {lay_flt:3.0f}/{fold_flt:<3.0f}"
                for lay, fold, lay_flt, fold_flt in zip(layered[:count], folded[:count],
                                                        layered[count:], folded[count:])))
    lines.append("build us, layered/folded: " + ", ".join(
        f"n={n} {times[n, 'layered']:.0f}/{times[n, 'folded']:.0f}" for n in qubits))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", choices=range(1, MOST_QUBITS + 1),
                        default=list(range(1, 8)), metavar="N")
    parser.add_argument("--rounds", type=positive, default=5)
    args = parser.parse_args(argv)
    times = measure(args.qubits, args.rounds)
    print("\n".join(report(times, args.qubits)))
    print("ratio: layered over folded time; faults: minor page faults per pass, "
          "layered/folded; * the engine folds this register")
    return 0


if __name__ == "__main__":
    sys.exit(main())
