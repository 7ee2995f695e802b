"""Three independent routes to the same gradient.

The training loop uses an adjoint sweep. This script cross-checks it on
a small model against the parameter-shift rule (exact for the circuit
angles) and central finite differences (approximate, for every
parameter), printing the worst disagreement for each pair.  An angle is
shared by all T steps, so a readout has frequencies 0..T in it; the
general shift rule (arXiv:2107.12390) reads the exact derivative from
2T runs, each moving that angle at every step.
"""

import numpy as np

from qlam.cell import CellConfig, init_qlam_params
from qlam.data import SequenceSample
from qlam.gradients import (
    loss_and_grad,
    param_shift_grad,
    readout_param_shift,
    weighted_readout_grads,
)


def finite_difference(sample, params, cfg, key, index, h=1e-5):
    flat = getattr(params, key).reshape(-1)
    keep = flat[index]
    flat[index] = keep + h
    up = loss_and_grad(sample, params, cfg).loss
    flat[index] = keep - h
    down = loss_and_grad(sample, params, cfg).loss
    flat[index] = keep
    return (up - down) / (2 * h)


def main():
    cfg = CellConfig(n_qubits=2, n_layers=1, d_query=3, n_heads=2,
                     decoder_hidden=4, t_keep=2, n_classes=3)
    rng = np.random.default_rng(5)
    params = init_qlam_params(rng, cfg)
    tokens = rng.uniform(0.0, 1.0, 6)
    sample = SequenceSample(tokens, label=1)

    bundle = loss_and_grad(sample, params, cfg)
    print(f"loss at the probe point: {bundle.loss:.6f}")

    # Adjoint vs parameter-shift on every circuit angle.
    worst_shift = 0.0
    for i in range(params.theta.size):
        shift = param_shift_grad(sample, params, cfg, i)
        worst_shift = max(worst_shift, abs(bundle.grads["theta"][i] - shift))
    print(f"adjoint vs parameter-shift, worst over "
          f"{params.theta.size} angles: {worst_shift:.2e}")
    assert worst_shift < 1e-10

    # Adjoint vs finite differences on every parameter array.
    print("adjoint vs central differences, worst relative error per array:")
    for key, grad in bundle.grads.items():
        worst = 0.0
        for index in range(grad.size):
            fd = finite_difference(sample, params, cfg, key, index)
            a = grad.reshape(-1)[index]
            scale = max(abs(a), abs(fd), 1e-6)
            worst = max(worst, abs(a - fd) / scale)
        print(f"  {key:>7}: {worst:.2e}")
        assert worst < 1e-5

    # The shift rule also matches a weighted sum of per-step readouts.
    weights = rng.normal(size=(tokens.size, cfg.n_heads))
    _, grads = weighted_readout_grads(tokens, params, cfg, weights)
    table = readout_param_shift(tokens, params, cfg, theta_index=0)
    direct = float(np.sum(weights * table))
    print(f"weighted-readout route, angle 0: adjoint {grads['theta'][0]:+.8f} "
          f"vs shift {direct:+.8f}")
    assert abs(grads["theta"][0] - direct) < 1e-10


if __name__ == "__main__":
    main()
