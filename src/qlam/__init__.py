"""Hybrid quantum-classical sequence classification.

A recurrent cell keeps its memory as an n-qubit statevector, evolves it
with an input-conditioned unitary per token, and reads it out through
query-conditioned Hermitian observables over a shared Pauli pool.
Training runs exact reverse-mode (adjoint) gradients through the
simulation; parameter-shift and finite differences serve as oracles.
"""

from .cell import (
    CellConfig,
    QlamParams,
    ReadoutTrace,
    final_logits,
    forward,
    init_qlam_params,
    predict,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .circuits import new_zero_state
from .data import (
    DatasetBundle,
    SequenceSample,
    fold_split,
    load_cifar10_bin,
    load_dataset,
    load_idx,
    to_sequence,
)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    ParseError,
    QlamError,
    ShapeError,
    ValidationError,
)
from .gradients import GradBundle, loss_and_grad, param_shift_grad
from .nn import adam_step, cosine_lr, softmax_cross_entropy
from .observables import ShotConfig, default_pauli_pool
from .trainer import (
    MetricsRow,
    TrainConfig,
    TrainResult,
    evaluate,
    read_metrics,
    run_folds,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CellConfig", "ConfigError", "DataError", "DatasetBundle", "GradBundle",
    "MetricsRow", "NumericError", "ParseError",
    "QlamError", "QlamParams", "ReadoutTrace", "SequenceSample",
    "ShapeError", "ShotConfig", "TrainConfig", "TrainResult", "ValidationError",
    "adam_step", "cosine_lr", "default_pauli_pool", "evaluate", "final_logits",
    "fold_split", "forward", "init_qlam_params", "load_checkpoint", "load_cifar10_bin",
    "load_dataset", "load_idx", "loss_and_grad", "new_zero_state",
    "param_shift_grad", "predict", "read_metrics", "run_folds", "save_checkpoint",
    "softmax_cross_entropy", "to_sequence", "train",
]
