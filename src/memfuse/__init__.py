"""memfuse: an attentive external-memory fusion layer with analytic
gradients, a trainable classifier harness, and a synthetic benchmark
for studying fusion under cross-modal occlusion."""

from .errors import NumericError, ParameterError, ShapeError
from .fusion import (
    MEMORY,
    MEMORY_CROSS,
    MEMORY_RESAMPLED,
    MEMORY_SINGLE,
    NAIVE,
    ForwardTrace,
    FusionParams,
    MemoryState,
    Variant,
    fusion_backward,
    fusion_forward,
    fusion_input_grads,
    init_memory,
    init_params,
    naive_backward,
    naive_fusion,
    param_count_actual,
    param_count_formula,
    parse_variant,
    write_memory,
)
from .kernels import Rng
from .metrics import MetricsReport, compute_report, confusion_matrix
from .model import (
    ClassifierConfig,
    TrainState,
    adam_step,
    build_state,
    evaluate,
    fit,
    train_epoch,
)
from .synthdata import Dataset, TaskConfig, gen_dataset, split, stack

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
