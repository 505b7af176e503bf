"""Synthetic bimodal classification stream with a cross-modal dependency.

A latent regime cycles deterministically every `regime_period` steps and
is encoded (noisily) in mode 1; an i.i.d. signal index is encoded in
mode 2.  The label is (regime + signal) mod classes, so neither mode
alone determines it.  With probability `occlusion_prob` a step's mode-1
features are replaced by pure noise of matched scale: such steps can
only be classified by carrying regime information across time, which is
exactly what a fusion memory can provide and plain concatenation
cannot.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .errors import ParameterError
from .kernels import Array, Rng


# Values per row block when adding the prototypes: bounds the gather's scratch.
_ADD_BLOCK = 1 << 15


@dataclass(frozen=True)
class TaskConfig:
    s1: int = 16
    s2: int = 16
    classes: int = 3
    regimes: int = 3
    regime_period: int = 8
    occlusion_prob: float = 0.5
    noise_sigma: float = 0.3
    length: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.s1 < 1 or self.s2 < 1:
            raise ParameterError("feature dims must be >= 1")
        if self.classes < 2:
            raise ParameterError(f"classes must be >= 2, got {self.classes}")
        if self.regimes < 1:
            raise ParameterError(f"regimes must be >= 1, got {self.regimes}")
        if self.regime_period < 1:
            raise ParameterError(f"regime_period must be >= 1, got {self.regime_period}")
        if not 0.0 <= self.occlusion_prob <= 1.0:
            raise ParameterError(f"occlusion_prob must be in [0, 1], got {self.occlusion_prob}")
        if self.noise_sigma <= 0:
            raise ParameterError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        if self.length < 1:
            raise ParameterError(f"length must be >= 1, got {self.length}")


class Dataset(NamedTuple):
    """The stream as row-aligned columns, row t being step t: m1 (n, s1) and
    m2 (n, s2) float64, labels (n,) int64.  It unpacks as (m1, m2, labels),
    the form training takes; `len` counts those three fields, not rows.
    """

    m1: Array
    m2: Array
    labels: Array


def gen_dataset(config: TaskConfig) -> Dataset:
    """Deterministic stream generation; a pure function of the config.

    Prototypes are drawn once and frozen.  Occluded steps replace mode 1
    with N(0, 1 + sigma^2) noise, matching the marginal scale of
    prototype + noise so occlusion destroys information without shifting
    the statistics the encoder sees.
    """
    rng = Rng(config.seed)
    n, s1, s2 = config.length, config.s1, config.s2
    # numpy refuses a size beyond the address space with a ValueError
    size = max(n * max(s1, s2), config.regimes * s1, config.classes * s2)
    if size > sys.maxsize // 8:
        raise MemoryError(f"a stream array of {size} float64 entries exceeds the address space")

    proto1 = rng.normal(config.regimes * s1).reshape(config.regimes, s1)
    proto2 = rng.normal(config.classes * s2).reshape(config.classes, s2)

    signals = rng.integers(n, config.classes)
    occluded = rng.uniform(n) < config.occlusion_prob
    regimes_t = regime_at(config, np.arange(n, dtype=np.int64))
    labels = (regimes_t + signals) % config.classes

    # Each column is built in place.  Mode-1 noise is drawn only under
    # clean rows and occlusion noise only under occluded rows, each the
    # bits its whole draw would put there, and the prototype rows are
    # added a row block at a time, so no temporary grows with the stream
    # beyond a few per-row vectors.
    occlusion_scale = float(np.sqrt(1.0 + config.noise_sigma**2))
    m1 = np.empty((n, s1))
    rng.fill_normal(m1, 0.0, config.noise_sigma, rows=np.flatnonzero(~occluded))
    m2 = rng.fill_normal(np.empty((n, s2)), 0.0, config.noise_sigma)
    rng.fill_normal(m1, 0.0, occlusion_scale, rows=np.flatnonzero(occluded))
    step = max(_ADD_BLOCK // max(s1, s2), 1)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        np.add(m1[rows], proto1[regimes_t[rows]], out=m1[rows], where=~occluded[rows, None])
        m2[rows] += proto2[signals[rows]]
    return Dataset(m1, m2, labels)


def regime_at(config: TaskConfig, t):
    """Latent regime of step t, an int or an integer array of steps."""
    return (t // config.regime_period) % config.regimes


def split(dataset: Dataset, train_frac: float, val_frac: float) -> Tuple[Dataset, Dataset, Dataset]:
    """Contiguous train/val/test split preserving stream order; each part
    holds row-slice views of the dataset's columns."""
    if train_frac <= 0 or val_frac <= 0:
        raise ParameterError("split fractions must be positive")
    if train_frac + val_frac >= 1.0:
        raise ParameterError(
            f"split fractions must leave a test remainder, got {train_frac} + {val_frac}"
        )
    m1, m2, labels = dataset
    n = len(labels)
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise ParameterError(f"degenerate split for {n} samples")
    rows = (slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, n))
    return tuple(Dataset(m1[r], m2[r], labels[r]) for r in rows)


def stack(dataset: Dataset) -> Dataset:
    """The dataset's (m1, m2, labels) arrays; the stream is columnar, so nothing is copied."""
    m1, m2, labels = dataset
    if len(labels) == 0:
        raise ParameterError("stack: empty dataset")
    return Dataset(m1, m2, labels)


def to_csv(dataset: Dataset) -> str:
    """One row per sample: t (the row index), label, then mode-1 and mode-2 features."""
    m1, m2, labels = dataset
    if len(labels) == 0:
        raise ParameterError("to_csv: empty dataset")
    header = ["t", "label"] + [f"m1_{i}" for i in range(m1.shape[1])] + [f"m2_{i}" for i in range(m2.shape[1])]
    lines = [",".join(header)]
    for t, (label, x1, x2) in enumerate(zip(labels.tolist(), m1.tolist(), m2.tolist())):
        lines.append(f"{t},{label}," + ",".join(map(repr, x1 + x2)))
    return "\n".join(lines) + "\n"
