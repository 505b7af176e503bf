"""Finite-difference verification of the analytic gradients.

central_diff is the independent oracle: it never calls any backward
code, only repeated forward evaluations.  check_layer builds a random
small configuration, runs the layer's own backward pass, and compares
every parameter block and both input batches against the oracle,
coordinate by coordinate.

Finite differences are only trustworthy away from ReLU kinks and for
gradient entries comfortably above the subtraction noise floor, so
configurations violating either margin are rejected and redrawn.  Exact
zeros are kept: a dead ReLU channel must produce a bit-exact zero from
both the backward pass and the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from .errors import NumericError, ParameterError
from .fusion import (
    MEMORY_RESAMPLED,
    MEMORY_SINGLE,
    NAIVE,
    PARAM_FIELDS,
    FusionParams,
    Variant,
    fusion_backward,
    fusion_forward,
    fusion_input_grads,
    init_memory,
    init_params,
    naive_backward,
)
from .kernels import Array, Rng
from .model import (
    ClassifierConfig,
    ModelParams,
    build_state,
    cross_entropy_batch,
    flatten,
    forward_logits,
    loss_and_grads,
    param_table,
    relu_margins_ok,
    table_views,
)

DIM_CAP = 16
SLOT_CAP = 8
BATCH_CAP = 4

DEFAULT_STEP = 1e-5
DEFAULT_THRESHOLD = 1e-5
REL_FLOOR = 1e-8

# Config-rejection margins.  A parameter nudge of `step` must not be able
# to flip a ReLU sign, and every nonzero gradient entry must sit far
# enough above the centered-difference noise floor (measured ~5e-11 for
# these loss scales) to be resolvable at the default threshold.
KINK_MARGIN = 1e-4
GRAD_FLOOR = 3e-5
MAX_TRIES = 200

INPUT_SIGMA = 0.6


def central_diff(loss_fn: Callable[[Array], float], theta: Array, step: float = DEFAULT_STEP) -> Array:
    """Centered finite-difference gradient of a scalar function.

    Coordinate i gets (L(theta + step*e_i) - L(theta - step*e_i)) / (2*step).
    """
    if step <= 0:
        raise ParameterError(f"central_diff: step must be > 0, got {step}")
    theta = np.asarray(theta, dtype=np.float64).copy()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        plus = loss_fn(theta)
        theta[i] = orig - step
        minus = loss_fn(theta)
        theta[i] = orig
        if not (math.isfinite(plus) and math.isfinite(minus)):
            raise NumericError(f"central_diff: non-finite loss at coordinate {i}")
        grad[i] = (plus - minus) / (2.0 * step)
    return grad


def relative_errors(a: Array, b: Array) -> Array:
    """Per-coordinate |a - b| / max(|a|, |b|, 1e-8)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_FLOOR)
    return np.abs(a - b) / denom


@dataclass
class BlockReport:
    max_rel: float
    mean_rel: float
    worst_index: int

    def to_dict(self) -> dict:
        return {
            "max_rel": self.max_rel,
            "mean_rel": self.mean_rel,
            "worst_index": self.worst_index,
        }


@dataclass
class GradReport:
    """Outcome of one finite-difference comparison."""

    passed: bool
    threshold: float
    step: float
    blocks: Dict[str, BlockReport] = field(default_factory=dict)
    tries: int = 1

    @property
    def max_rel(self) -> float:
        return max((b.max_rel for b in self.blocks.values()), default=0.0)

    def worst_block(self) -> str:
        return max(self.blocks, key=lambda k: self.blocks[k].max_rel)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "threshold": self.threshold,
            "step": self.step,
            "max_rel": self.max_rel,
            "tries": self.tries,
            "blocks": {k: v.to_dict() for k, v in self.blocks.items()},
        }


def _grad_margins_ok(blocks: Dict[str, Array]) -> bool:
    for arr in blocks.values():
        mags = np.abs(arr.ravel())
        tiny = (mags > 0.0) & (mags < GRAD_FLOOR)
        if tiny.any():
            return False
    return True


def _report_from_blocks(
    analytic: Dict[str, Array],
    numeric: Dict[str, Array],
    threshold: float,
    step: float,
    tries: int,
) -> GradReport:
    blocks = {}
    ok = True
    for name, a in analytic.items():
        rel = relative_errors(a, numeric[name])
        worst = int(np.argmax(rel)) if rel.size else 0
        rep = BlockReport(
            max_rel=float(rel.max()) if rel.size else 0.0,
            mean_rel=float(rel.mean()) if rel.size else 0.0,
            worst_index=worst,
        )
        blocks[name] = rep
        ok = ok and rep.max_rel < threshold
    return GradReport(passed=ok, threshold=threshold, step=step, blocks=blocks, tries=tries)


@dataclass
class LayerCheckConfig:
    """Dimensions for one layer gradient check (small on purpose)."""

    s1: int = 3
    s2: int = 3
    slots: int = 4
    batch: int = 3
    variant: Variant = Variant()
    out_dim: int = 0

    def __post_init__(self):
        d = self.layer_dim
        if d > DIM_CAP or self.slots > SLOT_CAP or self.batch > BATCH_CAP:
            raise ParameterError(
                f"gradcheck caps exceeded: dim {d} (max {DIM_CAP}), "
                f"slots {self.slots} (max {SLOT_CAP}), batch {self.batch} (max {BATCH_CAP})"
            )
        if min(self.s1, self.s2, self.slots, self.batch) < 1:
            raise ParameterError("gradcheck dims must be >= 1")

    @property
    def layer_dim(self) -> int:
        return self.variant.input_dim(self.s1, self.s2)


def _draw_case(cfg: LayerCheckConfig, rng: Rng):
    d = cfg.layer_dim
    params = init_params(rng.split(1), d)
    mem = init_memory(rng.split(2), cfg.slots, d)
    m1 = INPUT_SIGMA * rng.normal(cfg.batch * cfg.s1).reshape(cfg.batch, cfg.s1)
    m2 = INPUT_SIGMA * rng.normal(cfg.batch * cfg.s2).reshape(cfg.batch, cfg.s2)
    proj = None
    if cfg.variant.kind == MEMORY_RESAMPLED:
        bound = 1.0 / np.sqrt(d)
        proj = rng.uniform(d * cfg.variant.out_dim, -bound, bound).reshape(d, cfg.variant.out_dim)
    return params, mem, m1, m2, proj


def check_layer(
    cfg: LayerCheckConfig,
    seed: int,
    threshold: float = DEFAULT_THRESHOLD,
    step: float = DEFAULT_STEP,
) -> GradReport:
    """Compare the layer backward pass against central differences.

    Draws random parameters and inputs (rejecting drawings that violate
    the kink or gradient-floor margins), flattens every differentiable
    block into one vector, and checks each block coordinate-wise at the
    given threshold.
    """
    rng = Rng(seed)
    variant = cfg.variant

    for attempt in range(1, MAX_TRIES + 1):
        case_rng = rng.split(1000 + attempt)
        params, mem, m1, m2, proj = _draw_case(cfg, case_rng)

        out, trace, _ = fusion_forward(params, mem, variant, m1, m2, proj=proj)
        grad_out = 2.0 * out

        if variant.kind == NAIVE:
            g1, g2 = naive_backward(grad_out, cfg.s1)
            analytic = {"m1": g1, "m2": g2}
            theta = {"m1": m1, "m2": m2}
        else:
            if np.abs(trace.pre_act).min() < KINK_MARGIN:
                continue
            bwd = fusion_backward(params, trace, mem, grad_out, proj=proj)
            g1, g2 = fusion_input_grads(params, trace, bwd)
            analytic = {**vars(bwd.params), "m1": g1, "m2": g2}
            theta = {**vars(params), "m1": m1, "m2": m2}
            if proj is not None:
                analytic["proj"] = bwd.grad_proj
                theta["proj"] = proj

        if not _grad_margins_ok(analytic):
            continue
        table = param_table(theta)

        def loss_fn(flat: Array) -> float:
            parts = table_views(table, flat)
            layer = params if variant.kind == NAIVE else FusionParams(*(parts[f] for f in PARAM_FIELDS))
            trial = fusion_forward(layer, mem, variant, parts["m1"], parts["m2"], proj=parts.get("proj"))[0]
            return float(np.sum(trial * trial))

        numeric = table_views(table, central_diff(loss_fn, flatten(table, theta), step=step))
        return _report_from_blocks(analytic, numeric, threshold, step, tries=attempt)

    raise ParameterError(
        f"check_layer: no well-conditioned configuration found in {MAX_TRIES} tries "
        f"(seed {seed}, variant {variant.kind})"
    )


def standard_variants(out_dim: int = 4) -> list[Variant]:
    """The five layer variants, with both single-mode sides covered."""
    return [
        Variant(NAIVE),
        Variant(),
        Variant("memory_cross"),
        Variant(MEMORY_SINGLE, mode=1),
        Variant(MEMORY_SINGLE, mode=2),
        Variant(MEMORY_RESAMPLED, out_dim=out_dim),
    ]


def check_classifier(seed: int, variant: Variant = Variant(), threshold: float = DEFAULT_THRESHOLD, step: float = DEFAULT_STEP) -> GradReport:
    """End-to-end finite-difference check of the full classifier gradient.

    Builds a tiny model (no dropout), computes the analytic gradient of
    the mean cross-entropy on one batch, and compares every named
    parameter array against the oracle.
    """
    cfg = ClassifierConfig(
        variant=variant.kind,
        out_dim=variant.out_dim if variant.kind == MEMORY_RESAMPLED else 0,
        encoder_hidden=3,
        head_hidden=4,
        classes=3,
        dropout_rate=0.0,
        slots=3,
        lr=1e-3,
        batch=3,
        epochs=1,
        seed=seed,
        # plain small-uniform init keeps the finite-difference problem
        # well conditioned (no saturated softmax keys)
        read_bias_init=0.0,
        transform_gain=1.0,
    )
    rng = Rng(seed)

    for attempt in range(1, MAX_TRIES + 1):
        case_rng = rng.split(7000 + attempt)
        state = build_state(cfg, s1=3, s2=2, init_seed=int(case_rng.integers(1, 2**31)[0]))
        m1 = INPUT_SIGMA * case_rng.normal(cfg.batch * 3).reshape(cfg.batch, 3)
        m2 = INPUT_SIGMA * case_rng.normal(cfg.batch * 2).reshape(cfg.batch, 2)
        labels = case_rng.integers(cfg.batch, cfg.classes)

        loss, grads, cache = loss_and_grads(state, m1, m2, labels)
        grads = grads.named()
        if not relu_margins_ok(cache, KINK_MARGIN):
            continue
        if not _grad_margins_ok(grads):
            continue

        table = state.params.table

        def loss_fn(flat: Array) -> float:
            logits, _ = forward_logits(cfg, ModelParams(flat, table), state.memories, m1, m2)
            return cross_entropy_batch(logits, labels)[0]

        numeric = table_views(table, central_diff(loss_fn, state.params.flat, step=step))
        return _report_from_blocks(grads, numeric, threshold, step, tries=attempt)

    raise ParameterError(
        f"check_classifier: no well-conditioned configuration found in {MAX_TRIES} tries"
    )
