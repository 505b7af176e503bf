"""Finite-difference verification of the analytic gradients.

central_diff is the independent oracle: it never calls any backward
code, only repeated forward evaluations.  check_layer draws a random
small configuration into one vector laid out by fusion.param_table, runs
the layer's own backward pass, and compares every parameter block and
both input batches against the oracle, coordinate by coordinate.  The
naive variant has no layer: its case is the two modes alone, run
through naive_fusion and naive_backward as the classifier runs them.

Finite differences are only trustworthy away from ReLU kinks and for
gradient entries comfortably above the subtraction noise floor, so
configurations violating either margin are rejected and redrawn.  Exact
zeros are kept: a dead ReLU channel must produce a bit-exact zero from
both the backward pass and the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict

import numpy as np

from .errors import NumericError, ParameterError
from .fusion import (
    KINDS,
    MEMORY_RESAMPLED,
    NAIVE,
    FusionParams,
    Variant,
    fusion_backward,
    fusion_forward,
    fusion_input_grads,
    init_memory,
    init_params,
    naive_backward,
    naive_fusion,
    param_shapes,
    param_table,
    table_size,
    table_views,
)
from .kernels import Array, Rng
from .model import (
    ClassifierConfig,
    ModelParams,
    build_state,
    cross_entropy_batch,
    forward_logits,
    loss_and_grads,
    relu_inputs,
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
    worst_index: int


@dataclass
class GradReport:
    """Outcome of one finite-difference comparison."""

    passed: bool
    blocks: Dict[str, BlockReport] = field(default_factory=dict)

    @property
    def max_rel(self) -> float:
        return max((b.max_rel for b in self.blocks.values()), default=0.0)

    def worst_block(self) -> str:
        return max(self.blocks, key=lambda k: self.blocks[k].max_rel)


@dataclass
class LayerCheckConfig:
    """Dimensions for one layer gradient check (small on purpose)."""

    s1: int = 3
    s2: int = 3
    slots: int = 4
    batch: int = 3
    variant: Variant = Variant()

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


def _check(what: str, seed: int, label_base: int, draw: Callable, threshold: float, step: float) -> GradReport:
    """The retry loop of both checks.

    Attempt i draws its case from substream label_base + i of Rng(seed)
    as (its ReLU pre-activations, a function giving its analytic
    gradients by block name, the loss of a flat vector, that vector, its
    table).  A case is redrawn when a pre-activation lies within
    KINK_MARGIN of its kink (before the gradients are taken) or a nonzero
    gradient entry under GRAD_FLOOR; the first case clear of both is
    compared block by block with central differences.
    """
    rng = Rng(seed)
    for attempt in range(1, MAX_TRIES + 1):
        pres, backward, loss_fn, theta, table = draw(rng.split(label_base + attempt))
        if not all(np.abs(p).min() >= KINK_MARGIN for p in pres if p.size):
            continue
        analytic = backward()
        if any(((a != 0.0) & (np.abs(a) < GRAD_FLOOR)).any() for a in analytic.values()):
            continue
        numeric = table_views(table, central_diff(loss_fn, theta, step=step))
        blocks = {}
        for name, a in analytic.items():
            rel = relative_errors(a, numeric[name])
            blocks[name] = BlockReport(float(rel.max()), int(np.argmax(rel)))
        passed = all(block.max_rel < threshold for block in blocks.values())
        return GradReport(passed, blocks)
    raise ParameterError(f"{what}: no well-conditioned configuration found in {MAX_TRIES} tries (seed {seed})")


def check_layer(
    cfg: LayerCheckConfig,
    seed: int,
    threshold: float = DEFAULT_THRESHOLD,
    step: float = DEFAULT_STEP,
) -> GradReport:
    """Compare the layer backward pass against central differences.

    A case is laid out by param_table in one vector: the layer's blocks
    (none for the naive variant, which is naive_fusion alone), m1, m2 and
    the resampled variant's projection.  Each part is drawn straight
    into its view: the layer by init_params, the modes as normals scaled
    by INPUT_SIGMA, the projection uniform in +-1/sqrt(d).  Every block
    of the vector is checked coordinate-wise at the given threshold.
    """
    variant, d = cfg.variant, cfg.layer_dim
    layer_shapes = {} if variant.kind == NAIVE else param_shapes(d)
    shapes = {**layer_shapes, "m1": (cfg.batch, cfg.s1), "m2": (cfg.batch, cfg.s2)}
    if variant.kind == MEMORY_RESAMPLED:
        shapes["proj"] = (d, variant.out_dim)
    table = param_table(shapes)

    def forward(parts: Dict[str, Array], mem):
        """(out, trace, layer) of the case whose views are `parts`."""
        if not layer_shapes:
            return naive_fusion(parts["m1"], parts["m2"]), None, None
        layer = FusionParams(*(parts[name] for name in layer_shapes))
        out, trace, _ = fusion_forward(layer, mem, variant, parts["m1"], parts["m2"], proj=parts.get("proj"))
        return out, trace, layer

    def draw(rng: Rng):
        flat = np.empty(table_size(table))
        parts = table_views(table, flat)
        mem = None
        if layer_shapes:
            init_params(rng.split(1), d, out=flat[: table["m1"][0]])
            mem = init_memory(rng.split(2), cfg.slots, d)
        for mode in ("m1", "m2"):
            rng.fill_normal(parts[mode])
            parts[mode] *= INPUT_SIGMA
        if "proj" in parts:
            bound = 1.0 / math.sqrt(d)
            rng.fill_uniform(parts["proj"], -bound, bound)

        out, trace, layer = forward(parts, mem)

        def backward() -> Dict[str, Array]:
            grad_out = 2.0 * out
            if trace is None:
                g1, g2 = naive_backward(grad_out, cfg.s1)
                return {"m1": g1, "m2": g2}
            bwd = fusion_backward(layer, trace, mem, grad_out, proj=parts.get("proj"))
            g1, g2 = fusion_input_grads(layer, trace, bwd)
            analytic = {**vars(bwd.params), "m1": g1, "m2": g2}
            if bwd.grad_proj is not None:
                analytic["proj"] = bwd.grad_proj
            return analytic

        def loss_fn(theta: Array) -> float:
            trial = forward(table_views(table, theta), mem)[0]
            return float(np.sum(trial * trial))

        return [] if trace is None else [trace.pre_act], backward, loss_fn, flat, table

    return _check(f"check_layer ({variant.kind})", seed, 1000, draw, threshold, step)


def standard_variants(out_dim: int = 4) -> list[Variant]:
    """The naive case, then the fusion layers of a classifier of each kind
    in KINDS order: both single-mode sides are covered."""
    configs = (ClassifierConfig(variant=kind, out_dim=out_dim) for kind in KINDS)
    return [Variant(NAIVE), *(variant for cfg in configs for variant in cfg.layer_variants())]


def check_classifier(seed: int, variant: Variant = Variant(), threshold: float = DEFAULT_THRESHOLD, step: float = DEFAULT_STEP) -> GradReport:
    """End-to-end finite-difference check of the full classifier gradient.

    Builds a tiny model (no dropout), computes the analytic gradient of
    the mean cross-entropy on one batch, and compares every named
    parameter array against the oracle.
    """
    cfg = ClassifierConfig(
        variant=variant.kind,
        out_dim=variant.out_dim,
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

    def draw(rng: Rng):
        state = build_state(replace(cfg, seed=int(rng.integers(1, 2**31)[0])), s1=3, s2=2)
        m1 = INPUT_SIGMA * rng.normal(cfg.batch * 3).reshape(cfg.batch, 3)
        m2 = INPUT_SIGMA * rng.normal(cfg.batch * 2).reshape(cfg.batch, 2)
        labels = rng.integers(cfg.batch, cfg.classes)
        _, grads, cache = loss_and_grads(state, m1, m2, labels)
        table = state.params.table

        def loss_fn(flat: Array) -> float:
            logits, _ = forward_logits(cfg, ModelParams(flat, table), state.memories, m1, m2)
            return cross_entropy_batch(logits, labels)[0]

        return relu_inputs(cache), grads.named, loss_fn, state.params.flat, table

    return _check("check_classifier", seed, 7000, draw, threshold, step)
