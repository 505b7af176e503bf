"""Trainable classifier around a fusion variant.

Pipeline: optional one-layer ReLU encoder per mode, the configured
fusion path, a ReLU hidden head with inverted dropout, and a linear
layer to class logits trained with softmax cross-entropy under Adam.

All where-the-memory-lives bookkeeping is handled here: the standard
memory variants own one slot matrix, the single-mode variant owns one
independent layer (and memory) per mode and concatenates their outputs,
and the naive variant owns nothing.  Training consumes the stream in
order, full batches only; the memory persists across batches and, by
default, across epochs.  As in fusion.py, the head's products use
ndarray.dot and the encoders' (the caller's arrays) np.matmul.
"""

from __future__ import annotations

import copy
import functools
import math
import sys
from dataclasses import astuple, dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .fusion import (
    DEFAULT_SLOTS,
    MEMORY,
    MEMORY_CROSS,
    MEMORY_RESAMPLED,
    MEMORY_SINGLE,
    NAIVE,
    ForwardTrace,
    FusionParams,
    MemoryState,
    Table,
    Variant,
    fusion_backward,
    fusion_forward,
    fusion_input_grads,
    fusion_rows,
    init_memory,
    init_params,
    naive_backward,
    naive_fusion,
    param_shapes,
    param_table,
    parse_variant,
    table_size,
    table_views,
)
from .kernels import ONE, ZERO, Array, Rng, as_batch, as_labels, batchwise_matmul
from .metrics import MetricsReport, report_from_labels
from .synthdata import Dataset

_INT64 = np.dtype(np.int64)


@dataclass
class ClassifierConfig:
    variant: str = "memory"
    out_dim: int = 0              # resampled output width
    encoder_hidden: int = 0       # 0 keeps raw features
    head_hidden: int = 32
    classes: int = 3
    dropout_rate: float = 0.0
    slots: int = DEFAULT_SLOTS
    lr: float = 1e-3
    batch: int = 32
    epochs: int = 10
    seed: int = 0
    freeze_eval_writes: bool = False
    # Warm-start policy for the memory loop.  A large uniform read bias
    # makes slot addressing start sharply peaked, so one row acts as a
    # constantly rewritten pointer and reads return near-fresh content
    # instead of a long, stale slot average.  The transform gain keeps
    # written vectors near the memory's own unit scale despite the 1/d
    # attenuation of the softmax gate.  Both stay fully learnable; zero
    # bias / unit gain fall back to the plain small-uniform init.
    read_bias_init: float = 32.0
    transform_gain: float = 16.0

    def __post_init__(self):
        if self.classes < 2:
            raise ParameterError(f"classes must be >= 2, got {self.classes}")
        if self.lr < 0:
            raise ParameterError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for name, low in (("batch", 1), ("slots", 1), ("epochs", 0)):
            value = getattr(self, name)
            if value < low:
                raise ParameterError(f"{name} must be >= {low}, got {value}")
        if self.head_hidden < 1:
            raise ParameterError(f"head_hidden must be >= 1, got {self.head_hidden}")
        if self.encoder_hidden < 0:
            raise ParameterError(f"encoder_hidden must be >= 0, got {self.encoder_hidden}")
        if self.out_dim < 0:
            raise ParameterError(f"out_dim must be >= 0, got {self.out_dim}")
        if self.read_bias_init < 0 or self.transform_gain <= 0:
            raise ParameterError("read_bias_init must be >= 0 and transform_gain > 0")
        # the kind in its one spelling; Variant checks it and a resampled out_dim
        self.variant = parse_variant(self.variant, out_dim=self.out_dim).kind

    def layer_variants(self) -> List[Variant]:
        """One Variant per fusion layer, in layer order (none for naive)."""
        return list(_layer_variants(self.variant, self.out_dim))


@functools.lru_cache(maxsize=None)
def _layer_variants(variant, out_dim: int) -> tuple:
    """One Variant per fusion layer of `variant`, a kind; or, for a tuple of
    stacked lanes' kinds, per layer the Variant every lane runs, or where
    the lanes differ (memory beside memory_cross) the tuple of each
    lane's.  Built once per argument pair; Variant is frozen, so the tuple
    is safe to share."""
    if not isinstance(variant, str):
        layers = zip(*(_layer_variants(kind, out_dim) for kind in variant))
        return tuple(lanes[0] if len(set(lanes)) == 1 else lanes for lanes in layers)
    if variant == NAIVE:
        return ()
    if variant == MEMORY_SINGLE:
        return (Variant(MEMORY_SINGLE, mode=1), Variant(MEMORY_SINGLE, mode=2))
    if variant == MEMORY_RESAMPLED:
        return (Variant(MEMORY_RESAMPLED, out_dim=out_dim),)
    return (Variant(variant),)


class ModelParams:
    """Every learnable block of the classifier, as views into one flat vector.

    `flat` holds the blocks end to end in `table` order: encoders, fusion
    layers, projection, head.  The attributes, `named()` and
    `fusion_layers` are views of `flat`, so an update to `flat` reaches
    all of them; `params[name]` is the view of one block.  A deep copy or
    a pickle copies `flat` once and rebinds the views to the copy.  The
    same class holds a gradient vector in the same layout, and several
    runs' vectors stacked as lanes, `flat` of shape (lanes, size), whose
    views carry the lane axis first (see table_views).
    """

    def __init__(self, flat: Array, table: Table):
        self.flat = flat
        self.table = table
        named = self._named = table_views(table, flat)
        self.enc1_w, self.enc1_b = named.get("enc1_w"), named.get("enc1_b")
        self.enc2_w, self.enc2_b = named.get("enc2_w"), named.get("enc2_b")
        self.proj = named.get("proj")
        self.head1_w, self.head1_b = named["head1_w"], named["head1_b"]
        self.head2_w, self.head2_b = named["head2_w"], named["head2_b"]
        layers: Dict[str, List[str]] = {}
        for name in table:
            layer, dot, _ = name.partition(".")
            if dot:
                layers.setdefault(layer, []).append(name)
        # table names of each fusion layer's blocks, in FusionParams field order
        self.fusion_keys = list(layers.values())
        self.fusion_layers = [FusionParams(*map(named.__getitem__, keys)) for keys in self.fusion_keys]

    def named(self) -> Dict[str, Array]:
        """Name -> view of every learnable block, in table order."""
        return dict(self._named)

    def __getitem__(self, name: str) -> Array:
        return self._named[name]

    def __reduce__(self):
        # rebuild from the vector, so deep copies and pickles keep the views tied
        return ModelParams, (self.flat, self.table)


@dataclass
class TrainState:
    config: ClassifierConfig
    widths: Tuple[int, int]  # (s1, s2), the mode widths the state was built for
    params: ModelParams
    memories: List[MemoryState]
    m_flat: Array   # Adam's first moment, laid out like params.flat
    v_flat: Array   # Adam's second moment, likewise
    grads: ModelParams  # the last backward's gradients; every backward overwrites them
    step: int
    drop_rng: Rng
    mem_seed: int

    @property
    def adam_m(self) -> Dict[str, Array]:
        return table_views(self.params.table, self.m_flat)

    @property
    def adam_v(self) -> Dict[str, Array]:
        return table_views(self.params.table, self.v_flat)


def _encoded_dims(config: ClassifierConfig, s1: int, s2: int) -> Tuple[int, int]:
    e = config.encoder_hidden
    return (e, e) if e > 0 else (s1, s2)


def head_input_dim(config: ClassifierConfig, s1: int, s2: int) -> int:
    e1, e2 = _encoded_dims(config, s1, s2)
    if config.variant == MEMORY_RESAMPLED:
        return config.out_dim
    return e1 + e2


def build_state(config: ClassifierConfig, s1: int, s2: int) -> TrainState:
    """Draw all parameters and memories for a fresh training run.

    One param_table call lays out every block, then the flat vector is
    allocated once and every random stream draws straight into its
    contiguous slice of it, with one counter range: a linear map's
    weight and bias together, and a fusion layer's five blocks together
    (init_params).  The warm start's read bias is the layer stream's
    next draw, straight into b_read.
    """
    rng = Rng(config.seed)
    prng = rng.split(1)
    mem_seed = int(rng.split(2).integers(1, 2**62)[0])
    drop_rng = rng.split(3)

    e1, e2 = _encoded_dims(config, s1, s2)
    h = config.encoder_hidden
    # (label of prng's child, its blocks, fan-in or fusion layer width, fusion layer?)
    streams: List[Tuple[int, Dict[str, Tuple[int, ...]], int, bool]] = []
    if h > 0:
        streams.append((10, {"enc1_w": (s1, h), "enc1_b": (h,)}, s1, False))
        streams.append((11, {"enc2_w": (s2, h), "enc2_b": (h,)}, s2, False))
    for i, var in enumerate(_layer_variants(config.variant, config.out_dim)):
        d = var.input_dim(e1, e2)
        streams.append((20 + i, {f"fusion{i}.{name}": shape for name, shape in param_shapes(d).items()}, d, True))
    if config.variant == MEMORY_RESAMPLED:
        streams.append((30, {"proj": (e1 + e2, config.out_dim)}, e1 + e2, False))
    fused_dim, hidden = head_input_dim(config, s1, s2), config.head_hidden
    streams.append((40, {"head1_w": (fused_dim, hidden), "head1_b": (hidden,)}, fused_dim, False))
    streams.append((41, {"head2_w": (hidden, config.classes), "head2_b": (config.classes,)}, hidden, False))

    table = param_table({name: shape for _, blocks, _, _ in streams for name, shape in blocks.items()})
    size = table_size(table)
    # numpy refuses a size beyond the address space with a ValueError
    if size > sys.maxsize // 8:
        raise MemoryError(f"a parameter vector of {size} float64 entries exceeds the address space")
    flat = np.empty(size)
    for label, blocks, rows, layer in streams:
        (start, _), (offset, shape) = table[next(iter(blocks))], table[next(reversed(blocks))]
        part = flat[start : offset + math.prod(shape)]
        stream = prng.split(label)
        if not layer:
            bound = 1.0 / math.sqrt(rows)
            stream.fill_uniform(part, -bound, bound)
            continue
        fp = init_params(stream, rows, out=part)
        if config.read_bias_init > 0:
            stream.fill_uniform(fp.b_read, -config.read_bias_init, config.read_bias_init)
        fp.w_scale *= config.transform_gain

    params = ModelParams(flat, table)
    mrng = Rng(mem_seed).split(0)
    return TrainState(
        config=config,
        widths=(s1, s2),
        params=params,
        memories=[init_memory(mrng.split(i), config.slots, fp.dim) for i, fp in enumerate(params.fusion_layers)],
        m_flat=np.zeros(flat.size),
        v_flat=np.zeros(flat.size),
        grads=ModelParams(np.zeros(flat.size), table),
        step=0,
        drop_rng=drop_rng,
        mem_seed=mem_seed,
    )


# Rows per evaluation block (rounded down to whole batches): long enough to
# pay one numpy call per block instead of per batch, short enough that a
# block's intermediates stay in cache at wide shapes.
_EVAL_BLOCK = 256


@dataclass(slots=True)
class BatchCache:
    enc1: Array
    pre1: Optional[Array]
    pre2: Optional[Array]
    traces: List[ForwardTrace]
    mem_prev: List[MemoryState]
    new_memories: List[MemoryState]
    fused_out: Array
    hid_pre: Array
    drop_mask: Optional[Array]
    hid_dropped: Array


def encode(params: ModelParams, m1: Array, m2: Array, matmul=np.matmul):
    """Per-mode dense+ReLU encoders; identity when none are configured.

    Returns (enc1, enc2, pre1, pre2) with the pre-activations kept for
    the backward pass (None under the identity encoder).  The identity
    hands the modes on as given: the fusion layers (or, with none,
    naive_fusion) coerce and check them.  `matmul` computes the products
    (evaluation passes a batchwise one); with stacked lanes of parameters
    the modes are stacked too, (lanes, rows, s), each lane's own rows.
    """
    if params.enc1_w is None:
        return m1, m2, None, None
    lanes = params.enc1_w.ndim == 3
    m1 = as_batch(m1, lanes)
    m2 = as_batch(m2, lanes)
    pre1 = matmul(m1, params.enc1_w) + params.enc1_b
    pre2 = matmul(m2, params.enc2_w) + params.enc2_b
    return np.maximum(pre1, 0.0), np.maximum(pre2, 0.0), pre1, pre2


def head_forward(params: ModelParams, fused: Array, drop_mask: Optional[Array] = None, matmul=np.ndarray.dot):
    """Hidden ReLU layer (with optional inverted-dropout mask) to logits.

    Returns (logits, hid_pre, hid, hid_dropped).  `matmul` computes the
    products, as in encode.  With stacked lanes of parameters the fused
    rows are stacked too, each lane's own.
    """
    fused = as_batch(fused, params.head1_w.ndim == 3)
    hid_pre = matmul(fused, params.head1_w)
    hid_pre += params.head1_b
    hid = np.maximum(hid_pre, ZERO)
    hid_dropped = hid if drop_mask is None else hid * drop_mask
    logits = matmul(hid_dropped, params.head2_w)
    logits += params.head2_b
    return logits, hid_pre, hid, hid_dropped


def _head_input(outs: List[Array], enc1: Array, enc2: Array, lanes: bool = False) -> Array:
    """The fusion layers' outputs side by side, or with no layer (the
    naive variant) the plain concatenation of the encoded modes."""
    if len(outs) == 1:
        return outs[0]  # concatenating one array would only copy it
    return np.concatenate(outs, axis=-1) if outs else naive_fusion(enc1, enc2, lanes)


def forward_logits(
    config: ClassifierConfig,
    params: ModelParams,
    memories: List[MemoryState],
    m1: Array,
    m2: Array,
    drop_mask: Optional[Array] = None,
) -> Tuple[Array, BatchCache]:
    """Pure forward pass over one batch; never mutates the given memories.

    With several runs' parameters and memories stacked as lanes (see
    ModelParams) the logits, the cache and the dropout mask are (lanes,
    B, ...), and the modes are one (B, s) batch that every lane reads;
    every lane gets the bits of its own call.  `config` is then one
    config for every lane, or a list of each lane's, equal up to seed
    and query order (see _check_lanes).
    """
    lanes = params.head1_w.ndim == 3
    enc1, enc2, pre1, pre2 = encode(params, m1, m2)
    outs, traces, new_memories = [], [], []
    if isinstance(config, ClassifierConfig):
        variants = _layer_variants(config.variant, config.out_dim)
    else:
        variants = _layer_variants(tuple([c.variant for c in config]), config[0].out_dim)
    for layer, mem, variant in zip(params.fusion_layers, memories, variants, strict=True):
        out, trace, new_mem = fusion_forward(layer, mem, variant, enc1, enc2, params.proj)
        outs.append(out)
        traces.append(trace)
        new_memories.append(new_mem)
    fused_out = _head_input(outs, enc1, enc2, lanes)
    logits, hid_pre, _, hid_dropped = head_forward(params, fused_out, drop_mask,
                                                   np.matmul if lanes else np.ndarray.dot)
    cache = BatchCache(enc1, pre1, pre2, traces, list(memories), new_memories,
                       fused_out, hid_pre, drop_mask, hid_dropped)
    return logits, cache


def cross_entropy_batch(logits: Array, labels: Array):
    """Mean cross-entropy over a batch and the gradient of that mean.

    Logits of several runs stacked as lanes, (lanes, batch, classes),
    share the labels and give one mean per lane, an array, each with the
    bits of its lane's own call; the sums over a lane's rows are the same
    contiguous reductions.
    """
    lanes = isinstance(logits, np.ndarray) and logits.ndim == 3
    logits = as_batch(logits, lanes)
    # training's int64 labels skip the call; as_labels refuses 2.9 rather than truncate it
    if not (type(labels) is np.ndarray and labels.dtype is _INT64):
        labels = as_labels(labels, "cross_entropy_batch")
    batch, classes = logits.shape[-2:]
    if batch == 0:
        raise ParameterError("cross_entropy_batch: empty batch")
    if labels.shape != (batch,):
        raise ShapeError(f"cross_entropy_batch: labels {labels.shape} vs batch {batch}")
    # each row's label entry as a flat index, which refuses a label outside
    # [0, classes); take / put through it cost less than rows-and-labels indexing
    try:
        picked = np.ravel_multi_index((np.arange(batch), labels), (batch, classes))
    except ValueError:
        raise ParameterError("cross_entropy_batch: label out of range") from None
    if lanes:
        # lane i's entries sit i * batch * classes further on
        picked = np.add.outer(np.arange(0, logits.size, batch * classes), picked)
    # the ufunc reductions are what .max and .sum call, minus numpy's Python layer
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    # the sum divided by the batch size: the same bits as np.mean
    loss = np.add.reduce(log_z - shifted.take(picked), axis=-1) / batch
    if not lanes:
        loss = float(loss)
    grad = np.exp(shifted - log_z[..., None])
    grad.put(picked, grad.take(picked) - ONE)
    grad /= batch
    return loss, grad


def backward_batch(
    params: ModelParams,
    cache: BatchCache,
    grad_logits: Array,
    m1: Array,
    m2: Array,
    grads: ModelParams,
) -> ModelParams:
    """Gradients of the batch loss, written into `grads` (laid out like params).

    With stacked lanes every array carries the lane axis first, and each
    lane's gradients have the bits of its own call: the products are
    np.matmul, and each sum over the batch runs on axis -2 into the
    lane's (1, n) row of a vector block (see table_views).
    """
    lanes = grad_logits.ndim == 3
    matmul = np.matmul if lanes else np.ndarray.dot
    matmul(cache.hid_dropped.mT, grad_logits, out=grads.head2_w)
    np.add.reduce(grad_logits, axis=-2, keepdims=lanes, out=grads.head2_b)
    # the hidden layer's cotangent, masked in place (the same bits as a product into a new array)
    grad_hid = matmul(grad_logits, params.head2_w.mT)
    if cache.drop_mask is not None:
        grad_hid *= cache.drop_mask
    grad_hid *= cache.hid_pre > ZERO
    matmul(cache.fused_out.mT, grad_hid, out=grads.head1_w)
    np.add.reduce(grad_hid, axis=-2, keepdims=lanes, out=grads.head1_b)
    grad_fused = matmul(grad_hid, params.head1_w.mT)

    # the input gradients only matter when there are encoders to train
    encoders = params.enc1_w is not None
    grads_in = []
    # each layer reads its own columns of the fused output and adds to both inputs
    start = 0
    for layer, out, trace, mem in zip(params.fusion_layers, grads.fusion_layers, cache.traces, cache.mem_prev):
        stop = start + trace.out.shape[-1]
        bwd = fusion_backward(layer, trace, mem, grad_fused[..., start:stop], params.proj, out)
        start = stop
        if bwd.grad_proj is not None:
            grads.proj[...] = bwd.grad_proj
        if encoders:
            grads_in.append(fusion_input_grads(layer, trace, bwd))

    if encoders:
        if not grads_in:
            grads_in.append(naive_backward(grad_fused, cache.enc1.shape[-1], lanes))
        grad_enc1, grad_enc2 = (functools.reduce(np.add, g) for g in zip(*grads_in))
        grad_pre1 = grad_enc1 * (cache.pre1 > 0.0)
        np.matmul(np.asarray(m1, dtype=np.float64).mT, grad_pre1, out=grads.enc1_w)
        np.add.reduce(grad_pre1, axis=-2, keepdims=lanes, out=grads.enc1_b)
        grad_pre2 = grad_enc2 * (cache.pre2 > 0.0)
        np.matmul(np.asarray(m2, dtype=np.float64).mT, grad_pre2, out=grads.enc2_w)
        np.add.reduce(grad_pre2, axis=-2, keepdims=lanes, out=grads.enc2_b)

    return grads


def loss_and_grads(state: TrainState, m1: Array, m2: Array, labels: Array):
    """Loss, gradients and the cache for one batch (no dropout).

    The gradients are `state.grads`: views of the state's one gradient
    vector, which the next backward on this state overwrites.
    """
    logits, cache = forward_logits(state.config, state.params, state.memories, m1, m2)
    loss, grad_logits = cross_entropy_batch(logits, labels)
    grads = backward_batch(state.params, cache, grad_logits, m1, m2, state.grads)
    return loss, grads, cache


def relu_inputs(cache: BatchCache) -> List[Array]:
    """Every ReLU pre-activation of the batch: the head's, the encoders'
    and each fusion layer's."""
    pres = [cache.hid_pre]
    if cache.pre1 is not None:
        pres += [cache.pre1, cache.pre2]
    return pres + [tr.pre_act for tr in cache.traces]


# Adam's decay rates and floor; the step's constant operands are read-only 0-d
# arrays, which numpy takes without a Python float's weak-scalar promotion
_BETA1, _BETA2 = 0.9, 0.999
_ADAM = np.array([_BETA1, 1.0 - _BETA1, _BETA2, 1.0 - _BETA2, 1e-8])
_ADAM.flags.writeable = False
_B1, _B1C, _B2, _B2C, _EPS = (_ADAM[i, ...] for i in range(5))


def adam_step(state: TrainState, grads: ModelParams) -> TrainState:
    """Bias-corrected Adam update at the config's lr, in place on the
    state's parameters.

    The gradients are laid out like the parameters, so the update is a
    few whole-vector operations on `grads.flat`, done in place through
    two temporaries.  A state of several runs stacked as lanes, flat
    vectors of shape (lanes, size) sharing one step count, takes the
    same operations, elementwise, so each lane gets the bits of its own
    update.
    """
    params = state.params
    if grads.table is not params.table and grads.table != params.table:
        raise ShapeError("adam_step: gradients are not laid out like the parameters")
    g = grads.flat
    state.step = t = state.step + 1
    m, v = state.m_flat, state.v_flat
    m *= _B1
    tmp = np.multiply(_B1C, g)
    m += tmp
    v *= _B2
    np.multiply(_B2C, g, out=tmp)
    tmp *= g
    v += tmp
    step = np.divide(m, 1.0 - _BETA1**t, out=tmp)  # m_hat
    step *= state.config.lr
    denom = np.divide(v, 1.0 - _BETA2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += _EPS
    step /= denom
    params.flat -= step
    return state


def checked_dataset(dataset, caller: str, state: TrainState) -> Dataset:
    """The (m1, m2, labels) dataset as float64 modes and int64 labels,
    checked against `state` before any work.

    np.asarray(mode, dtype=np.float64) hands a float64 array (a view
    too) back as itself, never a copy.  No column may be complex, each
    mode must be 2-D with the width the state was built for, the columns
    must share a row count of at least 1, and every label must be a whole
    number in [0, classes).  Otherwise ShapeError or ParameterError names
    `caller` and the column.  Last, a mode holding NaN or an infinity (a
    None in a list becomes NaN) raises NumericError naming its first
    such row.
    """
    if not (isinstance(dataset, tuple) and len(dataset) == 3):
        raise ParameterError(f"{caller}: dataset must be a (m1, m2, labels) tuple")
    columns = []
    for name, column, dtype in zip(("m1", "m2", "labels"), dataset, (np.float64, np.float64, None)):
        try:
            # a list is converted once; the cast would keep a complex
            # array's real part and drop the rest
            array = np.asarray(column)
            if array.dtype.kind == "c":
                raise TypeError("it holds complex values")
            columns.append(np.asarray(array, dtype=dtype))
        except (TypeError, ValueError) as err:
            raise ParameterError(f"{caller}: {name} is not an array of numbers: {err}") from None
    m1, m2, labels = columns
    for name, mode, width in zip(("m1", "m2"), columns, state.widths):
        if mode.ndim != 2 or mode.shape[1] != width:
            raise ShapeError(f"{caller}: {name} has shape {mode.shape}, this state takes (rows, {width})")
    n = len(m1)
    if n == 0:
        raise ParameterError(f"{caller}: empty dataset")
    if len(m2) != n:
        raise ShapeError(f"{caller}: m1 has {n} rows, m2 has {len(m2)}")
    if labels.shape != (n,):
        raise ShapeError(f"{caller}: labels {labels.shape} vs {n} rows")
    if labels.dtype is not _INT64:
        labels = as_labels(labels, caller)
    # seen as uint64, a negative label is at least 2**63
    if labels.view(np.uint64).max() >= state.config.classes:
        raise ParameterError(f"{caller}: label out of range")
    for name, mode in zip(("m1", "m2"), (m1, m2)):
        # a NaN reaches both min and max, which allocate nothing
        if not (math.isfinite(mode.min()) and math.isfinite(mode.max())):
            row = int(np.argmin(np.isfinite(mode).all(axis=1)))
            raise NumericError(f"{caller}: {name} has a non-finite value in row {row}")
    return Dataset(m1, m2, labels)


def train_epoch(states, dataset):
    """One pass over the stream in order, full batches only.

    The ragged tail (fewer than `batch` examples) is dropped; the memory
    advances through every processed batch.  `states` is one TrainState,
    which gives (state, mean batch loss).  The dataset goes through
    checked_dataset first, so a malformed one raises before the first
    step changes the state.

    `states` may also be a nonempty list of distinct states whose
    configs are equal up to seed and query order (memory beside
    memory_cross), with one parameter layout, widths and step count; it
    gives (states, [each one's mean batch loss]).  They train in
    lockstep on the one dataset: their parameters, Adam moments and
    memories are stacked as lanes on a leading axis, so every numpy call
    of a step serves them all, and each state ends the epoch with the
    bits a call on it alone gives, running its own config's layer
    variant and drawing its dropout masks from its own drop_rng.  A list
    of one runs on 2-D arrays, faster than a stack of one.  A lane whose
    loss turns non-finite leaves the stack as it stood before that
    batch, as a serial loop over the states leaves it; the lanes after
    it stay as they were given, and the lanes before it finish the
    epoch.  Then its NumericError is raised, with `losses`, the mean
    losses of the lanes that finished, as an attribute.
    """
    one = isinstance(states, TrainState)
    runs = [states] if one else list(states)
    if not runs:
        raise ParameterError("train_epoch: no states to train")
    first: TrainState = runs[0]
    cfg = first.config
    m1_all, m2_all, y_all = checked_dataset(dataset, "train_epoch", first)
    n = m1_all.shape[0]
    n_batches = n // cfg.batch
    if n_batches == 0:
        raise ParameterError(
            f"train_epoch: dataset of {n} smaller than one batch of {cfg.batch}"
        )

    lanes = len(runs) > 1
    if lanes:
        _check_lanes(runs, "train_epoch")
        if len({id(state) for state in runs}) < len(runs) or len({state.step for state in runs}) > 1:
            raise ParameterError("train_epoch: lanes must be distinct states that share one step count")
        stack, rngs = _training_stack(runs), [copy.copy(state.drop_rng) for state in runs]
        configs = [state.config for state in runs]
    else:
        stack, rngs, configs = first, [first.drop_rng], cfg
    batch, rate = cfg.batch, cfg.dropout_rate
    total = np.zeros(len(runs)) if lanes else 0.0
    error = None
    for start in range(0, n_batches * batch, batch):
        stop = start + batch
        m1, m2, labels = m1_all[start:stop], m2_all[start:stop], y_all[start:stop]
        drop_mask = None
        if rate > 0.0:
            keep = np.empty(stack.params.flat.shape[:-1] + (batch, cfg.head_hidden))
            for rng, lane in zip(rngs, keep.reshape(-1, batch, cfg.head_hidden)):
                rng.fill_uniform(lane)
            drop_mask = (keep >= rate) / (1.0 - rate)
        logits, cache = forward_logits(configs, stack.params, stack.memories, m1, m2, drop_mask)
        loss, grad_logits = cross_entropy_batch(logits, labels)
        if not math.isfinite(loss.max() if lanes else loss):
            error = NumericError(f"train_epoch: non-finite loss at batch {start // batch}")
            if not lanes:
                raise error
            # the first failing lane leaves as it stands; the lanes before
            # it run this batch again as a smaller stack, with the same bits
            failed = int(np.argmin(np.isfinite(loss)))
            _unstack(stack, runs[: failed + 1], rngs)
            runs, rngs, configs, total = runs[:failed], rngs[:failed], configs[:failed], total[:failed]
            if not runs:
                break
            stack = _training_stack(runs)
            drop_mask = None if drop_mask is None else drop_mask[:failed]
            logits, cache = forward_logits(configs, stack.params, stack.memories, m1, m2, drop_mask)
            loss, grad_logits = cross_entropy_batch(logits, labels)
        adam_step(stack, backward_batch(stack.params, cache, grad_logits, m1, m2, stack.grads))
        stack.memories = cache.new_memories
        total += loss
    if lanes:
        _unstack(stack, runs, rngs)
        losses = (total / n_batches).tolist()
        if error is not None:
            error.losses = losses
            raise error
        return states, losses
    loss = total / n_batches
    return (states, loss) if one else (states, [loss])


def forward_split(
    config: ClassifierConfig,
    params: ModelParams,
    memories: List[MemoryState],
    m1,
    m2,
) -> Tuple[Array, List[MemoryState]]:
    """Logits for every row of a split, taken `config.batch` rows at a
    time, and the memories after the last batch; no dropout, and the
    given memories are never mutated.

    The rows run in blocks of whole batches (`_EVAL_BLOCK` rows, rounded
    down to a multiple of the batch).  The encoders and the head take a
    block at a time; each layer's fusion_rows loops batch by batch only
    over its memory's write chain.  Every product goes through
    batchwise_matmul, so the logits and memories have the bits of
    forward_logits run batch by batch.

    `params` and the memories may be several runs stacked as lanes (see
    ModelParams), and `config` one config for every lane or a list of
    each lane's (see forward_logits).  The modes then hold one (rows, s)
    array per lane, as a sequence or stacked, each lane's own rows;
    evaluate, the only caller, has checked that they share one row count
    and widths.  A block's (lanes, block, s) inputs are gathered from
    each lane's rows on axis -2, so the whole split is never stacked.
    The logits are (lanes, rows, classes), each lane with the bits of
    its own run's pass over its own rows.
    """
    lead = params.head1_w.shape[:-2]  # (lanes,) or ()
    n = len(m1[0]) if lead else len(m1)
    memories = list(memories)
    if isinstance(config, ClassifierConfig):
        variants = _layer_variants(config.variant, config.out_dim)
    else:
        variants = _layer_variants(tuple([c.variant for c in config]), config[0].out_dim)
        config = config[0]
    matmul = functools.partial(batchwise_matmul, batch=config.batch)
    block = max(_EVAL_BLOCK // config.batch, 1) * config.batch
    logits = np.empty(lead + (n, config.classes))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        if lead:
            b1, b2 = np.stack([m[rows] for m in m1]), np.stack([m[rows] for m in m2])
        else:
            b1, b2 = m1[rows], m2[rows]
        enc1, enc2, _, _ = encode(params, b1, b2, matmul)
        outs = []
        for i, (layer, variant, mem) in enumerate(zip(params.fusion_layers, variants, memories, strict=True)):
            out, memories[i] = fusion_rows(layer, mem, variant, enc1, enc2, config.batch, proj=params.proj)
            outs.append(out)
        logits[..., rows, :] = head_forward(params, _head_input(outs, enc1, enc2, bool(lead)), matmul=matmul)[0]
    return logits, memories


def lockstep_key(config: ClassifierConfig) -> tuple:
    """The config's fields up to seed and query order: runs whose keys are
    equal train and score as lanes of one stack.  memory and memory_cross
    share a key, since their layers differ only in the composer query's
    mode order (fusion.query_order)."""
    kind = MEMORY if config.variant == MEMORY_CROSS else config.variant
    return astuple(replace(config, seed=0, variant=kind))


def _check_lanes(states: List[TrainState], caller: str) -> None:
    """Refuse states that cannot run as lanes of one stack: their configs
    must be equal up to seed and query order (lockstep_key), with one
    parameter layout and widths."""
    first = states[0]
    key, table, widths = lockstep_key(first.config), first.params.table, first.widths
    if any(lockstep_key(s.config) != key or s.params.table != table or s.widths != widths
           for s in states[1:]):
        raise ParameterError(f"{caller}: stacked states must share one config up to seed and "
                             "query order, parameter layout and widths")


def _stacked(states: List[TrainState], caller: str) -> Tuple[ModelParams, List[MemoryState]]:
    """The states' parameters and memories stacked as lanes, one lane per
    state in order.  The states share one layout (_check_lanes); each
    memory must share its write flag across them, otherwise
    ParameterError."""
    params = ModelParams(np.stack([state.params.flat for state in states]), states[0].params.table)
    memories = []
    for lane_mems in zip(*(state.memories for state in states)):
        writes = {mem.writes_enabled for mem in lane_mems}
        if len(writes) > 1:
            raise ParameterError(f"{caller}: stacked states' memories differ in their write flag")
        memories.append(MemoryState(np.stack([mem.matrix for mem in lane_mems]), writes.pop()))
    return params, memories


def _training_stack(states: List[TrainState]) -> TrainState:
    """The states as one TrainState of lanes: parameters, memories, Adam
    moments and gradients stacked on a leading axis, at the states'
    shared step.  Its config and dropout stream are the first state's;
    train_epoch keeps each lane's config and stream apart."""
    params, memories = _stacked(states, "train_epoch")
    return replace(states[0], params=params, memories=memories,
                   m_flat=np.stack([state.m_flat for state in states]),
                   v_flat=np.stack([state.v_flat for state in states]),
                   grads=ModelParams(np.stack([state.grads.flat for state in states]), params.table))


def _unstack(stack: TrainState, states: List[TrainState], rngs: List[Rng]) -> None:
    """Hand lane i of `stack` back to states[i], for each state given:
    its parameters, moments and gradients into the state's own vectors,
    its memories (views of the lane), the step count and rngs[i] as its
    dropout stream."""
    for lane, (state, rng) in enumerate(zip(states, rngs)):
        for own, stacked in ((state.params.flat, stack.params.flat), (state.m_flat, stack.m_flat),
                             (state.v_flat, stack.v_flat), (state.grads.flat, stack.grads.flat)):
            own[...] = stacked[lane]
        state.memories = [MemoryState(mem.matrix[lane], mem.writes_enabled) for mem in stack.memories]
        state.step, state.drop_rng = stack.step, rng


def _scored(labels: Array, logits: Array, classes: int) -> MetricsReport:
    """The report of one pass's logits; non-finite logits raise
    NumericError naming the first such sample."""
    # argmax would turn a NaN into a silent prediction
    finite = np.isfinite(logits).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NumericError(f"evaluate: non-finite logits for sample {first} of {len(labels)}")
    return report_from_labels(labels, logits.argmax(axis=1), classes)


def evaluate(states, datasets):
    """Metrics of each state on its dataset; dropout off.

    `states` is one TrainState, which gives one MetricsReport, or a
    nonempty list of states whose configs are equal up to seed and query
    order, with one layout and widths, which gives one report per state
    in order, each with the bits a call on that state alone gives.
    `datasets` is one (m1, m2, labels) dataset for every state, or a
    list with one per state.

    checked_dataset takes every dataset first, in state order, so a
    malformed one raises before any pass.  States whose datasets share a
    row count then run as lanes of one forward_split pass, their
    parameters and memories stacked on a leading axis, so every numpy
    call serves all of them; a group of one runs on 2-D arrays, faster
    than a stack of one.  Last, the states are scored in order, and the
    first with non-finite logits raises NumericError.  Writes follow
    freeze_eval_writes; forward_split never mutates the given memories.
    """
    one = isinstance(states, TrainState)
    stack = [states] if one else list(states)
    if not stack:
        raise ParameterError("evaluate: no states to score")
    first = stack[0]
    cfg = first.config
    _check_lanes(stack, "evaluate")
    if not isinstance(datasets, list):
        checked = [checked_dataset(datasets, "evaluate", first)] * len(stack)
    elif len(datasets) != len(stack):
        raise ParameterError(f"evaluate: {len(datasets)} datasets for {len(stack)} states")
    else:
        checked = [checked_dataset(data, "evaluate", first) for data in datasets]
    groups: Dict[int, List[int]] = {}
    for i, data in enumerate(checked):
        groups.setdefault(len(data.labels), []).append(i)
    logits: List[Optional[Array]] = [None] * len(stack)
    for lanes in groups.values():
        if len(lanes) == 1:
            (i,) = lanes
            config, params, memories = stack[i].config, stack[i].params, stack[i].memories
            m1, m2 = checked[i].m1, checked[i].m2
        else:
            config = [stack[i].config for i in lanes]
            params, memories = _stacked([stack[i] for i in lanes], "evaluate")
            m1, m2 = [checked[i].m1 for i in lanes], [checked[i].m2 for i in lanes]
        if cfg.freeze_eval_writes:
            memories = [m.frozen() for m in memories]
        out = forward_split(config, params, memories, m1, m2)[0]
        for i, lane in zip(lanes, out if len(lanes) > 1 else [out]):
            logits[i] = lane
    reports = [_scored(data.labels, lane, cfg.classes) for data, lane in zip(checked, logits)]
    return reports[0] if one else reports


def fit(states, train_set, val_set=None, test_set=None):
    """Run config.epochs passes; returns (curves, test report).

    The curves hold one row per epoch, with the validation scores of the
    state that epoch left when there is a validation set.  The report
    scores the final state on the test set, or is None without one.
    `states` may also be a list of states whose configs are equal up to
    seed and query order, trained in lockstep on the one train set (see
    train_epoch); it gives one (curves, report) per state, in order,
    each with the bits of a call on that state alone.

    checked_dataset takes every split before epoch 1, so a malformed one
    raises before any step.  The epochs then train, and each keeps a
    snapshot of every state (a copy of the parameters and the memory
    list, whose matrices writes never change).  Last, one evaluate call
    scores, state by state, the snapshots on the validation set and the
    final state on the test set, lanes of one pass where the row counts
    agree, with the bits of a validation pass after each epoch and a test
    pass after training.

    The errors are a serial loop's over the states.  A training error of
    the first state raises as it happens.  When a later state's loss
    turns non-finite, the states before it train on and are scored, so
    that their non-finite logits raise first, in state order; then the
    training error is raised.
    """
    one = isinstance(states, TrainState)
    runs = [states] if one else list(states)
    if not runs:
        raise ParameterError("fit: no states to train")
    train_set, val_set, test_set = (data if data is None else checked_dataset(data, "fit", runs[0])
                                    for data in (train_set, val_set, test_set))
    curves = [[] for _ in runs]
    snapshots = [[] for _ in runs]
    live, error = runs, None
    for epoch in range(1, runs[0].config.epochs + 1):
        try:
            losses = (train_epoch(live, train_set)[1] if len(live) > 1
                      else [train_epoch(live[0], train_set)[1]])
        except NumericError as err:
            # the lanes before a failing one finished the epoch (see train_epoch)
            losses = getattr(err, "losses", [])
            if not losses:
                raise
            error, live = err, live[: len(losses)]
        for state, loss, rows, snaps in zip(live, losses, curves, snapshots):
            rows.append({"epoch": epoch, "train_loss": loss})
            if val_set is not None:
                params = ModelParams(state.params.flat.copy(), state.params.table)
                snaps.append(replace(state, params=params, memories=list(state.memories)))
    per_run = len(snapshots[0]) + (test_set is not None)
    scored, datasets = [], []
    for state, snaps in zip(live, snapshots):
        scored += snaps
        datasets += [val_set] * len(snaps)
        if test_set is not None:
            scored.append(state)
            datasets.append(test_set)
    # with no validation set the states share the test set, passed as
    # one dataset: a sweep cell's call sees the test split itself
    reports = evaluate(scored, datasets if snapshots[0] else test_set) if scored else []
    if error is not None:
        raise error
    results = []
    for i, rows in enumerate(curves):
        own = reports[i * per_run : (i + 1) * per_run]
        for row, rep in zip(rows, own[: len(snapshots[i])]):
            row["val_wa"] = rep.wa
            row["val_ua"] = rep.ua
        results.append((rows, own[-1] if test_set is not None else None))
    return results[0] if one else results
