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

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .fusion import (
    DEFAULT_SLOTS,
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
def _layer_variants(variant: str, out_dim: int) -> Tuple[Variant, ...]:
    # built once per (variant, out_dim); Variant is frozen, so the tuple is safe to share
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
    """Pure forward pass over one batch; never mutates the given memories."""
    enc1, enc2, pre1, pre2 = encode(params, m1, m2)
    outs, traces, new_memories = [], [], []
    variants = _layer_variants(config.variant, config.out_dim)
    for layer, mem, variant in zip(params.fusion_layers, memories, variants, strict=True):
        out, trace, new_mem = fusion_forward(layer, mem, variant, enc1, enc2, params.proj)
        outs.append(out)
        traces.append(trace)
        new_memories.append(new_mem)
    fused_out = _head_input(outs, enc1, enc2)
    logits, hid_pre, _, hid_dropped = head_forward(params, fused_out, drop_mask)
    cache = BatchCache(enc1, pre1, pre2, traces, list(memories), new_memories,
                       fused_out, hid_pre, drop_mask, hid_dropped)
    return logits, cache


def cross_entropy_batch(logits: Array, labels: Array) -> Tuple[float, Array]:
    """Mean cross-entropy over a batch and the gradient of that mean."""
    logits = as_batch(logits)
    # training's int64 labels skip the call; as_labels refuses 2.9 rather than truncate it
    if not (type(labels) is np.ndarray and labels.dtype is _INT64):
        labels = as_labels(labels, "cross_entropy_batch")
    batch, classes = logits.shape
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
    # the ufunc reductions are what .max and .sum call, minus numpy's Python layer
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1))
    # the sum divided by the batch size: the same bits as np.mean
    loss = float(np.add.reduce(log_z - shifted.take(picked)) / batch)
    grad = np.exp(shifted - log_z[:, None])
    grad.put(picked, grad.take(picked) - ONE)
    grad /= batch
    return loss, grad


def backward_batch(
    config: ClassifierConfig,
    params: ModelParams,
    cache: BatchCache,
    grad_logits: Array,
    m1: Array,
    m2: Array,
    grads: ModelParams,
) -> ModelParams:
    """Gradients of the batch loss, written into `grads` (laid out like params)."""
    cache.hid_dropped.T.dot(grad_logits, out=grads.head2_w)
    np.add.reduce(grad_logits, axis=0, out=grads.head2_b)
    # the hidden layer's cotangent, masked in place (the same bits as a product into a new array)
    grad_hid = grad_logits.dot(params.head2_w.T)
    if cache.drop_mask is not None:
        grad_hid *= cache.drop_mask
    grad_hid *= cache.hid_pre > ZERO
    cache.fused_out.T.dot(grad_hid, out=grads.head1_w)
    np.add.reduce(grad_hid, axis=0, out=grads.head1_b)
    grad_fused = grad_hid.dot(params.head1_w.T)

    # the input gradients only matter when there are encoders to train
    encoders = params.enc1_w is not None
    grads_in = []
    # each layer reads its own columns of the fused output and adds to both inputs
    start = 0
    for layer, out, trace, mem in zip(params.fusion_layers, grads.fusion_layers, cache.traces, cache.mem_prev):
        stop = start + trace.out.shape[1]
        bwd = fusion_backward(layer, trace, mem, grad_fused[:, start:stop], params.proj, out)
        start = stop
        if bwd.grad_proj is not None:
            grads.proj[...] = bwd.grad_proj
        if encoders:
            grads_in.append(fusion_input_grads(layer, trace, bwd))

    if encoders:
        if not grads_in:
            grads_in.append(naive_backward(grad_fused, cache.enc1.shape[1]))
        grad_enc1, grad_enc2 = (functools.reduce(np.add, g) for g in zip(*grads_in))
        grad_pre1 = grad_enc1 * (cache.pre1 > 0.0)
        np.matmul(np.asarray(m1, dtype=np.float64).T, grad_pre1, out=grads.enc1_w)
        np.add.reduce(grad_pre1, axis=0, out=grads.enc1_b)
        grad_pre2 = grad_enc2 * (cache.pre2 > 0.0)
        np.matmul(np.asarray(m2, dtype=np.float64).T, grad_pre2, out=grads.enc2_w)
        np.add.reduce(grad_pre2, axis=0, out=grads.enc2_b)

    return grads


def loss_and_grads(state: TrainState, m1: Array, m2: Array, labels: Array):
    """Loss, gradients and the cache for one batch (no dropout).

    The gradients are `state.grads`: views of the state's one gradient
    vector, which the next backward on this state overwrites.
    """
    logits, cache = forward_logits(state.config, state.params, state.memories, m1, m2)
    loss, grad_logits = cross_entropy_batch(logits, labels)
    grads = backward_batch(state.config, state.params, cache, grad_logits, m1, m2, state.grads)
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
    two temporaries.
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


def train_epoch(state: TrainState, dataset) -> Tuple[TrainState, float]:
    """One pass over the stream in order, full batches only.

    The ragged tail (fewer than `batch` examples) is dropped; the memory
    advances through every processed batch.  Returns the mean batch loss.
    The dataset goes through checked_dataset first, so a malformed one
    raises before the first step changes the state.
    """
    cfg = state.config
    m1_all, m2_all, y_all = checked_dataset(dataset, "train_epoch", state)
    n = m1_all.shape[0]
    n_batches = n // cfg.batch
    if n_batches == 0:
        raise ParameterError(
            f"train_epoch: dataset of {n} smaller than one batch of {cfg.batch}"
        )

    batch, rate = cfg.batch, cfg.dropout_rate
    params, grads = state.params, state.grads
    total = 0.0
    for start in range(0, n_batches * batch, batch):
        stop = start + batch
        m1, m2 = m1_all[start:stop], m2_all[start:stop]
        drop_mask = None
        if rate > 0.0:
            keep = state.drop_rng.fill_uniform(np.empty((batch, cfg.head_hidden))) >= rate
            drop_mask = keep / (1.0 - rate)
        logits, cache = forward_logits(cfg, params, state.memories, m1, m2, drop_mask)
        loss, grad_logits = cross_entropy_batch(logits, y_all[start:stop])
        if not math.isfinite(loss):
            raise NumericError(f"train_epoch: non-finite loss at batch {start // batch}")
        adam_step(state, backward_batch(cfg, params, cache, grad_logits, m1, m2, grads))
        state.memories = cache.new_memories
        total += loss
    return state, total / n_batches


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
    ModelParams).  The modes then hold one (rows, s) array per lane, as a
    sequence or stacked, each lane's own rows; evaluate, the only caller,
    has checked that they share one row count and widths.  A block's
    (lanes, block, s) inputs are gathered from each lane's rows on axis
    -2, so the whole split is never stacked.  The logits are (lanes,
    rows, classes), each lane with the bits of its own run's pass over
    its own rows.
    """
    lead = params.head1_w.shape[:-2]  # (lanes,) or ()
    n = len(m1[0]) if lead else len(m1)
    memories = list(memories)
    variants = _layer_variants(config.variant, config.out_dim)
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


def _stacked(states: List[TrainState]) -> Tuple[ModelParams, List[MemoryState]]:
    """The states' parameters and memories stacked as lanes, one lane per
    state in order.  The states share one layout (evaluate checks it);
    each memory must share its write flag across them, otherwise
    ParameterError."""
    params = ModelParams(np.stack([state.params.flat for state in states]), states[0].params.table)
    memories = []
    for lane_mems in zip(*(state.memories for state in states)):
        writes = {mem.writes_enabled for mem in lane_mems}
        if len(writes) > 1:
            raise ParameterError("evaluate: stacked states' memories differ in their write flag")
        memories.append(MemoryState(np.stack([mem.matrix for mem in lane_mems]), writes.pop()))
    return params, memories


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
    nonempty list of states sharing one config, layout and widths, which
    gives one report per state in order, each with the bits a call on
    that state alone gives.  `datasets` is one (m1, m2, labels) dataset
    for every state, or a list with one per state.

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
    cfg, table, widths = first.config, first.params.table, first.widths
    if any(s.config != cfg or s.params.table != table or s.widths != widths for s in stack[1:]):
        raise ParameterError("evaluate: stacked states must share one config, parameter layout and widths")
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
            params, memories, m1, m2 = stack[i].params, stack[i].memories, checked[i].m1, checked[i].m2
        else:
            params, memories = _stacked([stack[i] for i in lanes])
            m1, m2 = [checked[i].m1 for i in lanes], [checked[i].m2 for i in lanes]
        if cfg.freeze_eval_writes:
            memories = [m.frozen() for m in memories]
        out = forward_split(cfg, params, memories, m1, m2)[0]
        for i, lane in zip(lanes, out if len(lanes) > 1 else [out]):
            logits[i] = lane
    reports = [_scored(data.labels, lane, cfg.classes) for data, lane in zip(checked, logits)]
    return reports[0] if one else reports


def fit(
    state: TrainState,
    train_set,
    val_set=None,
    test_set=None,
) -> Tuple[List[dict], Optional[MetricsReport]]:
    """Run config.epochs passes; returns (curves, test report).

    The curves hold one row per epoch, with the validation scores of the
    state that epoch left when there is a validation set.  The report
    scores the final state on the test set, or is None without one.

    checked_dataset takes every split before epoch 1, so a malformed one
    raises before any step.  The epochs then train, an epoch's error
    raising as it happens, and each keeps a snapshot (a copy of the
    parameters and the memory list, whose matrices writes never change).
    Last, one evaluate call scores the snapshots on the validation set
    and the final state on the test set, lanes of one pass where the row
    counts agree, with the bits of a validation pass after each epoch and
    a test pass after training; non-finite logits raise in that order.
    """
    train_set, val_set, test_set = (data if data is None else checked_dataset(data, "fit", state)
                                    for data in (train_set, val_set, test_set))
    curves, snapshots = [], []
    for epoch in range(1, state.config.epochs + 1):
        state, loss = train_epoch(state, train_set)
        curves.append({"epoch": epoch, "train_loss": loss})
        if val_set is not None:
            params = ModelParams(state.params.flat.copy(), state.params.table)
            snapshots.append(replace(state, params=params, memories=list(state.memories)))
    states, datasets = snapshots, [val_set] * len(snapshots)
    if test_set is not None:
        states, datasets = states + [state], datasets + [test_set]
    # with no validation set the one state shares the test set, passed as
    # one dataset: a sweep cell's call sees the test split itself
    reports = evaluate(states, datasets if snapshots else test_set) if states else []
    for row, rep in zip(curves, reports[:len(snapshots)]):
        row["val_wa"] = rep.wa
        row["val_ua"] = rep.ua
    report = reports[-1] if test_set is not None else None
    return curves, report
