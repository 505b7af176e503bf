"""Attentive memory fusion layer.

Fuses two per-mode feature vectors through an external slot memory:
the concatenated input addresses the memory with softmax attention,
the recalled slot is composed with the input through a gated MLP, the
result is transformed and written back (erase-then-add), and the layer
output is the residual sum of input and transformed vector, so the
output keeps the plain-concatenation shape.

Each equation has one implementation, over whole batches: every example
reads the same pre-step memory, and one mean-aggregated write advances
the state.  fusion_forward runs one batch and keeps its trace for
training; fusion_rows runs many batches for evaluation, looping only
over the memory's read -> compose -> transform -> write chain.
The backward pass returns exact vector-Jacobian products for all
parameter blocks (fusion_backward) and both inputs
(fusion_input_grads), treating the pre-step memory as a
constant (no gradient flows across write steps).

Products of the layer's own arrays, parameters and memory use
ndarray.dot, the BLAS routine np.matmul calls (same bits) without its
ufunc overhead; a product of the caller's array as given (a single-mode
layer's input) keeps np.matmul, as ndarray.dot copies some strided
layouts first and may then round differently.

The layer's forward and backward also take several runs of one shape
at once, as lanes: their parameter blocks and memories stacked along a
leading axis (see table_views), the inputs stacked likewise or shared.
Evaluation stacks runs this way (fusion_rows), and so does training
in lockstep (fusion_forward and the backward).  The equations are
written over leading axes, so the lanes go through the same code; their
products go through np.matmul, which gives every lane the bits of its
own 2-D product, and a sum over the batch runs on axis -2 into each
lane's own row.  Lanes may also differ in the composer query's mode
order, memory ([m1, m2]) beside memory_cross ([m2, m1]): the query is
the fused input's columns in each lane's order (query_order), one
gather for every lane.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ParameterError, ShapeError
from .kernels import ONE, ZERO, Array, Rng, as_batch, batchwise_matmul, softmax_rows

# Slot count that carried the best benchmark accuracy; the configs here
# default to it unless the caller sweeps.
DEFAULT_SLOTS = 30

NAIVE = "naive"
MEMORY = "memory"
MEMORY_CROSS = "memory_cross"
MEMORY_SINGLE = "memory_single"
MEMORY_RESAMPLED = "memory_resampled"

KINDS = (NAIVE, MEMORY, MEMORY_CROSS, MEMORY_SINGLE, MEMORY_RESAMPLED)


@dataclass(frozen=True)
class Variant:
    """Which fusion path to run.

    kind      one of the module-level kind constants
    mode      which input feeds a single-mode layer (1 or 2)
    out_dim   projection width for the resampled path
    """

    kind: str = MEMORY
    mode: int = 1
    out_dim: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown variant {self.kind!r}; expected one of {KINDS}")
        if self.kind == MEMORY_SINGLE and self.mode not in (1, 2):
            raise ParameterError(f"single-mode index must be 1 or 2, got {self.mode}")
        if self.kind == MEMORY_RESAMPLED and self.out_dim < 1:
            raise ParameterError("resampled variant needs out_dim >= 1")

    def input_dim(self, s1: int, s2: int) -> int:
        """Width of the layer's fused input and memory rows, given mode widths."""
        if self.kind == MEMORY_SINGLE:
            return s1 if self.mode == 1 else s2
        return s1 + s2


def parse_variant(name: str, mode: int = 1, out_dim: int = 0) -> Variant:
    """Build a Variant from its CLI spelling (hyphens or underscores)."""
    return Variant(name.strip().lower().replace("-", "_"), mode=mode, out_dim=out_dim)


@dataclass(slots=True)
class MemoryState:
    """The slot matrix plus its write policy.

    matrix is (slots, dim); each row is one slot.  When writes_enabled
    is false, write_memory returns the state unchanged.
    """

    matrix: Array
    writes_enabled: bool = True

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def frozen(self) -> "MemoryState":
        return replace(self, writes_enabled=False)


@dataclass
class FusionParams:
    """Learnable weights of one fusion layer (d = fused input width).

    w_read  (d, d)   read map applied to the fused input
    b_read  (d,)
    w_comp  (2d, d)  composer MLP over [query, recalled slot]
    b_comp  (d,)
    w_scale (d,)     elementwise transform weight before the ReLU

    Gradient containers reuse this class field-for-field.
    """

    w_read: Array
    b_read: Array
    w_comp: Array
    b_comp: Array
    w_scale: Array

    @property
    def dim(self) -> int:
        return self.b_read.shape[-1]


@dataclass(slots=True)
class ForwardTrace:
    """Per-batch intermediates cached for the backward pass.

    Every array has the batch index on axis -2.  The shapes below are a
    stack's: one run's arrays have no lane axis L, and a stack's fused
    input stays one (B, d) batch when every lane reads the same modes.
    variant is the Variant given, or the tuple of each lane's.  query is
    fused with its columns in order[0], and order[1] takes them back
    (query_order); order is None when the query is fused itself.
    out_raw is the pre-projection output and is None unless the variant
    resamples.  keys to transformed are _memory_chain's results, in its
    order.
    """

    variant: Union[Variant, Tuple[Variant, ...]]
    s1: int
    s2: int
    fused: Array        # (B, d) or (L, B, d)  concatenated (or single-mode) input
    query: Array        # (L, B, d)            composer query
    order: Optional[Tuple[Array, Array]]  # (d,) or (L, d) each
    keys: Array         # (L, B, k)            softmax attention over slots
    recalled: Array     # (L, B, d)            attention-weighted slot readout
    mlp_in: Array       # (L, B, 2d)           [query, recalled]
    scores: Array       # (L, B, d)            composer MLP pre-attention output
    attn: Array         # (L, B, d)            softmax of scores
    gated: Array        # (L, B, d)            attn * scores
    pre_act: Array      # (L, B, d)            gated * w_scale, before the ReLU
    transformed: Array  # (L, B, d)            ReLU(pre_act); also the write content
    out: Array          # (L, B, d) or (L, B, out_dim)
    out_raw: Optional[Array] = None


@dataclass(slots=True)
class FusionBackward:
    """Cotangents returned by fusion_backward.

    params and grad_proj are the parameter gradients.  grad_out (the
    output's cotangent before any projection), grad_scores (the composer's
    output cotangent, which w_comp's first d rows carry to the query) and
    grad_mapped are what fusion_input_grads needs to carry the chain into
    the inputs.
    """

    params: FusionParams
    grad_proj: Optional[Array]
    grad_out: Array
    grad_scores: Array
    grad_mapped: Array


def param_shapes(dim: int) -> dict[str, tuple[int, ...]]:
    """The shape of each of a layer's blocks, in field order; laid end to
    end, as init_params lays them, they take 3 dim^2 + 3 dim entries."""
    return {"w_read": (dim, dim), "b_read": (dim,), "w_comp": (2 * dim, dim), "b_comp": (dim,), "w_scale": (dim,)}


# name -> (offset, shape) of each learnable block in a flat parameter vector
Table = dict[str, tuple[int, tuple[int, ...]]]


def param_table(shapes: dict[str, tuple[int, ...]]) -> Table:
    """Lay blocks of the given shapes end to end, in their order: the one
    rule that gives every block of every flat vector its offset."""
    table: Table = {}
    offset = 0
    for name, shape in shapes.items():
        table[name] = (offset, shape)
        offset += math.prod(shape)
    return table


def table_size(table: Table) -> int:
    """Length of a vector laid out by `table`: where its last block ends."""
    offset, shape = table[next(reversed(table))]
    return offset + math.prod(shape)


def table_views(table: Table, flat: Array, prefix: str = "") -> dict[str, Array]:
    """Name -> view of that block of `flat`, each name led by `prefix`.

    `flat` may be several vectors stacked along a leading lane axis; each
    view then carries that axis, and a vector block is given a unit row
    axis after it, (lanes, 1, n), so that it adds to each lane's rows.
    """
    lead = flat.shape[:-1]
    views = {}
    for name, (offset, shape) in table.items():
        if lead and len(shape) == 1:
            shape = (1,) + shape
        views[prefix + name] = flat[..., offset : offset + math.prod(shape)].reshape(lead + shape)
    return views


def init_params(rng: Rng, dim: int, out: Optional[Array] = None) -> FusionParams:
    """Uniform init in +-1/sqrt(fan_in) for every block.

    The elementwise scale has fan-in 1, so it starts at full +-1 range
    and the transform path is active from the first step.

    The five blocks, laid end to end by param_table(param_shapes(dim)),
    are one draw of `rng` into one flat vector: `out` when given (a
    contiguous slice of a larger parameter vector, say), else a fresh
    one.  The blocks are views of it.  Each value is u * (hi - lo) + lo
    of its own uniform u, as rng.uniform(n, lo, hi) block by block would
    give it.
    """
    if dim < 1:
        raise ParameterError(f"layer dim must be >= 1, got {dim}")
    table = param_table(param_shapes(dim))
    n = table_size(table)
    flat = np.empty(n) if out is None else out
    if flat.shape != (n,):
        raise ShapeError(f"init_params: out has shape {flat.shape}, want ({n},)")
    rng.fill_uniform(flat)
    # w_read and b_read have fan-in dim, w_comp and b_comp 2 dim, w_scale 1
    comp, scale = table["w_comp"][0], table["w_scale"][0]
    for part, fan_in in ((flat[:comp], dim), (flat[comp:scale], 2 * dim), (flat[scale:], 1)):
        bound = 1.0 / math.sqrt(fan_in)
        part *= bound - -bound
        part += -bound
    return FusionParams(**table_views(table, flat))


def init_memory(rng: Rng, slots: int, dim: int) -> MemoryState:
    """Fresh memory with standard-normal entries and writes enabled."""
    if slots < 1 or dim < 1:
        raise ParameterError(f"memory sizes must be >= 1, got slots={slots} dim={dim}")
    # numpy refuses a size beyond the address space with a ValueError
    if slots * dim > sys.maxsize // 8:
        raise MemoryError(f"a memory of {slots} x {dim} float64 entries exceeds the address space")
    matrix = rng.normal(slots * dim).reshape(slots, dim)
    return MemoryState(matrix=matrix, writes_enabled=True)


def write_memory(mem: MemoryState, batch_keys: Array, batch_values: Array) -> MemoryState:
    """Erase-then-add update, aggregated over the batch by the mean.

    Row j of the new memory is M[j] * (1 - mean_b keys[b, j]) +
    mean_b(keys[b, j] * values[b]).  With a one-example batch and a
    one-hot key this replaces exactly one row and leaves every other row
    bit-identical.  Returns a new state; the input is never mutated.

    A memory of stacked lanes, (lanes, slots, dim), takes the keys and
    values of its lanes stacked likewise and writes each lane's batch
    into that lane's matrix.
    """
    lanes = mem.matrix.ndim == 3
    keys = as_batch(batch_keys, lanes)
    values = as_batch(batch_values, lanes)
    batch = keys.shape[-2]
    if batch == 0:
        raise ParameterError("write_memory: empty batch")
    if keys.shape[-1] != mem.matrix.shape[-2] or values.shape[-1] != mem.matrix.shape[-1]:
        raise ShapeError(
            f"write_memory: keys {keys.shape} / values {values.shape} "
            f"vs memory {mem.matrix.shape}"
        )
    if batch != values.shape[-2]:
        raise ShapeError("write_memory: batch sizes differ")
    if not mem.writes_enabled:
        return mem
    # the sum over the batch divided by its size: the same bits as keys.mean(axis=0)
    keep = np.subtract(ONE, np.add.reduce(keys, axis=-2) / batch)
    matrix = np.matmul(keys.mT, values) if lanes else keys.T.dot(values)
    matrix /= batch
    matrix += mem.matrix * keep[..., None]
    return MemoryState(matrix, True)


def naive_fusion(batch_m1, batch_m2, lanes: bool = False) -> Array:
    """Plain per-example concatenation, the no-memory baseline; with
    `lanes` the modes may be stacked along a leading lane axis."""
    m1 = as_batch(batch_m1, lanes)
    m2 = as_batch(batch_m2, lanes)
    if m1.shape[-2] != m2.shape[-2]:
        raise ShapeError(
            f"naive_fusion: batch sizes differ, {m1.shape[-2]} vs {m2.shape[-2]}"
        )
    if m1.shape[-1] == 0 or m2.shape[-1] == 0:
        raise ShapeError("naive_fusion: empty mode features")
    return np.concatenate([m1, m2], axis=-1)


def param_count_formula(s1: int, s2: int, batch: int) -> int:
    """Closed-form size estimate: 3(s1+s2)^2 + (batch+2)(s1+s2).

    For batch 1 this coincides with param_count_actual; for larger
    batches it exceeds the learnable tensor count by (batch-1)*(s1+s2),
    a surplus no tensor in this layer accounts for.
    """
    if s1 < 1 or s2 < 1 or batch < 1:
        raise ParameterError("param_count_formula: sizes must be positive")
    d = s1 + s2
    return 3 * d * d + (batch + 2) * d


def param_count_actual(params: FusionParams) -> int:
    """Number of learnable scalars: 3d^2 + 3d.  Memory slots excluded."""
    return sum(block.size for block in vars(params).values())


@functools.lru_cache(maxsize=None)
def query_order(kinds: Tuple[str, ...], s1: int, s2: int) -> Tuple[str, Optional[Tuple[Array, Array]]]:
    """(kind, order) of a layer whose lanes have the given variant kinds,
    over modes of widths s1 and s2 (one run is one lane).

    The composer's query is the fused input [m1, m2] with its columns in
    order[0]; order[1] is the inverse order, which takes the query's
    columns back.  order is None when every lane's query is the fused
    input itself.  memory_cross's query is [m2, m1], so memory_cross and
    memory lanes run as one memory layer: `kind` is memory, and the order
    is [m2, m1]'s, a (d,) array, when every lane is memory_cross, else a
    (lanes, d) array with each lane's.  Several lanes of other kinds
    raise ParameterError.  The arrays are read-only.
    """
    if len(kinds) > 1 and not set(kinds) <= {MEMORY, MEMORY_CROSS}:
        raise ParameterError(f"lanes of one layer may differ only in query order, got kinds {kinds}")
    if MEMORY_CROSS not in kinds:
        return kinds[0], None
    same = np.arange(s1 + s2)
    cross = np.array([kind == MEMORY_CROSS for kind in kinds])[:, None]
    order = tuple(np.where(cross, np.roll(same, -width), same) for width in (s1, s2))
    if cross.all():
        order = tuple(lanes[0] for lanes in order)
    for columns in order:
        columns.flags.writeable = False
    return MEMORY, order


def _in_order(rows: Array, order: Array) -> Array:
    """`rows` with their columns in `order`: a (d,) order for every row,
    or a (lanes, d) order with each lane's, which takes lanes' rows
    (lanes, B, d), or one (B, d) batch that every lane reads, to
    (lanes, B, d).  A copy, so every value keeps its bits."""
    if order.ndim == 1:
        return rows[..., order]
    if rows.ndim == 2:
        return rows.T[order].mT
    return rows[np.arange(len(order))[:, None], :, order].mT


def _layer_inputs(params: FusionParams, mem: MemoryState, variant, batch_m1, batch_m2, matmul=np.matmul):
    """(kind, fused, query, order, mapped, s1, s2) for rows of the two
    modes, shapes checked: the kind and query order query_order gives the
    variant, and mapped = fused @ w_read + b_read, the product by `matmul`.

    With stacked lanes (3-D blocks) the modes are stacked too, each
    lane's own rows, or are one (rows, s) batch that every lane reads;
    `variant` is one Variant for every lane, or a tuple of each lane's.
    The naive variant has no layer: it is naive_fusion / naive_backward
    alone, and is refused here once the shapes are checked.
    """
    lanes = params.w_read.ndim == 3
    m1 = as_batch(batch_m1, lanes)
    m2 = as_batch(batch_m2, lanes)
    rows = m1.shape[-2]
    if rows != m2.shape[-2]:
        raise ShapeError(f"fusion_forward: batch sizes differ, {rows} vs {m2.shape[-2]}")
    if rows == 0:
        raise ParameterError("fusion_forward: empty batch")
    s1, s2 = m1.shape[-1], m2.shape[-1]
    if s1 == 0 or s2 == 0:
        raise ShapeError("fusion_forward: empty mode features")

    kinds = (variant.kind,) if isinstance(variant, Variant) else tuple([v.kind for v in variant])
    kind, order = query_order(kinds, s1, s2)
    if kind == NAIVE:
        raise ParameterError("the naive variant has no fusion layer; use naive_fusion")
    if kind == MEMORY_SINGLE:
        fused = m1 if variant.mode == 1 else m2
    else:
        fused = np.concatenate([m1, m2], axis=-1)

    d = fused.shape[-1]
    if mem.matrix.shape[-1] != d:
        raise ShapeError(f"fusion_forward: memory dim {mem.dim} vs input dim {d}")
    if params.b_read.shape[-1] != d:
        raise ShapeError(f"fusion_forward: params dim {params.dim} vs input dim {d}")
    mapped = matmul(fused, params.w_read)
    mapped += params.b_read
    query = fused if order is None else _in_order(fused, order[0])
    if query.ndim < mapped.ndim:
        # lanes reading one shared batch: the composer takes the query in each lane's rows
        query = np.broadcast_to(query, mapped.shape)
    return kind, fused, query, order, mapped, s1, s2


def _memory_chain(params: FusionParams, matrix: Array, mapped: Array, query: Array, matmul=np.ndarray.dot):
    """Read, compose and transform: the steps that depend on the memory.

    Returns (keys, recalled, mlp_in, scores, attn, gated, pre_act,
    transformed), one row per input row; every row reads `matrix`.
    `matmul` computes every product, so the same equations serve one
    batch and a run of batches read against one memory.  A 3-D `matrix`
    is one memory per lane, each read by that lane's rows.
    """
    lanes = matrix.ndim == 3
    keys = softmax_rows(matmul(mapped, matrix.mT), lanes)    # (B, k)
    recalled = matmul(keys, matrix)                          # (B, d)
    mlp_in = np.concatenate([query, recalled], axis=-1)      # (B, 2d)
    scores = matmul(mlp_in, params.w_comp)                   # (B, d)
    scores += params.b_comp
    attn = softmax_rows(scores, lanes)
    gated = attn * scores
    pre_act = gated * params.w_scale
    transformed = np.maximum(pre_act, ZERO)
    return keys, recalled, mlp_in, scores, attn, gated, pre_act, transformed


def _layer_output(kind: str, fused: Array, transformed: Array, proj: Optional[Array], matmul=np.ndarray.dot):
    """(out, out_raw): the residual sum fused + transformed, which the
    resampled kind projects through `proj` (keeping the sum as out_raw;
    None for the other kinds)."""
    out = fused + transformed
    if kind != MEMORY_RESAMPLED:
        return out, None
    if proj is None:
        raise ParameterError("resampled variant needs a projection matrix")
    if proj.ndim != out.ndim or proj.shape[-2] != out.shape[-1]:
        raise ShapeError(f"resampled output: out {out.shape} vs proj {proj.shape}")
    return matmul(out, proj), out


def fusion_forward(
    params: FusionParams,
    mem: MemoryState,
    variant: Variant,
    batch_m1,
    batch_m2,
    proj: Optional[Array] = None,
):
    """Run one batch through the layer.

    Returns (outputs, trace, new_memory).  Inputs may be lists of vectors
    or (B, s) arrays.  Every example reads the same pre-step memory; one
    aggregated write produces the returned state.  The naive variant has
    no layer (see naive_fusion) and raises ParameterError.

    With stacked lanes (3-D parameter blocks and memory) the inputs are
    (lanes, B, s), each lane's own batch, or one (B, s) batch that every
    lane reads, and every lane gets the bits of its own call.  `variant`
    is then one Variant for every lane, or a tuple of each lane's, whose
    kinds may be memory and memory_cross (see query_order).
    """
    kind, fused, query, order, mapped, s1, s2 = _layer_inputs(params, mem, variant, batch_m1, batch_m2)
    matmul = np.matmul if mem.matrix.ndim == 3 else np.ndarray.dot
    chain = _memory_chain(params, mem.matrix, mapped, query, matmul)
    out, out_raw = _layer_output(kind, fused, chain[-1], proj, matmul)
    trace = ForwardTrace(variant, s1, s2, fused, query, order, *chain, out, out_raw)
    return out, trace, write_memory(mem, chain[0], chain[-1])


def fusion_rows(
    params: FusionParams,
    mem: MemoryState,
    variant: Variant,
    m1: Array,
    m2: Array,
    batch: int,
    proj: Optional[Array] = None,
) -> Tuple[Array, MemoryState]:
    """The layer over consecutive batches of `batch` rows (the last may be
    short), without traces.  Returns (outputs, memory after the writes).

    The outputs and the memory have the bits that fusion_forward gives
    batch by batch.  Only the memory's chain, read -> compose ->
    transform -> write, runs once per batch, since each batch reads what
    the one before it wrote.  The input map, the residual sum and the
    projection run once over all rows through batchwise_matmul.  With
    writes disabled nothing links the batches and the chain runs once.

    With stacked lanes (3-D parameter blocks and memory matrix, see
    table_views) every lane runs its own chain and memory, and each
    lane's outputs and memory have the bits that lane gets on its own;
    `variant` may be a tuple of each lane's, as in fusion_forward.  The
    chain's products are then np.matmul, which ndarray.dot is not for
    stacked arrays.
    """
    matmul = functools.partial(batchwise_matmul, batch=batch)
    kind, fused, query, _, mapped, _, _ = _layer_inputs(params, mem, variant, m1, m2, matmul)
    if mem.writes_enabled:
        chain = np.matmul if mem.matrix.ndim == 3 else np.ndarray.dot
        written = []
        for start in range(0, fused.shape[-2], batch):
            rows = slice(start, start + batch)
            keys, *_, transformed = _memory_chain(params, mem.matrix, mapped[..., rows, :],
                                                  query[..., rows, :], chain)
            mem = write_memory(mem, keys, transformed)
            written.append(transformed)
        transformed = written[0] if len(written) == 1 else np.concatenate(written, axis=-2)
    else:
        transformed = _memory_chain(params, mem.matrix, mapped, query, matmul)[-1]
    return _layer_output(kind, fused, transformed, proj, matmul)[0], mem


def _softmax_vjp(soft: Array, grad: Array) -> Array:
    # rows of soft are softmax outputs; standard Jacobian-transpose product,
    # made in place in grad (a temporary of the caller's)
    grad -= np.add.reduce(grad * soft, axis=-1, keepdims=True)
    grad *= soft
    return grad


def fusion_backward(
    params: FusionParams,
    trace: ForwardTrace,
    mem_prev: MemoryState,
    batch_grad_out,
    proj: Optional[Array] = None,
    out: Optional[FusionParams] = None,
) -> FusionBackward:
    """Exact parameter cotangents for one forward batch.

    mem_prev must be the state the forward pass read from; its contents
    are treated as constants.  Gradients flow through both the attention
    keys and the composer gate, but not into the written memory.  The
    parameter gradients are written into `out` (for example views of one
    flat gradient vector), or into fresh arrays when it is None.  The
    input gradients are left to fusion_input_grads.

    With stacked lanes (3-D parameter blocks and memory) the trace and
    the output cotangent carry the lane axis too, and every lane gets the
    bits of its own 2-D call: the products are then np.matmul, and each
    sum over the batch runs on axis -2 into the lane's (1, n) row.
    """
    if trace is None:
        raise ParameterError(
            "naive fusion has no trace; use naive_backward to split the gradient"
        )
    lanes = mem_prev.matrix.ndim == 3
    matmul = np.matmul if lanes else np.ndarray.dot
    grad_out = as_batch(batch_grad_out, lanes)

    if grad_out.shape != trace.out.shape:
        raise ShapeError(
            f"fusion_backward: grad {grad_out.shape} vs outputs {trace.out.shape}"
        )
    if out is None:
        out = FusionParams(*(np.empty_like(block) for block in vars(params).values()))

    grad_proj = None
    if trace.out_raw is not None:
        if proj is None:
            raise ParameterError("resampled variant needs its projection matrix")
        grad_proj = matmul(trace.out_raw.mT, grad_out)
        grad_out = matmul(grad_out, proj.mT)

    # out = fused + transformed: both take grad_out unchanged
    # transformed = relu(gated * w_scale)
    grad_pre = grad_out * (trace.pre_act > ZERO)
    np.add.reduce(grad_pre * trace.gated, axis=-2, keepdims=lanes, out=out.w_scale)
    grad_gated = grad_pre
    grad_gated *= params.w_scale

    # gated = attn * scores, attn = softmax(scores)
    grad_scores = _softmax_vjp(trace.attn, grad_gated * trace.scores)
    grad_gated *= trace.attn  # the direct path through gated
    grad_scores += grad_gated

    # scores = mlp_in @ w_comp + b_comp
    matmul(trace.mlp_in.mT, grad_scores, out=out.w_comp)
    np.add.reduce(grad_scores, axis=-2, keepdims=lanes, out=out.b_comp)
    # the recalled half of mlp_in's cotangent; fusion_input_grads takes the query half
    grad_recalled = matmul(grad_scores, params.w_comp[..., trace.fused.shape[-1] :, :].mT)

    # recalled = keys @ M, keys = softmax(mapped @ M^T); M constant
    matrix = mem_prev.matrix
    grad_keys = matmul(grad_recalled, matrix.mT)
    grad_mapped = matmul(_softmax_vjp(trace.keys, grad_keys), matrix)

    # mapped = fused @ w_read + b_read
    np.matmul(trace.fused.mT, grad_mapped, out=out.w_read)
    np.add.reduce(grad_mapped, axis=-2, keepdims=lanes, out=out.b_read)

    return FusionBackward(out, grad_proj, grad_out, grad_scores, grad_mapped)


def fusion_input_grads(params: FusionParams, trace: ForwardTrace, bwd: FusionBackward) -> tuple[Array, Array]:
    """Cotangents of the two mode inputs, from fusion_backward's result.

    Only a model that trains something upstream of the layer (encoders)
    needs these; the mode a single-mode layer ignores gets exact zeros.
    Stacked lanes give each lane's cotangents stacked likewise.  The
    query's cotangent reaches the fused input through the query's
    inverse column order (trace.order).
    """
    s1, s2 = trace.s1, trace.s2
    matmul = np.matmul if bwd.grad_out.ndim == 3 else np.ndarray.dot
    grad_fused = bwd.grad_out + matmul(bwd.grad_mapped, params.w_read.mT)
    d = grad_fused.shape[-1]
    grad_query = matmul(bwd.grad_scores, params.w_comp[..., :d, :].mT)
    grad_fused += grad_query if trace.order is None else _in_order(grad_query, trace.order[1])
    if d == s1 + s2:
        return grad_fused[..., :s1], grad_fused[..., s1:]
    # a single-mode layer's input is its mode alone
    zeros = np.zeros(grad_fused.shape[:-1] + (s1 + s2 - d,))
    return (grad_fused, zeros) if trace.variant.mode == 1 else (zeros, grad_fused)


def naive_backward(grad_out, s1: int, lanes: bool = False) -> tuple[Array, Array]:
    """Backward of naive fusion: pure slicing of the output gradient; with
    `lanes` it may be stacked along a leading lane axis."""
    grad_out = as_batch(grad_out, lanes)
    return grad_out[..., :s1].copy(), grad_out[..., s1:].copy()
