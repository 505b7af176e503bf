"""Batch kernels and a deterministic, counter-based random generator.

All numeric data in this package is carried by plain numpy arrays, and
batches are 2-D row-major float64 with one row per example.  The batch
helpers here (input and label coercion, row softmax, batchwise products)
raise :class:`ShapeError` / :class:`ParameterError` instead of letting
numpy broadcast its way into silent nonsense.  Evaluation may stack
several runs' batches along a leading lane axis; the helpers take that
axis only where the caller asks for it.

The generator is SplitMix64: draw ``i`` of a stream seeded with ``s`` is
``mix64(s + (i + 1) * GOLDEN)`` where ``mix64`` is the standard 64-bit
finalizer.  Because each draw is a pure function of (seed, counter), the
stream is reproducible bit-for-bit across runs and platforms.  Normal
deviates come from uniforms via the Box-Muller transform, two per pair
of uniforms.

Draws are made a block of 2**14 pairs at a time, so a long draw holds no
temporary longer than a block, and the blocks never change a value: the
bits are those of the whole-array formula.  The blocks of a draw run in
order on the calling thread.  `Rng.fill_normal` draws straight into a
caller's array, and with `rows` into only those rows of it, which is how
`synthdata.gen_dataset` draws only the noise its stream keeps.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import ParameterError, ShapeError

Array = np.ndarray

_GOLDEN_INT, _MIX_A_INT, _MIX_B_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GOLDEN, _MIX_A, _MIX_B = (np.uint64(k) for k in (_GOLDEN_INT, _MIX_A_INT, _MIX_B_INT))
_U64_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(k) for k in (11, 27, 30, 31))
# Draws per block: 2**14 Box-Muller pairs.  Uniform and normal draws are
# made a block at a time, so no temporary grows with the draw's length.
_BLOCK = 1 << 15
_FLOAT64 = np.dtype(np.float64)
_INT64 = np.dtype(np.int64)

# Read-only 0-d operands for the step's constant scalars: numpy takes them
# faster than Python floats (no weak-scalar promotion), with the same bits.
ZERO, ONE = np.zeros(()), np.ones(())
ZERO.flags.writeable = ONE.flags.writeable = False


def as_batch(x, lanes: bool = False) -> Array:
    """Coerce to a 2-D float64 array of rows (a vector becomes one row).

    A 2-D float64 ndarray comes back as the same object with no numpy
    call, which keeps per-step input checks cheap.  A higher rank raises
    ShapeError, except that with `lanes` a 3-D array (rows of each lane
    along a leading lane axis) is taken too, and comes back likewise.
    """
    ndim = 3 if lanes else 2
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and 2 <= x.ndim <= ndim:
        return x
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if batch.ndim > ndim:
        raise ShapeError(f"expected rows of features, got ndim={batch.ndim}")
    return batch


def as_labels(labels, caller: str) -> Array:
    """Class labels as int64; their range is the caller's to check.

    An int64 ndarray comes back as the same object.  Integer and bool
    labels are cast; float labels only when every one is a finite whole
    number (1.0 is taken as 1), since the cast would truncate 1.7 to 1.
    Anything else raises ParameterError naming `caller`.
    """
    if type(labels) is np.ndarray and labels.dtype is _INT64:
        return labels
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu":
        whole = (labels.dtype.kind == "f" and bool(np.isfinite(labels).all())
                 and np.array_equal(labels, np.trunc(labels)))
        if not whole:
            raise ParameterError(f"{caller}: labels must be whole numbers")
    return labels.astype(np.int64, copy=False)


def batchwise_matmul(x: Array, w: Array, batch: int) -> Array:
    """x @ w with the rows of x taken `batch` at a time.

    Every full group of `batch` rows is one matrix of a stacked matmul,
    which numpy runs as the same gemm a 2-D call on those rows makes, so
    each row gets the bits it would get from its own batch's product; the
    ragged tail is one 2-D call.  One plain 2-D product over all rows can
    block the sums differently and change the last bits.  Both operands
    may carry a leading lane axis of one length, its rows and its matrix
    that lane's: lane i of the result is then lane i's rows times lane
    i's matrix, with the bits of that lane's own 2-D call.  A
    `batch` that is not a whole number of at least 1 raises
    ParameterError.
    """
    if not (isinstance(batch, (int, np.integer)) and not isinstance(batch, bool) and batch >= 1):
        raise ParameterError(f"batchwise_matmul: batch must be an integer >= 1, got {batch!r}")
    n, cols = x.shape[-2], w.shape[-1]
    full = n - n % batch
    lead = x.shape[:-2]  # the lane axis, or ()
    out = np.empty(lead + (n, cols))
    np.matmul(x[..., :full, :].reshape(x.shape[:-2] + (-1, batch, x.shape[-1])), w[..., None, :, :],
              out=out[..., :full, :].reshape(lead + (-1, batch, cols)))
    if full < n:
        np.matmul(x[..., full:, :], w, out=out[..., full:, :])
    return out


def softmax_rows(m, lanes: bool = False) -> Array:
    """Row-wise stable softmax of a 2-D array: each row's max is
    subtracted first, so large scores cannot overflow.  With `lanes` the
    array is 3-D, the rows of each lane along a leading lane axis, and
    every row gets the bits it gets in its lane's own 2-D call."""
    ndim = 3 if lanes else 2
    if not (type(m) is np.ndarray and m.dtype is _FLOAT64 and m.ndim == ndim):
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != ndim:
            raise ShapeError(f"softmax_rows: expected a matrix, got ndim={m.ndim}")
    if m.shape[-1] == 0:
        raise ShapeError("softmax_rows: zero-width matrix")
    # the ufunc reductions are what m.max and e.sum call, minus a Python layer
    e = m - np.maximum.reduce(m, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _mix64(z: Array) -> Array:
    """SplitMix64's finalizer, in place on a uint64 array, which it returns."""
    z ^= z >> _SHIFT_30
    z *= _MIX_A
    z ^= z >> _SHIFT_27
    z *= _MIX_B
    z ^= z >> _SHIFT_31
    return z


def _checked_rows(out: Array, rows) -> Array:
    """`rows` as int64, checked to be increasing row indices of a 2-D `out`."""
    rows = np.asarray(rows)
    if out.ndim != 2 or rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ShapeError("fill_normal: rows must be a 1-D integer array of a 2-D array's rows")
    rows = rows.astype(np.int64, copy=False)
    if rows.size and (rows[0] < 0 or rows[-1] >= out.shape[0] or (rows[1:] <= rows[:-1]).any()):
        raise ParameterError(f"fill_normal: rows must increase within [0, {out.shape[0]})")
    return rows


class Rng:
    """Deterministic SplitMix64 stream.

    A single instance owns its counter; do not share one across threads.
    Independent substreams come from :meth:`split`.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(int(seed) & _U64_MASK)
        self.counter = 0

    def _units(self, z: Array, out=None) -> Array:
        """Uniforms in [0, 1) at the counters in the uint64 array z (draw i
        has counter i + 1), into `out` when given.  z is overwritten; the
        instance's counter is left alone."""
        z *= _GOLDEN
        z += self.seed
        _mix64(z)
        z >>= _SHIFT_11
        return np.multiply(z, _INV_2_53, out=out)

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> Array:
        """n draws uniform in [lo, hi)."""
        if n < 0:
            raise ParameterError(f"uniform: n must be >= 0, got {n}")
        return self.fill_uniform(np.empty(n), lo, hi)

    def fill_uniform(self, out: Array, lo: float = 0.0, hi: float = 1.0) -> Array:
        """Fill a C-contiguous float64 array, in row-major order, with the
        values uniform(out.size, lo, hi) would return, and return it.

        The draw is one counter range, mixed a block of `_BLOCK` counters
        at a time straight into `out`, then scaled as u * (hi - lo) + lo.
        """
        if not lo < hi:
            raise ParameterError(f"uniform: need lo < hi, got [{lo}, {hi})")
        if out.dtype != _FLOAT64 or not out.flags.c_contiguous:
            raise ShapeError("fill_uniform: need a C-contiguous float64 array")
        flat = out if out.ndim == 1 else out.reshape(-1)
        n = flat.size
        first = self.counter
        self.counter += n
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            self._units(np.arange(first + start + 1, first + stop + 1, dtype=np.uint64), flat[start:stop])
        # lo + u * (hi - lo) is u itself on [0, 1), so skip it there.
        if lo != 0.0 or hi != 1.0:
            flat *= hi - lo
            flat += lo
        return out

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> Array:
        """n draws from N(mu, sigma^2) via Box-Muller."""
        if n < 0:
            raise ParameterError(f"normal: n must be >= 0, got {n}")
        return self.fill_normal(np.empty(n), mu, sigma)

    def fill_normal(self, out: Array, mu: float = 0.0, sigma: float = 1.0, rows=None) -> Array:
        """Fill a C-contiguous float64 array, in row-major order, with the
        values normal(out.size, mu, sigma) would return, and return it.

        Pair j of the draw takes its radius from the draw's counter j and
        its angle from counter pairs + j, and gives the values at
        positions 2j (cosine) and 2j + 1 (sine).  Every value is thus a
        pure function of (seed, the draw's first counter, its pair count,
        its position), so any subset or block of the draw can be computed
        on its own and still get the whole draw's bits.

        With `rows`, increasing row indices of a 2-D `out`, only those rows
        are written, each with exactly what the whole draw puts there, and
        only the pairs they touch are computed (at an odd width a pair can
        straddle two rows; it is computed for each kept row it touches).
        The other rows are left as they are.  Either way the counter
        advances by the whole draw.

        The draw runs in blocks of about 2**14 pairs (whole rows with
        `rows`), one after another on the calling thread.  Blocks write
        disjoint parts of `out` and never touch the counter.
        """
        if sigma <= 0:
            raise ParameterError(f"normal: sigma must be > 0, got {sigma}")
        if out.dtype != _FLOAT64 or not out.flags.c_contiguous:
            raise ShapeError("fill_normal: need a C-contiguous float64 array")
        first = self.counter
        pairs = (out.size + 1) // 2
        flat = out.reshape(-1)
        per_block = max(_BLOCK // 2, 1)
        self.counter += 2 * pairs
        if rows is not None:
            rows = _checked_rows(out, rows)
            width = out.shape[1]
            touched = (width + 1) // 2  # pairs each row touches
            per_chunk = max(per_block // max(touched, 1), 1)  # rows per block
            # one set of buffers for the draw, reused by each block (see _box_muller)
            size = min(per_chunk, rows.size) * touched
            buffers = (np.empty(2 * size, dtype=np.uint64), np.empty(2 * size),
                       np.empty(size, dtype=np.int64), np.empty(2 * size))
            for i in range(0, rows.size, per_chunk):
                self._normal_rows(first, pairs, flat, width, rows[i : i + per_chunk], mu, sigma, buffers)
        elif pairs <= per_block:
            # one block: its radius and angle counters form one range
            counters = np.arange(first + 1, first + 1 + 2 * pairs, dtype=np.uint64)
            self._box_muller(counters, flat, mu, sigma)
        else:
            # one set of buffers for the draw, reused by each block (see _box_muller)
            buffer, uniforms = np.empty(2 * per_block, dtype=np.uint64), np.empty(2 * per_block)
            index = np.arange(per_block, dtype=np.uint64)
            for p0 in range(0, pairs, per_block):
                m = min(per_block, pairs - p0)
                counters = buffer[: 2 * m]
                np.add(index[:m], first + 1 + p0, out=counters[:m])
                np.add(counters[:m], pairs, out=counters[m:])
                self._box_muller(counters, flat[2 * p0 : 2 * (p0 + m)], mu, sigma, uniforms[: 2 * m])
        return out

    def _box_muller(self, counters: Array, z: Array, mu: float, sigma: float,
                    uniforms: Optional[Array] = None) -> None:
        """Normal values, scaled and shifted, of the pairs whose radius
        counters fill the first half of the uint64 array `counters` and
        whose angle counters fill the second: pair i's cosine value into
        z[2i] and its sine value into z[2i + 1], which is dropped when z is
        one short.  `counters` is overwritten, and so is `uniforms`, a
        float64 array of its size that takes the uniforms when given.

        A draw of many blocks passes the same buffers to each.
        With fresh buffers per block the allocator handed their pages back
        between blocks: a draw into half the rows of a 24000 x 32 array
        took about 80 page faults per block and ran about 10% slower.
        """
        m = counters.size // 2
        if uniforms is None:
            u, trig = self._units(counters), None
        else:
            # the trig values go to counters once the uniforms are out
            u, trig = self._units(counters, uniforms), counters.view(np.float64)[:m]
        r, theta = u[:m], u[m:]
        # 1 - u lies in (0, 1], so the log is always finite.
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        trig = np.cos(theta, out=trig)
        np.multiply(r, trig, out=z[0::2])
        odd = z[1::2]
        np.sin(theta, out=trig)
        np.multiply(r[: odd.size], trig[: odd.size], out=odd)
        z *= sigma
        z += mu

    def _normal_rows(self, first: int, pairs: int, flat: Array, width: int, rows: Array,
                     mu: float, sigma: float, buffers: Tuple[Array, Array, Array, Array]) -> None:
        """The draw's values in the given rows of `flat`, a row-major array
        of rows `width` wide.  `buffers` are the counters, the uniforms, the
        pair indices and the values, with at least 2m, 2m, m and 2m
        entries for the m pairs the rows touch."""
        counters, uniforms, pair, vals = buffers
        start = rows * width
        touched = (width + 1) // 2
        m = touched * rows.size
        # pair k of row i is j[k, i]: the long axis is innermost
        j = pair[:m]
        np.add(start >> 1, np.arange(touched)[:, None], out=j.reshape(touched, rows.size))
        counters = counters[: 2 * m]
        np.add(j, first + 1, out=counters[:m], casting="unsafe")
        np.add(counters[:m], pairs, out=counters[m:])
        vals = vals[: 2 * m]
        self._box_muller(counters, vals, mu, sigma, uniforms[: 2 * m])
        pos = counters.view(np.int64)
        np.multiply(j, 2, out=pos[0::2])
        np.add(pos[0::2], 1, out=pos[1::2])
        if width % 2:
            # a row starting at an even position loses the sine of its last
            # pair to the next row; one starting at an odd position, the
            # cosine of its first pair to the row before
            odd_start = (start & 1).astype(bool)
            keep = np.ones((touched, rows.size, 2), dtype=bool)
            keep[0, :, 0] = ~odd_start
            keep[-1, :, 1] = odd_start
            keep = keep.reshape(-1)
            pos, vals = pos[keep], vals[keep]
        flat[pos] = vals

    def integers(self, n: int, bound: int) -> Array:
        """n draws uniform over {0, ..., bound - 1} as int64."""
        if bound < 1:
            raise ParameterError(f"integers: bound must be >= 1, got {bound}")
        u = self.uniform(n)
        u *= bound
        return np.minimum(u.astype(np.int64), bound - 1)

    def split(self, label: int) -> "Rng":
        """Derive an independent substream keyed by an integer label.

        The child seed is mix64(seed + label * GOLDEN) mod 2**64, so
        distinct labels give unrelated streams and the parent counter is
        untouched.  It is one number, so it is mixed in Python ints.
        """
        key = (int(self.seed) + _GOLDEN_INT * (int(label) & _U64_MASK)) & _U64_MASK
        key = ((key ^ (key >> 30)) * _MIX_A_INT) & _U64_MASK
        key = ((key ^ (key >> 27)) * _MIX_B_INT) & _U64_MASK
        return Rng(key ^ (key >> 31))
