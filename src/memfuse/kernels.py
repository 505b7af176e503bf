"""Dense float64 kernels and a deterministic, counter-based random generator.

All numeric data in this package is carried by plain numpy arrays:
vectors are 1-D float64, matrices are 2-D row-major float64.  The
functions here add the shape checking the rest of the package relies on
and raise :class:`ShapeError` / :class:`ParameterError` instead of
letting numpy broadcast its way into silent nonsense.

The generator is SplitMix64: draw ``i`` of a stream seeded with ``s`` is
``mix64(s + (i + 1) * GOLDEN)`` where ``mix64`` is the standard 64-bit
finalizer.  Because each draw is a pure function of (seed, counter), the
stream is reproducible bit-for-bit across runs and platforms.  Normal
deviates come from uniforms via the Box-Muller transform, two per pair
of uniforms.

Draws are made a block of 2**14 pairs at a time, so a long draw holds no
temporary longer than a block, and the blocks never change a value: the
bits are those of the whole-array formula.  `Rng.fill_normal` draws
straight into a caller's array, which is how `synthdata.gen_dataset`
peaks at about its output plus one column.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError

Array = np.ndarray

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(k) for k in (11, 27, 30, 31))
# Draws per block: 2**14 Box-Muller pairs.  Uniform and normal draws are
# made a block at a time, so no temporary grows with the draw's length.
_BLOCK = 1 << 15
_FLOAT64 = np.dtype(np.float64)


def as_vector(x) -> Array:
    """Coerce to a 1-D float64 array, copying only when needed."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got ndim={v.ndim}")
    return v


def as_matrix(x) -> Array:
    """Coerce to a 2-D float64 array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    return m


def as_batch(x) -> Array:
    """Coerce to a 2-D float64 array of rows (a vector becomes one row).

    A 2-D float64 ndarray comes back as the same object with no numpy
    call, which keeps per-step input checks cheap.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 2:
        return x
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def matmul(a, b) -> Array:
    """Standard matrix product with an explicit inner-dimension check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    return a @ b


def batchwise_matmul(x: Array, w: Array, batch: int) -> Array:
    """x @ w with the rows of x taken `batch` at a time.

    Every full group of `batch` rows is one matrix of a stacked matmul,
    which numpy runs as the same gemm a 2-D call on those rows makes, so
    each row gets the bits it would get from its own batch's product; the
    ragged tail is one 2-D call.  One plain 2-D product over all rows can
    block the sums differently and change the last bits.  With no more
    than `batch` rows this is plain x @ w.
    """
    n = x.shape[0]
    if n <= batch:
        return x @ w
    full = n - n % batch
    out = np.empty((n, w.shape[1]))
    np.matmul(x[:full].reshape(-1, batch, x.shape[1]), w,
              out=out[:full].reshape(-1, batch, w.shape[1]))
    if full < n:
        np.matmul(x[full:], w, out=out[full:])
    return out


def softmax(v) -> Array:
    """Numerically stable softmax of a vector.

    The max is subtracted before exponentiation so arbitrarily large
    scores cannot overflow; the output is positive and sums to 1.
    """
    v = as_vector(v)
    if v.size == 0:
        raise ShapeError("softmax: empty vector")
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_rows(m) -> Array:
    """Row-wise stable softmax of a 2-D array."""
    if not (type(m) is np.ndarray and m.dtype is _FLOAT64 and m.ndim == 2):
        m = as_matrix(m)
    if m.shape[1] == 0:
        raise ShapeError("softmax_rows: zero-width matrix")
    # the ufunc reductions are what m.max and e.sum call, minus a Python layer
    e = np.exp(m - np.maximum.reduce(m, axis=1, keepdims=True))
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def relu(v) -> Array:
    """Elementwise max(0, v)."""
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


def outer(u, v) -> Array:
    """Outer product: result[i, j] = u[i] * v[j]."""
    return np.outer(as_vector(u), as_vector(v))


def hadamard(u, v) -> Array:
    """Elementwise product of two equal-length vectors."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise ShapeError(f"hadamard: lengths differ, {u.size} vs {v.size}")
    return u * v


def concat(u, v) -> Array:
    """Concatenate two nonempty vectors, u's entries first."""
    u = as_vector(u)
    v = as_vector(v)
    if u.size == 0 or v.size == 0:
        raise ShapeError("concat: operands must be nonempty")
    return np.concatenate([u, v])


def _mix64(z: Array) -> Array:
    """SplitMix64's finalizer, in place on a uint64 array, which it returns."""
    z ^= z >> _SHIFT_30
    z *= _MIX_A
    z ^= z >> _SHIFT_27
    z *= _MIX_B
    z ^= z >> _SHIFT_31
    return z


class Rng:
    """Deterministic SplitMix64 stream.

    A single instance owns its counter; do not share one across threads.
    Independent substreams come from :meth:`split`.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(int(seed) & _U64_MASK)
        self.counter = 0

    def _units(self, first: int, n: int, out=None) -> Array:
        """Uniforms in [0, 1) from counters first + 1 .. first + n, into `out`
        when given; the instance's counter is left alone."""
        z = np.arange(first + 1, first + n + 1, dtype=np.uint64)
        z *= _GOLDEN
        z += self.seed
        _mix64(z)
        z >>= _SHIFT_11
        return np.multiply(z, _INV_2_53, out=out)

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> Array:
        """n draws uniform in [lo, hi)."""
        if n < 0:
            raise ParameterError(f"uniform: n must be >= 0, got {n}")
        if not lo < hi:
            raise ParameterError(f"uniform: need lo < hi, got [{lo}, {hi})")
        out = np.empty(n)
        first = self.counter
        self.counter += n
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            self._units(first + start, stop - start, out[start:stop])
        # lo + u * (hi - lo) is u itself on [0, 1), so skip it there.
        if lo != 0.0 or hi != 1.0:
            out *= hi - lo
            out += lo
        return out

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> Array:
        """n draws from N(mu, sigma^2) via Box-Muller."""
        if n < 0:
            raise ParameterError(f"normal: n must be >= 0, got {n}")
        return self.fill_normal(np.empty(n), mu, sigma)

    def fill_normal(self, out: Array, mu: float = 0.0, sigma: float = 1.0) -> Array:
        """Fill a C-contiguous float64 array, in row-major order, with the
        values normal(out.size, mu, sigma) would return, and return it.

        Pair j of the draw takes its radius from the draw's counter j and
        its angle from counter pairs + j, so a block of pairs mixes two
        counter ranges; a draw that fits in one block mixes one.
        """
        if sigma <= 0:
            raise ParameterError(f"normal: sigma must be > 0, got {sigma}")
        if out.dtype != _FLOAT64 or not out.flags.c_contiguous:
            raise ShapeError("fill_normal: need a C-contiguous float64 array")
        flat = out.reshape(-1)
        pairs = (flat.size + 1) // 2
        first = self.counter
        self.counter += 2 * pairs
        per_block = max(_BLOCK // 2, 1)
        for p0 in range(0, pairs, per_block):
            p1 = min(p0 + per_block, pairs)
            if pairs <= per_block:
                u = self._units(first, 2 * pairs)
                r, theta = u[:pairs], u[pairs:]
            else:
                r = self._units(first + p0, p1 - p0)
                theta = self._units(first + pairs + p0, p1 - p0)
            # 1 - u lies in (0, 1], so the log is always finite.
            np.subtract(1.0, r, out=r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta *= 2.0 * np.pi
            z = flat[2 * p0 : 2 * p1]
            trig = np.cos(theta)
            np.multiply(r, trig, out=z[0::2])
            odd = z[1::2]
            np.sin(theta, out=trig)
            np.multiply(r[: odd.size], trig[: odd.size], out=odd)
            z *= sigma
            z += mu
        return out

    def integers(self, n: int, bound: int) -> Array:
        """n draws uniform over {0, ..., bound - 1} as int64."""
        if bound < 1:
            raise ParameterError(f"integers: bound must be >= 1, got {bound}")
        u = self.uniform(n)
        u *= bound
        return np.minimum(u.astype(np.int64), bound - 1)

    def split(self, label: int) -> "Rng":
        """Derive an independent substream keyed by an integer label.

        The child seed is a mix of (seed, label), so distinct labels give
        unrelated streams and the parent counter is untouched.
        """
        with np.errstate(over="ignore"):
            key = _mix64(
                np.uint64([self.seed + _GOLDEN * np.uint64(int(label) & _U64_MASK)])
            )[0]
        return Rng(int(key))
