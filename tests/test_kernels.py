"""Kernel-level contracts: dense ops and the deterministic generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memfuse import kernels
from memfuse.errors import ParameterError, ShapeError
from memfuse.kernels import (
    Rng,
    as_batch,
    batchwise_matmul,
    concat,
    hadamard,
    matmul,
    outer,
    relu,
    softmax,
    softmax_rows,
)
from oracle import sl_box_muller, sl_uniforms


def brute_matmul(a, b):
    """Triple-loop product, the independent reference."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestAsBatch:
    def test_float64_matrix_passes_through(self):
        m = np.arange(6.0).reshape(2, 3)
        assert as_batch(m) is m
        view = m[:, 1:]
        assert as_batch(view) is view

    @pytest.mark.parametrize(
        "given",
        [
            [[1, 2, 3], [4, 5, 6]],                       # nested lists
            np.arange(6).reshape(2, 3),                   # int matrix
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.arange(6.0).reshape(2, 3).astype(">f8"),   # non-native byte order
        ],
    )
    def test_coerces_like_atleast_2d_asarray(self, given):
        got = as_batch(given)
        want = np.atleast_2d(np.asarray(given, dtype=np.float64))
        assert got is not given
        assert got.dtype == np.float64 and got.dtype.isnative and got.shape == (2, 3)
        np.testing.assert_array_equal(got, want)

    def test_vector_and_scalar_become_one_row(self):
        assert as_batch([1.0, 2.0]).shape == (1, 2)
        assert as_batch(np.arange(3.0)).shape == (1, 3)
        assert as_batch(7).shape == (1, 1)

    def test_higher_rank_is_left_to_the_caller(self):
        # as today: atleast_2d keeps a 3-D array 3-D, and the callers' shape checks reject it
        assert as_batch(np.zeros((2, 3, 4))).shape == (2, 3, 4)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.max(np.abs(matmul(a, b) - brute_matmul(a, b))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 5))
            c = rng.standard_normal((5, 3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            scale = np.max(np.abs(left)) + 1e-300
            assert np.max(np.abs(left - right)) / scale < 1e-9


class TestSoftmax:
    def test_uniform_on_constant(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_stabilized_against_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] > 1.0 - 1e-12
        assert out[1] < 1e-12

    def test_matches_plain_exp_normalize(self):
        v = np.array([1.0, 2.0, 3.0])
        plain = np.exp(v) / np.exp(v).sum()
        np.testing.assert_allclose(softmax(v), plain, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.array([]))

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 17, 1000, 10_000):
            v = rng.standard_normal(n) * 5
            out = softmax(v)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out >= 0)
            shifted = softmax(v + 123.456)
            assert np.max(np.abs(out - shifted)) < 1e-12

    def test_rows_variant_matches_vector(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 9))
        rows = softmax_rows(m)
        for i in range(6):
            np.testing.assert_allclose(rows[i], softmax(m[i]), atol=1e-15)


class TestElementwise:
    def test_relu_hand_cases(self):
        np.testing.assert_array_equal(relu(np.array([1.0, -1.0, 0.0])), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(relu(np.array([-5.0, -0.1])), [0.0, 0.0])

    def test_relu_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(100)
        expected = np.array([x if x > 0 else 0.0 for x in v])
        np.testing.assert_array_equal(relu(v), expected)

    def test_outer_hand_cases(self):
        np.testing.assert_array_equal(
            outer(np.array([1.0, 0.0]), np.array([2.0, 3.0])), [[2.0, 3.0], [0.0, 0.0]]
        )
        e1 = np.array([1.0, 0.0, 0.0])
        out = outer(e1, e1)
        assert out[0, 0] == 1.0 and out.sum() == 1.0

    def test_outer_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal(3), rng.standard_normal(4)
        out = outer(u, v)
        for i in range(3):
            np.testing.assert_allclose(out[i], u[i] * v, atol=0)
            for j in range(4):
                assert out[i, j] == u[i] * v[j]

    def test_hadamard(self):
        np.testing.assert_array_equal(hadamard([1.0, 2.0], [3.0, 4.0]), [3.0, 8.0])
        v = np.random.default_rng(8).standard_normal(9)
        np.testing.assert_array_equal(hadamard(v, np.ones(9)), v)
        u, w = np.arange(5.0), np.linspace(-1, 1, 5)
        np.testing.assert_array_equal(hadamard(u, w), [a * b for a, b in zip(u, w)])
        with pytest.raises(ShapeError):
            hadamard(np.ones(3), np.ones(4))


class TestConcat:
    def test_hand_case(self):
        np.testing.assert_array_equal(concat([2.0, 3.0], [5.0]), [2.0, 3.0, 5.0])

    def test_order_sensitivity(self):
        u, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        assert not np.array_equal(concat(u, v), concat(v, u))

    def test_benchmark_dims(self):
        out = concat(np.zeros(2048), np.zeros(4800))
        assert out.shape == (6848,)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            concat(np.array([]), np.ones(2))


class TestRng:
    def test_same_seed_bit_exact(self):
        a = Rng(1234).normal(256)
        b = Rng(1234).normal(256)
        np.testing.assert_array_equal(a, b)
        u1 = Rng(99).uniform(512, -2.0, 3.0)
        u2 = Rng(99).uniform(512, -2.0, 3.0)
        np.testing.assert_array_equal(u1, u2)

    def test_counter_advances(self):
        r = Rng(7)
        first = r.uniform(10)
        second = r.uniform(10)
        assert not np.array_equal(first, second)

    def test_normal_moments(self):
        z = Rng(2024).normal(1_000_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_uniform_range_and_mean(self):
        u = Rng(55).uniform(100_000, 2.0, 5.0)
        assert u.min() >= 2.0
        assert u.max() < 5.0
        big = Rng(56).uniform(1_000_000, 0.0, 1.0)
        assert abs(big.mean() - 0.5) < 0.01

    def test_normal_from_uniform_transform(self):
        # Box-Muller contract: the first pair is a documented function of
        # the first two uniform draws of the same stream.
        seed = 4242
        u = Rng(seed).uniform(2)
        r = math.sqrt(-2.0 * math.log(1.0 - u[0]))
        expected = [r * math.cos(2 * math.pi * u[1]), r * math.sin(2 * math.pi * u[1])]
        z = Rng(seed).normal(2)
        np.testing.assert_allclose(z, expected, rtol=0, atol=0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            Rng(1).normal(4, 0.0, 0.0)
        with pytest.raises(ParameterError):
            Rng(1).normal(4, 0.0, -1.0)
        with pytest.raises(ParameterError):
            Rng(1).uniform(4, 1.0, 1.0)
        with pytest.raises(ParameterError):
            Rng(1).uniform(4, 2.0, -2.0)

    def test_split_streams_differ(self):
        r = Rng(5)
        a = r.split(1).uniform(8)
        b = r.split(2).uniform(8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(r.split(1).uniform(8), a)

    def test_integers_in_range(self):
        draws = Rng(9).integers(10_000, 7)
        assert draws.min() >= 0
        assert draws.max() <= 6
        assert set(np.unique(draws)) == set(range(7))


class TestRngBlocks:
    """Draws are made a block at a time; the blocks must never change a
    value.  Every draw is checked bit for bit against a pure-Python-int
    SplitMix64 and the whole-array Box-Muller formula, with the block
    size forced down so that small draws cross many block boundaries."""

    SIZES = (0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 16, 33)
    SEEDS = (0, 12345, 2**64 - 1)

    @pytest.fixture(params=[3, 5, kernels._BLOCK], ids=lambda b: f"block{b}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK", request.param)
        return request.param

    @staticmethod
    def same_bits(got, want):
        want = np.asarray(want, dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_uniform_matches_reference_across_blocks(self, block):
        for seed in self.SEEDS:
            rng, counter = Rng(seed), 0
            for n in self.SIZES:
                self.same_bits(rng.uniform(n), sl_uniforms(seed, counter, n))
                counter += n
                scaled = -2.0 + np.array(sl_uniforms(seed, counter, n)) * (3.0 - -2.0)
                self.same_bits(rng.uniform(n, -2.0, 3.0), scaled)
                counter += n
            assert rng.counter == counter

    def test_normal_matches_reference_across_blocks(self, block):
        for seed in self.SEEDS:
            rng, counter = Rng(seed), 0
            for n in self.SIZES:
                used = 2 * ((n + 1) // 2)
                want = sl_box_muller(sl_uniforms(seed, counter, used), n, 0.5, 0.3)
                self.same_bits(rng.normal(n, 0.5, 0.3), want)
                counter += used
            assert rng.counter == counter

    def test_fill_normal_writes_the_same_draw_in_row_major_order(self, block):
        out = np.empty((5, 3))
        assert Rng(8).fill_normal(out, 1.0, 2.0) is out
        self.same_bits(out.reshape(-1), Rng(8).normal(15, 1.0, 2.0))
        with pytest.raises(ShapeError):
            Rng(8).fill_normal(np.empty((3, 4))[:, :2])
        with pytest.raises(ShapeError):
            Rng(8).fill_normal(np.empty(4, dtype=np.float32))
        with pytest.raises(ParameterError):
            Rng(8).fill_normal(np.empty(4), 0.0, 0.0)

    def test_integers_follow_the_uniforms(self, block):
        u = np.array(sl_uniforms(77, 0, 13))
        want = np.minimum((u * 7).astype(np.int64), 6)
        assert Rng(77).integers(13, 7).tolist() == want.tolist()

    def test_default_block_boundary(self):
        """One draw just longer than a block, and one that starts inside a block."""
        n = kernels._BLOCK + 3
        rng = Rng(31)
        self.same_bits(rng.uniform(n), sl_uniforms(31, 0, n))
        used = 2 * ((n + 1) // 2)
        want = sl_box_muller(sl_uniforms(31, n, used), n)
        self.same_bits(rng.normal(n), want)


class TestBatchwiseMatmul:
    """batchwise_matmul gives each row the bits of its own batch's product."""

    @staticmethod
    def _operand(rng, rows, cols, layout):
        if layout == "contiguous":
            return rng.standard_normal((rows, cols))
        if layout == "strided":
            return rng.standard_normal((rows, cols + 3))[:, 1 : cols + 1]
        return rng.standard_normal((cols, rows)).T

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 70),
        batch=st.integers(1, 9),
        k=st.integers(1, 12),
        h=st.integers(1, 12),
        x_layout=st.sampled_from(["contiguous", "strided", "transposed"]),
        w_layout=st.sampled_from(["contiguous", "strided", "transposed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_a_per_batch_loop(self, n, batch, k, h, x_layout, w_layout, seed):
        rng = np.random.default_rng(seed)
        x = self._operand(rng, n, k, x_layout)
        w = self._operand(rng, k, h, w_layout)
        got = batchwise_matmul(x, w, batch)
        assert got.shape == (n, h)
        for start in range(0, n, batch):
            want = x[start : start + batch] @ w
            assert got[start : start + batch].tobytes() == want.tobytes()

    def test_one_batch_is_the_plain_product(self):
        rng = np.random.default_rng(4)
        x, w = rng.standard_normal((3, 5)), rng.standard_normal((5, 2))
        assert batchwise_matmul(x, w, 3).tobytes() == (x @ w).tobytes()
        assert batchwise_matmul(x, w, 8).tobytes() == (x @ w).tobytes()
