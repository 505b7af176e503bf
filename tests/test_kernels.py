"""Kernel-level contracts: the batch kernels, the deterministic generator,
and the layer's elementwise steps and products, checked on the batched
path the program runs."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memfuse import kernels
from memfuse.errors import ParameterError, ShapeError
from memfuse.fusion import (
    MEMORY,
    MEMORY_CROSS,
    MEMORY_RESAMPLED,
    MEMORY_SINGLE,
    NAIVE,
    MemoryState,
    Variant,
    fusion_forward,
    fusion_rows,
    init_memory,
    init_params,
    naive_fusion,
    write_memory,
)
from memfuse.kernels import Rng, as_batch, batchwise_matmul, softmax_rows
from memfuse.model import ClassifierConfig, build_state, cross_entropy_batch, head_forward
from oracle import SL_GOLDEN, SL_MASK64, sl_box_muller, sl_mix64, sl_softmax, sl_uniforms


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

    def test_higher_rank_is_refused(self):
        """as_batch refuses a rank above 2, so every entry point that
        coerces through it does too, whatever the path behind it."""
        cube = np.zeros((2, 3, 3))
        with pytest.raises(ShapeError):
            as_batch(cube)
        for kind in (NAIVE, MEMORY, MEMORY_CROSS, MEMORY_SINGLE, MEMORY_RESAMPLED):
            d = 3 if kind == MEMORY_SINGLE else 6
            params, mem = init_params(Rng(1), d), init_memory(Rng(2), 4, d)
            with pytest.raises(ShapeError):
                fusion_forward(params, mem, Variant(kind, out_dim=3), cube, cube, proj=np.zeros((d, 3)))
        with pytest.raises(ShapeError):
            naive_fusion(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            write_memory(init_memory(Rng(3), 3, 3), cube, cube)
        state = build_state(ClassifierConfig(variant="naive", head_hidden=4, classes=3, dropout_rate=0.0), 3, 3)
        with pytest.raises(ShapeError):
            head_forward(state.params, np.zeros((2, 3, 6)))
        with pytest.raises(ShapeError):
            cross_entropy_batch(cube, np.zeros(2, dtype=np.int64))


class TestMatmul:
    """The products of evaluation's row-block path (batchwise_matmul)."""

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(batchwise_matmul(np.eye(2), a, 1), a)
        np.testing.assert_array_equal(batchwise_matmul(a, np.eye(2), 1), a)

    def test_hand_product(self):
        out = batchwise_matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]), 1)
        np.testing.assert_array_equal(out, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.max(np.abs(batchwise_matmul(a, b, 2) - brute_matmul(a, b))) < 1e-12

    def test_dimension_mismatch(self):
        # the row-block layer checks widths before its first product
        params, mem = init_params(Rng(1), 4), init_memory(Rng(1), 3, 5)
        with pytest.raises(ShapeError):
            fusion_rows(params, mem, Variant(), np.ones((4, 2)), np.ones((4, 3)), batch=2)

    @pytest.mark.parametrize("batch", [0, -1, 2.5, True, None])
    def test_bad_batch_is_refused(self, batch):
        # a batch that is not a whole number of at least 1 names itself,
        # whether or not the rows fit in one batch; the layer inherits the check
        with pytest.raises(ParameterError, match="batch"):
            batchwise_matmul(np.ones((4, 2)), np.ones((2, 3)), batch)
        with pytest.raises(ParameterError, match="batch"):
            batchwise_matmul(np.ones((1, 2)), np.ones((2, 3)), batch)
        params, mem = init_params(Rng(1), 5), init_memory(Rng(1), 3, 5)
        with pytest.raises(ParameterError, match="batch"):
            fusion_rows(params, mem, Variant(), np.ones((4, 2)), np.ones((4, 3)), batch=batch)

    def test_integer_batch_types(self):
        a, b = np.arange(10.0).reshape(5, 2), np.ones((2, 3))
        want = batchwise_matmul(a, b, 2)
        assert batchwise_matmul(a, b, np.int64(2)).tobytes() == want.tobytes()


class TestSoftmax:
    """softmax_rows, the layer's one softmax (keys and composer gate)."""

    def test_uniform_on_constant(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0, 0.0]]), [[1 / 3] * 3], atol=1e-15)

    def test_stabilized_against_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1.0 - 1e-12 and out[1, 0] > 1.0 - 1e-12
        assert out[0, 1] < 1e-12 and out[1, 1] < 1e-12

    def test_matches_plain_exp_normalize(self):
        np.testing.assert_allclose(softmax_rows([[1.0, 2.0, 3.0]]), [sl_softmax([1.0, 2.0, 3.0])], atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros((2, 0)))
        for not_a_matrix in (np.zeros(3), [1.0, 2.0], np.zeros((2, 2, 2))):
            with pytest.raises(ShapeError):
                softmax_rows(not_a_matrix)

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 17, 1000, 10_000):
            m = rng.standard_normal((3, n)) * 5
            out = softmax_rows(m)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(out >= 0)
            shifted = softmax_rows(m + np.array([[123.456], [-50.0], [0.5]]))
            assert np.max(np.abs(out - shifted)) < 1e-12

    def test_rows_variant_matches_vector(self):
        """Each row is the oracle's softmax of that row alone."""
        m = np.random.default_rng(4).standard_normal((6, 9))
        rows = softmax_rows(m)
        for i in range(6):
            np.testing.assert_allclose(rows[i], sl_softmax(m[i]), atol=1e-15)


def layer_trace(seed=6, d=6, batch=5):
    """fusion_forward's trace of a random memory layer."""
    rng = np.random.default_rng(seed)
    params, mem = init_params(Rng(seed), d), init_memory(Rng(seed + 1), 4, d)
    m1, m2 = rng.standard_normal((batch, 2)), rng.standard_normal((batch, d - 2))
    return params, fusion_forward(params, mem, Variant(), m1, m2)[1]


class TestElementwise:
    """The layer's ReLU, elementwise products and write."""

    def test_relu_hand_cases(self):
        # zero weights and composer bias [1, -1, 0]: pre_act is [+, -, 0]
        params = init_params(Rng(1), 3)
        for block in (params.w_read, params.b_read, params.w_comp):
            block[:] = 0.0
        params.b_comp[:] = [1.0, -1.0, 0.0]
        params.w_scale[:] = 1.0
        _, trace, _ = fusion_forward(params, init_memory(Rng(2), 2, 3), Variant(), [[1.0]], [[1.0, 1.0]])
        assert trace.pre_act[0, 0] > 0 > trace.pre_act[0, 1] and trace.pre_act[0, 2] == 0.0
        np.testing.assert_array_equal(trace.transformed, [[trace.pre_act[0, 0], 0.0, 0.0]])

    def test_relu_elementwise_oracle(self):
        _, trace = layer_trace()
        expected = [[x if x > 0 else 0.0 for x in row] for row in trace.pre_act]
        np.testing.assert_array_equal(trace.transformed, expected)
        assert (trace.pre_act < 0).any() and (trace.pre_act > 0).any()

    def test_outer_hand_cases(self):
        # one example written into a zero memory adds the outer product keys x values
        new = write_memory(MemoryState(np.zeros((2, 2))), [[1.0, 0.0]], [[2.0, 3.0]])
        np.testing.assert_array_equal(new.matrix, [[2.0, 3.0], [0.0, 0.0]])
        new = write_memory(MemoryState(np.zeros((3, 3))), [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
        assert new.matrix[0, 0] == 1.0 and new.matrix.sum() == 1.0

    def test_outer_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        z, h = rng.random((1, 3)), rng.standard_normal((1, 4))
        z /= z.sum()
        new = write_memory(MemoryState(np.zeros((3, 4))), z, h)
        for i in range(3):
            for j in range(4):
                assert new.matrix[i, j] == z[0, i] * h[0, j]

    def test_hadamard(self):
        params, trace = layer_trace(seed=8)
        for b, i in np.ndindex(trace.gated.shape):
            assert trace.gated[b, i] == trace.attn[b, i] * trace.scores[b, i]
            assert trace.pre_act[b, i] == trace.gated[b, i] * params.w_scale[i]


class TestConcat:
    """The layer's fused input is [m1, m2], the naive output likewise."""

    def test_hand_case(self):
        params, mem = init_params(Rng(1), 3), init_memory(Rng(2), 2, 3)
        _, trace, _ = fusion_forward(params, mem, Variant(), [[2.0, 3.0]], [[5.0]])
        np.testing.assert_array_equal(trace.fused, [[2.0, 3.0, 5.0]])
        np.testing.assert_array_equal(trace.mlp_in, np.concatenate([trace.query, trace.recalled], axis=1))

    def test_order_sensitivity(self):
        rng = np.random.default_rng(2)
        m1, m2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        params, mem = init_params(Rng(3), 4), init_memory(Rng(4), 3, 4)
        _, plain, _ = fusion_forward(params, mem, Variant(), m1, m2)
        _, cross, _ = fusion_forward(params, mem, Variant(MEMORY_CROSS), m1, m2)
        assert not np.array_equal(plain.query, cross.query)
        assert not np.array_equal(plain.scores, cross.scores)

    def test_benchmark_dims(self):
        # the naive variant is naive_fusion alone (its 6848-wide output is
        # test_fusion.py::TestNaiveAndSwap::test_naive_benchmark_dims); the
        # layer refuses it
        params, mem = init_params(Rng(1), 2), init_memory(Rng(1), 2, 2)
        for run in (fusion_forward, functools.partial(fusion_rows, batch=2)):
            with pytest.raises(ParameterError, match="naive_fusion"):
                run(params, mem, Variant(NAIVE), np.zeros((2, 2048)), np.zeros((2, 4800)))

    def test_empty_rejected(self):
        params, mem = init_params(Rng(1), 2), init_memory(Rng(1), 2, 2)
        for kind in (NAIVE, MEMORY):
            with pytest.raises(ShapeError):
                fusion_forward(params, mem, Variant(kind), np.zeros((2, 0)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            naive_fusion(np.zeros((2, 0)), np.ones((2, 2)))


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

    def test_fill_uniform_matches_uniform_and_reference(self, block):
        """Into a 1-D array, a 2-D array (row-major order) and contiguous
        slices of a larger vector, one counter range each."""
        for seed in self.SEEDS:
            rng, counter = Rng(seed), 0
            for n in self.SIZES:
                out = np.empty(n)
                assert rng.fill_uniform(out) is out
                self.same_bits(out, sl_uniforms(seed, counter, n))
                self.same_bits(out, Rng(seed).uniform(counter + n)[counter:])
                counter += n
            grid = np.empty((3, 7))
            rng.fill_uniform(grid, -2.0, 3.0)
            want = -2.0 + np.array(sl_uniforms(seed, counter, 21)) * (3.0 - -2.0)
            self.same_bits(grid.reshape(-1), want)
            counter += 21
            assert rng.counter == counter
        vector = np.full(40, 7.0)
        rng = Rng(3)
        rng.fill_uniform(vector[5:16], -0.5, 0.5)
        rng.fill_uniform(vector[16:33])
        twin = Rng(3)
        self.same_bits(vector[5:16], twin.uniform(11, -0.5, 0.5))
        self.same_bits(vector[16:33], twin.uniform(17))
        self.same_bits(vector[5:16], -0.5 + np.array(sl_uniforms(3, 0, 11)) * (0.5 - -0.5))
        self.same_bits(vector[16:33], sl_uniforms(3, 11, 17))
        assert (vector[:5] == 7.0).all() and (vector[33:] == 7.0).all()

    def test_fill_uniform_refuses_what_it_cannot_fill(self, block):
        with pytest.raises(ShapeError):
            Rng(8).fill_uniform(np.empty((3, 4))[:, :2])
        with pytest.raises(ShapeError):
            Rng(8).fill_uniform(np.empty(8)[::2])
        with pytest.raises(ShapeError):
            Rng(8).fill_uniform(np.empty(4, dtype=np.float32))
        with pytest.raises(ParameterError):
            Rng(8).fill_uniform(np.empty(4), 1.0, 1.0)

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


class TestSplitOracle:
    """A child's seed is SplitMix64's finalizer of seed + label * golden,
    mod 2**64, bit for bit as the pure-Python-int oracle computes it."""

    EDGES = st.sampled_from([0, 1, 2**63, 2**64 - 1, -1, -(2**63), 2**64, 2**70 + 5])
    VALUES = st.one_of(EDGES, st.integers(-(2**80), 2**80))

    @settings(max_examples=300, deadline=None)
    @given(seed=VALUES, label=VALUES)
    def test_child_seed_matches_the_oracle(self, seed, label):
        want = sl_mix64(((seed & SL_MASK64) + (label & SL_MASK64) * SL_GOLDEN) & SL_MASK64)
        child = Rng(seed).split(label)
        assert int(child.seed) == want and child.counter == 0
        assert child.uniform(2).tolist() == sl_uniforms(want, 0, 2)

    def test_split_leaves_the_parent_alone(self):
        rng = Rng(11)
        rng.uniform(3)
        rng.split(4)
        assert rng.counter == 3 and int(rng.seed) == 11


class TestFillNormalRows:
    """fill_normal(rows=) writes, bit for bit, what the whole draw puts in
    those rows and leaves every other row alone, whatever the block size."""

    MU, SIGMA = 0.5, 1.5

    def whole_draw(self, seed, skip, n, width):
        """normal(n * width) drawn after `skip` uniforms, as rows."""
        rng = Rng(seed)
        rng.uniform(skip)
        return rng.normal(n * width, self.MU, self.SIGMA).reshape(n, width), rng.counter

    def check(self, seed, skip, n, width, rows, block):
        want, counter = self.whole_draw(seed, skip, n, width)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_BLOCK", block)
            # the whole draw in blocks of `block` against the default blocks
            assert self.whole_draw(seed, skip, n, width)[0].tobytes() == want.tobytes()
            rng = Rng(seed)
            rng.uniform(skip)
            out = np.full((n, width), np.nan)
            assert rng.fill_normal(out, self.MU, self.SIGMA, rows=np.array(rows, dtype=np.int64)) is out
        expected = np.full((n, width), np.nan)
        expected[rows] = want[rows]
        assert out.tobytes() == expected.tobytes()
        assert rng.counter == counter

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 30),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**64 - 1),
        skip=st.integers(0, 9),
        block=st.sampled_from([2, 3, 5, 16, 32768]),
        which=st.sampled_from(["none", "all", "some"]),
    )
    def test_rows_match_the_whole_draw(self, data, n, width, seed, skip, block, which):
        """Odd widths put a Box-Muller pair across two rows; small blocks
        split a draw into many blocks."""
        if which == "some":
            rows = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)) if n else [])
        else:
            rows = list(range(n)) if which == "all" else []
        self.check(seed, skip, n, width, rows, block)

    @pytest.mark.parametrize("width", [13, 32])
    def test_many_default_blocks(self, width):
        """A draw into half the rows that spans many default blocks."""
        n = 12000
        rows = np.flatnonzero(Rng(4).uniform(n) < 0.5)
        assert n * width > 4 * kernels._BLOCK
        self.check(21, 3, n, width, rows, kernels._BLOCK)

    def test_bad_rows(self):
        out = np.empty((4, 3))
        with pytest.raises(ShapeError):
            Rng(1).fill_normal(np.empty(4), rows=[0])
        with pytest.raises(ShapeError):
            Rng(1).fill_normal(out, rows=[[0, 1]])
        with pytest.raises(ShapeError):
            Rng(1).fill_normal(out, rows=[0.0, 1.0])
        for rows in ([1, 0], [1, 1], [-1, 2], [0, 4]):
            with pytest.raises(ParameterError):
                Rng(1).fill_normal(out, rows=rows)


class TestBatchwiseMatmul:
    """batchwise_matmul gives each row the bits of its own batch's product."""

    @staticmethod
    def _operand(rng, rows, cols, layout):
        if layout == "contiguous":
            return rng.standard_normal((rows, cols))
        if layout == "strided":
            return rng.standard_normal((rows, cols + 3))[:, 1 : cols + 1]
        return rng.standard_normal((cols, rows)).T

    @settings(max_examples=300, deadline=None)
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
