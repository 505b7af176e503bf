"""Unit contracts for the fusion layer and its variants.

The layer's equations have one implementation, the batched path, so each
equation is checked on fusion_forward's trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memfuse.errors import ParameterError, ShapeError
from memfuse.fusion import (
    DEFAULT_SLOTS,
    MEMORY,
    MEMORY_CROSS,
    MEMORY_RESAMPLED,
    MEMORY_SINGLE,
    NAIVE,
    FusionParams,
    MemoryState,
    Variant,
    fusion_backward,
    fusion_forward,
    fusion_input_grads,
    init_memory,
    init_params,
    naive_backward,
    naive_fusion,
    param_count_actual,
    param_count_formula,
    param_shapes,
    param_table,
    parse_variant,
    table_size,
    table_views,
    write_memory,
)
from memfuse.kernels import Rng
from oracle import sl_softmax


def zero_params(d):
    return FusionParams(
        w_read=np.zeros((d, d)),
        b_read=np.zeros(d),
        w_comp=np.zeros((2 * d, d)),
        b_comp=np.zeros(d),
        w_scale=np.zeros(d),
    )


def random_params(d, seed):
    return init_params(Rng(seed), d)


def forward(params, matrix, m1, m2):
    """The memory variant's fusion_forward on a memory holding `matrix`."""
    return fusion_forward(params, MemoryState(np.asarray(matrix, dtype=np.float64)), Variant(), m1, m2)


class TestVariant:
    def test_parse_spellings(self):
        assert parse_variant("memory-cross").kind == MEMORY_CROSS
        assert parse_variant("MEMORY_SINGLE", mode=2).mode == 2
        assert parse_variant("naive").kind == NAIVE

    def test_invalid(self):
        with pytest.raises(ParameterError):
            parse_variant("bogus")
        with pytest.raises(ParameterError):
            Variant(MEMORY_SINGLE, mode=3)
        with pytest.raises(ParameterError):
            Variant(MEMORY_RESAMPLED, out_dim=0)


class TestMemoryInit:
    def test_deterministic(self):
        a = init_memory(Rng(7), 3, 4)
        b = init_memory(Rng(7), 3, 4)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.writes_enabled

    def test_default_slot_count(self):
        assert DEFAULT_SLOTS == 30

    def test_entry_moments(self):
        mem = init_memory(Rng(123), 100, 1000)
        assert abs(mem.matrix.mean()) < 0.01

    def test_bad_sizes(self):
        with pytest.raises(ParameterError):
            init_memory(Rng(1), 0, 4)
        with pytest.raises(ParameterError):
            init_memory(Rng(1), 4, 0)


class TestReadPath:
    """The read half of fusion_forward's trace: keys and recalled."""

    def test_identical_rows_give_uniform_keys(self):
        d, k = 4, 5
        rng = np.random.default_rng(1)
        matrix = np.tile(np.linspace(1, 2, d), (k, 1))
        _, trace, _ = forward(random_params(d, 1), matrix, rng.standard_normal((3, 1)), rng.standard_normal((3, 3)))
        np.testing.assert_allclose(trace.keys, np.full((3, k), 1 / k), atol=1e-12)

    def test_single_slot(self):
        matrix = np.random.default_rng(0).standard_normal((1, 3))
        _, trace, _ = forward(random_params(3, 2), matrix, np.ones((2, 1)), np.ones((2, 2)))
        np.testing.assert_array_equal(trace.keys, [[1.0], [1.0]])

    def test_hand_scores_match_exp_normalize(self):
        params = zero_params(2)
        params.w_read[:] = np.eye(2)
        matrix = [[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]]
        _, trace, _ = forward(params, matrix, [[1.0]], [[0.0]])
        np.testing.assert_allclose(trace.keys, [sl_softmax([10.0, 0.0, -10.0])], atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            forward(random_params(3, 3), np.zeros((2, 3)), np.ones((1, 2)), np.ones((1, 2)))

    def test_read_one_hot_and_uniform(self):
        matrix = np.arange(12.0).reshape(4, 3)
        params = zero_params(3)
        params.b_read[:] = [1000.0, 0.0, 0.0]  # slot scores 0, 3000, 6000, 9000
        _, trace, _ = forward(params, matrix, [[1.0]], [[1.0, 1.0]])
        np.testing.assert_array_equal(trace.keys, [[0.0, 0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(trace.recalled, matrix[3:])
        params.b_read[:] = 0.0  # every slot scores 0
        _, trace, _ = forward(params, matrix, [[1.0]], [[1.0, 1.0]])
        np.testing.assert_array_equal(trace.keys, np.full((1, 4), 0.25))
        np.testing.assert_allclose(trace.recalled, [matrix.mean(axis=0)], atol=1e-14)

    def test_read_weighted_sum_oracle(self):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((3, 2))
        _, trace, _ = forward(random_params(2, 9), matrix, rng.standard_normal((4, 1)), rng.standard_normal((4, 1)))
        for b in range(4):
            expected = np.zeros(2)
            for j in range(3):
                for i in range(2):
                    expected[i] += trace.keys[b, j] * matrix[j, i]
            assert np.max(np.abs(trace.recalled[b] - expected)) < 1e-14

    def test_read_length_mismatch(self):
        # keys of another length than the slot count, where the layer takes them in
        mem = MemoryState(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            write_memory(mem, np.ones((1, 4)) / 4, np.zeros((1, 2)))


class TestCompose:
    """The composer's trace: scores, attn and gated."""

    def test_zero_weights(self):
        d = 3
        _, trace, _ = forward(zero_params(d), np.ones((2, d)), np.ones((1, 1)), np.ones((1, 2)))
        np.testing.assert_array_equal(trace.scores, np.zeros((1, d)))
        np.testing.assert_allclose(trace.attn, np.full((1, d), 1 / d), atol=1e-15)
        np.testing.assert_array_equal(trace.gated, np.zeros((1, d)))

    def test_symmetric_scores(self):
        # force scores [1, 1] via the bias
        params = zero_params(2)
        params.b_comp[:] = 1.0
        _, trace, _ = forward(params, np.ones((2, 2)), [[0.0]], [[0.0]])
        np.testing.assert_allclose(trace.attn, [[0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(trace.gated, [[0.5, 0.5]], atol=1e-15)

    def test_step_by_step_oracle(self):
        d = 3
        params = random_params(d, 11)
        rng = np.random.default_rng(12)
        _, trace, _ = forward(params, rng.standard_normal((4, d)), rng.standard_normal((2, 1)), rng.standard_normal((2, 2)))
        for b in range(2):
            pre = np.concatenate([trace.query[b], trace.recalled[b]])
            np.testing.assert_array_equal(trace.mlp_in[b], pre)
            expected_scores = pre @ params.w_comp + params.b_comp
            expected_attn = np.array(sl_softmax(expected_scores))
            np.testing.assert_allclose(trace.scores[b], expected_scores, atol=1e-13)
            np.testing.assert_allclose(trace.attn[b], expected_attn, atol=1e-13)
            np.testing.assert_allclose(trace.gated[b], expected_attn * expected_scores, atol=1e-13)

    def test_dim_mismatch(self):
        # a 3-wide layer on a 4-wide input and memory
        with pytest.raises(ShapeError):
            forward(zero_params(3), np.ones((2, 4)), np.ones((1, 1)), np.ones((1, 3)))


def hand_gate(w_scale):
    """A two-wide zero-weight layer whose composer bias makes scores
    [1, -1], so gated is [attn0, -attn1]; transformed scales it by
    `w_scale` and keeps only the first entry.  Returns (params, attn)."""
    params = zero_params(2)
    params.b_comp[:] = [1.0, -1.0]
    params.w_scale[:] = w_scale
    return params, sl_softmax([1.0, -1.0])


class TestTransform:
    """transformed = relu(gated * w_scale) on the trace."""

    def test_hand_case(self):
        params, attn = hand_gate(2.0)
        _, trace, _ = forward(params, np.ones((2, 2)), [[0.5]], [[0.5]])
        np.testing.assert_allclose(trace.transformed, [[2.0 * attn[0], 0.0]], atol=1e-15)
        assert trace.transformed[0, 1] == 0.0

    def test_zero_input(self):
        params = zero_params(4)
        params.w_scale[:] = random_params(4, 5).w_scale
        rng = np.random.default_rng(5)
        _, trace, _ = forward(params, rng.standard_normal((3, 4)), rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        np.testing.assert_array_equal(trace.gated, np.zeros((2, 4)))
        np.testing.assert_array_equal(trace.transformed, np.zeros((2, 4)))

    def test_elementwise_oracle(self):
        params = random_params(6, 6)
        rng = np.random.default_rng(7)
        _, trace, _ = forward(params, rng.standard_normal((3, 6)), rng.standard_normal((4, 2)), rng.standard_normal((4, 4)))
        expected = [[max(0.0, trace.gated[b, i] * params.w_scale[i]) for i in range(6)] for b in range(4)]
        np.testing.assert_array_equal(trace.transformed, expected)
        assert (trace.transformed == 0.0).any() and (trace.transformed > 0.0).any()


class TestWrite:
    def test_one_hot_replaces_exactly(self):
        rng = np.random.default_rng(21)
        mem = MemoryState(rng.standard_normal((4, 3)))
        before = mem.matrix.copy()
        z = np.array([[0.0, 1.0, 0.0, 0.0]])
        h = rng.standard_normal((1, 3))
        new = write_memory(mem, z, h)
        np.testing.assert_array_equal(new.matrix[1], h[0])
        for j in (0, 2, 3):
            np.testing.assert_array_equal(new.matrix[j], before[j])
        np.testing.assert_array_equal(mem.matrix, before)  # input untouched

    def test_writes_disabled_identity(self):
        rng = np.random.default_rng(22)
        mem = MemoryState(rng.standard_normal((3, 2)), writes_enabled=False)
        before = mem.matrix.copy()
        z = np.abs(rng.random((5, 3)))
        z /= z.sum(axis=1, keepdims=True)
        new = write_memory(mem, z, rng.standard_normal((5, 2)))
        assert new is mem
        np.testing.assert_array_equal(new.matrix, before)

    def test_per_row_blend_oracle(self):
        rng = np.random.default_rng(23)
        mem = MemoryState(rng.standard_normal((4, 2)))
        z = np.abs(rng.random((3, 4)))
        z /= z.sum(axis=1, keepdims=True)
        h = rng.standard_normal((3, 2))
        new = write_memory(mem, z, h)
        for j in range(4):
            erase = z[:, j].mean()
            add = np.zeros(2)
            for b in range(3):
                add += z[b, j] * h[b]
            add /= 3
            np.testing.assert_allclose(new.matrix[j], mem.matrix[j] * (1 - erase) + add, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from([MEMORY, MEMORY_CROSS, MEMORY_SINGLE]),
        s1=st.integers(1, 6),
        s2=st.integers(1, 6),
        slots=st.integers(1, 40),
        batch=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_rows_are_a_fixed_point(self, kind, s1, s2, slots, batch, seed):
        # equal rows give equal read scores, so every key is 1/k and every
        # row becomes M(1 - 1/k) + sum_b h_b / (kB): the rows stay equal,
        # to rounding (products of equal rows may round apart, about 2e-16)
        rng = Rng(seed)
        variant = Variant(kind)
        d = variant.input_dim(s1, s2)
        row = rng.split(1).normal(d)
        mem = MemoryState(np.tile(row, (slots, 1)))
        m1 = rng.split(2).normal(batch * s1).reshape(batch, s1)
        m2 = rng.split(3).normal(batch * s2).reshape(batch, s2)
        _, trace, new = fusion_forward(init_params(rng.split(4), d), mem, variant, m1, m2)
        scale = 1.0 + np.abs(row).max() + np.abs(trace.transformed).max()
        np.testing.assert_allclose(trace.keys, 1.0 / slots, rtol=1e-14)
        assert np.ptp(new.matrix, axis=0).max() <= 1e-14 * scale
        ema = row * (1.0 - 1.0 / slots) + trace.transformed.sum(axis=0) / (slots * batch)
        np.testing.assert_allclose(new.matrix, np.broadcast_to(ema, (slots, d)), rtol=0, atol=1e-14 * scale)

    def test_empty_batch(self):
        mem = MemoryState(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            write_memory(mem, np.zeros((0, 2)), np.zeros((0, 2)))


class TestFuseOutput:
    """out = fused + transformed, the residual sum."""

    def test_memory_silent(self):
        rng = np.random.default_rng(61)
        params = random_params(5, 61)
        params.w_scale[:] = 0.0
        m1, m2 = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
        out, _, _ = forward(params, rng.standard_normal((4, 5)), m1, m2)
        np.testing.assert_array_equal(out, np.concatenate([m1, m2], axis=1))

    def test_hand_sum(self):
        params, attn = hand_gate(2.0)
        out, trace, _ = forward(params, np.ones((2, 2)), [[1.0]], [[2.0]])
        np.testing.assert_array_equal(out, [[1.0 + trace.transformed[0, 0], 2.0]])
        np.testing.assert_allclose(out, [[1.0 + 2.0 * attn[0], 2.0]], atol=1e-15)


class TestNaiveAndSwap:
    def test_naive_hand(self):
        out = naive_fusion([[2.0, 3.0]], [[5.0]])
        np.testing.assert_array_equal(out, [[2.0, 3.0, 5.0]])

    def test_naive_benchmark_dims(self):
        out = naive_fusion(np.zeros((2, 2048)), np.zeros((2, 4800)))
        assert out.shape == (2, 6848)

    def test_naive_backward_slices(self):
        g = np.arange(10.0).reshape(2, 5)
        g1, g2 = naive_backward(g, 2)
        np.testing.assert_array_equal(g1, g[:, :2])
        np.testing.assert_array_equal(g2, g[:, 2:])

    def test_swap_concat(self):
        """The memory_cross query is [m2, m1], and it heads the composer input."""
        params, mem = random_params(3, 1), init_memory(Rng(2), 2, 3)
        _, trace, _ = fusion_forward(params, mem, Variant(MEMORY_CROSS), [[1.0]], [[2.0, 3.0]])
        np.testing.assert_array_equal(trace.query, [[2.0, 3.0, 1.0]])
        np.testing.assert_array_equal(trace.fused, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(trace.mlp_in[:, :3], trace.query)
        rng = np.random.default_rng(3)
        m1, m2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 1))
        _, trace, _ = fusion_forward(params, mem, Variant(MEMORY_CROSS), m1, m2)
        np.testing.assert_array_equal(trace.query, np.concatenate([m2, m1], axis=1))

    def test_double_swap_restores_order(self):
        """Cross attention on swapped modes queries with [m1, m2], as the plain layer does."""
        rng = np.random.default_rng(4)
        m1, m2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 3))
        params, mem = random_params(5, 4), init_memory(Rng(5), 3, 5)
        _, swapped, _ = fusion_forward(params, mem, Variant(MEMORY_CROSS), m2, m1)
        _, plain, _ = fusion_forward(params, mem, Variant(), m1, m2)
        np.testing.assert_array_equal(swapped.query, plain.query)
        np.testing.assert_array_equal(swapped.query, np.concatenate([m1, m2], axis=1))

    def test_lanes_take_their_own_query_order(self):
        """Stacked lanes of memory and memory_cross, given as a tuple of each
        lane's variant, match separate calls bit for bit: outputs, queries,
        written memories and both input cotangents, whose query half goes
        back through each lane's inverse order.  The lanes read one shared
        batch, and then each its own rows."""
        kinds = (MEMORY_CROSS, MEMORY, MEMORY_CROSS)
        table = param_table(param_shapes(5))
        flat = np.empty((3, table_size(table)))
        for lane, row in enumerate(flat):
            init_params(Rng(7 + lane), 5, out=row)
        stacked = FusionParams(**table_views(table, flat))
        mems = [init_memory(Rng(lane), 4, 5) for lane in range(3)]
        stacked_mem = MemoryState(np.stack([mem.matrix for mem in mems]))
        rng = np.random.default_rng(6)
        m1, m2 = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
        for inputs in ((m1, m2), (np.stack([m1] * 3), np.stack([m2] * 3))):
            out, trace, new = fusion_forward(stacked, stacked_mem, tuple(map(Variant, kinds)), *inputs)
            grad_out = rng.standard_normal(out.shape)
            grads = fusion_input_grads(stacked, trace, fusion_backward(stacked, trace, stacked_mem, grad_out))
            for lane, (kind, mem) in enumerate(zip(kinds, mems)):
                params = FusionParams(**table_views(table, flat[lane]))
                want_out, want, want_new = fusion_forward(params, mem, Variant(kind), m1, m2)
                want_grads = fusion_input_grads(params, want, fusion_backward(params, want, mem, grad_out[lane]))
                assert out[lane].tobytes() == want_out.tobytes()
                assert np.ascontiguousarray(trace.query[lane]).tobytes() == want.query.tobytes()
                assert new.matrix[lane].tobytes() == want_new.matrix.tobytes()
                for got, grad in zip(grads, want_grads):
                    assert np.ascontiguousarray(got[lane]).tobytes() == np.ascontiguousarray(grad).tobytes()

    def test_lanes_may_differ_only_in_query_order(self):
        table = param_table(param_shapes(5))
        params = FusionParams(**table_views(table, np.zeros((2, table_size(table)))))
        mem = MemoryState(np.zeros((2, 4, 5)))
        variants = (Variant(MEMORY), Variant(MEMORY_SINGLE))
        with pytest.raises(ParameterError, match="only in query order"):
            fusion_forward(params, mem, variants, np.zeros((2, 2)), np.zeros((2, 3)))


class TestResample:
    """The memory_resampled output: out = out_raw @ proj."""

    @staticmethod
    def resampled(proj, seed=31):
        rng = np.random.default_rng(seed)
        d = proj.shape[0]
        params, mem = random_params(d, seed), init_memory(Rng(seed), 3, d)
        variant = Variant(MEMORY_RESAMPLED, out_dim=proj.shape[1])
        m1, m2 = rng.standard_normal((2, 1)), rng.standard_normal((2, d - 1))
        out, trace, _ = fusion_forward(params, mem, variant, m1, m2, proj=proj)
        return out, trace

    def test_identity_projection(self):
        out, trace = self.resampled(np.eye(4))
        np.testing.assert_array_equal(out, trace.out_raw)

    def test_swept_dims_accepted(self):
        for d_out in (512, 1024, 2048, 4096, 8192):
            out, trace = self.resampled(np.zeros((8, d_out)))
            assert out.shape == (2, d_out) and trace.out_raw.shape == (2, 8)

    def test_matvec_oracle(self):
        proj = np.random.default_rng(32).standard_normal((5, 3))
        out, trace = self.resampled(proj)
        o = trace.out_raw
        expected = [[sum(o[b, i] * proj[i, j] for i in range(5)) for j in range(3)] for b in range(2)]
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_mismatch(self):
        params, mem = random_params(4, 1), init_memory(Rng(1), 3, 4)
        with pytest.raises(ShapeError):
            fusion_forward(params, mem, Variant(MEMORY_RESAMPLED, out_dim=2), np.ones((2, 2)),
                           np.ones((2, 2)), proj=np.zeros((5, 2)))


class TestParamCounts:
    def test_benchmark_delta(self):
        assert param_count_formula(512, 512, 32) == 3_180_544
        assert 14_628_867 - 11_448_323 == 3_180_544

    def test_tiny_hand_case(self):
        assert param_count_formula(1, 1, 1) == 18

    def test_large_case(self):
        assert param_count_formula(2048, 4800, 32) == 140_918_144

    def test_actual_counts(self):
        assert param_count_actual(zero_params(2)) == 18
        assert param_count_actual(zero_params(1024)) == 3_148_800

    def test_actual_is_sum_of_fields(self):
        p = random_params(7, 1)
        total = (
            p.w_read.size + p.b_read.size + p.w_comp.size + p.b_comp.size + p.w_scale.size
        )
        assert param_count_actual(p) == total

    def test_formula_matches_actual_at_batch_one(self):
        for s1, s2 in ((1, 1), (3, 5), (16, 16)):
            assert param_count_formula(s1, s2, 1) == param_count_actual(zero_params(s1 + s2))

    def test_positive_required(self):
        with pytest.raises(ParameterError):
            param_count_formula(0, 1, 1)


class TestForward:
    def test_composition_silent(self):
        # zero composer: transform output is exactly zero, so the layer
        # passes inputs through and the write only decays rows.
        d, k, batch = 5, 3, 4
        params = zero_params(d)
        params.w_scale[:] = 0.7
        params.w_read[:] = np.eye(d)
        rng = np.random.default_rng(41)
        mem = MemoryState(rng.standard_normal((k, d)))
        m1 = rng.standard_normal((batch, 2))
        m2 = rng.standard_normal((batch, 3))
        out, trace, new_mem = fusion_forward(params, mem, Variant(), m1, m2)
        np.testing.assert_array_equal(out, np.concatenate([m1, m2], axis=1))
        np.testing.assert_array_equal(trace.transformed, np.zeros((batch, d)))
        erase = trace.keys.mean(axis=0)
        np.testing.assert_allclose(new_mem.matrix, mem.matrix * (1 - erase)[:, None], atol=1e-15)

    def test_single_mode_shapes(self):
        rng = np.random.default_rng(42)
        m1 = rng.standard_normal((3, 4))
        m2 = rng.standard_normal((3, 6))
        params = random_params(4, 1)
        mem = init_memory(Rng(2), 5, 4)
        out, trace, _ = fusion_forward(params, mem, Variant(MEMORY_SINGLE, mode=1), m1, m2)
        assert out.shape == (3, 4)
        assert trace.fused.shape == (3, 4)
        params2 = random_params(6, 3)
        mem2 = init_memory(Rng(4), 5, 6)
        out2, _, _ = fusion_forward(params2, mem2, Variant(MEMORY_SINGLE, mode=2), m1, m2)
        assert out2.shape == (3, 6)

    def test_output_matches_naive_width(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            s1 = int(rng.integers(1, 9))
            s2 = int(rng.integers(1, 9))
            batch = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            m1 = rng.standard_normal((batch, s1))
            m2 = rng.standard_normal((batch, s2))
            naive_width = naive_fusion(m1, m2).shape[1]
            seed = int(rng.integers(0, 2**31))
            for variant in (Variant(), Variant(MEMORY_CROSS)):
                params = random_params(s1 + s2, seed)
                mem = init_memory(Rng(seed + 1), k, s1 + s2)
                out, _, _ = fusion_forward(params, mem, variant, m1, m2)
                assert out.shape == (batch, naive_width)

    def test_keys_normalized(self):
        rng = np.random.default_rng(44)
        for seed in range(10):
            params = random_params(6, seed)
            mem = init_memory(Rng(seed), 4, 6)
            m1 = 3 * rng.standard_normal((2, 3))
            m2 = 3 * rng.standard_normal((2, 3))
            _, trace, _ = fusion_forward(params, mem, Variant(), m1, m2)
            assert np.all(trace.keys >= 0)
            np.testing.assert_allclose(trace.keys.sum(axis=1), 1.0, atol=1e-12)

    def test_cross_attention_reduces_to_plain_on_symmetric_input(self):
        rng = np.random.default_rng(45)
        m = rng.standard_normal((3, 4))
        params = random_params(8, 9)
        mem = init_memory(Rng(10), 4, 8)
        out_plain, tr_plain, mem_plain = fusion_forward(params, mem, Variant(), m, m)
        out_cross, tr_cross, mem_cross = fusion_forward(params, mem, Variant(MEMORY_CROSS), m, m)
        np.testing.assert_array_equal(out_plain, out_cross)
        np.testing.assert_array_equal(tr_plain.scores, tr_cross.scores)
        np.testing.assert_array_equal(mem_plain.matrix, mem_cross.matrix)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(46)
        params = random_params(6, 12)
        mem = init_memory(Rng(13), 5, 6)
        m1 = rng.standard_normal((4, 2))
        m2 = rng.standard_normal((4, 4))
        out, _, new_mem = fusion_forward(params, mem, Variant(), m1, m2)
        perm = np.array([2, 0, 3, 1])
        out_p, _, new_mem_p = fusion_forward(params, mem, Variant(), m1[perm], m2[perm])
        np.testing.assert_array_equal(out_p, out[perm])
        np.testing.assert_allclose(new_mem_p.matrix, new_mem.matrix, atol=1e-12)

    def test_write_disabled_memory_constant_across_forwards(self):
        rng = np.random.default_rng(47)
        params = random_params(4, 14)
        mem = init_memory(Rng(15), 3, 4).frozen()
        before = mem.matrix.copy()
        current = mem
        for _ in range(5):
            _, _, current = fusion_forward(
                params, current, Variant(), rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            )
        np.testing.assert_array_equal(current.matrix, before)

    def test_shape_errors(self):
        params = random_params(4, 1)
        mem = init_memory(Rng(1), 3, 5)
        with pytest.raises(ShapeError):
            fusion_forward(params, mem, Variant(), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            fusion_forward(params, mem, Variant(), np.ones((2, 2)), np.ones((3, 2)))

    def test_resampled_forward_appends_projection(self):
        rng = np.random.default_rng(48)
        params = random_params(5, 16)
        mem = init_memory(Rng(17), 3, 5)
        proj = rng.standard_normal((5, 2))
        m1 = rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 3))
        out, trace, _ = fusion_forward(
            params, mem, Variant(MEMORY_RESAMPLED, out_dim=2), m1, m2, proj=proj
        )
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, trace.out_raw @ proj, atol=1e-14)
        with pytest.raises(ParameterError):
            fusion_forward(params, mem, Variant(MEMORY_RESAMPLED, out_dim=2), m1, m2)


class TestBackwardBasics:
    def test_zero_gradient_propagates_zeros(self):
        rng = np.random.default_rng(51)
        params = random_params(6, 18)
        mem = init_memory(Rng(19), 4, 6)
        m1 = rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3))
        out, trace, _ = fusion_forward(params, mem, Variant(), m1, m2)
        bwd = fusion_backward(params, trace, mem, np.zeros_like(out))
        for name in ("w_read", "b_read", "w_comp", "b_comp", "w_scale"):
            np.testing.assert_array_equal(getattr(bwd.params, name), 0.0)
        grad_m1, grad_m2 = fusion_input_grads(params, trace, bwd)
        np.testing.assert_array_equal(grad_m1, 0.0)
        np.testing.assert_array_equal(grad_m2, 0.0)

    def test_zero_composer_reduces_to_identity_path(self):
        d = 5
        params = zero_params(d)
        params.w_read[:] = np.eye(d) * 0.3
        params.w_scale[:] = 1.3
        rng = np.random.default_rng(52)
        mem = MemoryState(rng.standard_normal((3, d)))
        m1 = rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 3))
        out, trace, _ = fusion_forward(params, mem, Variant(), m1, m2)
        grad = rng.standard_normal(out.shape)
        bwd = fusion_backward(params, trace, mem, grad)
        grad_m1, grad_m2 = fusion_input_grads(params, trace, bwd)
        np.testing.assert_array_equal(grad_m1, grad[:, :2])
        np.testing.assert_array_equal(grad_m2, grad[:, 2:])

    @pytest.mark.parametrize(
        "variant",
        [Variant(), Variant(MEMORY_CROSS), Variant(MEMORY_SINGLE, mode=1),
         Variant(MEMORY_SINGLE, mode=2), Variant(MEMORY_RESAMPLED, out_dim=3)],
        ids=lambda v: f"{v.kind}{v.mode}",
    )
    def test_parameter_grads_do_not_depend_on_the_input_grads(self, variant):
        rng = np.random.default_rng(53)
        m1 = rng.standard_normal((3, 2))
        m2 = rng.standard_normal((3, 3))
        d = variant.input_dim(2, 3)
        params = random_params(d, 24)
        mem = init_memory(Rng(25), 4, d)
        proj = rng.standard_normal((d, 3)) if variant.kind == MEMORY_RESAMPLED else None
        out, trace, _ = fusion_forward(params, mem, variant, m1, m2, proj=proj)
        grad = rng.standard_normal(out.shape)

        alone = fusion_backward(params, trace, mem, grad, proj=proj)
        want = {k: v.copy() for k, v in vars(alone.params).items()}
        with_inputs = fusion_backward(params, trace, mem, grad, proj=proj)
        grad_m1, grad_m2 = fusion_input_grads(params, trace, with_inputs)
        assert grad_m1.shape == m1.shape and grad_m2.shape == m2.shape
        # written into given arrays, for example views of one flat vector
        flat = np.full(sum(v.size for v in want.values()), np.nan)
        views, start = [], 0
        for v in want.values():
            views.append(flat[start : start + v.size].reshape(v.shape))
            start += v.size
        into = fusion_backward(params, trace, mem, grad, proj=proj, out=FusionParams(*views))
        assert all(a is b for a, b in zip(vars(into.params).values(), views))
        for bwd in (alone, with_inputs, into):
            for k, v in vars(bwd.params).items():
                assert v.tobytes() == want[k].tobytes(), k
            if proj is not None:
                assert bwd.grad_proj.tobytes() == alone.grad_proj.tobytes()

    def test_trace_shape_mismatch(self):
        params = random_params(4, 20)
        mem = init_memory(Rng(21), 3, 4)
        out, trace, _ = fusion_forward(params, mem, Variant(), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            fusion_backward(params, trace, mem, np.zeros((3, 4)))

    def test_naive_has_no_trace(self):
        with pytest.raises(ParameterError):
            fusion_backward(random_params(4, 22), None, init_memory(Rng(23), 2, 4), np.zeros((1, 4)))
