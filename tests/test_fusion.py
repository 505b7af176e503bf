"""Unit contracts for the fusion layer ops and variants."""

import numpy as np
import pytest

from memfuse.errors import ParameterError, ShapeError
from memfuse.fusion import (
    DEFAULT_SLOTS,
    MEMORY_CROSS,
    MEMORY_RESAMPLED,
    MEMORY_SINGLE,
    NAIVE,
    FusionParams,
    MemoryState,
    Variant,
    attention_keys,
    compose,
    fuse_output,
    fusion_backward,
    fusion_forward,
    fusion_input_grads,
    init_memory,
    init_params,
    naive_backward,
    naive_fusion,
    param_count_actual,
    param_count_formula,
    parse_variant,
    read_memory,
    resample_output,
    swap_concat,
    transform,
    write_memory,
)
from memfuse.kernels import Rng


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
    def test_identical_rows_give_uniform_keys(self):
        d, k = 4, 5
        params = random_params(d, 1)
        mem = MemoryState(np.tile(np.linspace(1, 2, d), (k, 1)))
        keys = attention_keys(params, np.ones(d), mem)
        np.testing.assert_allclose(keys, np.full(k, 1 / k), atol=1e-12)

    def test_single_slot(self):
        params = random_params(3, 2)
        mem = MemoryState(np.random.default_rng(0).standard_normal((1, 3)))
        np.testing.assert_array_equal(attention_keys(params, np.ones(3), mem), [1.0])

    def test_hand_scores_match_exp_normalize(self):
        d = 2
        params = zero_params(d)
        params.w_read[:] = np.eye(d)
        mem = MemoryState(np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]]))
        keys = attention_keys(params, np.array([1.0, 0.0]), mem)
        scores = np.array([10.0, 0.0, -10.0])
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        np.testing.assert_allclose(keys, expected, atol=1e-14)

    def test_dim_mismatch(self):
        params = random_params(3, 3)
        mem = MemoryState(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            attention_keys(params, np.ones(4), mem)

    def test_read_one_hot_and_uniform(self):
        mem = MemoryState(np.arange(12.0).reshape(4, 3))
        one_hot = np.array([0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(read_memory(one_hot, mem), mem.matrix[2])
        uniform = np.full(4, 0.25)
        np.testing.assert_allclose(read_memory(uniform, mem), mem.matrix.mean(axis=0), atol=1e-14)

    def test_read_weighted_sum_oracle(self):
        rng = np.random.default_rng(9)
        mem = MemoryState(rng.standard_normal((3, 2)))
        z = rng.random(3)
        z /= z.sum()
        expected = np.zeros(2)
        for j in range(3):
            for i in range(2):
                expected[i] += z[j] * mem.matrix[j, i]
        assert np.max(np.abs(read_memory(z, mem) - expected)) < 1e-14

    def test_read_length_mismatch(self):
        mem = MemoryState(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            read_memory(np.ones(4) / 4, mem)


class TestCompose:
    def test_zero_weights(self):
        d = 3
        scores, attn, gated = compose(zero_params(d), np.ones(d), np.ones(d))
        np.testing.assert_array_equal(scores, np.zeros(d))
        np.testing.assert_allclose(attn, np.full(d, 1 / d), atol=1e-15)
        np.testing.assert_array_equal(gated, np.zeros(d))

    def test_symmetric_scores(self):
        # force scores [1, 1] via the bias
        d = 2
        params = zero_params(d)
        params.b_comp[:] = 1.0
        scores, attn, gated = compose(params, np.zeros(d), np.zeros(d))
        np.testing.assert_allclose(attn, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(gated, [0.5, 0.5], atol=1e-15)

    def test_step_by_step_oracle(self):
        d = 3
        params = random_params(d, 11)
        rng = np.random.default_rng(12)
        q, m = rng.standard_normal(d), rng.standard_normal(d)
        scores, attn, gated = compose(params, q, m)
        pre = np.concatenate([q, m])
        expected_scores = pre @ params.w_comp + params.b_comp
        e = np.exp(expected_scores)
        expected_attn = e / e.sum()
        np.testing.assert_allclose(scores, expected_scores, atol=1e-13)
        np.testing.assert_allclose(attn, expected_attn, atol=1e-13)
        np.testing.assert_allclose(gated, expected_attn * expected_scores, atol=1e-13)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            compose(zero_params(3), np.ones(3), np.ones(4))


class TestTransform:
    def test_hand_case(self):
        params = zero_params(2)
        params.w_scale[:] = 2.0
        np.testing.assert_array_equal(transform(params, np.array([1.0, -1.0])), [2.0, 0.0])

    def test_zero_input(self):
        params = random_params(4, 5)
        np.testing.assert_array_equal(transform(params, np.zeros(4)), np.zeros(4))

    def test_elementwise_oracle(self):
        params = random_params(6, 6)
        c = np.random.default_rng(7).standard_normal(6)
        expected = np.array([max(0.0, c[i] * params.w_scale[i]) for i in range(6)])
        np.testing.assert_array_equal(transform(params, c), expected)


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

    def test_empty_batch(self):
        mem = MemoryState(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            write_memory(mem, np.zeros((0, 2)), np.zeros((0, 2)))


class TestFuseOutput:
    def test_memory_silent(self):
        x = np.array([1.5, -2.0])
        np.testing.assert_array_equal(fuse_output(x, np.zeros(2)), x)

    def test_hand_sum(self):
        np.testing.assert_array_equal(
            fuse_output(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [4.0, 6.0]
        )

    def test_benchmark_width(self):
        out = fuse_output(np.zeros(6848), np.zeros(6848))
        assert out.shape == (6848,)

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_output(np.zeros(3), np.zeros(4))


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
        np.testing.assert_array_equal(swap_concat([1.0], [2.0, 3.0]), [2.0, 3.0, 1.0])
        u, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        np.testing.assert_array_equal(swap_concat(u, v), np.concatenate([v, u]))

    def test_double_swap_restores_order(self):
        u, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        once = swap_concat(u, v)
        twice = swap_concat(once[: v.size], once[v.size :])
        np.testing.assert_array_equal(twice, np.concatenate([u, v]))


class TestResample:
    def test_identity_projection(self):
        o = np.arange(4.0)
        np.testing.assert_array_equal(resample_output(o, np.eye(4)), o)

    def test_swept_dims_accepted(self):
        o = np.zeros(8)
        for d_out in (512, 1024, 2048, 4096, 8192):
            out = resample_output(o, np.zeros((8, d_out)))
            assert out.shape == (d_out,)

    def test_matvec_oracle(self):
        rng = np.random.default_rng(31)
        o = rng.standard_normal(5)
        proj = rng.standard_normal((5, 3))
        expected = np.array([sum(o[i] * proj[i, j] for i in range(5)) for j in range(3)])
        np.testing.assert_allclose(resample_output(o, proj), expected, atol=1e-13)

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            resample_output(np.zeros(4), np.zeros((5, 2)))


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
