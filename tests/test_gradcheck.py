"""Finite-difference oracle behavior and the layer/classifier checks."""

import dataclasses
import math

import numpy as np
import pytest

from memfuse.errors import NumericError, ParameterError
from memfuse.fusion import MEMORY_RESAMPLED, MEMORY_SINGLE, NAIVE, Variant, fusion_backward, init_params
from memfuse.gradcheck import (
    BATCH_CAP,
    DIM_CAP,
    KINK_MARGIN,
    SLOT_CAP,
    GradReport,
    LayerCheckConfig,
    central_diff,
    check_classifier,
    check_layer,
    relative_errors,
    standard_variants,
)


class TestCentralDiff:
    def test_quadratic(self):
        grad = central_diff(lambda t: t[0] ** 2, np.array([3.0]), step=1e-5)
        assert abs(grad[0] - 6.0) < 1e-8

    def test_constant(self):
        grad = central_diff(lambda t: 7.5, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_sine(self):
        grad = central_diff(lambda t: math.sin(t[0]), np.array([1.0]))
        assert abs(grad[0] - math.cos(1.0)) < 1e-9

    def test_bad_step(self):
        with pytest.raises(ParameterError):
            central_diff(lambda t: 0.0, np.array([1.0]), step=0.0)

    def test_non_finite_loss(self):
        with pytest.raises(NumericError):
            central_diff(lambda t: float("nan"), np.array([1.0]))

    def test_does_not_mutate_theta(self):
        theta = np.array([1.0, 2.0])
        central_diff(lambda t: float(t @ t), theta)
        np.testing.assert_array_equal(theta, [1.0, 2.0])


class TestRelativeErrors:
    def test_zero_vs_zero_is_zero(self):
        np.testing.assert_array_equal(relative_errors(np.zeros(3), np.zeros(3)), 0.0)

    def test_scale_free(self):
        rel = relative_errors(np.array([100.0]), np.array([101.0]))
        np.testing.assert_allclose(rel, [1.0 / 101.0])


class TestCheckLayer:
    def test_zero_like_config_handles_exact_zeros(self):
        # dead ReLU channels must agree exactly on both sides
        rep = check_layer(LayerCheckConfig(variant=Variant()), seed=0)
        assert rep.passed
        assert "w_scale" in rep.blocks

    def test_zero_weight_config_passes_trivially(self):
        # all-zero parameters: every parameter gradient is exactly zero
        # analytically, and the loss is bit-identical under perturbation,
        # so the relative error is exactly zero
        import numpy as np

        from memfuse.fusion import FusionParams, fusion_forward, init_memory, param_shapes
        from memfuse.kernels import Rng
        from memfuse.model import param_table, table_views

        d = 4
        table = param_table(param_shapes(d))
        assert list(table) == [f.name for f in dataclasses.fields(FusionParams)]
        flat = np.zeros(3 * d * d + 3 * d)
        params = FusionParams(**table_views(table, flat))
        mem = init_memory(Rng(3), 3, d)
        rng = Rng(4)
        m1 = rng.normal(2 * 2).reshape(2, 2)
        m2 = rng.normal(2 * 2).reshape(2, 2)
        out, trace, _ = fusion_forward(params, mem, Variant(), m1, m2)
        bwd = fusion_backward(params, trace, mem, 2.0 * out)

        def loss_fn(theta):
            trial = FusionParams(**table_views(table, theta))
            o = fusion_forward(trial, mem, Variant(), m1, m2)[0]
            return float(np.sum(o * o))

        fd = table_views(table, central_diff(loss_fn, flat))
        for name in table:
            np.testing.assert_array_equal(getattr(bwd.params, name), 0.0)
            np.testing.assert_array_equal(fd[name], 0.0)
            np.testing.assert_array_equal(relative_errors(getattr(bwd.params, name), fd[name]), 0.0)

    def test_all_variants_pass(self):
        for variant in standard_variants():
            rep = check_layer(LayerCheckConfig(variant=variant), seed=7)
            assert rep.passed, (variant.kind, rep.max_rel, rep.worst_block())

    def test_hundred_seeds_plain_variant(self):
        for seed in range(100):
            rep = check_layer(LayerCheckConfig(), seed=seed)
            assert rep.passed, (seed, rep.max_rel)

    def test_caps_enforced(self):
        with pytest.raises(ParameterError):
            LayerCheckConfig(s1=10, s2=10)
        with pytest.raises(ParameterError):
            LayerCheckConfig(slots=SLOT_CAP + 1)
        with pytest.raises(ParameterError):
            LayerCheckConfig(batch=BATCH_CAP + 1)
        # single-mode dim counts only the active side
        cfg = LayerCheckConfig(s1=12, s2=4, variant=Variant(MEMORY_SINGLE, mode=1))
        assert cfg.layer_dim == 12 <= DIM_CAP

    def test_kink_margin_forces_resample(self, monkeypatch):
        # every configuration that reaches the backward pass is clear of the ReLU kinks
        import memfuse.gradcheck

        traces, draws = [], []

        def recording(params, trace, *args, **kwargs):
            traces.append(trace)
            return fusion_backward(params, trace, *args, **kwargs)

        def drawing(*args, **kwargs):  # each draw of a layer case inits its parameters once
            draws.append(args)
            return init_params(*args, **kwargs)

        monkeypatch.setattr(memfuse.gradcheck, "fusion_backward", recording)
        monkeypatch.setattr(memfuse.gradcheck, "init_params", drawing)
        # seed 11 takes its first draw; seed 24's first draw sits on a kink
        # and is redrawn before its backward pass
        for seed, tries in ((11, 1), (24, 2)):
            traces.clear()
            draws.clear()
            rep = check_layer(LayerCheckConfig(), seed=seed)
            assert rep.passed and len(draws) == tries and len(traces) == 1
            for trace in traces:
                assert np.abs(trace.pre_act).min() >= KINK_MARGIN >= 1e-7

    def test_report_serializes(self):
        rep = check_layer(LayerCheckConfig(variant=Variant(NAIVE)), seed=3)
        assert rep.passed
        assert set(rep.blocks) == {"m1", "m2"}

    def test_resampled_includes_projection_block(self):
        rep = check_layer(
            LayerCheckConfig(variant=Variant(MEMORY_RESAMPLED, out_dim=4)), seed=5
        )
        assert rep.passed
        assert "proj" in rep.blocks


class TestCheckClassifier:
    def test_all_variants(self):
        for variant in standard_variants():
            rep = check_classifier(seed=2, variant=variant)
            assert rep.passed, (variant.kind, rep.max_rel, rep.worst_block())

    def test_multiple_seeds_plain(self):
        for seed in range(5):
            assert check_classifier(seed=seed).passed


class TestGradReport:
    def test_worst_block(self):
        from memfuse.gradcheck import BlockReport

        rep = GradReport(
            passed=False,
            blocks={
                "a": BlockReport(1e-7, 0),
                "b": BlockReport(3e-4, 2),
            },
        )
        assert rep.worst_block() == "b"
        assert rep.max_rel == 3e-4
