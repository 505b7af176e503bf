"""Classifier, optimizer, and training-loop contracts."""

import collections
import copy
import gc
import hashlib
import importlib
import pickle
import re
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import memfuse
from memfuse.errors import NumericError, ParameterError, ShapeError
from memfuse.fusion import MemoryState
from memfuse.gradcheck import central_diff
from memfuse.kernels import Rng
from memfuse.model import (
    ClassifierConfig,
    ModelParams,
    adam_step,
    build_state,
    cross_entropy_batch,
    encode,
    evaluate,
    fit,
    forward_logits,
    forward_split,
    head_forward,
    loss_and_grads,
    train_epoch,
)
from memfuse.synthdata import TaskConfig, gen_dataset, stack
from oracle import per_batch_forward


def tiny_config(**overrides):
    base = dict(
        variant="memory",
        encoder_hidden=0,
        head_hidden=8,
        classes=3,
        dropout_rate=0.0,
        slots=4,
        lr=1e-3,
        batch=4,
        epochs=2,
        seed=5,
    )
    base.update(overrides)
    return ClassifierConfig(**base)


def tiny_data(n=64, seed=3, s1=4, s2=4, classes=3):
    rng = Rng(seed)
    m1 = rng.normal(n * s1).reshape(n, s1)
    m2 = rng.normal(n * s2).reshape(n, s2)
    y = rng.integers(n, classes)
    return m1, m2, y


class TestEncode:
    def test_identity_when_disabled(self):
        state = build_state(tiny_config(encoder_hidden=0), 4, 4)
        m1, m2, _ = tiny_data()
        e1, e2, p1, p2 = encode(state.params, m1, m2)
        np.testing.assert_array_equal(e1, m1)
        np.testing.assert_array_equal(e2, m2)
        assert p1 is None and p2 is None

    def test_zero_weights_zero_features(self):
        state = build_state(tiny_config(encoder_hidden=6), 4, 4)
        state.params.enc1_w[:] = 0.0
        state.params.enc1_b[:] = 0.0
        m1, m2, _ = tiny_data()
        e1, _, _, _ = encode(state.params, m1, m2)
        np.testing.assert_array_equal(e1, np.zeros((64, 6)))

    def test_matches_matvec_relu_oracle(self):
        state = build_state(tiny_config(encoder_hidden=5), 4, 4)
        m1, m2, _ = tiny_data(n=8)
        e1, e2, _, _ = encode(state.params, m1, m2)
        for b in range(8):
            want = np.maximum(m1[b] @ state.params.enc1_w + state.params.enc1_b, 0.0)
            np.testing.assert_allclose(e1[b], want, atol=1e-14)


class TestHead:
    def test_zero_weights_uniform_distribution(self):
        state = build_state(tiny_config(), 4, 4)
        for name in ("head1_w", "head1_b", "head2_w", "head2_b"):
            getattr(state.params, name)[:] = 0.0
        logits, _, _, _ = head_forward(state.params, np.ones((2, 8)))
        probs = np.exp(logits[0]) / np.exp(logits[0]).sum()
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-15)

    def test_no_dropout_mask_passthrough(self):
        state = build_state(tiny_config(dropout_rate=0.0), 4, 4)
        fused = np.random.default_rng(1).standard_normal((3, 8))
        _, _, hid, hid_dropped = head_forward(state.params, fused)
        np.testing.assert_array_equal(hid, hid_dropped)

    def test_straight_line_oracle(self):
        state = build_state(tiny_config(), 4, 4)
        p = state.params
        fused = np.random.default_rng(2).standard_normal(8)
        logits, _, _, _ = head_forward(p, fused)
        hid = np.maximum(fused @ p.head1_w + p.head1_b, 0.0)
        want = hid @ p.head2_w + p.head2_b
        np.testing.assert_allclose(logits[0], want, atol=1e-13)


class TestCrossEntropy:
    def test_uniform_logits_log4(self):
        loss, _ = cross_entropy_batch(np.zeros((1, 4)), [1])
        np.testing.assert_allclose(loss, np.log(4.0), atol=1e-14)

    def test_peaked_logits_near_zero_loss(self):
        logits = np.array([[20.0, 0.0, 0.0]])
        loss, _ = cross_entropy_batch(logits, [0])
        assert loss < 1e-8

    def test_gradient_against_central_diff(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal(5)
        label = 3
        _, grad = cross_entropy_batch(logits[None], [label])
        fd = central_diff(lambda t: cross_entropy_batch(t[None], [label])[0], logits)
        assert grad.shape == (1, 5)
        assert np.max(np.abs(grad[0] - fd)) < 1e-7

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            cross_entropy_batch(np.zeros((1, 3)), [3])
        with pytest.raises(ParameterError):
            cross_entropy_batch(np.zeros((2, 3)), np.array([0, 5]))

    def test_non_whole_labels_are_refused(self):
        # the int64 cast would read [2.9, 0.1] as [2, 0]
        with pytest.raises(ParameterError, match="whole numbers"):
            cross_entropy_batch(np.zeros((2, 3)), [2.9, 0.1])
        with pytest.raises(ParameterError, match="whole numbers"):
            cross_entropy_batch(np.zeros((1, 3)), np.array([np.inf]))
        whole = cross_entropy_batch(np.eye(3)[:2], np.array([2.0, 0.0]))
        ints = cross_entropy_batch(np.eye(3)[:2], np.array([2, 0]))
        assert whole[0] == ints[0] and whole[1].tobytes() == ints[1].tobytes()

    def test_empty_batch_is_refused_without_a_warning(self):
        # the mean over no rows would be a NaN loss with a divide warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for labels in (np.zeros(0, dtype=np.int64), []):
                with pytest.raises(ParameterError, match="empty batch"):
                    cross_entropy_batch(np.zeros((0, 3)), labels)

    def test_batch_matches_single_mean(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        loss_b, grad_b = cross_entropy_batch(logits, labels)
        losses, grads = [], []
        for row, label in zip(logits, labels):
            probs = np.exp(row - row.max())
            probs /= probs.sum()
            losses.append(-np.log(probs[label]))
            grads.append(probs - np.eye(3)[label])
        np.testing.assert_allclose(loss_b, np.mean(losses), atol=1e-12)
        np.testing.assert_allclose(grad_b, np.stack(grads) / 4, atol=1e-12)


def zero_grads(state):
    """Zero gradients in the state's parameter layout."""
    return ModelParams(np.zeros_like(state.params.flat), state.params.table)


class TestAdam:
    def test_zero_grads_leave_params(self):
        state = build_state(tiny_config(), 4, 4)
        named = state.params.named()
        before = {k: v.copy() for k, v in named.items()}
        # nonzero second moments decay; zero first moments keep the
        # update at exactly zero
        for v in state.adam_v.values():
            v += 0.5
        adam_step(state, zero_grads(state))
        for k, v in state.params.named().items():
            np.testing.assert_array_equal(v, before[k])
        for v in state.adam_v.values():
            np.testing.assert_allclose(v, 0.999 * 0.5, atol=1e-15)
        for v in state.adam_m.values():
            np.testing.assert_array_equal(v, 0.0)

    def test_first_step_moves_by_lr(self):
        state = build_state(tiny_config(lr=0.01), 4, 4)
        theta0 = float(state.params.head2_b[0])
        grads = zero_grads(state)
        grads["head2_b"][0] = 3.7  # any positive value: first step is sign-scaled
        adam_step(state, grads)
        moved = float(state.params.head2_b[0]) - theta0
        np.testing.assert_allclose(moved, -0.01, rtol=1e-6)

    def test_quadratic_descent(self):
        state = build_state(tiny_config(lr=0.1), 4, 4)
        state.params.head2_b[0] = 1.0
        history = [1.0]
        for _ in range(10):
            grads = zero_grads(state)
            grads["head2_b"][0] = 2.0 * state.params.head2_b[0]
            adam_step(state, grads)
            history.append(abs(float(state.params.head2_b[0])))
        assert all(b < a for a, b in zip(history, history[1:]))


class TestParamLayout:
    def _state(self):
        # encoders, two fusion layers and a full head: every kind of block
        return build_state(tiny_config(variant="memory_single", encoder_hidden=3), 4, 4)

    def test_blocks_tile_one_vector(self):
        state = self._state()
        p = state.params
        assert list(p.table) == [
            "enc1_w", "enc1_b", "enc2_w", "enc2_b",
            *(f"fusion{i}.{f}" for i in (0, 1)
              for f in ("w_read", "b_read", "w_comp", "b_comp", "w_scale")),
            "head1_w", "head1_b", "head2_w", "head2_b",
        ]
        end = 0
        for name, (offset, shape) in p.table.items():
            assert offset == end, name
            end += int(np.prod(shape))
        assert end == p.flat.size == state.m_flat.size == state.v_flat.size
        views = list(p.named().values()) + [p.head1_w, p.enc2_b]
        views += [getattr(fp, f) for fp in p.fusion_layers for f in vars(fp)]
        assert all(np.shares_memory(v, p.flat) for v in views)

    def test_copies_keep_views_tied_to_the_copy(self):
        # numpy alone does not: a deep-copied (base, view) pair loses the link
        base = np.zeros(4)
        pair = copy.deepcopy({"base": base, "view": base[:2]})
        pair["base"][0] = 1.0
        assert pair["view"][0] == 0.0

        state = self._state()
        flat, m, v = state.params.flat.copy(), state.m_flat.copy(), state.v_flat.copy()
        named = {k: a.copy() for k, a in state.params.named().items()}
        clone = copy.deepcopy(state)
        m1, m2, y = tiny_data(n=4)
        _, grads, _ = loss_and_grads(clone, m1, m2, y)
        adam_step(clone, grads)

        cp = clone.params
        lr = clone.config.lr
        for k, a in cp.named().items():
            g = grads[k]
            want_m = (1.0 - 0.9) * g
            want_v = (1.0 - 0.999) * g * g
            want = named[k] - lr * (want_m / (1.0 - 0.9)) / (np.sqrt(want_v / (1.0 - 0.999)) + 1e-8)
            assert np.shares_memory(a, cp.flat) and not np.shares_memory(a, state.params.flat)
            np.testing.assert_array_equal(a, want)
            np.testing.assert_array_equal(clone.adam_m[k], want_m)
            np.testing.assert_array_equal(clone.adam_v[k], want_v)
        for keys, fp in zip(cp.fusion_keys, cp.fusion_layers):
            for key, f in zip(keys, vars(fp)):
                assert key.endswith("." + f)
                assert np.shares_memory(getattr(fp, f), cp.flat)
                np.testing.assert_array_equal(getattr(fp, f), cp.named()[key])
        assert not np.array_equal(cp.fusion_layers[1].w_comp, named["fusion1.w_comp"])
        assert clone.step == 1

        unpickled = pickle.loads(pickle.dumps(clone)).params
        assert unpickled.flat.tobytes() == cp.flat.tobytes()
        assert all(np.shares_memory(a, unpickled.flat) for a in unpickled.named().values())

        assert state.step == 0
        assert state.params.flat.tobytes() == flat.tobytes()
        assert state.m_flat.tobytes() == m.tobytes() and state.v_flat.tobytes() == v.tobytes()
        for k, a in state.params.named().items():
            assert a.tobytes() == named[k].tobytes()

    def test_grad_shape_mismatch_raises(self):
        state = build_state(tiny_config(), 4, 4)
        table = dict(state.params.table)
        offset, shape = table["head2_w"]
        table["head2_w"] = (offset, shape[::-1])
        assert shape[0] != shape[1]
        with pytest.raises(ShapeError):
            adam_step(state, ModelParams(np.zeros_like(state.params.flat), table))


class TestGradientVector:
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_single", "memory_resampled"])
    def test_grads_are_views_of_the_state_vector_and_the_next_backward_overwrites_them(self, variant):
        state = build_state(tiny_config(variant=variant, out_dim=3, encoder_hidden=3), 4, 4)
        m1, m2, y = tiny_data(n=8)
        # NaN everywhere first: a block the backward forgot to write would stay NaN
        state.grads.flat[:] = np.nan
        _, grads, _ = loss_and_grads(state, m1[:4], m2[:4], y[:4])
        assert grads is state.grads and grads.table is state.params.table
        assert all(np.shares_memory(g, state.grads.flat) for g in grads.named().values())
        assert np.isfinite(grads.flat).all()
        first = {k: g.copy() for k, g in grads.named().items()}

        # the same batch on a fresh copy gives the same bits; another batch overwrites every block
        again = loss_and_grads(copy.deepcopy(state), m1[:4], m2[:4], y[:4])[1]
        assert again.flat.tobytes() == grads.flat.tobytes()
        _, later, _ = loss_and_grads(state, m1[4:], m2[4:], y[4:])
        assert later is grads
        for k, g in grads.named().items():
            assert not np.array_equal(g, first[k]), k

    def test_adam_leaves_the_gradients_unchanged(self):
        # callers may read the gradients again after the update
        state = build_state(tiny_config(lr=0.01), 4, 4)
        m1, m2, y = tiny_data(n=4)
        _, grads, _ = loss_and_grads(state, m1, m2, y)
        g = grads.flat.copy()
        adam_step(state, grads)
        assert grads.flat.tobytes() == g.tobytes()
        assert not np.array_equal(state.m_flat, 0.0)

    def test_one_layer_output_is_passed_on_without_a_copy(self):
        state = build_state(tiny_config(), 4, 4)
        m1, m2, _ = tiny_data(n=4)
        _, cache = forward_logits(state.config, state.params, state.memories, m1, m2)
        assert cache.fused_out is cache.traces[0].out


class TestTrainEpoch:
    @pytest.mark.parametrize("bad", [3, -1])
    def test_out_of_range_label_raises_before_the_first_step(self, bad):
        state = build_state(tiny_config(), 4, 4)
        m1, m2, y = tiny_data()
        y = y.copy()
        y[-1] = bad  # in the last batch
        flat, memory = state.params.flat.copy(), state.memories[0].matrix.copy()
        with pytest.raises(ParameterError, match="label out of range"):
            train_epoch(state, (m1, m2, y))
        assert state.step == 0
        assert state.params.flat.tobytes() == flat.tobytes()
        assert state.memories[0].matrix.tobytes() == memory.tobytes()

    def test_lr_zero_keeps_params(self):
        state = build_state(tiny_config(lr=0.0), 4, 4)
        before = {k: v.copy() for k, v in state.params.named().items()}
        state, loss = train_epoch(state, tiny_data())
        assert np.isfinite(loss)
        for k, v in state.params.named().items():
            np.testing.assert_array_equal(v, before[k])

    def test_bit_deterministic(self):
        cfg = tiny_config(dropout_rate=0.3, epochs=3)
        data = tiny_data()
        losses = []
        finals = []
        for _ in range(2):
            state = build_state(cfg, 4, 4)
            curves, _ = fit(state, data)
            losses.append([c["train_loss"] for c in curves])
            finals.append({k: v.copy() for k, v in state.params.named().items()})
        assert losses[0] == losses[1]
        for k in finals[0]:
            np.testing.assert_array_equal(finals[0][k], finals[1][k])

    def test_loss_improves_on_separable_task(self):
        task = TaskConfig(
            s1=6, s2=6, classes=3, regimes=3, regime_period=8,
            occlusion_prob=0.0, noise_sigma=0.1, length=600, seed=2,
        )
        data = stack(gen_dataset(task))
        cfg = tiny_config(epochs=1, batch=8, lr=3e-3)
        state = build_state(cfg, 6, 6)
        _, first = train_epoch(state, data)
        for _ in range(4):
            _, last = train_epoch(state, data)
        assert last < first

    def test_dropped_tail_rule(self):
        cfg = tiny_config(batch=10)
        state = build_state(cfg, 4, 4)
        data = tiny_data(n=37)
        state, _ = train_epoch(state, data)
        assert state.step == 3  # floor(37 / 10) optimizer updates

    def test_empty_and_undersized(self):
        state = build_state(tiny_config(batch=100), 4, 4)
        with pytest.raises(ParameterError):
            train_epoch(state, tiny_data(n=50))


class TestEvaluate:
    def _state_with_onehot_readout(self):
        # naive fusion, identity encoder: craft head weights so the
        # logits are exactly the mode-2 features
        cfg = tiny_config(variant="naive", head_hidden=3, classes=3)
        state = build_state(cfg, 4, 3)
        p = state.params
        p.head1_w[:] = 0.0
        p.head1_w[4:, :] = np.eye(3)  # pick out m2
        p.head1_b[:] = 0.0
        p.head2_w[:] = np.eye(3)
        p.head2_b[:] = 0.0
        return state

    def test_perfect_predictor(self):
        state = self._state_with_onehot_readout()
        n = 30
        rng = np.random.default_rng(8)
        y = np.arange(n) % 3
        m2 = np.eye(3)[y] * 5.0
        m1 = rng.standard_normal((n, 4))
        rep = evaluate(state, (m1, m2, y))
        assert rep.wa == 1.0 and rep.ua == 1.0

    def test_constant_predictor_on_balanced_set(self):
        state = self._state_with_onehot_readout()
        state.params.head1_w[:] = 0.0
        state.params.head2_b[:] = np.array([1.0, 0.0, 0.0])
        n = 30
        y = np.arange(n) % 3
        m1 = np.zeros((n, 4))
        m2 = np.zeros((n, 3))
        rep = evaluate(state, (m1, m2, y))
        np.testing.assert_allclose(rep.wa, 1 / 3)
        np.testing.assert_allclose(rep.ua, 1 / 3)

    def test_random_model_matches_hand_tally(self):
        cfg = tiny_config(variant="naive")
        state = build_state(cfg, 4, 4)
        m1, m2, y = tiny_data(n=40)
        rep = evaluate(state, (m1, m2, y))
        logits, _ = forward_logits(cfg, state.params, [], m1, m2)
        preds = np.argmax(logits, axis=1)
        tally = np.zeros((3, 3), dtype=int)
        for t, p in zip(y, preds):
            tally[t, p] += 1
        np.testing.assert_array_equal(rep.confusion, tally)

    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled"])
    def test_eval_does_not_disturb_training_memory(self, variant, freeze):
        # evaluate hands the state's own memories to forward_split, with no copy
        cfg = tiny_config(variant=variant, out_dim=3, freeze_eval_writes=freeze)
        state = build_state(cfg, 4, 4)
        memories = list(state.memories)
        before = [(m.matrix, m.matrix.tobytes(), m.writes_enabled) for m in memories]
        evaluate(state, tiny_data(n=20))
        assert len(state.memories) == len(memories)
        for mem, kept, (matrix, data, writes) in zip(state.memories, memories, before):
            assert mem is kept and mem.matrix is matrix
            assert mem.matrix.tobytes() == data and mem.writes_enabled == writes

    def test_freeze_writes_flag(self):
        cfg = tiny_config(variant="memory", freeze_eval_writes=True)
        state = build_state(cfg, 4, 4)
        r1 = evaluate(state, tiny_data(n=24))
        r2 = evaluate(state, tiny_data(n=24))
        assert r1.wa == r2.wa
        np.testing.assert_array_equal(r1.confusion, r2.confusion)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_raise(self, bad):
        # argmax would read a NaN row as a prediction of class 0
        state = build_state(tiny_config(variant="memory"), 4, 4)
        state.params.head2_b[1] = bad
        with pytest.raises(NumericError, match="sample 0 of 24"):
            evaluate(state, tiny_data(n=24))

    def test_non_finite_logits_named_by_first_sample(self, monkeypatch):
        state = self._state_with_onehot_readout()
        m1, m2, y = np.zeros((9, 4)), np.zeros((9, 3)), np.arange(9) % 3
        _nan_logits(monkeypatch, {id(m1): 6})
        with pytest.raises(NumericError, match="sample 6 of 9"):
            evaluate(state, (m1, m2, y))


class TestVariantsTrain:
    @pytest.mark.parametrize(
        "variant,extra",
        [
            ("naive", {}),
            ("memory", {}),
            ("memory-cross", {}),
            ("memory-single", {}),
            ("memory-resampled", {"out_dim": 6}),
        ],
    )
    def test_short_training_runs(self, variant, extra):
        cfg = tiny_config(variant=variant, epochs=1, **extra)
        state = build_state(cfg, 4, 4)
        state, loss = train_epoch(state, tiny_data(n=32))
        assert np.isfinite(loss)
        rep = evaluate(state, tiny_data(n=16, seed=9))
        assert 0.0 <= rep.wa <= 1.0

    def test_memory_persists_across_epochs_by_default(self):
        cfg = tiny_config(variant="memory", epochs=2)
        state = build_state(cfg, 4, 4)
        data = tiny_data()
        train_epoch(state, data)
        after_first = state.memories[0].matrix.copy()
        train_epoch(state, data)
        assert not np.array_equal(state.memories[0].matrix, after_first)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ParameterError):
            tiny_config(classes=1)
        with pytest.raises(ParameterError):
            tiny_config(dropout_rate=1.0)
        with pytest.raises(ParameterError):
            tiny_config(lr=-0.1)
        with pytest.raises(ParameterError):
            tiny_config(variant="memory-resampled")  # missing out_dim
        with pytest.raises(ParameterError):
            tiny_config(variant="nonsense")

    def test_spelling_normalized(self):
        cfg = tiny_config(variant="Memory-Cross")
        assert cfg.variant == "memory_cross"


class TestLayerVariants:
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled"])
    def test_equal_lists_across_calls(self, variant):
        cfg = tiny_config(variant=variant, out_dim=3)
        first = cfg.layer_variants()
        assert first == cfg.layer_variants() == tiny_config(variant=variant, out_dim=3).layer_variants()
        assert len(first) == {"naive": 0, "memory_single": 2}.get(variant, 1)
        assert all(v.kind == variant for v in first)

    def test_mutating_the_returned_list_does_not_leak(self):
        cfg = tiny_config(variant="memory_single")
        got = cfg.layer_variants()
        got.clear()
        assert [v.mode for v in cfg.layer_variants()] == [1, 2]

    def test_follows_the_config_fields(self):
        cfg = tiny_config(variant="memory_resampled", out_dim=3)
        assert cfg.layer_variants()[0].out_dim == 3
        cfg.out_dim = 5
        assert cfg.layer_variants()[0].out_dim == 5


class TestStepCallBudget:
    """A deterministic guard on the per-step Python work of the training loop.

    Counts calls into memfuse's own Python functions over one paper-shape
    epoch (d = 8, batch 2, k = 20) with sys.setprofile; no timing, so it
    cannot flake.  A wrapper or helper added to the step raises the count
    and fails this test; lower the budget when a change removes calls.
    """

    # per batch: forward_logits, encode, fusion_forward, _layer_inputs,
    # _memory_chain, softmax_rows x2, _layer_output, write_memory,
    # _head_input, head_forward, cross_entropy_batch, backward_batch,
    # fusion_backward, _softmax_vjp x2, adam_step, and seven as_batch
    # input checks; the layer variants come from the cached table,
    # softmax_rows checks a float64 matrix inline, and the identity
    # encoder leaves the modes to the layers' own checks
    PER_STEP = 24
    PER_EPOCH = 2  # train_epoch itself and checked_dataset

    def test_paper_shape_epoch_stays_within_budget(self):
        cfg = tiny_config(variant="memory", slots=20, batch=2, head_hidden=32,
                          read_bias_init=0.0, transform_gain=1.0)
        state = build_state(cfg, 4, 4)
        data = tiny_data(n=200)
        package = str(Path(memfuse.__file__).parent)
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            train_epoch(state, data)
        finally:
            sys.setprofile(None)
        steps = 200 // cfg.batch
        assert calls.count("forward_logits") == steps
        assert len(calls) <= self.PER_STEP * steps + self.PER_EPOCH, collections.Counter(calls)


class TestTracedCallTree:
    """Each training step calls every traced layer once, through its module
    attribute (softmax_rows twice, once per softmax of the layer).

    The benchmark's traced run swaps these names, in every memfuse module
    that refers to them, for timing wrappers, and aborts when one of them
    sees no call; so a step that bound one of them early (as a default
    argument or a closure) would break it.  This swaps them the same way
    for counting wrappers over a short paper-shape epoch.
    """

    PER_STEP = {
        ("memfuse.model", "forward_logits"): 1,
        ("memfuse.fusion", "fusion_forward"): 1,
        ("memfuse.kernels", "softmax_rows"): 2,
        ("memfuse.fusion", "write_memory"): 1,
        ("memfuse.model", "cross_entropy_batch"): 1,
        ("memfuse.model", "backward_batch"): 1,
        ("memfuse.fusion", "fusion_backward"): 1,
        ("memfuse.model", "adam_step"): 1,
    }

    def test_every_traced_name_is_called_each_step(self, monkeypatch):
        counts = collections.Counter()
        for module, attr in self.PER_STEP:
            orig = getattr(importlib.import_module(module), attr)

            def counting(*args, _orig=orig, _attr=attr, **kwargs):
                counts[_attr] += 1
                return _orig(*args, **kwargs)

            for name, mod in list(sys.modules.items()):
                if name == "memfuse" or name.startswith("memfuse."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            monkeypatch.setattr(mod, key, counting)
        cfg = tiny_config(variant="memory", slots=20, batch=2, head_hidden=32,
                          read_bias_init=0.0, transform_gain=1.0)
        state = build_state(cfg, 4, 4)
        memfuse.model.train_epoch(state, tiny_data(n=40))
        steps = 40 // cfg.batch
        assert dict(counts) == {attr: n * steps for (_, attr), n in self.PER_STEP.items()}


class TestBuildStateCallBudget:
    """A deterministic guard on the Python work of building a run's state.

    Counts every Python-level call event (memfuse, numpy and the standard
    library alike) with sys.setprofile over one build_state at the paper
    shape (d = 8, k = 20, head 32); no timing, so it cannot flake.  The
    table is laid out from shapes, each random stream is one draw into
    the flat vector and a split mixes Python ints, which took the count
    from 151 to 67 for `memory` and from 214 to 92 for `memory_single`.
    The garbage collector is off while counting, as in
    TestLockstepCallBudget.
    """

    BUDGET = {"memory": 67, "memory_single": 92}

    @pytest.mark.parametrize("variant", sorted(BUDGET))
    def test_paper_shape_build_stays_within_budget(self, variant):
        cfg = tiny_config(variant=variant, slots=20, batch=2, head_hidden=32,
                          read_bias_init=0.0, transform_gain=1.0)
        build_state(cfg, 4, 4)  # first calls may fill caches
        calls = []

        def count(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        # a collection would count the calls of whatever gc.callbacks hold
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(count)
        try:
            build_state(cfg, 4, 4)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        assert "flatten" not in calls
        assert len(calls) <= self.BUDGET[variant], collections.Counter(calls)


class TestPinnedState:
    """sha256 of what build_state draws: the parameter vector, mem_seed,
    every memory matrix and the dropout stream's first draw, as taken
    before the parameters were drawn straight into the flat vector.
    Laying the table out from shapes and drawing each stream with one
    counter range must leave every bit as it was."""

    PLAIN = dict(read_bias_init=0.0, transform_gain=1.0)

    @pytest.mark.parametrize("overrides, digest", [
        (dict(variant="naive", **PLAIN), "644d052cfcc22e09859107a82f02e5563b9915d66290dbaf23118aa7cc131f11"),
        (dict(variant="memory", **PLAIN), "226e5c3afd23412f54cf205cb0ee0d90d4881aa206b2f7549e1e4a8b8292c7dd"),
        # same layout and streams as memory
        (dict(variant="memory_cross", **PLAIN), "226e5c3afd23412f54cf205cb0ee0d90d4881aa206b2f7549e1e4a8b8292c7dd"),
        (dict(variant="memory_single", **PLAIN), "3d4fdd28e72f334490f55e6232039fc45cda0f52924a1df59652d48d3df378ee"),
        (dict(variant="memory_resampled", out_dim=3, **PLAIN),
         "d9a3020e99fe263d592097f6fdeaed45b96a9939d6197abb36976016d6bb5521"),
        # encoders and the default warm start (read bias 32, transform gain 16)
        (dict(variant="memory_single", encoder_hidden=3),
         "db84ea969932f86c201b412d681ddc15eeb1ae8bb0f8149086477bebdacb69ea"),
    ], ids=["naive", "memory", "memory_cross", "memory_single", "memory_resampled", "encoders_warm_start"])
    def test_state_bits(self, overrides, digest):
        cfg = ClassifierConfig(**{**dict(head_hidden=8, classes=3, slots=4, batch=4, seed=5), **overrides})
        state = build_state(cfg, 5, 3)
        h = hashlib.sha256(state.params.flat.tobytes())
        h.update(state.mem_seed.to_bytes(8, "little"))
        for mem in state.memories:
            h.update(mem.matrix.tobytes())
        h.update(state.drop_rng.uniform(cfg.batch * cfg.head_hidden).tobytes())
        assert h.hexdigest() == digest


class TestPinnedTraining:
    """sha256 of what two epochs of training leave behind: the parameter
    vector, Adam's two moments, every memory matrix and the epoch losses,
    on a 120-row paper-shape stream (d = 8, batch 2, k = 20, head 32).
    The digests were taken before the training step lost its per-step
    glue, on numpy 2.4.6 with OpenBLAS 0.3.31 (x86-64); another BLAS
    build may change the last bits and so the digests.  A change to the
    step must leave every bit as it was."""

    PLAIN = dict(read_bias_init=0.0, transform_gain=1.0)

    @pytest.mark.parametrize("overrides, digest", [
        (dict(variant="naive", **PLAIN), "901c7e67b141a372161d08558d942c8d0644d6a358ea326229d1264e613bffe5"),
        (dict(variant="memory", **PLAIN), "d959de4cdd99710a99c1a514f398dfb00d43e23b01cdbdac1d0161074cfcee41"),
        (dict(variant="memory_cross", **PLAIN), "bf72e7c8e80b01c36dda9f3462fe081567d12ff42284c227d51696cdbea80165"),
        (dict(variant="memory_single", **PLAIN), "fa26c0b1c2d6f4652be90d5bd1232533cd05ae727e2581bda4147167f0fcb42f"),
        (dict(variant="memory_resampled", out_dim=6, **PLAIN), "a4924fbd1e9e6303ffd93cb069f89a7328dcb001f9f529b107d8bdcf2bcf3132"),
        # encoders, dropout and the default warm start
        (dict(variant="memory", encoder_hidden=6, dropout_rate=0.2), "81e1aad556775a220d2e4e8194b4eeb8ac14fe90721354ee51f1e75e58c4a092"),
    ], ids=["naive", "memory", "memory_cross", "memory_single", "memory_resampled", "encoders_dropout"])
    def test_training_bits(self, overrides, digest):
        assert self._digest(overrides, tiny_data(n=120, seed=9)) == digest

    @pytest.mark.parametrize("overrides, s1, s2, digest", [
        (dict(variant="memory_single", batch=16, **PLAIN), 3, 4,
         "20f5a80e78e6934772e6eb1c39c8309c3b2e7fb2d701aaae1dff04e42ea2c4bf"),
        (dict(variant="memory", encoder_hidden=3, batch=16, **PLAIN), 5, 3,
         "64c607de026de6ac084d5168aabe152913d9791aed3e2cfa43b2ca8807087ddd"),
    ], ids=["memory_single", "encoders"])
    def test_training_bits_of_column_views(self, overrides, s1, s2, digest):
        # the modes as column views of one array, which the single-mode layers
        # and the encoders take as given: products whose operand is such a
        # view (or its transpose) must keep np.matmul's bits
        m1, m2, y = tiny_data(n=120, seed=9, s1=s1, s2=s2)
        both = np.concatenate([m2, np.ones((120, 3)), m1], axis=1)
        assert self._digest(overrides, (both[:, s2 + 3 :], both[:, :s2], y), s1, s2) == digest

    @staticmethod
    def _digest(overrides, data, s1=4, s2=4):
        cfg = ClassifierConfig(**{**dict(head_hidden=32, classes=3, slots=20, batch=2, epochs=2,
                                         lr=2e-3, seed=4), **overrides})
        state = build_state(cfg, s1, s2)
        curves, _ = fit(state, data)
        h = hashlib.sha256(state.params.flat.tobytes())
        h.update(state.m_flat.tobytes())
        h.update(state.v_flat.tobytes())
        for mem in state.memories:
            h.update(mem.matrix.tobytes())
        h.update(np.array([row["train_loss"] for row in curves]).tobytes())
        return h.hexdigest()


def _patch_block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(memfuse.model, "_EVAL_BLOCK", block)


def _nan_logits(monkeypatch, rows):
    """Patch forward_split so that the logits of a lane whose m1 is the
    array `a` are NaN in row rows[id(a)].  The data gate refuses
    non-finite features, so this is how a test gives a pass non-finite
    logits at a row of its choosing."""
    real = memfuse.model.forward_split

    def poisoned(config, params, memories, m1, m2):
        logits, memories = real(config, params, memories, m1, m2)
        for mode, lane in zip(m1, logits) if logits.ndim == 3 else [(m1, logits)]:
            if id(mode) in rows:
                lane[rows[id(mode)], 0] = np.nan
        return logits, memories

    monkeypatch.setattr(memfuse.model, "forward_split", poisoned)


class TestForwardSplit:
    """forward_split against the per-batch loop over forward_logits, bit for bit.

    Each case draws 12-wide rows and hands both modes over as strided
    column views.  A block of 5 rows gives single-batch blocks, several
    blocks and a ragged last batch; the default block gives many batches
    per block.

    The lane cases stack 1 to 3 states, each a later epoch of one run,
    and check that one stacked pass gives every state the bits of its
    own pass, on one shared dataset or on a dataset per state; fit's
    validation and test passes run that way.
    """

    @pytest.mark.parametrize("block", [5, None])
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled"])
    def test_bits_match_the_per_batch_loop(self, monkeypatch, variant, freeze, block):
        _patch_block(monkeypatch, block)
        for encoder_hidden in (0, 5):
            for batch in (1, 2, 3, 32):
                cfg = tiny_config(variant=variant, out_dim=3, encoder_hidden=encoder_hidden,
                                  head_hidden=6, slots=5, batch=batch, seed=2)
                state = build_state(cfg, 3, 4)
                memories = [m.frozen() if freeze else m for m in state.memories]
                for n in (1, 7, 64, 601):
                    rows = Rng(7 * n + batch).normal(12 * n).reshape(n, 12)
                    m1, m2 = rows[:, 1:4], rows[:, 6:10]
                    want, want_mems = per_batch_forward(forward_logits, cfg, state.params, memories, m1, m2)
                    got, got_mems = forward_split(cfg, state.params, memories, m1, m2)
                    case = (encoder_hidden, batch, n)
                    assert got.tobytes() == want.tobytes(), case
                    assert len(got_mems) == len(want_mems), case
                    for g, w in zip(got_mems, want_mems):
                        assert g.writes_enabled == w.writes_enabled, case
                        assert g.matrix.tobytes() == w.matrix.tobytes(), case

    @staticmethod
    def _epochs(cfg, lanes):
        """The states a run of `cfg` is in after each of its first `lanes` epochs."""
        state, states = build_state(cfg, 3, 4), []
        for epoch in range(lanes):
            train_epoch(state, tiny_data(n=30, seed=epoch, s1=3, s2=4))
            states.append(copy.deepcopy(state))
        return states

    @pytest.mark.parametrize("block", [5, None])
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled"])
    def test_lanes_match_separate_calls(self, monkeypatch, variant, freeze, lanes, block):
        _patch_block(monkeypatch, block)
        for extra in ({}, {"encoder_hidden": 5, "dropout_rate": 0.3}):
            cfg = tiny_config(variant=variant, out_dim=3, head_hidden=6, slots=5, batch=3, seed=2,
                              freeze_eval_writes=freeze, **extra)
            states = self._epochs(cfg, lanes)
            # 50 rows: the last batch holds 2 of 3
            rows = Rng(lanes).normal(12 * 50).reshape(50, 12)
            m1, m2 = rows[:, 1:4], rows[:, 6:10]
            data = (m1, m2, Rng(9).integers(50, 3))
            reports = evaluate(states, data)
            assert [r.to_dict() for r in reports] == [evaluate(s, data).to_dict() for s in states], extra
            params = ModelParams(np.stack([s.params.flat for s in states]), states[0].params.table)
            memories = [MemoryState(np.stack([s.memories[i].matrix for s in states]), not freeze)
                        for i in range(len(states[0].memories))]
            # each lane its own rows, as strided column views: a list of them, or one stacked array
            lane_rows = [Rng(20 + lane).normal(12 * 50).reshape(50, 12) for lane in range(lanes)]
            lane_m1, lane_m2 = [r[:, 1:4] for r in lane_rows], [r[:, 6:10] for r in lane_rows]
            logits, after = forward_split(cfg, params, memories, lane_m1, lane_m2)
            stacked, _ = forward_split(cfg, params, memories, np.stack(lane_m1), np.stack(lane_m2))
            assert logits.shape == (lanes, 50, 3), extra
            assert stacked.tobytes() == logits.tobytes(), extra
            for lane, state in enumerate(states):
                own = [m.frozen() if freeze else m for m in state.memories]
                want, want_mems = forward_split(cfg, state.params, own, lane_m1[lane], lane_m2[lane])
                assert logits[lane].tobytes() == want.tobytes(), (extra, lane)
                for got, mem in zip(after, want_mems):
                    assert got.matrix[lane].tobytes() == mem.matrix.tobytes(), (extra, lane)

    @staticmethod
    def _lane_data(rows, seed):
        """A dataset of `rows` rows whose modes are strided column views."""
        block = Rng(seed).normal(12 * rows).reshape(rows, 12)
        return block[:, 1:4], block[:, 6:10], Rng(seed + 50).integers(rows, 3)

    @pytest.mark.parametrize("block", [5, None])
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled"])
    def test_per_state_datasets_match_separate_calls(self, monkeypatch, variant, freeze, block):
        _patch_block(monkeypatch, block)
        passes, real = [], memfuse.model.forward_split

        def counted(config, params, memories, m1, m2):
            passes.append(params.flat.shape[:-1])
            return real(config, params, memories, m1, m2)

        monkeypatch.setattr(memfuse.model, "forward_split", counted)
        for extra in ({}, {"encoder_hidden": 5, "dropout_rate": 0.3}):
            cfg = tiny_config(variant=variant, out_dim=3, head_hidden=6, slots=5, batch=3, seed=2,
                              freeze_eval_writes=freeze, **extra)
            states = self._epochs(cfg, 3)
            # at batch 3, 50 rows and 41 rows both end in a ragged batch
            for counts, want_passes in (((50, 50, 50), [(3,)]), ((50, 41, 50), [(2,), ()])):
                datasets = [self._lane_data(n, seed) for seed, n in enumerate(counts)]
                passes.clear()
                reports = evaluate(states, datasets)
                assert passes == want_passes, (extra, counts)
                for report, state, data in zip(reports, states, datasets):
                    own = evaluate(state, data)
                    assert report.to_dict() == own.to_dict(), (extra, counts)
                    assert report.confusion.tobytes() == own.confusion.tobytes(), (extra, counts)

    def test_errors_come_in_state_order(self, monkeypatch):
        # the passes run by row count, 41 rows before 50, but non-finite
        # logits raise as state-by-state calls raise them
        states = self._epochs(tiny_config(variant="memory", head_hidden=6, slots=5, batch=3), 3)
        nan_50, nan_41 = self._lane_data(50, 1), self._lane_data(41, 2)
        _nan_logits(monkeypatch, {id(nan_50[0]): 7, id(nan_41[0]): 3})
        with pytest.raises(NumericError, match="sample 7 of 50"):
            evaluate(states, [self._lane_data(41, 0), nan_50, nan_41])
        # a malformed dataset raises the error its own call raises, before
        # any pass, wherever its state stands: after a non-finite lane too
        passes, real = [], memfuse.model.forward_split

        def counted(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(memfuse.model, "forward_split", counted)
        m1, m2, y = self._lane_data(50, 3)
        for malformed in ((m1, m2[:47], y), (np.hstack([m1, m1[:, :1]]), m2, y), (m1, m2, y[:49])):
            with pytest.raises(ShapeError) as alone:
                evaluate(states[2], malformed)
            for datasets in ([self._lane_data(50, 0), nan_50, malformed],
                             [self._lane_data(50, 0), malformed, nan_50]):
                with pytest.raises(ShapeError) as got:
                    evaluate(states, datasets)
                assert str(got.value) == str(alone.value)
        assert passes == []

    def test_datasets_must_match_the_states(self):
        states = [build_state(tiny_config(variant="memory"), 4, 4)] * 2
        m1, m2, y = tiny_data(n=20)
        for count in (1, 3):
            with pytest.raises(ParameterError, match=f"{count} datasets for 2 states"):
                evaluate(states, [(m1, m2, y)] * count)
        # forward_split trusts its lanes: evaluate's check of each dataset
        # refuses a lane whose modes differ in row count, or a wider lane
        with pytest.raises(ShapeError, match="m1 has 20 rows, m2 has 16"):
            evaluate(states, [(m1, m2, y), (m1, m2[:16], y)])
        with pytest.raises(ShapeError, match=r"m1 has shape \(20, 5\), this state takes \(rows, 4\)"):
            evaluate(states, [(m1, m2, y), (np.hstack([m1, m1[:, :1]]), m2, y)])

    @pytest.mark.parametrize("variant", ["memory", "memory_single", "naive"])
    def test_fit_curves_equal_a_serial_loop(self, monkeypatch, variant):
        # at this lr the validation scores differ between epochs
        cfg = tiny_config(variant=variant, epochs=3, encoder_hidden=3, dropout_rate=0.2, lr=0.05)
        train, val = tiny_data(n=64, seed=3), tiny_data(n=23, seed=4)
        state, twin = build_state(cfg, 4, 4), build_state(cfg, 4, 4)
        calls, real = [], memfuse.model.evaluate

        def counted(states, data):
            calls.append(len(states))
            return real(states, data)

        # the benchmark times evaluation by wrapping this module attribute
        monkeypatch.setattr(memfuse.model, "evaluate", counted)
        # a test set of the validation set's row count joins its pass as one more lane
        test = tiny_data(n=23, seed=5)
        curves, report = fit(state, train, val, test)
        assert calls == [4]
        serial = []
        for epoch in range(1, 4):
            _, loss = train_epoch(twin, train)
            rep = real(twin, val)
            serial.append({"epoch": epoch, "train_loss": loss, "val_wa": rep.wa, "val_ua": rep.ua})
        assert repr(curves) == repr(serial)
        assert len({(row["val_wa"], row["val_ua"]) for row in serial}) > 1
        assert report.to_dict() == real(twin, test).to_dict()
        assert state.params.flat.tobytes() == twin.params.flat.tobytes()
        for mem, kept in zip(state.memories, twin.memories):
            assert mem.matrix.tobytes() == kept.matrix.tobytes()

    @pytest.mark.parametrize("val", [False, True])
    def test_fit_makes_one_evaluate_call(self, monkeypatch, val):
        # E + 1 states with a validation set, the final state alone without one
        cfg = tiny_config(variant="memory", epochs=2)
        train, test = tiny_data(n=64, seed=3), tiny_data(n=30, seed=5)
        calls, real = [], memfuse.model.evaluate

        def counted(states, data):
            # the row count of each state's dataset
            lanes = len(states) if isinstance(states, list) else 1
            calls.append([len(d[2]) for d in (data if isinstance(data, list) else [data] * lanes)])
            return real(states, data)

        monkeypatch.setattr(memfuse.model, "evaluate", counted)
        curves, report = fit(build_state(cfg, 4, 4), train, tiny_data(n=23, seed=4) if val else None, test)
        assert calls == ([[23, 23, 30]] if val else [[30]])
        assert all(("val_wa" in row) == val for row in curves)
        calls.clear()
        assert fit(build_state(cfg, 4, 4), train)[1] is None and calls == []

    def test_fit_raises_the_serial_loops_error(self, monkeypatch):
        cfg = tiny_config(variant="memory", epochs=3)
        train = tiny_data(n=64, seed=3)
        val = tiny_data(n=23, seed=4)
        _nan_logits(monkeypatch, {id(val[0]): 6})
        # the serial loop raises at epoch 1's validation pass
        state = build_state(cfg, 4, 4)
        train_epoch(state, train)
        with pytest.raises(NumericError) as serial:
            evaluate(state, val)
        with pytest.raises(NumericError) as got:
            fit(build_state(cfg, 4, 4), train, val)
        assert str(got.value) == str(serial.value)
        # an epoch that raises: its error comes as it happens, and no
        # validation is scored, not even one that would have raised
        real, epochs = memfuse.model.train_epoch, []

        def failing(state, data):
            epochs.append(len(epochs) + 1)
            if len(epochs) == 2:
                raise NumericError("train_epoch: non-finite loss at batch 0")
            return real(state, data)

        scored = []
        monkeypatch.setattr(memfuse.model, "train_epoch", failing)
        monkeypatch.setattr(memfuse.model, "evaluate", lambda states, data: scored.append(data))
        with pytest.raises(NumericError, match="non-finite loss at batch 0"):
            fit(build_state(cfg, 4, 4), train, val)
        assert epochs == [1, 2] and scored == []
        epochs.clear()
        with pytest.raises(NumericError, match="non-finite loss at batch 0"):
            fit(build_state(cfg, 4, 4), train, tiny_data(n=23, seed=4))

    def test_fit_raises_the_serial_loops_error_with_a_test_lane(self, monkeypatch):
        cfg = tiny_config(variant="memory", epochs=3)
        train = tiny_data(n=64, seed=3)
        val, test = tiny_data(n=23, seed=4), tiny_data(n=23, seed=5)
        bad_val, bad_test = tiny_data(n=23, seed=4), tiny_data(n=23, seed=5)
        _nan_logits(monkeypatch, {id(bad_val[0]): 6, id(bad_test[0]): 17})
        # the serial loop: the test pass raises after training, naming its sample
        state = build_state(cfg, 4, 4)
        for _ in range(3):
            train_epoch(state, train)
        with pytest.raises(NumericError, match="sample 17 of 23") as serial_test:
            evaluate(state, bad_test)
        with pytest.raises(NumericError) as got:
            fit(build_state(cfg, 4, 4), train, val, bad_test)
        assert str(got.value) == str(serial_test.value)
        # non-finite logits in both: the first epoch's validation raises first
        state = build_state(cfg, 4, 4)
        train_epoch(state, train)
        with pytest.raises(NumericError, match="sample 6 of 23") as serial_val:
            evaluate(state, bad_val)
        with pytest.raises(NumericError) as got:
            fit(build_state(cfg, 4, 4), train, bad_val, bad_test)
        assert str(got.value) == str(serial_val.value)
        # a validation set with non-finite logits and a test set of the
        # wrong width: the test set is refused before epoch 1
        wide_test = (np.hstack([test[0], test[0][:, :1]]), test[1], test[2])
        state = build_state(cfg, 4, 4)
        with pytest.raises(ShapeError, match=r"fit: m1 has shape \(23, 5\), this state takes \(rows, 4\)"):
            fit(state, train, bad_val, wide_test)
        assert state.step == 0
        # an epoch that raises: its error comes as it happens, and nothing is scored
        real_train, real_eval, scored = memfuse.model.train_epoch, memfuse.model.evaluate, []

        def failing(state, data):
            if state.step >= 2 * (64 // cfg.batch):
                raise NumericError("train_epoch: non-finite loss at batch 0")
            return real_train(state, data)

        def counted(states, data):
            scored.append(data)
            return real_eval(states, data)

        monkeypatch.setattr(memfuse.model, "train_epoch", failing)
        monkeypatch.setattr(memfuse.model, "evaluate", counted)
        for val_set in (val, bad_val):
            with pytest.raises(NumericError, match="non-finite loss at batch 0"):
                fit(build_state(cfg, 4, 4), train, val_set, bad_test)
        assert scored == []

    def test_states_must_share_one_config(self):
        data = tiny_data(n=20)
        state = build_state(tiny_config(variant="memory"), 4, 4)
        for other in (dict(batch=3), dict(freeze_eval_writes=True)):
            with pytest.raises(ParameterError, match="one config"):
                evaluate([state, build_state(tiny_config(variant="memory", **other), 4, 4)], data)
        # configs equal up to seed and slot count run as lanes, each with its own call's bits
        for other in (dict(seed=6), dict(seed=6, slots=6)):
            lane = build_state(tiny_config(variant="memory", **other), 4, 4)
            reports = evaluate([state, lane], data)
            assert [r.to_dict() for r in reports] == [evaluate(s, data).to_dict() for s in (state, lane)]
        with pytest.raises(ParameterError, match="one config"):
            evaluate([state, build_state(tiny_config(variant="memory"), 4, 3)], data)
        # naive states built for widths (4, 4) and (3, 5) share one parameter layout
        naive = [build_state(tiny_config(variant="naive"), *widths) for widths in ((4, 4), (3, 5))]
        assert naive[0].params.table == naive[1].params.table
        with pytest.raises(ParameterError, match="widths"):
            evaluate(naive, data)
        with pytest.raises(ParameterError, match="no states"):
            evaluate([], data)
        twin = copy.deepcopy(state)
        twin.memories[0].writes_enabled = False
        with pytest.raises(ParameterError, match="write flag"):
            evaluate([state, twin], data)

    def test_given_memories_are_not_mutated(self):
        state = build_state(tiny_config(variant="memory_single"), 4, 4)
        before = [m.matrix.copy() for m in state.memories]
        m1, m2, _ = tiny_data(n=50)
        _, after = forward_split(state.config, state.params, state.memories, m1, m2)
        for m, b, a in zip(state.memories, before, after):
            assert m.matrix.tobytes() == b.tobytes()
            assert not np.array_equal(a.matrix, b)


class TestDatasetIntake:
    """A bad dataset is refused before the first step or pass, and leaves
    the state as it was; the forms numpy casts to float64 rows work."""

    def _assert_refused(self, data, error, match):
        state = build_state(tiny_config(variant="memory"), 4, 4)
        flat, mem, step = state.params.flat.copy(), state.memories[0].matrix.copy(), state.step
        passes = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("forward_logits", "forward_split"):
                patch.setattr(memfuse.model, name, lambda *args: passes.append(args))
            with pytest.raises(error, match=match):
                train_epoch(state, data)
            with pytest.raises(error, match=match):
                evaluate(state, data)
        assert passes == []
        assert state.params.flat.tobytes() == flat.tobytes()
        assert state.memories[0].matrix.tobytes() == mem.tobytes()
        assert state.step == step

    def test_m2_one_batch_short(self):
        m1, m2, y = tiny_data(n=20)
        self._assert_refused((m1, m2[:16], y), ShapeError, "m1 has 20 rows, m2 has 16")

    def test_m2_longer_than_m1(self):
        m1, m2, y = tiny_data(n=20)
        self._assert_refused((m1[:16], m2, y[:16]), ShapeError, "m1 has 16 rows, m2 has 20")

    def test_labels_of_another_length(self):
        m1, m2, y = tiny_data(n=20)
        self._assert_refused((m1, m2, y[:12]), ShapeError, "labels")

    @pytest.mark.parametrize("bad", [1.7, np.nan, -0.5])
    def test_non_integer_label(self, bad):
        m1, m2, y = tiny_data(n=20)
        y = y.astype(np.float64)
        y[9] = bad
        self._assert_refused((m1, m2, y), ParameterError, "whole numbers")

    def test_whole_float_labels_are_taken_as_integers(self):
        data = tiny_data(n=20)
        as_float = (data[0], data[1], data[2].astype(np.float64))
        state = build_state(tiny_config(variant="memory"), 4, 4)
        twin = copy.deepcopy(state)
        assert evaluate(state, as_float).to_dict() == evaluate(state, data).to_dict()
        train_epoch(state, as_float)
        train_epoch(twin, data)
        assert state.params.flat.tobytes() == twin.params.flat.tobytes()

    def test_modes_as_nested_lists_work(self):
        data = tiny_data(n=20)
        lists = tuple(column.tolist() for column in data)
        state = build_state(tiny_config(variant="memory"), 4, 4)
        twin = copy.deepcopy(state)
        got, want = evaluate(state, lists), evaluate(state, data)
        assert got.to_dict() == want.to_dict()
        assert got.confusion.tobytes() == want.confusion.tobytes()
        assert train_epoch(state, lists)[1] == train_epoch(twin, data)[1]
        assert state.params.flat.tobytes() == twin.params.flat.tobytes()
        assert state.memories[0].matrix.tobytes() == twin.memories[0].matrix.tobytes()

    # each ends in the state's width 4: a row as a vector, and rows in blocks
    @pytest.mark.parametrize("shape", [(4,), (5, 4, 4)])
    @pytest.mark.parametrize("column", [0, 1])
    def test_modes_must_be_two_dimensional(self, column, shape):
        data = list(tiny_data(n=20))
        data[column] = data[column].ravel()[:np.prod(shape)].reshape(shape)
        self._assert_refused(tuple(data), ShapeError,
                             re.escape(f"m{column + 1} has shape {shape}, this state takes (rows, 4)"))

    @pytest.mark.parametrize("column", [0, 1])
    def test_a_mode_one_column_too_wide(self, column):
        data = list(tiny_data(n=20))
        data[column] = np.hstack([data[column], data[column][:, :1]])
        self._assert_refused(tuple(data), ShapeError,
                             re.escape(f"m{column + 1} has shape (20, 5), this state takes (rows, 4)"))

    @pytest.mark.parametrize("kind,column", [("ragged", 0), ("ragged", 1), ("ragged", 2), ("string", 0), ("string", 1)])
    def test_columns_numpy_will_not_cast(self, kind, column):
        data = list(tiny_data(n=20))
        rows = data[column].tolist()
        if kind == "ragged":
            rows[3] = [rows[3], 0] if column == 2 else rows[3][:2]
        else:
            rows[3] = ["a"] * 4
        data[column] = rows
        name = ("m1", "m2", "labels")[column]
        self._assert_refused(tuple(data), (ShapeError, ParameterError), f"{name} is not an array of numbers")

    # a None in a nested list becomes NaN under the float64 cast
    @pytest.mark.parametrize("form,bad", [(form, bad) for form in ("array", "list") for bad in (np.nan, np.inf, -np.inf)]
                             + [("list", None)])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_features(self, column, bad, form):
        data = list(tiny_data(n=20))
        mode = data[column] = data[column].copy()
        mode[13, 2] = mode[17, 0] = np.nan if bad is None else bad
        if form == "list":
            data[column] = mode.tolist()
            if bad is None:
                data[column][13][2] = data[column][17][0] = None
        self._assert_refused(tuple(data), NumericError, f"m{column + 1} has a non-finite value in row 13")

    @pytest.mark.parametrize("form", ["array", "list"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_complex_modes(self, column, form):
        # refused before the cast, which would keep only the real part
        data = list(tiny_data(n=20))
        data[column] = data[column] + 0j
        data[column][4, 1] += 2j
        if form == "list":
            data[column] = data[column].tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_refused(tuple(data), ParameterError,
                                 f"m{column + 1} is not an array of numbers: it holds complex values")

    @pytest.mark.parametrize("split", ["train_set", "val_set", "test_set"])
    @pytest.mark.parametrize("kind", ["short", "wide", "list", "nan", "inf", "-inf list", "complex"])
    def test_fit_refuses_a_malformed_split_before_epoch_1(self, split, kind):
        cfg = tiny_config(variant="memory", epochs=2)
        state = build_state(cfg, 4, 4)
        flat, mem = state.params.flat.copy(), state.memories[0].matrix.copy()
        m1, m2, y = tiny_data(n=20, seed=4)
        nan_m1, inf_m2 = m1.copy(), m2.copy()
        nan_m1[11, 3] = np.nan
        inf_m2[7, 0] = np.inf
        malformed, match = {
            "short": ((m1, m2[:16], y), "fit: m1 has 20 rows, m2 has 16"),
            "wide": ((m1, np.hstack([m2, m2[:, :1]]), y), re.escape("fit: m2 has shape (20, 5)")),
            "list": ((m1.tolist()[:19] + [[0.0]], m2, y), "fit: m1 is not an array of numbers"),
            "nan": ((nan_m1, m2, y), "fit: m1 has a non-finite value in row 11"),
            "inf": ((m1, inf_m2, y), "fit: m2 has a non-finite value in row 7"),
            "-inf list": ((m1, (-inf_m2).tolist(), y), "fit: m2 has a non-finite value in row 7"),
            "complex": ((m1 * 1j, m2, y), "fit: m1 is not an array of numbers: it holds complex values"),
        }[kind]
        sets = {"train_set": tiny_data(n=64), "val_set": tiny_data(n=20, seed=5), "test_set": tiny_data(n=20, seed=6),
                split: malformed}
        with pytest.raises((ShapeError, ParameterError, NumericError), match=match):
            fit(state, **sets)
        assert state.step == 0
        assert state.params.flat.tobytes() == flat.tobytes()
        assert state.memories[0].matrix.tobytes() == mem.tobytes()


class TestEvalCallBudget:
    """A deterministic guard on evaluate's Python work, like TestStepCallBudget.

    Counts calls into memfuse's own functions at the paper shape (d = 8,
    batch 2, k = 20).  With writes on, each batch pays only the memory
    chain: _memory_chain, softmax_rows x2, write_memory and its two
    as_batch checks.  With writes frozen, or with no memory, the calls
    grow with the number of blocks, not with the number of rows.
    """

    PER_BATCH = 6
    PER_BLOCK = 20  # encode, fusion_rows, the batchwise products, the head, ...

    def _calls(self, variant, freeze, n, lanes=0):
        """Calls of one evaluate call: of one state, or with `lanes` of
        them, of that many states each on its own dataset."""
        cfg = tiny_config(variant=variant, slots=20, batch=2, head_hidden=32, freeze_eval_writes=freeze)
        state = build_state(cfg, 4, 4)
        states, data = state, tiny_data(n=n)
        if lanes:
            states = [copy.deepcopy(state) for _ in range(lanes)]
            data = [tiny_data(n=n, seed=lane) for lane in range(lanes)]
        evaluate(states, data)  # first calls may fill caches
        package = str(Path(memfuse.__file__).parent)
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            evaluate(states, data)
        finally:
            sys.setprofile(None)
        return calls

    def test_writes_on_pays_only_the_memory_chain_per_batch(self):
        calls = self._calls("memory", False, 2000)
        assert calls.count("forward_logits") == calls.count("fusion_forward") == 0
        blocks = -(-2000 // memfuse.model._EVAL_BLOCK)
        assert len(calls) <= self.PER_BATCH * 1000 + self.PER_BLOCK * blocks, collections.Counter(calls)

    @pytest.mark.parametrize("variant,freeze", [("naive", False), ("memory", True), ("memory_single", True)])
    def test_calls_grow_with_blocks_not_rows(self, monkeypatch, variant, freeze):
        # 4 and 40 blocks of 4 batches, then 40 blocks of 8: only the block count may matter
        _patch_block(monkeypatch, 8)
        few, many = self._calls(variant, freeze, 32), self._calls(variant, freeze, 320)
        _patch_block(monkeypatch, 16)
        wide = self._calls(variant, freeze, 640)
        assert len(wide) == len(many) > len(few), (len(few), len(many), len(wide))

    @pytest.mark.parametrize("variant,freeze", [("memory", False), ("memory", True), ("naive", False)])
    def test_per_state_datasets_add_calls_per_state_not_per_row(self, monkeypatch, variant, freeze):
        # a lane more adds the same few calls (its dataset's check, its
        # scoring) at 4 and at 40 blocks: the pass's calls do not grow with lanes
        _patch_block(monkeypatch, 8)
        few = [len(self._calls(variant, freeze, 32, lanes)) for lanes in (2, 3)]
        many = [len(self._calls(variant, freeze, 320, lanes)) for lanes in (2, 3)]
        assert few[1] - few[0] == many[1] - many[0], (few, many)
        assert many[0] > few[0]


class TestEvalMemory:
    """A 3-lane evaluate holds block-sized inputs, never a stack of the split.

    At d = 64 with a dataset per state, the tracemalloc peak may grow with
    the row count only by the logits (lanes x classes float64 per row)
    and the scoring's per-row temporaries.  Stacking every lane's whole
    split would add lanes x d float64, 1536 bytes, per row.
    """

    @staticmethod
    def _peak(states, rows):
        datasets = [tiny_data(n=rows, seed=lane, s1=32, s2=32) for lane in range(len(states))]
        evaluate(states, datasets)  # warm up numpy's caches outside the trace
        tracemalloc.start()
        try:
            evaluate(states, datasets)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_with_rows_only_by_the_logits(self):
        cfg = tiny_config(variant="memory", slots=20, batch=32, head_hidden=32)
        state = build_state(cfg, 32, 32)
        states = [copy.deepcopy(state) for _ in range(3)]
        small, large = self._peak(states, 512), self._peak(states, 2048)
        per_row = 3 * cfg.classes * 8 + 24
        assert large - small <= per_row * (2048 - 512), (small, large)



def _state_bytes(state):
    """Everything training leaves in a state: its vectors and memories as
    bytes, the memories' write flags, the step and the dropout stream."""
    arrays = [state.params.flat, state.m_flat, state.v_flat, state.grads.flat]
    arrays += [mem.matrix for mem in state.memories]
    return ([a.tobytes() for a in arrays], [mem.writes_enabled for mem in state.memories],
            state.step, int(state.drop_rng.seed), state.drop_rng.counter)


def _serial(states, *splits):
    """fit on each state in turn, as a serial loop runs them: the results
    up to the first error, and that error (None when every run fits)."""
    results = []
    for state in states:
        try:
            results.append(fit(state, *splits))
        except NumericError as err:
            return results, err
    return results, None


def _poison_lanes(monkeypatch, flats, name="forward_split"):
    """Patch forward_split (evaluation), or forward_logits (training) when
    `name` says so, so that a pass's logits are NaN in row 2 of each lane
    whose parameter vector has bytes in `flats`: non-finite logits for
    chosen runs at chosen epochs or steps, found by their bits."""
    real = getattr(memfuse.model, name)

    def poisoned(config, params, *args):
        logits, rest = real(config, params, *args)
        flat = params.flat.reshape(-1, params.flat.shape[-1])
        for lane, vector in zip(logits.reshape(-1, *logits.shape[-2:]), flat):
            if vector.tobytes() in flats:
                lane[2, 0] = np.nan
        return logits, rest

    monkeypatch.setattr(memfuse.model, name, poisoned)


class TestLockstep:
    """Runs whose configs differ only in seed, query order (memory beside
    memory_cross) and slot count, trained as lanes of one stack by fit
    (and train_epoch), against the same runs trained one after another:
    every lane's parameters, Adam moments, gradients, memories, step,
    dropout stream, curves and reports, bit for bit.

    The train set has a ragged tail (but at batch 1) and hands the modes
    over as strided column views; the validation and test sets have
    their own row counts, so they run as two stacked passes.  Batch 16
    takes the batch sums past numpy's eight-way unrolled block.
    """

    @staticmethod
    def _runs(cfg, lanes, cross=(), slots=()):
        """Fresh states of `cfg` at seeds 2, 3, ..., the lanes in `cross`
        as memory_cross, lane i with slots[i] slots when `slots` is given,
        and a twin of each."""
        states = [build_state(replace(cfg, seed=2 + lane, variant="memory_cross" if lane in cross else cfg.variant,
                                      slots=slots[lane] if slots else cfg.slots), 3, 4)
                  for lane in range(lanes)]
        return states, copy.deepcopy(states)

    @staticmethod
    def _splits(batch, val=True):
        def data(rows, seed):
            block = Rng(seed).normal(12 * rows).reshape(rows, 12)
            return block[:, 1:4], block[:, 6:10], Rng(seed + 50).integers(rows, 3)

        return data(5 * batch - 1, 1), data(11, 5) if val else None, data(7, 3)

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("lanes", [2, 3])
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled"])
    def test_lanes_match_serial_runs(self, variant, lanes, batch):
        self._match_serial_runs(variant, lanes, batch)

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("lanes, cross", [(2, (1,)), (3, (0, 1)), (4, (2, 3))])
    def test_memory_and_memory_cross_lanes_match_serial_runs(self, lanes, cross, batch):
        # the encoders' case takes the query's cotangent back through each lane's order
        self._match_serial_runs("memory", lanes, batch, cross)

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("variant, cross", [("memory", (1, 2)), ("memory_single", ()), ("memory_resampled", ())])
    def test_lanes_of_two_slot_counts_match_serial_runs(self, variant, cross, batch):
        # two slot groups in training; then three, which evaluation orders into two
        for slots in ((5, 5, 7, 7), (7, 5, 5, 7)):
            self._match_serial_runs(variant, 4, batch, cross, slots, ({"freeze_eval_writes": True},))

    def _match_serial_runs(self, variant, lanes, batch, cross=(), slots=(), extras=()):
        for extra in ({}, {"encoder_hidden": 5, "dropout_rate": 0.3}, *extras):
            cfg = tiny_config(variant=variant, out_dim=3, head_hidden=6, slots=5, batch=batch, epochs=2,
                              lr=0.05, **extra)
            states, twins = self._runs(cfg, lanes, cross, slots)
            splits = self._splits(batch)
            got = fit(states, *splits)
            want, error = _serial(twins, *splits)
            assert error is None and len(got) == len(want) == lanes
            for (curves, report), (w_curves, w_report), state, twin in zip(got, want, states, twins):
                assert repr(curves) == repr(w_curves), extra
                assert report.to_dict() == w_report.to_dict(), extra
                assert report.confusion.tobytes() == w_report.confusion.tobytes(), extra
                assert _state_bytes(state) == _state_bytes(twin), extra
            # the runs differ, so each lane is its own run
            assert len({repr(curves) for curves, _ in got}) == lanes, extra

    def test_a_list_of_one_runs_on_2d_arrays(self, monkeypatch):
        cfg = tiny_config(variant="memory", head_hidden=6, slots=5, batch=3, encoder_hidden=5, dropout_rate=0.3)
        (state,), (twin,) = self._runs(cfg, 1)
        shapes, real = [], memfuse.model.forward_logits

        def recorded(config, params, *args):
            shapes.append(params.flat.ndim)
            return real(config, params, *args)

        monkeypatch.setattr(memfuse.model, "forward_logits", recorded)
        splits = self._splits(3)
        [(curves, report)] = fit([state], *splits)
        w_curves, w_report = fit(twin, *splits)
        assert set(shapes) == {1}
        assert repr(curves) == repr(w_curves) and report.to_dict() == w_report.to_dict()
        assert _state_bytes(state) == _state_bytes(twin)
        assert train_epoch([state], splits[0])[1] == [train_epoch(twin, splits[0])[1]]

    def test_lanes_must_be_distinct_states_at_one_step(self):
        cfg = tiny_config(variant="memory")
        states, _ = self._runs(cfg, 2)
        train = self._splits(cfg.batch)[0]
        with pytest.raises(ParameterError, match="distinct states"):
            train_epoch([states[0], states[0]], train)
        train_epoch(states[1], train)
        with pytest.raises(ParameterError, match="one step count"):
            train_epoch(states, train)
        other = build_state(replace(cfg, epochs=3), 3, 4)
        with pytest.raises(ParameterError, match="one config up to seed"):
            fit([states[0], other], train)
        with pytest.raises(ParameterError, match="no states"):
            fit([], train)

    @pytest.mark.parametrize("other", [
        {"variant": "memory_single"},
        {"variant": "memory_resampled", "out_dim": 3},
        {"variant": "naive"},
        {"out_dim": 3},
        {"variant": "memory_cross", "batch": 2},
    ])
    def test_lanes_may_differ_only_in_seed_query_order_and_slot_count(self, other):
        cfg = tiny_config(variant="memory", head_hidden=6, slots=5, batch=3)
        state, odd = build_state(cfg, 3, 4), build_state(replace(cfg, seed=3, **other), 3, 4)
        train, _, test = self._splits(3)
        refused = "stacked states must share one config up to seed, query order and slot count"
        with pytest.raises(ParameterError, match=refused):
            train_epoch([state, odd], train)
        with pytest.raises(ParameterError, match=refused):
            fit([odd, state], train)
        with pytest.raises(ParameterError, match=refused):
            evaluate([state, odd], test)
        assert state.step == odd.step == 0

    @pytest.mark.parametrize("lane", [1, 2, 3])
    def test_a_mixed_slot_lanes_non_finite_loss_raises_as_a_serial_loop_does(self, lane):
        # lanes at 5, 7, 7, 5 slots, memory_cross at 7; the failing lane's NaN
        # moment reaches its parameters at Adam's first step, and fit hands
        # back the runs of the lanes before it with the error
        cfg = tiny_config(variant="memory", head_hidden=6, batch=3, encoder_hidden=5, dropout_rate=0.3)
        states, twins = self._runs(cfg, 4, cross=(1, 2), slots=(5, 7, 7, 5))
        for state in (states[lane], twins[lane]):
            state.m_flat[0] = np.nan
        splits = self._splits(3)
        want, serial = _serial(twins, *splits)
        assert len(want) == lane and str(serial) == "train_epoch: non-finite loss at batch 1"
        with pytest.raises(NumericError) as got:
            fit(states, *splits)
        assert str(got.value) == str(serial)
        assert [(repr(c), r.to_dict()) for c, r in got.value.results] == [(repr(c), r.to_dict()) for c, r in want]
        for state, twin in zip(states, twins):
            assert _state_bytes(state) == _state_bytes(twin)
        assert [state.step for state in states] == [8] * lane + [1] + [0] * (3 - lane)

    @pytest.mark.parametrize("lane", [1, 2])
    def test_a_memory_cross_lanes_non_finite_loss_raises_as_a_serial_loop_does(self, lane):
        # lanes memory, memory_cross, memory_cross; the failing lane's NaN
        # moment reaches its parameters at Adam's first step
        cfg = tiny_config(variant="memory", head_hidden=6, slots=5, batch=3, encoder_hidden=5, dropout_rate=0.3)
        states, twins = self._runs(cfg, 3, cross=(1, 2))
        for state in (states[lane], twins[lane]):
            state.m_flat[0] = np.nan
        splits = self._splits(3)
        want, serial = _serial(twins, *splits)
        assert len(want) == lane and str(serial) == "train_epoch: non-finite loss at batch 1"
        with pytest.raises(NumericError) as got:
            fit(states, *splits)
        assert str(got.value) == str(serial)
        for state, twin in zip(states, twins):
            assert _state_bytes(state) == _state_bytes(twin)
        assert [state.step for state in states] == [8] * lane + [1] + [0] * (2 - lane)

    @pytest.mark.parametrize("lane, block, batch_index", [
        (0, "params", 0),   # the serial loop raises before any run trains
        (1, "params", 0),   # lane 0 trains and is scored first
        (1, "moment", 1),   # Adam's first step spreads the NaN: lane 1 fails mid-epoch
        (2, "moment", 1),
    ])
    def test_a_non_finite_loss_raises_as_a_serial_loop_does(self, lane, block, batch_index):
        cfg = tiny_config(variant="memory_single", head_hidden=6, slots=5, batch=3, encoder_hidden=5,
                          dropout_rate=0.3)
        states, twins = self._runs(cfg, 3)
        for state in (states[lane], twins[lane]):
            (state.params.flat if block == "params" else state.m_flat)[0] = np.nan
        splits = self._splits(3)
        want, serial = _serial(twins, *splits)
        assert len(want) == lane and str(serial) == f"train_epoch: non-finite loss at batch {batch_index}"
        with pytest.raises(NumericError) as got:
            fit(states, *splits)
        assert str(got.value) == str(serial)
        # the lanes before it trained, it stopped where the serial run
        # stopped, and the lanes after it are as they were given
        for state, twin in zip(states, twins):
            assert _state_bytes(state) == _state_bytes(twin)
        # two epochs of four batches
        assert [state.step for state in states] == [8] * lane + [batch_index] + [0] * (2 - lane)

    def test_train_epoch_over_lanes_raises_as_a_serial_loop_does(self):
        cfg = tiny_config(variant="memory", head_hidden=6, slots=5, batch=3, dropout_rate=0.3)
        states, twins = self._runs(cfg, 3)
        for state in (states[1], twins[1]):
            state.m_flat[0] = np.nan
        train = self._splits(3)[0]
        _, loss = train_epoch(twins[0], train)
        with pytest.raises(NumericError) as serial:
            train_epoch(twins[1], train)
        with pytest.raises(NumericError) as got:
            train_epoch(states, train)
        assert str(got.value) == str(serial.value)
        assert got.value.losses == [loss]
        for state, twin in zip(states, twins):
            assert _state_bytes(state) == _state_bytes(twin)

    @pytest.mark.parametrize("fails, steps", [
        # lane 1 fails in epoch 2: the lanes after it never train
        ({1: (2, 1)}, [8, 5, 0, 0]),
        # lane 2 fails at an earlier batch than lane 1: the serial loop never reaches it
        ({1: (1, 3), 2: (1, 2)}, [8, 3, 0, 0]),
        # lane 2 fails in epoch 1, lane 1 in epoch 2
        ({1: (2, 0), 2: (1, 1)}, [8, 4, 0, 0]),
    ])
    def test_a_lane_failing_at_a_chosen_step_raises_as_a_serial_loop_does(self, monkeypatch, fails, steps):
        # lanes at 5, 5, 7, 7 slots, memory_cross at 1 and 3, with dropout;
        # lane i's training logits turn NaN at batch b of epoch e, (e, b) = fails[i]
        cfg = tiny_config(variant="memory", head_hidden=6, batch=3, encoder_hidden=5, dropout_rate=0.3)
        splits = self._splits(3)
        train = splits[0]

        def runs():
            return self._runs(cfg, 4, cross=(1, 3), slots=(5, 5, 7, 7))

        # the bits a lane's parameters hold at its failing step: a serial
        # twin trained on the epochs before it and that epoch's first b batches
        flats = set()
        for lane, (epoch, batch) in fails.items():
            state = runs()[0][lane]
            for _ in range(epoch - 1):
                train_epoch(state, train)
            if batch:
                train_epoch(state, tuple(column[: 3 * batch] for column in train))
            flats.add(state.params.flat.tobytes())
        _poison_lanes(monkeypatch, flats, "forward_logits")

        states, twins = runs()
        want, serial = _serial(twins, *splits)
        assert serial is not None
        with pytest.raises(NumericError) as got:
            fit(states, *splits)
        assert str(got.value) == str(serial)
        assert [(repr(c), r.to_dict()) for c, r in got.value.results] == [(repr(c), r.to_dict()) for c, r in want]
        for state, twin in zip(states, twins):
            assert _state_bytes(state) == _state_bytes(twin)
        assert [state.step for state in states] == steps

        # one epoch over lanes against a serial loop of train_epoch
        states, twins = runs()
        losses, serial = [], None
        for twin in twins:
            try:
                losses.append(train_epoch(twin, train)[1])
            except NumericError as err:
                serial = err
                break
        if serial is None:
            assert train_epoch(states, train)[1] == losses
        else:
            with pytest.raises(NumericError) as got:
                train_epoch(states, train)
            assert str(got.value) == str(serial) and got.value.losses == losses
        for state, twin in zip(states, twins):
            assert _state_bytes(state) == _state_bytes(twin)

    def test_non_finite_logits_hand_back_the_runs_before_them(self, monkeypatch):
        # lane 1's second validation pass is non-finite: fit raises the
        # serial loop's error with lane 0's run, and lane 2 never trains
        cfg = tiny_config(variant="memory", head_hidden=6, slots=5, batch=3)
        splits = self._splits(3)
        clean, _ = self._runs(cfg, 3)
        final = train_epoch(train_epoch(clean[1], splits[0])[0], splits[0])[0].params.flat.tobytes()
        _poison_lanes(monkeypatch, {final})
        states, twins = self._runs(cfg, 3)
        want, serial = _serial(twins, *splits)
        assert len(want) == 1 and str(serial) == "evaluate: non-finite logits for sample 2 of 11"
        with pytest.raises(NumericError) as got:
            fit(states, *splits)
        assert str(got.value) == str(serial)
        assert [(repr(c), r.to_dict()) for c, r in got.value.results] == [(repr(c), r.to_dict()) for c, r in want]
        for state, twin in zip(states, twins):
            assert _state_bytes(state) == _state_bytes(twin)
        assert [state.step for state in states] == [8, 8, 0]

    def test_non_finite_logits_of_an_earlier_run_raise_first(self, monkeypatch):
        cfg = tiny_config(variant="memory", head_hidden=6, slots=5, batch=3)
        splits = self._splits(3)
        # the bits each run's parameters have after epoch 1 and after training
        clean, _ = self._runs(cfg, 3)
        after_epoch_1 = [train_epoch(copy.deepcopy(state), splits[0])[0].params.flat.tobytes() for state in clean]
        final = [train_epoch(train_epoch(state, splits[0])[0], splits[0])[0].params.flat.tobytes()
                 for state in clean]
        cases = [
            # lane 0's test pass, no validation set: it raises before lane 1's training error
            ((splits[0], None, splits[2]), {final[0]}, 1, "sample 2 of 7"),
            # lane 1's first validation pass: it raises before lane 2's training error
            (splits, {after_epoch_1[1]}, 2, "sample 2 of 11"),
            # no training error: lane 1's validation raises before lane 2's
            (splits, {after_epoch_1[1], after_epoch_1[2]}, None, "sample 2 of 11"),
        ]
        for case_splits, flats, failing, message in cases:
            with monkeypatch.context() as patch:
                _poison_lanes(patch, flats)
                states, twins = self._runs(cfg, 3)
                if failing is not None:
                    for state in (states[failing], twins[failing]):
                        state.m_flat[0] = np.nan
                _, serial = _serial(twins, *case_splits)
                with pytest.raises(NumericError, match=message) as got:
                    fit(states, *case_splits)
                assert str(got.value) == str(serial)


class TestLockstepCallBudget:
    """Lanes share every call of a step: the calls per lockstep step,
    numpy's and the standard library's included, do not grow with the
    lane count.

    Counts every call event, of Python and C functions alike, with
    sys.setprofile over lockstep epochs of two lengths at the paper shape
    (d = 8, batch 2, k = 20); their difference is the steps' own calls,
    without the per-epoch stacking, which takes a few calls per lane.
    Dropout, which draws each lane's mask from its own stream, is off.
    The garbage collector is off while counting: a collection runs
    whatever gc.callbacks hold (hypothesis installs one), and when it
    falls depends on the allocations of every test before.  No timing,
    so it cannot flake.  A stack of two slot counts runs the memory's
    ops once per slot group, so it pays one fixed set of calls more.
    """

    @staticmethod
    def _calls(lanes, rows, variant, slots=(20,)):
        # "a+b": the lanes take the kinds a, b, a, ... in turn; the first
        # lanes take slots[0] slots, the last ones slots[-1]
        kinds = variant.split("+")
        cfg = tiny_config(out_dim=4, batch=2, head_hidden=32, read_bias_init=0.0, transform_gain=1.0)
        states = [build_state(replace(cfg, seed=seed, variant=kinds[seed % len(kinds)],
                                      slots=slots[seed * len(slots) // lanes]), 4, 4)
                  for seed in range(lanes)]
        data = tiny_data(n=rows)
        train_epoch(states, data)  # first calls may fill caches
        calls = []

        def count(frame, event, arg):
            if event in ("call", "c_call"):
                calls.append(event)

        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(count)
        try:
            train_epoch(states, data)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        return len(calls)

    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled",
                                         "memory+memory_cross"])
    def test_calls_per_step_do_not_grow_with_lanes(self, variant):
        per_step = {lanes: self._calls(lanes, 120, variant) - self._calls(lanes, 40, variant) for lanes in (2, 5)}
        assert per_step[2] == per_step[5] > 0, per_step

    @pytest.mark.parametrize("variant", ["memory", "memory_single", "memory+memory_cross"])
    def test_a_second_slot_count_adds_one_fixed_set_of_calls(self, variant):
        extra = {lanes: [self._calls(lanes, 120, variant, slots) - self._calls(lanes, 40, variant, slots)
                         for slots in ((20,), (20, 100))] for lanes in (2, 5)}
        assert extra[2][1] - extra[2][0] == extra[5][1] - extra[5][0] > 0, extra
