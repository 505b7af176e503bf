"""Metrics-module contracts."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracle import loop_report

from memfuse.errors import ParameterError
from memfuse.metrics import (
    compute_report,
    confusion_matrix,
    confusion_to_csv,
    report_from_labels,
)


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        labels = [0, 1, 2, 1, 0, 2, 2]
        cm = confusion_matrix(labels, labels, 3)
        assert np.all(cm == np.diag(np.diag(cm)))
        assert cm.sum() == len(labels)

    def test_single_sample(self):
        cm = confusion_matrix([0], [2], 3)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 2] = 1
        np.testing.assert_array_equal(cm, expected)

    @settings(max_examples=200, deadline=None)
    @given(classes=st.integers(1, 9), n=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    def test_random_against_hand_tally(self, classes, n, seed):
        rng = np.random.default_rng(seed)
        true, pred = rng.integers(0, classes, size=n), rng.integers(0, classes, size=n)
        tally = np.zeros((classes, classes), dtype=np.int64)
        np.add.at(tally, (true, pred), 1)
        cm = confusion_matrix(true, pred, classes)
        assert cm.dtype == np.int64 and cm.shape == (classes, classes)
        assert cm.tobytes() == tally.tobytes()

    def test_non_whole_labels_are_refused(self):
        # the int64 cast would count [0.5, 1.9, 2.2] as a perfect diagonal
        with pytest.raises(ParameterError, match="whole numbers"):
            confusion_matrix([0.5, 1.9, 2.2], [0, 1, 2], 3)
        with pytest.raises(ParameterError, match="whole numbers"):
            confusion_matrix([0, 1, 2], [0, 1, float("nan")], 3)
        np.testing.assert_array_equal(confusion_matrix([0.0, 1.0, 2.0], [0, 1, 2.0], 3), np.eye(3, dtype=np.int64))

    def test_out_of_range_label(self):
        with pytest.raises(ParameterError):
            confusion_matrix([0, 5], [0, 1], 3)
        with pytest.raises(ParameterError):
            confusion_matrix([0, 1], [0, -1], 3)


class TestComputeReport:
    def test_perfect_two_class(self):
        rep = compute_report([[50, 0], [0, 50]])
        assert rep.wa == 1.0
        assert rep.ua == 1.0
        assert all(c.f1 == 1.0 for c in rep.per_class)

    def test_hand_arithmetic(self):
        rep = compute_report([[90, 10], [40, 60]])
        assert rep.wa == 0.75
        assert rep.ua == (0.9 + 0.6) / 2
        assert rep.per_class[0].recall == 0.9
        assert rep.per_class[1].recall == 0.6
        # precision: 90/130 and 60/70
        np.testing.assert_allclose(rep.per_class[0].precision, 90 / 130)
        np.testing.assert_allclose(rep.per_class[1].precision, 60 / 70)

    def test_wa_and_ua_are_distinct_statistics(self):
        # imbalanced case: overall accuracy and macro recall must differ
        rep = compute_report([[98, 2], [5, 5]])
        assert rep.wa == 103 / 110
        assert rep.ua == (0.98 + 0.5) / 2
        assert rep.wa != rep.ua

    def test_weighted_recall_equals_wa(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            cm = rng.integers(0, 30, size=(4, 4))
            cm[0, 0] += 1  # nonzero total
            rep = compute_report(cm)
            np.testing.assert_allclose(rep.weighted_avg.recall, rep.wa, atol=1e-12)
            np.testing.assert_allclose(rep.wa, np.trace(cm) / cm.sum(), atol=1e-12)

    def test_ua_invariant_to_class_duplication(self):
        cm = np.array([[8, 2, 0], [1, 6, 3], [0, 2, 8]])
        rep = compute_report(cm)
        doubled = cm.copy()
        doubled[1] *= 2
        rep2 = compute_report(doubled)
        np.testing.assert_allclose(rep.ua, rep2.ua, atol=1e-12)

    def test_empty_predicted_column_flagged(self):
        rep = compute_report([[5, 0], [5, 0]])
        assert rep.per_class[1].precision == 0.0
        assert rep.empty_prediction_classes == [1]

    def test_zero_support_class_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            rep = compute_report([[10, 0, 0], [2, 8, 0], [0, 0, 0]])
        assert rep.missing_classes == [2]
        np.testing.assert_allclose(rep.ua, (1.0 + 0.8) / 2)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ParameterError):
            compute_report(np.zeros((3, 3), dtype=int))

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError):
            compute_report(np.zeros((2, 3), dtype=int))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), classes=st.integers(1, 8))
    def test_same_bits_as_the_per_class_loop(self, data, classes):
        # any counts up to 1e6, with some whole rows (missing classes) and
        # whole columns (classes never predicted) zeroed
        count = st.one_of(st.integers(0, 10**6), st.integers(0, 10), st.just(0))
        counts = data.draw(arrays(np.int64, (classes, classes), elements=count))
        zeroed = arrays(np.bool_, classes, elements=st.sampled_from([False, False, False, True]))
        counts[data.draw(zeroed)] = 0
        counts[:, data.draw(zeroed)] = 0
        if counts.sum() == 0:
            counts[data.draw(st.integers(0, classes - 1)), data.draw(st.integers(0, classes - 1))] = 1
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = loop_report(counts)
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = compute_report(counts).to_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]
        for scores in got["per_class"] + [got["weighted_avg"]]:
            assert [type(scores[k]) for k in ("precision", "recall", "f1", "support")] == [float] * 3 + [int]
        assert type(got["wa"]) is float and type(got["ua"]) is float


class TestHelpers:
    def test_report_from_labels_matches_manual(self):
        rng = np.random.default_rng(37)
        true = rng.integers(0, 3, size=120)
        pred = rng.integers(0, 3, size=120)
        rep = report_from_labels(true, pred, 3)
        np.testing.assert_allclose(rep.wa, np.mean(true == pred))

    def test_csv_rendering(self):
        text = confusion_to_csv([[1, 2], [3, 4]])
        lines = text.strip().split("\n")
        assert lines[0].endswith("0,1")
        assert lines[1] == "0,1,2"
        assert lines[2] == "1,3,4"

    def test_report_round_trips_to_dict(self):
        rep = compute_report([[90, 10], [40, 60]])
        doc = rep.to_dict()
        assert doc["wa"] == 0.75
        assert doc["confusion"] == [[90, 10], [40, 60]]
        assert len(doc["per_class"]) == 2
