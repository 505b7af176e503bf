"""Synthetic stream generator contracts."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from memfuse import kernels
from memfuse.errors import ParameterError
from memfuse.kernels import Rng
from memfuse.synthdata import Dataset, TaskConfig, gen_dataset, regime_at, split, stack, to_csv


def small_config(**overrides):
    base = dict(
        s1=4, s2=4, classes=3, regimes=3, regime_period=8,
        occlusion_prob=0.5, noise_sigma=0.3, length=400, seed=11,
    )
    base.update(overrides)
    return TaskConfig(**base)


def plug_in_mi(x, labels, bins=12):
    """Histogram plug-in estimate of I(x; label) in bits."""
    edges = np.quantile(x, np.linspace(0, 1, bins + 1))
    edges[0] -= 1e-9
    edges[-1] += 1e-9
    xb = np.digitize(x, edges[1:-1])
    classes = labels.max() + 1
    joint = np.zeros((bins, classes))
    for xi, yi in zip(xb, labels):
        joint[xi, yi] += 1
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log2(joint[nz] / (px @ py)[nz])))


class TestGeneration:
    def test_deterministic(self):
        cfg = small_config()
        a = gen_dataset(cfg)
        b = gen_dataset(cfg)
        np.testing.assert_array_equal(a.m1, b.m1)
        np.testing.assert_array_equal(a.m2, b.m2)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_columns(self):
        cfg = small_config(s1=3, s2=5, length=50)
        data = gen_dataset(cfg)
        assert isinstance(data, Dataset)
        assert (data.m1.shape, data.m2.shape, data.labels.shape) == ((50, 3), (50, 5), (50,))
        assert (data.m1.dtype, data.m2.dtype, data.labels.dtype) == (np.float64, np.float64, np.int64)
        m1, m2, labels = data
        assert m1 is data.m1 and m2 is data.m2 and labels is data.labels

    def test_noiseless_case_is_lookup_separable(self):
        # tiny noise, no occlusion: a lookup table keyed on rounded
        # features predicts every sample
        cfg = small_config(occlusion_prob=0.0, noise_sigma=1e-7, length=300)
        m1, m2, labels = gen_dataset(cfg)
        table = {}
        for x1, x2, label in zip(m1, m2, labels):
            key = (tuple(np.round(x1, 4)), tuple(np.round(x2, 4)))
            table.setdefault(key, label)
        correct = sum(
            table[(tuple(np.round(x1, 4)), tuple(np.round(x2, 4)))] == label
            for x1, x2, label in zip(m1, m2, labels)
        )
        assert correct == len(labels) == cfg.length
        # far fewer distinct keys than samples, so the table generalizes
        assert len(table) <= cfg.regimes * cfg.classes

    def test_labels_follow_regime_plus_signal_rule(self):
        cfg = small_config(occlusion_prob=0.0, noise_sigma=1e-9, length=200)
        m1, m2, labels = gen_dataset(cfg)
        # reconstruct prototype tables from noiseless features; row t is step t
        m1_protos, m2_protos = {}, {}
        for t, label in enumerate(labels):
            r = regime_at(cfg, t)
            m1_protos.setdefault(r, m1[t])
            sig = (label - r) % cfg.classes
            m2_protos.setdefault(sig, m2[t])
        for t, label in enumerate(labels):
            r = regime_at(cfg, t)
            np.testing.assert_allclose(m1[t], m1_protos[r], atol=1e-6)
            sig = (label - r) % cfg.classes
            np.testing.assert_allclose(m2[t], m2_protos[sig], atol=1e-6)

    def test_full_occlusion_kills_mode1_information(self):
        cfg = small_config(occlusion_prob=1.0, length=10_000)
        m1, _, y = stack(gen_dataset(cfg))
        mi = plug_in_mi(m1[:, 0], y)
        # permutation baseline calibrates the plug-in bias
        rng = np.random.default_rng(0)
        baseline = plug_in_mi(m1[:, 0], rng.permutation(y))
        assert mi < 3 * baseline + 0.01

    def test_mode2_stays_informative_about_signal(self):
        cfg = small_config(occlusion_prob=1.0, length=10_000, noise_sigma=0.2)
        _, m2, y = stack(gen_dataset(cfg))
        signals = np.array(
            [(label - regime_at(cfg, t)) % cfg.classes for t, label in enumerate(y)]
        )
        assert plug_in_mi(m2[:, 0], signals) > 0.2

    def test_occlusion_preserves_scale(self):
        # occlusion noise is sized to the theoretical marginal scale of
        # prototype + noise, sqrt(1 + sigma^2)
        sigma = 0.5
        cfg = small_config(occlusion_prob=1.0, length=20_000, noise_sigma=sigma)
        m1_occ, _, _ = stack(gen_dataset(cfg))
        assert abs(m1_occ.std() - np.sqrt(1 + sigma**2)) < 0.02
        # with many regimes the clean marginal concentrates to the same scale
        many = small_config(
            occlusion_prob=0.0, length=20_000, noise_sigma=sigma, regimes=40, s1=8
        )
        m1_clean, _, _ = stack(gen_dataset(many))
        assert abs(m1_occ.std() / m1_clean.std() - 1.0) < 0.15

    def test_class_balance(self):
        cfg = small_config(length=10_000)
        _, _, y = stack(gen_dataset(cfg))
        freqs = np.bincount(y, minlength=cfg.classes) / y.size
        assert np.all(np.abs(freqs - 1 / cfg.classes) < 0.03)

    def test_invalid_configs(self):
        with pytest.raises(ParameterError):
            small_config(classes=1)
        with pytest.raises(ParameterError):
            small_config(occlusion_prob=1.5)
        with pytest.raises(ParameterError):
            small_config(noise_sigma=0.0)
        with pytest.raises(ParameterError):
            small_config(regime_period=0)
        with pytest.raises(ParameterError):
            small_config(length=0)


def rows(part):
    """Row count of a dataset, checked to agree across its three columns."""
    assert len(part.m1) == len(part.m2) == len(part.labels)
    return len(part.labels)


class TestSplit:
    def test_eight_one_one(self):
        data = gen_dataset(small_config(length=1000))
        train, val, test = split(data, 0.8, 0.1)
        assert (rows(train), rows(val), rows(test)) == (800, 100, 100)

    def test_half_quarter(self):
        data = gen_dataset(small_config(length=100))
        train, val, test = split(data, 0.5, 0.25)
        assert (rows(train), rows(val), rows(test)) == (50, 25, 25)

    def test_partition_preserves_order(self):
        data = gen_dataset(small_config(length=200))
        parts = split(data, 0.6, 0.2)
        for i, column in enumerate(data):
            rejoined = np.concatenate([part[i] for part in parts])
            assert rejoined.tobytes() == column.tobytes()
            for part in parts:
                assert isinstance(part, Dataset) and part[i].base is column

    def test_stack_returns_the_columns_without_copying(self):
        data = gen_dataset(small_config(length=60))
        test = split(data, 0.5, 0.25)[2]
        stacked = stack(test)
        assert all(a is b for a, b in zip(stacked, test))
        m1, m2, y = stack(data)
        assert m1 is data.m1 and m2 is data.m2 and y is data.labels
        with pytest.raises(ParameterError):
            stack(Dataset(data.m1[:0], data.m2[:0], data.labels[:0]))

    def test_degenerate_rejected(self):
        data = gen_dataset(small_config(length=100))
        with pytest.raises(ParameterError):
            split(data, 0.9, 0.1)
        with pytest.raises(ParameterError):
            split(data, 0.0, 0.5)
        with pytest.raises(ParameterError):
            split(gen_dataset(small_config(length=3)), 0.5, 0.25)


class TestExport:
    def test_csv_shape(self):
        data = gen_dataset(small_config(length=5))
        text = to_csv(data)
        lines = text.strip().split("\n")
        assert len(lines) == 6
        header = lines[0].split(",")
        assert header[:2] == ["t", "label"]
        assert header[2] == "m1_0" and header[-1] == "m2_3"
        assert len(lines[1].split(",")) == 2 + 4 + 4

    def test_csv_round_trip_values(self):
        m1, m2, labels = gen_dataset(small_config(length=3))
        lines = to_csv((m1, m2, labels)).strip().split("\n")[1:]
        assert len(lines) == 3
        for t, line in enumerate(lines):
            parts = line.split(",")
            assert int(parts[0]) == t
            assert int(parts[1]) == labels[t]
            np.testing.assert_array_equal(
                np.array([float(v) for v in parts[2:6]]), m1[t]
            )
            np.testing.assert_array_equal(
                np.array([float(v) for v in parts[6:10]]), m2[t]
            )


class TestReference:
    def test_matches_a_row_by_row_rebuild(self):
        """gen_dataset equals, bit for bit, the stream rebuilt one step at a
        time from Rng draws taken in the documented order: proto1, proto2,
        signals, occluded, noise1, noise2, occ_noise."""
        cfg = small_config(s1=3, s2=2, length=90, regime_period=5, occlusion_prob=0.4)
        n, s1, s2, sigma = cfg.length, cfg.s1, cfg.s2, cfg.noise_sigma
        rng = Rng(cfg.seed)
        proto1 = rng.normal(cfg.regimes * s1).reshape(cfg.regimes, s1)
        proto2 = rng.normal(cfg.classes * s2).reshape(cfg.classes, s2)
        signals = rng.integers(n, cfg.classes)
        occluded = rng.uniform(n) < cfg.occlusion_prob
        noise1 = rng.normal(n * s1, 0.0, sigma).reshape(n, s1)
        noise2 = rng.normal(n * s2, 0.0, sigma).reshape(n, s2)
        occ_noise = rng.normal(n * s1, 0.0, float(np.sqrt(1.0 + sigma**2))).reshape(n, s1)
        assert occluded.any() and not occluded.all()

        want_m1, want_m2, want_labels = [], [], []
        for t in range(n):
            regime = (t // cfg.regime_period) % cfg.regimes
            signal = int(signals[t])
            want_m1.append(occ_noise[t] if occluded[t] else proto1[regime] + noise1[t])
            want_m2.append(proto2[signal] + noise2[t])
            want_labels.append((regime + signal) % cfg.classes)

        m1, m2, labels = gen_dataset(cfg)
        assert m1.tobytes() == np.array(want_m1).tobytes() and m1.shape == (n, s1)
        assert m2.tobytes() == np.array(want_m2).tobytes() and m2.shape == (n, s2)
        assert labels.dtype == np.int64 and labels.tolist() == want_labels


def rebuild(cfg):
    """The stream rebuilt one step at a time from whole Rng draws taken in
    the documented order (proto1, proto2, signals, occluded, noise1,
    noise2, occ_noise), as (m1, m2, labels) arrays."""
    n, s1, s2, sigma = cfg.length, cfg.s1, cfg.s2, cfg.noise_sigma
    rng = Rng(cfg.seed)
    proto1 = rng.normal(cfg.regimes * s1).reshape(cfg.regimes, s1)
    proto2 = rng.normal(cfg.classes * s2).reshape(cfg.classes, s2)
    signals = rng.integers(n, cfg.classes)
    occluded = rng.uniform(n) < cfg.occlusion_prob
    noise1 = rng.normal(n * s1, 0.0, sigma).reshape(n, s1)
    noise2 = rng.normal(n * s2, 0.0, sigma).reshape(n, s2)
    occ_noise = rng.normal(n * s1, 0.0, float(np.sqrt(1.0 + sigma**2))).reshape(n, s1)
    m1, m2, labels = [], [], []
    for t in range(n):
        regime = (t // cfg.regime_period) % cfg.regimes
        m1.append(occ_noise[t] if occluded[t] else proto1[regime] + noise1[t])
        m2.append(proto2[signals[t]] + noise2[t])
        labels.append((regime + int(signals[t])) % cfg.classes)
    return np.array(m1).reshape(n, s1), np.array(m2).reshape(n, s2), np.array(labels)


class TestOcclusionExtremes:
    """With no row or every row occluded, one of the two mode-1 draws
    writes nothing and the other every row; the stream must still be the
    row-by-row rebuild's, odd widths and many blocks included."""

    @pytest.mark.parametrize("prob", [0.0, 1.0])
    @pytest.mark.parametrize("s1, s2, length", [(3, 2, 90), (5, 4, 9000)])
    def test_matches_the_row_by_row_rebuild(self, prob, s1, s2, length):
        cfg = small_config(s1=s1, s2=s2, length=length, regime_period=5, occlusion_prob=prob)
        got = gen_dataset(cfg)
        for column, want in zip(got, rebuild(cfg)):
            assert column.shape == want.shape and column.tobytes() == want.tobytes()


class TestDrawCount:
    """A deterministic guard on wasted draws, counting the uniforms that
    Rng._units computes while gen_dataset runs.  Every value the stream
    keeps costs half a Box-Muller pair; none is drawn to be thrown away.
    No timing, so it cannot flake."""

    @staticmethod
    def count_units(monkeypatch, cfg):
        sizes = []
        units = Rng._units

        def counting(self, z, *args):
            sizes.append(z.size)
            return units(self, z, *args)

        monkeypatch.setattr(Rng, "_units", counting)
        gen_dataset(cfg)
        return sum(sizes)

    @staticmethod
    def small_draws(cfg):
        """Uniforms of the prototype normals and the per-row signal and
        occlusion draws."""
        pairs = (cfg.regimes * cfg.s1 + 1) // 2 + (cfg.classes * cfg.s2 + 1) // 2
        return 2 * pairs + 2 * cfg.length

    def test_even_widths_draw_exactly_the_kept_pairs(self, monkeypatch):
        cfg = small_config(s1=32, s2=16, length=5000)
        assert cfg.length * cfg.s1 > 4 * kernels._BLOCK
        units = self.count_units(monkeypatch, cfg)
        assert units == self.small_draws(cfg) + cfg.length * (cfg.s1 + cfg.s2)

    def test_odd_width_draws_the_pairs_each_row_touches(self, monkeypatch):
        # a 5-wide row touches 3 pairs; m2's whole draw is ceil(n * 4 / 2) pairs
        cfg = small_config(s1=5, s2=4, length=999)
        units = self.count_units(monkeypatch, cfg)
        assert units == self.small_draws(cfg) + 2 * (cfg.length * 3 + (cfg.length * 4 + 1) // 2)


ROOT = Path(__file__).resolve().parent.parent


class TestPinnedStreams:
    """sha256 of the concatenated column bytes (m1, m2, labels) of shipped
    configs' streams.  Drawing in blocks and building the columns in
    place must leave every bit as it was."""

    @pytest.mark.parametrize("path, digest", [
        ("bench/configs/wide_train.json", "fd156e964dd5314444d0ac8ac9e1ffb29f60aa657227ca4d2cfd0640241a257e"),
        ("configs/regime.json", "4198bc9fdb51bbb901cbad6b3cdb90870f88df12a29df9d858ce4e972cab88ba"),
    ])
    def test_stream_bytes(self, path, digest):
        task = TaskConfig(**json.loads((ROOT / path).read_text())["task"])
        data = gen_dataset(task)
        assert hashlib.sha256(b"".join(c.tobytes() for c in data)).hexdigest() == digest


class TestMemory:
    """Traced allocations while building a stream of many blocks peak at
    no more than the kept columns, a few per-row vectors (signals,
    regimes, the occlusion draw and its row lists: PER_ROW bytes a row)
    and one block's scratch for each thread that draws (PER_THREAD).
    Neither scratch term grows with the width, so no stream-sized column
    is ever held beside the output."""

    PER_ROW = 48
    # a thread's buffers for 2**14 pairs and the mixing's temporaries peak
    # at about 1.2 MB; the threads can hit their peaks at the same time
    PER_THREAD = 3 * 2**19
    THREADS = 2

    @pytest.mark.parametrize("length", [8000, 32000])
    def test_peak_is_the_columns_plus_block_scratch(self, monkeypatch, length):
        monkeypatch.setattr(kernels, "_cpus", lambda: self.THREADS)
        cfg = small_config(s1=48, s2=16, length=length)
        assert cfg.length * cfg.s1 > 8 * kernels._BLOCK
        tracemalloc.start()
        try:
            data = gen_dataset(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(column.nbytes for column in data)
        bound = kept + self.PER_ROW * cfg.length + self.THREADS * self.PER_THREAD
        assert peak <= bound, (peak, kept, bound)
