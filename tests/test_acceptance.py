"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds (visible with
pytest -s); every tolerance is fixed here, nothing is calibrated at
run time.  The slow end-to-end criteria sit at the bottom, marked `slow`
so that `pytest -m "not slow"` runs everything else.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from memfuse.fusion import (
    MEMORY_CROSS,
    MEMORY_SINGLE,
    MemoryState,
    Variant,
    fusion_forward,
    init_memory,
    init_params,
    naive_fusion,
    param_count_formula,
    write_memory,
)
from memfuse.gradcheck import LayerCheckConfig, check_layer, standard_variants
from memfuse.kernels import Rng
from memfuse.metrics import compute_report
from memfuse.model import ClassifierConfig, build_state, fit
from memfuse.synthdata import TaskConfig, gen_dataset, split

from oracle import sl_layer_batch

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def announce(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}", flush=True)


def test_criterion_1_parameter_formula():
    assert param_count_formula(512, 512, 32) == 3_180_544
    assert 14_628_867 - 11_448_323 == 3_180_544
    announce(1, "closed-form parameter count reproduces the benchmark delta exactly")


def test_criterion_2_gradient_suite():
    worst = 0.0
    for variant in standard_variants():
        for seed in range(100):
            cfg = LayerCheckConfig(s1=3, s2=3, slots=4, batch=3, variant=variant)
            rep = check_layer(cfg, seed=seed, threshold=1e-5, step=1e-5)
            worst = max(worst, rep.max_rel)
            assert rep.passed, (
                f"variant {variant.kind} seed {seed}: max rel {rep.max_rel:.3e} "
                f"in block {rep.worst_block()}"
            )
    announce(2, f"analytic gradients match central differences, worst rel {worst:.2e} < 1e-5")


def test_criterion_3_oracle_equivalence():
    fields = (
        "fused", "query", "keys", "recalled", "mlp_in", "scores",
        "attn", "gated", "pre_act", "transformed", "out",
    )
    worst = 0.0
    for seed in range(50):
        rng = Rng(9000 + seed)
        params = init_params(rng.split(1), 4)
        mem = init_memory(rng.split(2), 3, 4)
        m1 = rng.normal(2 * 2).reshape(2, 2)
        m2 = rng.normal(2 * 2).reshape(2, 2)
        out, trace, new_mem = fusion_forward(params, mem, Variant(), m1, m2)
        sl_traces, sl_mem = sl_layer_batch(
            params.w_read.tolist(), params.b_read.tolist(), params.w_comp.tolist(),
            params.b_comp.tolist(), params.w_scale.tolist(),
            mem.matrix.tolist(), m1.tolist(), m2.tolist(),
        )
        for b, sl in enumerate(sl_traces):
            for field in fields:
                err = float(np.max(np.abs(getattr(trace, field)[b] - np.asarray(sl[field]))))
                worst = max(worst, err)
                assert err < 1e-12, (seed, b, field, err)
        err = float(np.max(np.abs(new_mem.matrix - np.asarray(sl_mem))))
        worst = max(worst, err)
        assert err < 1e-12
    announce(3, f"full forward matches the straight-line oracle, worst abs diff {worst:.2e} < 1e-12")


def test_criterion_4_memory_write_invariants():
    rng = np.random.default_rng(41)
    for case in range(1000):
        k = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        batch = int(rng.integers(1, 5))
        mem = MemoryState(rng.standard_normal((k, d)))
        before = mem.matrix.copy()

        # one-hot erase/replace exactness (single-example batch)
        z_hot = np.zeros((1, k))
        row = int(rng.integers(0, k))
        z_hot[0, row] = 1.0
        h_one = rng.standard_normal((1, d))
        replaced = write_memory(mem, z_hot, h_one)
        assert np.array_equal(replaced.matrix[row], h_one[0])
        others = [j for j in range(k) if j != row]
        assert np.array_equal(replaced.matrix[others], before[others])

        # write-disabled bit-identity
        frozen = MemoryState(before.copy(), writes_enabled=False)
        z = np.abs(rng.random((batch, k))) + 1e-9
        z /= z.sum(axis=1, keepdims=True)
        h = rng.standard_normal((batch, d))
        assert np.array_equal(write_memory(frozen, z, h).matrix, before)

        # per-row convex blend: new row sits between the old row and a
        # convex combination of the written vectors
        new = write_memory(mem, z, h)
        erase = z.mean(axis=0)
        assert np.all(erase >= 0) and np.all(erase <= 1)
        for j in range(k):
            target = (z[:, j] @ h) / z[:, j].sum()
            lo = np.minimum(h.min(axis=0), target)
            hi = np.maximum(h.max(axis=0), target)
            assert np.all(target >= lo - 1e-12) and np.all(target <= hi + 1e-12)
            blended = before[j] * (1 - erase[j]) + erase[j] * target
            assert np.max(np.abs(new.matrix[j] - blended)) < 1e-12

        # batch-order invariance of the aggregated write
        perm = rng.permutation(batch)
        new_p = write_memory(mem, z[perm], h[perm])
        assert np.max(np.abs(new_p.matrix - new.matrix)) < 1e-12
    announce(4, "1000 randomized write cases: one-hot replace, freeze identity, convex blend, order invariance")


def test_criterion_5_shape_contract():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s1 = int(rng.integers(1, 12))
        s2 = int(rng.integers(1, 12))
        batch = int(rng.integers(1, 4))
        m1 = rng.standard_normal((batch, s1))
        m2 = rng.standard_normal((batch, s2))
        naive_dim = naive_fusion(m1, m2).shape[1]
        assert naive_dim == s1 + s2
        seed = int(rng.integers(0, 2**31))
        for variant in (Variant(), Variant(MEMORY_CROSS)):
            params = init_params(Rng(seed), s1 + s2)
            mem = init_memory(Rng(seed + 1), 3, s1 + s2)
            out, _, _ = fusion_forward(params, mem, variant, m1, m2)
            assert out.shape == (batch, naive_dim)
        for mode, width in ((1, s1), (2, s2)):
            params = init_params(Rng(seed + 2), width)
            mem = init_memory(Rng(seed + 3), 3, width)
            out, _, _ = fusion_forward(params, mem, Variant(MEMORY_SINGLE, mode=mode), m1, m2)
            assert out.shape == (batch, width)
    announce(5, "memory fusion output width equals plain concatenation over 100 random shape pairs")


def _regime_experiment():
    doc = json.loads((CONFIG_DIR / "regime.json").read_text())
    task = TaskConfig(**doc["task"])
    cls_doc = dict(doc["classifier"])
    cls_doc["classes"] = task.classes
    return task, cls_doc, doc


@pytest.mark.slow
def test_criterion_6_directional_synthetic_result():
    task, cls_doc, doc = _regime_experiment()
    assert task.occlusion_prob == 0.5
    assert task.regime_period == 8
    assert task.classes == 3
    assert task.length == 10_000
    assert cls_doc["epochs"] == 10
    data = gen_dataset(task)
    train, _, test = split(data, doc["train_frac"], doc["val_frac"])

    def run(variant, seed):
        cfg = ClassifierConfig(**{**cls_doc, "variant": variant, "slots": 20, "seed": seed})
        state = build_state(cfg, task.s1, task.s2)
        return fit(state, train, None, test)[1].wa

    memory_wa, naive_wa = [], []
    for seed in doc["seeds"][:5]:
        memory_wa.append(run("memory", seed))
        naive_wa.append(run("naive", seed))
    wins = sum(m > n for m, n in zip(memory_wa, naive_wa))
    assert np.mean(memory_wa) >= np.mean(naive_wa), (memory_wa, naive_wa)
    assert wins >= 4, (memory_wa, naive_wa)
    announce(
        6,
        f"memory fusion (k=20) beats naive fusion {wins}/5 seeds, "
        f"mean WA {np.mean(memory_wa):.4f} vs {np.mean(naive_wa):.4f}",
    )


@pytest.mark.slow
def test_criterion_7_ablation_harness(tmp_path):
    from memfuse.cli import main

    out = tmp_path / "ablation"
    code = main([
        "ablate", "--config", str(CONFIG_DIR / "smoke.json"), "--out", str(out)
    ])
    assert code == 0
    doc = json.loads((out / "ablation.json").read_text())
    slots_seen = sorted({row["slots"] for row in doc["memory_size"]})
    variants_seen = sorted({row["variant"] for row in doc["memory_size"]})
    assert slots_seen == [10, 20, 30, 40, 50, 100]
    assert variants_seen == ["memory", "memory_cross"]
    chance_plus = 1.0 / 3.0 + 0.05
    worst = min(row["wa"] for row in doc["memory_size"])
    assert worst > chance_plus, f"worst sweep cell wa {worst:.4f}"
    announce(7, f"full slot sweep x (plain, cross) completed; worst cell WA {worst:.4f} > {chance_plus:.4f}")


def test_criterion_8_deterministic_metrics(tmp_path):
    from memfuse.cli import main

    cfg_doc = {
        "task": {"s1": 4, "s2": 4, "classes": 3, "regimes": 3, "regime_period": 8,
                 "occlusion_prob": 0.5, "noise_sigma": 0.25, "length": 400, "seed": 7},
        "classifier": {"variant": "memory", "head_hidden": 8, "slots": 4,
                       "lr": 0.002, "batch": 4, "epochs": 2, "seed": 0},
        "seeds": [0],
        "out_dir": str(tmp_path / "run"),
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(cfg_doc))
    assert main(["train", "--config", str(cfg)]) == 0
    first = (tmp_path / "run" / "metrics.json").read_bytes()
    assert main(["train", "--config", str(cfg)]) == 0
    second = (tmp_path / "run" / "metrics.json").read_bytes()
    assert first == second
    announce(8, "identical config+seed reproduces metrics.json byte for byte")


def test_criterion_9_metrics_correctness():
    rep = compute_report([[90, 10], [40, 60]])
    assert rep.wa == 0.75
    assert rep.ua == 0.75
    assert rep.per_class[0].recall == 0.90
    announce(9, "hand confusion matrix yields wa=0.75, ua=0.75, recall_0=0.90 exactly")
