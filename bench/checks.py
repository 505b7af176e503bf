"""Output checks, each computed apart from the program, and their self-test.

Every check raises :class:`CheckFailed` with a message when the program's
output is wrong.  The references are computed here from the method's
equations or from properties the method must have, never from a stored
copy of an earlier output.  ``self_test`` feeds every check a
deliberately wrong value and reports any check that accepts it.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12
# a cell must beat chance by this margin on held-out data
CHANCE_MARGIN = 0.05


class CheckFailed(Exception):
    pass


def close(what: str, got, want, tol: float = TOL) -> None:
    """Elementwise |got - want| <= tol * max(1, |want|), all finite."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed(f"{what}: non-finite value")
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))
    if not err <= tol:
        raise CheckFailed(f"{what}: max relative error {err:.3g} > {tol:g}")


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def fusion_reference(layer, memory, kind, mode, m1, m2, proj=None):
    """README steps 1-6, one example at a time; returns (outputs, new memory)."""
    outs, keys, written = [], [], []
    for b in range(m1.shape[0]):
        if kind == "memory_single":
            x = m1[b] if mode == 1 else m2[b]
            q = x
        else:
            x = np.concatenate([m1[b], m2[b]])
            q = np.concatenate([m2[b], m1[b]]) if kind == "memory_cross" else x
        z = _softmax(memory @ (layer.w_read.T @ x + layer.b_read))          # 1. read keys
        recalled = z @ memory                                                # 2. recalled slot
        scores = layer.w_comp.T @ np.concatenate([q, recalled]) + layer.b_comp  # 3. composer
        gated = _softmax(scores) * scores
        h = np.maximum(gated * layer.w_scale, 0.0)                           # 4. transform
        out = x + h                                                          # 6. residual output
        outs.append(out @ proj if kind == "memory_resampled" else out)
        keys.append(z)
        written.append(h)
    batch = len(outs)
    new_memory = np.empty_like(memory)
    for j in range(memory.shape[0]):                                         # 5. erase, then add
        erase = sum(z[j] for z in keys) / batch
        add = sum(z[j] * h for z, h in zip(keys, written)) / batch
        new_memory[j] = memory[j] * (1.0 - erase) + add
    return np.array(outs), new_memory


def fusion_pairs(fusion_forward, state, m1, m2):
    """(what, program value, reference value) for every fusion layer of a state."""
    pairs = []
    for i, variant in enumerate(state.config.layer_variants()):
        layer, memory = state.params.fusion_layers[i], state.memories[i]
        proj = state.params.proj if variant.kind == "memory_resampled" else None
        out, _, new_mem = fusion_forward(layer, memory, variant, m1, m2, proj=proj)
        ref_out, ref_mem = fusion_reference(layer, memory.matrix, variant.kind, variant.mode, m1, m2, proj)
        pairs.append((f"layer {i} output", out, ref_out))
        pairs.append((f"layer {i} written memory", new_mem.matrix, ref_mem))
    return pairs


def textbook_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def adam_pairs(model, state, m1, m2, labels):
    """One adam_step on a copy of the state against textbook Adam."""
    s = copy.deepcopy(state)
    _, grads, _ = model.loss_and_grads(s, m1, m2, labels)
    before = {k: (p.copy(), s.adam_m[k].copy(), s.adam_v[k].copy()) for k, p in s.params.named().items()}
    t = s.step + 1
    model.adam_step(s, grads)
    pairs = []
    for k, (p, m, v) in before.items():
        want_p, want_m, want_v = textbook_adam(p, grads[k], m, v, t, s.config.lr)
        pairs += [(f"adam {k}", s.params.named()[k], want_p),
                  (f"adam m.{k}", s.adam_m[k], want_m),
                  (f"adam v.{k}", s.adam_v[k], want_v)]
    return pairs


def check_pairs(pairs) -> None:
    for what, got, want in pairs:
        close(what, got, want)


def check_report(confusion, wa, ua, labels, classes) -> None:
    """The report follows from the confusion matrix and the true labels."""
    c = np.asarray(confusion)
    n = len(labels)
    if c.shape != (classes, classes) or (c < 0).any():
        raise CheckFailed(f"confusion shape {c.shape} or negative entry")
    if int(c.sum()) != n:
        raise CheckFailed(f"confusion sums to {int(c.sum())}, {n} samples")
    counts = np.bincount(np.asarray(labels), minlength=classes)
    if not np.array_equal(c.sum(axis=1), counts):
        raise CheckFailed(f"confusion row sums {c.sum(axis=1).tolist()} != label counts {counts.tolist()}")
    close("wa", wa, np.trace(c) / n)
    seen = counts > 0
    close("ua", ua, np.mean(np.diag(c)[seen] / counts[seen]))


def check_training(curves) -> None:
    """Finite losses, the last epoch below the first, validation scores in range."""
    losses = [row["train_loss"] for row in curves]
    if not losses or not all(math.isfinite(x) for x in losses):
        raise CheckFailed(f"non-finite or missing training loss: {losses}")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"last epoch loss {losses[-1]} not below first {losses[0]}")
    for row in curves:
        for key in ("val_wa", "val_ua"):
            if key in row and not 0.0 <= row[key] <= 1.0:
                raise CheckFailed(f"epoch {row['epoch']} {key} = {row[key]}")


def check_above_chance(wa, classes) -> None:
    if not (math.isfinite(wa) and wa > 1.0 / classes + CHANCE_MARGIN):
        raise CheckFailed(f"test wa {wa} not above chance 1/{classes} + {CHANCE_MARGIN}")


def snapshot_memories(state):
    return [(m.matrix.copy(), m.writes_enabled) for m in state.memories]


def check_memories_unchanged(before, state) -> None:
    after = snapshot_memories(state)
    if len(after) != len(before):
        raise CheckFailed("memory count changed")
    for i, ((m0, w0), (m1, w1)) in enumerate(zip(before, after)):
        if w0 != w1 or m0.shape != m1.shape or m0.tobytes() != m1.tobytes():
            raise CheckFailed(f"memory {i} changed by evaluate")


def check_same(what, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: {got!r} differs from the first round's {want!r}")


def ablation_row_counts(exp) -> dict:
    n = len(exp.seeds)
    return {
        "memory_size": len(exp.sweep_variants) * len(exp.sweep_slots) * n,
        "memory_location": 2 * n,
        "output_dim": len(exp.sweep_out_dims) * n,
        "baseline": n,
    }


def check_ablation(doc, schema, exp) -> None:
    """Schema, row counts, and the cell both studies share."""
    import jsonschema

    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailed(f"ablation.json fails its schema: {exc.message}") from None
    for study, want in ablation_row_counts(exp).items():
        if len(doc[study]) != want:
            raise CheckFailed(f"{study}: {len(doc[study])} rows, config implies {want}")
    slots = exp.classifier.slots
    for seed in exp.seeds:
        sized = [r for r in doc["memory_size"]
                 if (r["variant"], r.get("slots"), r["seed"]) == ("memory", slots, seed)]
        located = [r for r in doc["memory_location"] if (r["variant"], r["seed"]) == ("memory", seed)]
        if sized and located and sized[0] != located[0]:
            raise CheckFailed(f"memory/{slots}/seed {seed}: {sized[0]} != {located[0]}")


def load_schema(root: Path) -> dict:
    return json.loads((root / "src" / "memfuse" / "schemas" / "ablation.schema.json").read_text())


def _nudge(a):
    """The same array with its first entry moved by one part in 1e9."""
    a = np.array(a, dtype=np.float64, copy=True)
    a.flat[0] += 1e-9 * max(1.0, abs(a.flat[0]))
    return a


def self_test(evidence: dict):
    """Feed each check a wrong value; return (cases accepted, cases tried).

    ``evidence`` holds the values the run's checks accepted: ``pairs``
    (fusion and Adam), ``report`` (confusion, wa, ua, labels, classes),
    ``curves``, ``memories`` with ``state``, and for the sweep ``ablation``
    (doc, schema, exp).
    """
    cases = []
    for what, got, want in evidence["pairs"]:
        cases.append((f"{what} off by 1e-9", check_pairs, [(what, _nudge(got), want)]))
    c, wa, ua, labels, classes = evidence["report"]
    c = np.asarray(c)
    moved = c.copy()
    moved[0, 0] -= 1
    moved[1, 0] += 1
    extra = c.copy()
    extra[0, 0] += 1
    cases += [
        ("wa off by one sample", check_report, c, wa + 1.0 / len(labels), ua, labels, classes),
        ("ua off by 1e-9", check_report, c, wa, ua + 1e-9, labels, classes),
        ("count moved between rows", check_report, moved, wa, ua, labels, classes),
        ("one count too many", check_report, extra, wa, ua, labels, classes),
    ]
    curves = evidence["curves"]
    nan_loss = [dict(r) for r in curves]
    nan_loss[-1]["train_loss"] = float("nan")
    flat = [dict(r) for r in curves]
    flat[-1]["train_loss"] = flat[0]["train_loss"]
    cases += [
        ("nan loss", check_training, nan_loss),
        ("loss not falling", check_training, flat),
        ("wa at chance + margin", check_above_chance, 1.0 / classes + CHANCE_MARGIN, classes),
        ("round differs", check_same, "wa", wa, np.nextafter(wa, 2.0)),
    ]
    before, state = evidence["memories"]
    if before:
        flipped = [(m.copy(), w) for m, w in before]
        flipped[0][0].flat[0] = np.nextafter(flipped[0][0].flat[0], np.inf)
        cases.append(("memory bit flipped", check_memories_unchanged, flipped, state))
    if "ablation" in evidence:
        doc, schema, exp = evidence["ablation"]
        missing = {k: v for k, v in doc.items() if k != "baseline"}
        short = dict(doc, memory_size=doc["memory_size"][:-1])
        twin = json.loads(json.dumps(doc))
        for row in twin["memory_location"]:
            if row["variant"] == "memory":
                row["wa"] = float(np.nextafter(row["wa"], -1.0))
        cases += [
            ("study missing", check_ablation, missing, schema, exp),
            ("row missing", check_ablation, short, schema, exp),
            ("shared cell differs", check_ablation, twin, schema, exp),
        ]
    accepted = []
    for label, fn, *args in cases:
        try:
            fn(*args)
        except CheckFailed:
            continue
        accepted.append(label)
    return accepted, len(cases)
