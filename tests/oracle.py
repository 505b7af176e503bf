"""Independent straight-line reference for the fusion layer.

Everything here is pure-Python scalar arithmetic with explicit loops,
written directly from the layer's defining equations and sharing no
code with the package internals.  Softmax is the plain exp-normalize
form (fine for the small scores these tests use), so even the numerics
take a different path than the vectorized implementation.
loop_report is the metrics report written as one per-class loop.
"""

import math


def sl_softmax(xs):
    es = [math.exp(x) for x in xs]
    total = sum(es)
    return [e / total for e in es]


def sl_forward_example(w_read, b_read, w_comp, b_comp, w_scale, mem_rows, x, query):
    """One example through the layer against constant memory rows.

    Returns every intermediate keyed by the trace field names.
    """
    d = len(x)
    k = len(mem_rows)
    mapped = [
        sum(x[i] * w_read[i][j] for i in range(d)) + b_read[j] for j in range(d)
    ]
    read_scores = [
        sum(mapped[i] * mem_rows[r][i] for i in range(d)) for r in range(k)
    ]
    keys = sl_softmax(read_scores)
    recalled = [
        sum(keys[r] * mem_rows[r][i] for r in range(k)) for i in range(d)
    ]
    mlp_in = list(query) + recalled
    scores = [
        sum(mlp_in[i] * w_comp[i][j] for i in range(2 * d)) + b_comp[j]
        for j in range(d)
    ]
    attn = sl_softmax(scores)
    gated = [attn[j] * scores[j] for j in range(d)]
    pre_act = [gated[j] * w_scale[j] for j in range(d)]
    transformed = [p if p > 0.0 else 0.0 for p in pre_act]
    out = [x[j] + transformed[j] for j in range(d)]
    return {
        "fused": x,
        "query": query,
        "keys": keys,
        "recalled": recalled,
        "mlp_in": mlp_in,
        "scores": scores,
        "attn": attn,
        "gated": gated,
        "pre_act": pre_act,
        "transformed": transformed,
        "out": out,
    }


def sl_write(mem_rows, keys_batch, values_batch):
    """Mean-aggregated erase-then-add update, row by row."""
    batch = len(keys_batch)
    k = len(mem_rows)
    d = len(mem_rows[0])
    new_rows = []
    for j in range(k):
        erase = sum(keys_batch[b][j] for b in range(batch)) / batch
        add = [
            sum(keys_batch[b][j] * values_batch[b][i] for b in range(batch)) / batch
            for i in range(d)
        ]
        new_rows.append(
            [mem_rows[j][i] * (1.0 - erase) + add[i] for i in range(d)]
        )
    return new_rows


def sl_layer_batch(w_read, b_read, w_comp, b_comp, w_scale, mem_rows, batch_m1, batch_m2, cross=False, single_mode=0):
    """Full batch: per-example forward against the shared pre-step memory,
    then one aggregated write.  single_mode 1 or 2 restricts the input."""
    traces = []
    for m1, m2 in zip(batch_m1, batch_m2):
        if single_mode == 1:
            x, query = list(m1), list(m1)
        elif single_mode == 2:
            x, query = list(m2), list(m2)
        else:
            x = list(m1) + list(m2)
            query = (list(m2) + list(m1)) if cross else x
        traces.append(
            sl_forward_example(w_read, b_read, w_comp, b_comp, w_scale, mem_rows, x, query)
        )
    new_rows = sl_write(
        mem_rows,
        [t["keys"] for t in traces],
        [t["transformed"] for t in traces],
    )
    return traces, new_rows


SL_GOLDEN = 0x9E3779B97F4A7C15
SL_MASK64 = (1 << 64) - 1


def sl_mix64(z):
    """SplitMix64's finalizer on one Python int, reduced mod 2**64 by hand."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & SL_MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & SL_MASK64
    return z ^ (z >> 31)


def sl_uniforms(seed, first, n):
    """Uniforms in [0, 1) from draws first .. first + n - 1 of a SplitMix64
    stream: draw i is mix64(seed + (i + 1) * golden) mod 2**64, and its
    top 53 bits scaled by 2**-53 are the uniform."""
    seed &= SL_MASK64
    return [
        (sl_mix64((seed + (i + 1) * SL_GOLDEN) & SL_MASK64) >> 11) * 2.0**-53
        for i in range(first, first + n)
    ]


def sl_box_muller(u, n, mu=0.0, sigma=1.0):
    """n normals from 2 * ceil(n / 2) uniforms by the whole-array Box-Muller
    formula: radii from the first half, angles from the second, even
    outputs cos and odd outputs sin.  Unlike the rest of this module it
    uses numpy's log, sqrt, cos and sin, so that its bits can be compared
    with the package's; only the formula is independent."""
    import numpy as np

    u = np.array(u, dtype=np.float64)
    pairs = (n + 1) // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))
    theta = 2.0 * np.pi * u[pairs:]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return mu + sigma * z[:n]


def per_batch_forward(forward_logits, config, params, memories, m1, m2):
    """Logits and final memories from running `forward_logits` over
    consecutive batches of `config.batch` rows (the last may be short),
    each batch reading the memories the one before it wrote.

    This is evaluation's batch-by-batch definition, which the row-block
    path must reproduce bit for bit.  forward_logits is passed in, so
    this module still imports nothing from the package.
    """
    import numpy as np

    n = m1.shape[0]
    logits = np.empty((n, config.classes))
    for start in range(0, n, config.batch):
        rows = slice(start, start + config.batch)
        logits[rows], cache = forward_logits(config, params, memories, m1[rows], m2[rows])
        memories = cache.new_memories
    return logits, list(memories)


def loop_report(confusion):
    """The metrics report of a confusion matrix as a to_dict document,
    built class by class in one loop with the scores kept as numpy
    scalars until the end: the form compute_report had before it read
    the matrix's margins as Python lists.  Imports nothing from the
    package; missing classes warn with the package's text.
    """
    import warnings

    import numpy as np

    counts = np.asarray(confusion, dtype=np.int64)
    total = int(counts.sum())
    classes = counts.shape[0]
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    diag = np.diag(counts)

    wa = float(diag.sum() / total)

    per_class = []
    recalls = []
    missing = []
    empty_pred = []
    for c in range(classes):
        prec = float(diag[c] / predicted[c]) if predicted[c] > 0 else 0.0
        if predicted[c] == 0:
            empty_pred.append(c)
        if support[c] > 0:
            rec = float(diag[c] / support[c])
            recalls.append(rec)
        else:
            rec = 0.0
            missing.append(c)
        f1 = 2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        per_class.append({"precision": prec, "recall": rec, "f1": f1, "support": int(support[c])})

    if missing:
        warnings.warn(f"compute_report: classes {missing} have no true samples; excluded from ua")
    ua = float(np.mean(recalls))

    weights = support / total
    weighted = {
        name: float(sum(w * c[name] for w, c in zip(weights, per_class)))
        for name in ("precision", "recall", "f1")
    }
    return {
        "wa": wa,
        "ua": ua,
        "per_class": per_class,
        "weighted_avg": {**weighted, "support": total},
        "confusion": counts.tolist(),
        "empty_prediction_classes": empty_pred,
        "missing_classes": missing,
    }
