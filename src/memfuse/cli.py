"""Experiment runner.

Subcommands: train, evaluate, ablate, gradcheck, gen-data.  Experiments
are described by a JSON config (schemas ship in memfuse/schemas/); a few
common fields can be overridden by flags.  Exit codes: 0 success, 1
check failure, 2 usage or config error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .fusion import MEMORY_SINGLE, parse_variant, table_views
from .gradcheck import (
    DEFAULT_STEP,
    DEFAULT_THRESHOLD,
    LayerCheckConfig,
    check_layer,
    standard_variants,
)
from .metrics import confusion_to_csv
from .model import (
    ClassifierConfig,
    TrainState,
    build_state,
    evaluate,
    fit,
    head_input_dim,
    lockstep_key,
)
from .serialize import load_arrays, save_arrays
from .synthdata import TaskConfig, gen_dataset, split, to_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


@dataclasses.dataclass
class ExperimentConfig:
    task: TaskConfig
    classifier: ClassifierConfig
    seeds: list[int]
    out_dir: str
    train_frac: float = 0.8
    val_frac: float = 0.1
    sweep_slots: list[int] = dataclasses.field(default_factory=lambda: [10, 20, 30, 40, 50, 100])
    sweep_variants: list[str] = dataclasses.field(default_factory=lambda: ["memory", "memory_cross"])
    sweep_out_dims: list[int] = dataclasses.field(default_factory=lambda: [4, 8, 16])

    def __post_init__(self):
        if not self.seeds:
            raise ParameterError("seeds list must be nonempty")


# field -> type of each config section, read once: get_type_hints evaluates
# the annotations' strings on every call
_FIELDS = typing.get_type_hints(ExperimentConfig)
_TASK_FIELDS = typing.get_type_hints(TaskConfig)
_CLASSIFIER_FIELDS = typing.get_type_hints(ClassifierConfig)
# a section is an object that is checked on its own
TOP_LEVEL_KEYS = {"task": object, "classifier": object, "sweep": object,
                  **{k: _FIELDS[k] for k in ("seeds", "train_frac", "val_frac", "out_dir")}}
SWEEP_KEYS = {k: _FIELDS[f"sweep_{k}"] for k in ("slots", "variants", "out_dims")}


def fits(value, kind) -> bool:
    """Whether a JSON value has a field's type: an int field takes no bool
    or float, a float field takes an int, a list field checks each item."""
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(fits(v, typing.get_args(kind)[0]) for v in value)
    if kind in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def checked_section(where: str, doc, types: dict) -> dict:
    """`doc` itself, once it is a JSON object whose keys are all in `types`
    and whose values each have the type `types` gives their key; a float
    must be finite (Python's json reads NaN and Infinity)."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ParameterError(f"unknown key {unknown[0]!r} in {where}; known keys: {', '.join(types)}")
    for key, value in doc.items():
        kind = types[key]
        if not fits(value, kind):
            name = kind if typing.get_origin(kind) else kind.__name__
            raise ParameterError(f"{key!r} in {where} must be {name}, got {json.dumps(value)}")
        if kind is float and not math.isfinite(value):
            raise ParameterError(f"{key!r} in {where} must be finite, got {json.dumps(value)}")
    return doc


def load_task(doc: dict) -> TaskConfig:
    return TaskConfig(**checked_section("task", doc, _TASK_FIELDS))


def load_experiment(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    doc = checked_section("the config", json.loads(Path(path).read_text()), TOP_LEVEL_KEYS)
    overrides = overrides or {}
    task = load_task(doc.get("task", {}))
    cls_doc = dict(checked_section("classifier", doc.get("classifier", {}), _CLASSIFIER_FIELDS))
    cls_doc.setdefault("classes", task.classes)
    if cls_doc["classes"] != task.classes:
        raise ParameterError(
            f"classifier classes {cls_doc['classes']} != task classes {task.classes}"
        )
    for key in ("variant", "slots", "seed"):
        if key in overrides and overrides[key] is not None:
            cls_doc[key] = overrides[key]
    if "freeze_writes" in overrides and overrides["freeze_writes"]:
        cls_doc["freeze_eval_writes"] = True
    classifier = ClassifierConfig(**cls_doc)
    seeds = doc.get("seeds", [classifier.seed])
    if overrides.get("seed") is not None:
        seeds = [overrides["seed"]]
    out_dir = overrides.get("out") or doc.get("out_dir", "runs/out")
    # fields the document leaves out keep ExperimentConfig's defaults
    optional = {k: doc[k] for k in ("train_frac", "val_frac") if k in doc}
    sweep = checked_section("sweep", doc.get("sweep", {}), SWEEP_KEYS)
    optional.update({f"sweep_{k}": sweep[k] for k in SWEEP_KEYS if k in sweep})
    return ExperimentConfig(task=task, classifier=classifier, seeds=seeds, out_dir=out_dir, **optional)


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def curves_to_csv(curves: list) -> str:
    lines = ["epoch,train_loss,val_wa,val_ua"]
    for row in curves:
        vals = [str(row["epoch"]), repr(row["train_loss"])]
        vals.append(repr(row["val_wa"]) if "val_wa" in row else "")
        vals.append(repr(row["val_ua"]) if "val_ua" in row else "")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def state_to_arrays(state: TrainState) -> dict:
    table = state.params.table
    arrays = {
        **table_views(table, state.params.flat, "param."),
        **table_views(table, state.m_flat, "adam_m."),
        **table_views(table, state.v_flat, "adam_v."),
    }
    for i, mem in enumerate(state.memories):
        arrays[f"memory{i}.matrix"] = mem.matrix
        arrays[f"memory{i}.writes"] = np.array([1.0 if mem.writes_enabled else 0.0])
    arrays["step"] = np.array([float(state.step)])
    arrays["mem_seed.lo"] = np.array([float(state.mem_seed & 0xFFFFFFFF)])
    arrays["mem_seed.hi"] = np.array([float(state.mem_seed >> 32)])
    return arrays


def restore_state(state: TrainState, arrays: dict) -> TrainState:
    """Load checkpoint arrays into a freshly built state, in place.

    The checkpoint must hold exactly the entries this state writes, each
    in the same shape; otherwise ParameterError (a missing or extra
    entry) or ShapeError (a wrong shape) names the first offender.
    """
    wanted = state_to_arrays(state)
    for name, want in wanted.items():
        if name not in arrays:
            raise ParameterError(f"checkpoint has no entry {name!r}; was it written for another config?")
        if arrays[name].shape != want.shape:
            raise ShapeError(
                f"checkpoint entry {name!r} has shape {arrays[name].shape}, this config needs {want.shape}"
            )
    extra = sorted(set(arrays) - set(wanted))
    if extra:
        raise ParameterError(f"checkpoint entry {extra[0]!r} does not belong to this config")
    # the parameter, moment and memory entries are views of the state's arrays
    for name, view in wanted.items():
        view[...] = arrays[name]
    for i, mem in enumerate(state.memories):
        mem.writes_enabled = bool(arrays[f"memory{i}.writes"][0])
    state.step = int(arrays["step"][0])
    state.mem_seed = int(arrays["mem_seed.lo"][0]) | (int(arrays["mem_seed.hi"][0]) << 32)
    return state


def task_splits(exp: ExperimentConfig):
    """The task's (train, val, test) splits, each a Dataset of read-only row views.

    Read-only, so runs that share the splits cannot change what the next
    run reads.
    """
    data = gen_dataset(exp.task)
    for column in data:
        column.flags.writeable = False  # and so is every view of it
    return split(data, exp.train_frac, exp.val_frac)


def run_single(exp: ExperimentConfig, seed: int, splits=None, trained: Optional[dict] = None, **overrides):
    """Train one cell; returns (state, curves, report).

    The cell's classifier is exp.classifier with this seed and with the
    `overrides` fields replaced (for example variant=, slots=, out_dim=).
    `splits` is task_splits(exp), built here when not given; a sweep
    builds it once and passes it to every cell with val None, so that a
    cell runs no validation pass (its curves carry no val_wa / val_ua)
    and its one evaluation is the test pass.  fit scores the validation
    passes and the test pass in one evaluate call.

    `trained` is a dict that a sweep passes to every call, keyed by the
    cells' classifier configs (dataclasses.astuple); lockstep_groups
    fills it.  A key's entry is first the list of its group's configs:
    the group's first call trains them all as lanes of one fit (see
    model.fit), returns its own run and files each other config's
    (state, curves, report) under its key, and a later call returns its
    entry, with the bits that training it alone gives.  A key with no
    entry trains alone.  The sweep still makes one call per cell, and
    the benchmark takes each call's return value as that cell's run.
    When the lanes' fit raises, the runs of the lanes before the failing
    one are filed all the same (fit hands them back with a NumericError)
    and the other cells' entries are dropped, so that those cells train
    one call at a time and the sweep raises what a serial loop raises.
    """
    cls = dataclasses.replace(exp.classifier, seed=seed, **overrides)
    train, val, test = task_splits(exp) if splits is None else splits
    group = None if trained is None else trained.pop(dataclasses.astuple(cls), None)
    if isinstance(group, tuple):
        return group
    if group is not None:
        states, results = [], []
        try:
            states = [build_state(c, exp.task.s1, exp.task.s2) for c in group]
            results = fit(states, train, val, test)
        except (NumericError, ParameterError, ShapeError, MemoryError) as err:
            # the lanes that finished keep their runs; the others train alone, below
            results = getattr(err, "results", [])
        for c in group:
            trained.pop(dataclasses.astuple(c), None)
        for c, state, result in zip(group, states, results):
            trained[dataclasses.astuple(c)] = (state, *result)
        own = trained.pop(dataclasses.astuple(cls), None)
        if own is not None:
            return own
    state = build_state(cls, exp.task.s1, exp.task.s2)
    curves, report = fit(state, train, val, test)
    return state, curves, report


def lockstep_groups(configs) -> dict:
    """run_single's `trained` dict for distinct classifier configs: each
    config's key (dataclasses.astuple) holds the list of the configs
    equal to it up to seed, query order and slot count
    (model.lockstep_key), which train as lanes of one fit.  A list is in
    the given order by slot count, so that each slot count is one run of
    lanes (fusion.slot_groups).  A config alone in its group gets no
    entry, so it trains through the one-run path."""
    groups: dict = {}
    for config in sorted(configs, key=lambda config: config.slots):
        groups.setdefault(lockstep_key(config), []).append(config)
    return {dataclasses.astuple(config): group
            for group in groups.values() if len(group) > 1 for config in group}


def metrics_doc(exp: ExperimentConfig, seed: int, report, curves) -> dict:
    cls = exp.classifier
    return {
        "variant": cls.variant,
        "slots": cls.slots,
        "seed": seed,
        "train_loss_final": curves[-1]["train_loss"] if curves else None,
        "epochs": cls.epochs,
        "metrics": report.to_dict(),
    }


def cmd_train(args) -> int:
    exp = load_experiment(args.config, vars(args))
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run
    seed = exp.seeds[0]
    state, curves, report = run_single(exp, seed)
    save_arrays(out / "checkpoint.bin", state_to_arrays(state))
    (out / "curves.csv").write_text(curves_to_csv(curves))
    (out / "confusion.csv").write_text(confusion_to_csv(report.confusion))
    write_json(out / "metrics.json", metrics_doc(exp, seed, report, curves))
    print(f"trained seed {seed}: test wa={report.wa:.4f} ua={report.ua:.4f} -> {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    exp = load_experiment(args.config, vars(args))
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the evaluation
    checkpoint = Path(args.checkpoint or out / "checkpoint.bin")
    if not checkpoint.exists():
        raise ParameterError(f"checkpoint not found: {checkpoint}")
    seed = exp.seeds[0]
    cls = dataclasses.replace(exp.classifier, seed=seed)
    _, _, test = task_splits(exp)
    state = build_state(cls, exp.task.s1, exp.task.s2)
    restore_state(state, load_arrays(checkpoint))
    report = evaluate(state, test)
    write_json(out / "metrics.json", metrics_doc(exp, seed, report, []))
    (out / "confusion.csv").write_text(confusion_to_csv(report.confusion))
    print(f"evaluated: wa={report.wa:.4f} ua={report.ua:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    exp = load_experiment(args.config, vars(args))
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the sweep
    # study -> its cells, each the classifier fields it overrides
    studies = {
        "memory_size": [{"variant": v, "slots": k} for v in exp.sweep_variants for k in exp.sweep_slots],
        "memory_location": [{"variant": v, "slots": exp.classifier.slots} for v in ("memory", "memory_single")],
        "output_dim": [{"variant": "memory_resampled", "out_dim": d} for d in exp.sweep_out_dims],
        "baseline": [{"variant": "naive"}],
    }
    doc = {"native_output_dim": head_input_dim(
        dataclasses.replace(exp.classifier, variant="memory", out_dim=0), exp.task.s1, exp.task.s2)}
    # study -> its (cell, seed, config) triples; building every config checks
    # every cell, so a bad sweep value exits before any data is built
    configured = {study: [(cell, seed, dataclasses.replace(exp.classifier, seed=seed, **cell))
                          for cell in cells for seed in exp.seeds]
                  for study, cells in studies.items()}
    # every cell trains on the same task, so the dataset is built once; a
    # cell reports only its test scores, so it runs no validation pass
    train, _, test = task_splits(exp)
    splits = (train, None, test)
    # a cell that two studies name with the same config is trained once, and
    # the cells equal up to seed, query order and slot count train in lockstep (run_single)
    distinct = {dataclasses.astuple(config): config
                for cells in configured.values() for _, _, config in cells}
    scores, trained = {}, lockstep_groups(distinct.values())
    for study, cells in configured.items():
        doc[study] = []
        for cell, seed, config in cells:
            key = dataclasses.astuple(config)
            if key not in scores:
                _, _, report = run_single(exp, seed, splits=splits, trained=trained, **cell)
                scores[key] = {"wa": report.wa, "ua": report.ua}
            row = {**cell, "seed": seed, **scores[key]}
            doc[study].append(row)
            fields = " ".join(f"{k}={v}" for k, v in cell.items())
            print(f"[{study}] {fields} seed={seed}: wa={row['wa']:.4f} ua={row['ua']:.4f}", flush=True)
    write_json(out / "ablation.json", doc)
    print(f"ablation table -> {out / 'ablation.json'} ({len(scores)} cells trained)")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    for flag in ("seeds", "slots", "batch"):
        value = getattr(args, flag)
        if value < 1:
            raise ParameterError(f"--{flag} must be >= 1, got {value}")
    for flag in ("threshold", "step"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"--{flag} must be finite and > 0, got {value}")
    if args.dim < 2:
        raise ParameterError(f"--dim must be >= 2, one feature or more per mode, got {args.dim}")
    variants = standard_variants(out_dim=min(args.dim, 4))
    if args.variant != "all":
        wanted = parse_variant(args.variant, out_dim=min(args.dim, 4))
        variants = [v for v in variants if v.kind == wanted.kind]
    half = args.dim // 2
    checked = []  # (variant, its report for each seed)
    for variant in variants:
        cfg = LayerCheckConfig(s1=half, s2=args.dim - half, slots=args.slots, batch=args.batch, variant=variant)
        checked.append((variant, [check_layer(cfg, seed=seed, threshold=args.threshold, step=args.step)
                                  for seed in range(args.seeds)]))
    results = {
        variant.kind + (f"_mode{variant.mode}" if variant.kind == MEMORY_SINGLE else ""): {
            "passed": all(r.passed for r in reports),
            "max_rel": max(r.max_rel for r in reports),
            "seeds": args.seeds,
        }
        for variant, reports in checked
    }
    # the first report with the largest error; None fields when every error is 0
    rep, kind, seed = max(((rep, variant.kind, seed) for variant, reports in checked
                           for seed, rep in enumerate(reports)), key=lambda case: case[0].max_rel)
    worst = {"rel": 0.0, "variant": None, "seed": None, "block": None, "index": None}
    if rep.max_rel > 0:
        block = rep.worst_block()
        worst = {"rel": rep.max_rel, "variant": kind, "seed": seed, "block": block,
                 "index": rep.blocks[block].worst_index}
    doc = {
        "passed": all(r["passed"] for r in results.values()),
        "threshold": args.threshold,
        "step": args.step,
        "variants": results,
        "worst": worst,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK if doc["passed"] else EXIT_CHECK_FAILED


def cmd_gen_data(args) -> int:
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    # an experiment config, or a document holding only the task fields
    if isinstance(doc, dict) and "task" in doc:
        doc = checked_section("the config", doc, TOP_LEVEL_KEYS)["task"]
    task = load_task(doc)
    data = gen_dataset(task)
    out = Path(args.out or "dataset.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(to_csv(data))
    print(f"wrote {len(data.labels)} samples -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memfuse", description="memory-fusion experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=True):
        p.add_argument("--config", required=True, help="experiment JSON path")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        p.add_argument("--slots", type=int, default=None, help="override slot count")
        if variant:
            p.add_argument("--variant", default=None, help="override fusion variant")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--freeze-writes", action="store_true", dest="freeze_writes")

    p_train = sub.add_parser("train", help="train one configuration")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    common(p_eval)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_abl = sub.add_parser("ablate", help="run the ablation sweeps")
    common(p_abl, variant=False)  # every ablation cell sets its own variant
    p_abl.set_defaults(func=cmd_ablate)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--dim", type=int, default=6, help="total fused width (s1+s2)")
    p_gc.add_argument("--slots", type=int, default=4)
    p_gc.add_argument("--batch", type=int, default=3)
    p_gc.add_argument("--seeds", type=int, default=10)
    p_gc.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_gc.add_argument("--step", type=float, default=DEFAULT_STEP)
    p_gc.add_argument("--variant", default="all")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_gen = sub.add_parser("gen-data", help="export a synthetic dataset to CSV")
    p_gen.add_argument("--config", default=None, help="JSON with a task section")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
