"""memfuse benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload paper_train --seed 1 --seconds 30 --trace 0

Run it from the root of a memfuse checkout; the program is imported from
``src/``.  A run repeats whole rounds of its workload for ``--seconds``
(at least three rounds; no round is started that would, at the pace of
the one before, end past that time) and reports, per metric, the median
over rounds.  It then checks the program's outputs (see checks.py) and
self-tests the checks.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  README.md in this directory explains the
workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("paper_train", "wide_train", "ablate_sweep")
# The task stream is drawn from TASK_SEED_BASE + --seed, initial weights from --seed.
TASK_SEED_BASE = 1000
MIN_ROUNDS = 3
# Seconds the host probe (spans.host_probe) takes on the reference host.  This
# 2-core host switches between two speeds, about 1.8x apart, within seconds;
# scaling each round by its own probe time removes most of that from the times.
PROBE_REF_S = 0.005
# The probe slows more than the workloads do in the slow state, so a round's
# times are scaled by (probe / PROBE_REF_S) ** HOST_EXPONENT (see README.md).
HOST_EXPONENT = 0.8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "synthdata.gen_dataset.ms": "ms",
    "synthdata.gen_dataset.calls": "count",
    "synthdata.stack.ms": "ms",
    "model.build_state.ms": "ms",
    "model.forward_logits.self_us": "us/call",
    "fusion.fusion_forward.self_us": "us/call",
    "fusion.write_memory.us": "us/call",
    "kernels.softmax_rows.us": "us/call",
    "model.cross_entropy_batch.us": "us/call",
    "model.backward_batch.self_us": "us/call",
    "fusion.fusion_backward.us": "us/call",
    "model.adam_step.us": "us/call",
    "model.adam_step.calls": "count",
    "metrics.report_from_labels.us": "us/call",
    "cli.run_single.s": "s/call",
    "fusion.fusion_forward.calls_per_step": "count",
}


def import_program():
    """Import memfuse from this checkout's src/, and nothing else."""
    pkg = ROOT / "src" / "memfuse"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run the benchmark from the root of a memfuse checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import memfuse
    from memfuse import cli, fusion, model, synthdata

    if Path(memfuse.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported memfuse from {memfuse.__file__}, not from {pkg}")
    return cli, fusion, model, synthdata


def blas_threads():
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(so, sym):
                return int(getattr(so, sym)())
    return None


def git_sha():
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def write_config(workload: str, seed: int, run_dir: Path) -> Path:
    doc = json.loads((BENCH / "configs" / f"{workload}.json").read_text())
    doc["task"]["seed"] = TASK_SEED_BASE + seed
    doc["classifier"]["seed"] = seed
    doc["seeds"] = [seed + s for s in doc["seeds"]]
    doc["out_dir"] = str(run_dir / "ablation")
    path = run_dir / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def plan(exp, workload: str, checks) -> dict:
    """Work in one round, counted from the config alone."""
    n = exp.task.length
    n_train, n_val = int(n * exp.train_frac), int(n * exp.val_frac)
    n_test = n - n_train - n_val
    c = exp.classifier
    cells = sum(checks.ablation_row_counts(exp).values()) if workload == "ablate_sweep" else 1
    steps = c.epochs * (n_train // c.batch)
    batches = steps + c.epochs * math.ceil(n_val / c.batch) + math.ceil(n_test / c.batch)
    return {
        "cells": cells,
        # a cell of the sweep is one operation; a single run is its training
        # (with the per-epoch validation passes) and its test evaluation
        "ops": cells if workload == "ablate_sweep" else 2,
        "train_steps": cells * steps,
        "eval_samples": cells * (c.epochs * n_val + n_test),
        "run_steps": cells * batches,
    }


class Bench:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.cli, self.fusion, self.model, self.synthdata = import_program()
        self.checks, self.spans = checks, spans
        self.run_dir = OUT / f"{self.workload}-seed{args.seed}"
        (self.run_dir / "ablation").mkdir(parents=True, exist_ok=True)
        self.config = write_config(self.workload, args.seed, self.run_dir)
        self.exp = self.cli.load_experiment(str(self.config))
        self.classes = self.exp.task.classes
        self.plan = plan(self.exp, self.workload, checks)
        test = self.synthdata.split(
            self.synthdata.gen_dataset(self.exp.task), self.exp.train_frac, self.exp.val_frac
        )[2]
        self.test = self.synthdata.stack(test)
        self.schema = checks.load_schema(ROOT)
        self.recorder = spans.Recorder(traced=bool(args.trace), probe=not args.trace)
        self.rounds = []
        self.first = {}          # per-operation outputs of the first round
        self.last_cells = []     # (state, curves, report) of the last round's runs
        self.last_doc = None
        self.messages = []

    # -- one round ---------------------------------------------------------

    def run_round(self) -> float:
        """Run the workload once; returns its wall time."""
        cli = self.cli
        t0 = time.perf_counter()
        if self.workload == "ablate_sweep":
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["ablate", "--config", str(self.config),
                                 "--out", str(self.run_dir / "ablation")])
            wall = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"memfuse ablate exited with {code}")
        else:
            exp = cli.load_experiment(str(self.config))
            cli.run_single(exp, exp.seeds[0])
            wall = time.perf_counter() - t0
        return wall

    def judge_cell(self, key, curves, report) -> dict:
        """Problems of one training run and of its test evaluation pass."""
        c = self.checks
        losses = [row["train_loss"] for row in curves]
        first_losses, first_report = self.first.setdefault(key, (losses, report.to_dict()))
        checks = {
            "training": [(c.check_training, (curves,)),
                         (c.check_same, (f"{key} losses", losses, first_losses))],
            "test": [(c.check_report, (report.confusion, report.wa, report.ua, self.test[2], self.classes)),
                     (c.check_above_chance, (report.wa, self.classes)),
                     (c.check_same, (f"{key} test report", report.to_dict(), first_report))],
        }
        problems = {}
        for op, tests in checks.items():
            for fn, args in tests:
                try:
                    fn(*args)
                except c.CheckFailed as exc:
                    problems.setdefault(op, []).append(f"{key} {op}: {exc}")
        return problems

    def judge_round(self) -> list:
        """One message per failed operation of the round just run."""
        rec, c = self.recorder, self.checks
        for name in ("model.train_epoch", "model.evaluate"):
            if rec.calls(name) == 0:
                return [f"{name} was never called"] * self.plan["ops"]
        if self.workload != "ablate_sweep":
            if len(rec.cells) != 1:
                return [f"{len(rec.cells)} training runs, expected 1"] * self.plan["ops"]
            state, curves, report = rec.cells[0]
            self.last_cells = [(state, curves, report)]
            return ["; ".join(p) for p in self.judge_cell("run", curves, report).values()]
        cells = {}
        for state, curves, report in rec.cells:
            cfg = state.config
            cells.setdefault((cfg.variant, cfg.slots, cfg.out_dim, cfg.seed), []).append(
                (state, curves, report))
        path = self.run_dir / "ablation" / "ablation.json"
        doc = json.loads(path.read_text())
        try:
            c.check_ablation(doc, self.schema, self.exp)
        except c.CheckFailed as exc:
            return [f"ablation.json: {exc}"] * self.plan["ops"]
        failed = []
        for study in ("memory_size", "memory_location", "output_dim", "baseline"):
            for row in doc[study]:
                key = (row["variant"], row.get("slots", self.exp.classifier.slots),
                       row.get("out_dim", 0), row["seed"])
                problems = []
                if key not in cells:
                    problems.append(f"{key}: no training run was observed")
                for state, curves, report in cells.get(key, []):
                    for p in self.judge_cell(key, curves, report).values():
                        problems += p
                    if report.wa != row["wa"] or report.ua != row["ua"]:
                        problems.append(f"{key}: row {row} disagrees with its run")
                try:
                    c.check_above_chance(row["wa"], self.classes)
                except c.CheckFailed as exc:
                    problems.append(f"{key}: {exc}")
                if problems:
                    failed.append("; ".join(problems))
        self.last_cells = [runs[0] for runs in cells.values()]
        self.last_doc = doc
        return failed

    def timed_rounds(self) -> None:
        rec, perf = self.recorder, time.perf_counter
        begin = last = perf()
        with rec.installed():
            # stop before a round that would, at the last round's pace, end past the deadline
            while len(self.rounds) < MIN_ROUNDS or 2 * perf() - last - begin <= self.args.seconds:
                last = perf()
                (self.run_dir / "ablation" / "ablation.json").unlink(missing_ok=True)
                gc.collect()
                rec.new_round()
                try:
                    wall = self.run_round()
                    failed = self.judge_round()
                except Exception:  # an operation that raises counts as failed
                    wall = None
                    failed = [traceback.format_exc()] * self.plan["ops"]
                self.rounds.append(self.summarise_round(wall, failed))
                self.messages += failed

    def summarise_round(self, wall, failed) -> dict:
        rec = self.recorder
        row = {
            "ok": wall is not None and not failed,
            "failed": len(failed),
            "wall_s": None if wall is None else wall - rec.round_probe_s,
            "setup_s": sum(rec.seconds(n) for n in self.spans.SETUP),
            "train_s": rec.seconds("model.train_epoch"),
            "eval_s": rec.seconds("model.evaluate"),
            "probe_s": statistics.median(rec.round_probes) if rec.round_probes else None,
        }
        for name in ("synthdata.gen_dataset", "synthdata.stack", "model.build_state"):
            row[f"{name}.ms"] = 1e3 * rec.seconds(name)
        for name in ("synthdata.gen_dataset", "model.adam_step", "fusion.fusion_forward",
                     "model.train_epoch", "model.evaluate", "cli.run_single"):
            row[f"{name}.calls"] = rec.calls(name)
        return row

    # -- checks after the timed rounds --------------------------------------

    def final_checks(self) -> list:
        """Layer equations, Adam and evaluation on the last round's runs; then the self-test."""
        c, model = self.checks, self.model
        m1, m2, y = self.test
        failures, pairs, evidence = [], [], {}
        for state, curves, report in self.last_cells:
            b = state.config.batch
            variant = state.config.variant
            try:
                got = c.fusion_pairs(self.fusion.fusion_forward, state, m1[:b], m2[:b])
                got += c.adam_pairs(model, state, m1[:b], m2[:b], y[:b])
                c.check_pairs(got)
                before = c.snapshot_memories(state)
                again = model.evaluate(state, self.test)
                c.check_memories_unchanged(before, state)
                c.check_same(f"{variant} test report", again.to_dict(), report.to_dict())
            except c.CheckFailed as exc:
                failures.append(f"{variant}: {exc}")
                continue
            pairs += got
            if state.memories and "memories" not in evidence:
                evidence.update(memories=(before, state), curves=curves,
                                report=(report.confusion, report.wa, report.ua, y, self.classes))
        if not self.last_cells:
            return failures + ["no round finished without a failed operation"]
        if "memories" not in evidence:
            return failures + ["no run with a memory to check"]
        evidence["pairs"] = pairs
        if self.last_doc is not None:
            evidence["ablation"] = (self.last_doc, self.schema, self.exp)
        accepted, tried = c.self_test(evidence)
        self.self_test = {"cases": tried, "accepted": accepted}
        failures += [f"self-test: the check accepted a wrong value ({a})" for a in accepted]
        return failures

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, ok, host_corrected=True) -> dict:
        """Medians over rounds; times are scaled to a host on which the probe takes PROBE_REF_S."""
        p, probes = self.plan, self.recorder.probes
        run_probe = statistics.median(probes) if probes else PROBE_REF_S

        def slow(r):  # how much slower than the reference host this round ran
            if not host_corrected:
                return 1.0
            return ((r["probe_s"] if r["probe_s"] is not None else run_probe) / PROBE_REF_S) ** HOST_EXPONENT

        return {
            "setup_s": statistics.median(r["setup_s"] / slow(r) for r in ok),
            "wall_s": statistics.median(r["wall_s"] / slow(r) for r in ok),
            "train_steps_per_s": statistics.median(p["train_steps"] / r["train_s"] * slow(r) for r in ok),
            "eval_samples_per_s": statistics.median(p["eval_samples"] / r["eval_s"] * slow(r) for r in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, ok) -> dict:
        rec = self.recorder
        missing = [n for n in self.spans.FINE if not len(rec.per_call[n][0])]
        if missing:
            raise SystemExit(f"error: no call observed for {', '.join(missing)}")

        def per_call(name, own=False, scale=1e6):
            return scale * statistics.median(rec.per_call[name][1 if own else 0])

        def per_round(key):
            return statistics.median(r[key] for r in ok)

        return {
            "synthdata.gen_dataset.ms": per_round("synthdata.gen_dataset.ms"),
            "synthdata.gen_dataset.calls": per_round("synthdata.gen_dataset.calls"),
            "synthdata.stack.ms": per_round("synthdata.stack.ms"),
            "model.build_state.ms": per_round("model.build_state.ms"),
            "model.forward_logits.self_us": per_call("model.forward_logits", own=True),
            "fusion.fusion_forward.self_us": per_call("fusion.fusion_forward", own=True),
            "fusion.write_memory.us": per_call("fusion.write_memory"),
            "kernels.softmax_rows.us": per_call("kernels.softmax_rows"),
            "model.cross_entropy_batch.us": per_call("model.cross_entropy_batch"),
            "model.backward_batch.self_us": per_call("model.backward_batch", own=True),
            "fusion.fusion_backward.us": per_call("fusion.fusion_backward"),
            "model.adam_step.us": per_call("model.adam_step"),
            "model.adam_step.calls": per_round("model.adam_step.calls"),
            "metrics.report_from_labels.us": per_call("metrics.report_from_labels"),
            "cli.run_single.s": per_call("cli.run_single", scale=1.0),
            "fusion.fusion_forward.calls_per_step": statistics.median(
                r["fusion.fusion_forward.calls"] / self.plan["run_steps"] for r in ok),
        }

    def stages(self, ok) -> dict:
        """Per-step time of every span under training and evaluation (traced run)."""
        units = {"train": self.plan["train_steps"] * len(ok),
                 "eval": self.plan["eval_samples"] * len(ok)}
        out = {}
        for phase, per in (("train", "step"), ("eval", "sample")):
            root = "model.train_epoch" if phase == "train" else "model.evaluate"
            rows = {}
            for (ph, parent, name), (calls, total, own) in self.recorder.tree.items():
                if ph != phase:
                    continue
                r = rows.setdefault(name, {"parent": parent, "calls": 0, "total_s": 0.0, "self_s": 0.0})
                r["calls"] += calls
                r["total_s"] += total
                r["self_s"] += own
            whole = rows.get(root, {}).get("total_s", 0.0)
            for r in rows.values():
                r[f"us_per_{per}"] = 1e6 * r["total_s"] / units[phase]
                r[f"self_us_per_{per}"] = 1e6 * r["self_s"] / units[phase]
                r["share"] = r["total_s"] / whole if whole else None
                r["self_share"] = r["self_s"] / whole if whole else None
            out[phase] = rows
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend in timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap every layer and report per-layer metrics")
    args = parser.parse_args(argv)

    bench = Bench(args)
    bench.timed_rounds()
    ok = [r for r in bench.rounds if r["ok"]]
    if not ok:
        for m in bench.messages[:5]:
            print(m, file=sys.stderr)
        sys.exit("error: no round finished without a failed operation; no rate has a base")
    end_to_end = bench.end_to_end(ok, host_corrected=not args.trace)
    final = bench.final_checks()
    for m in (bench.messages + final)[:20]:
        print(f"FAIL {m}", file=sys.stderr)

    if args.trace:
        values, units = bench.per_layer(ok), PER_LAYER_UNITS
    else:
        values, units = end_to_end, END_TO_END_UNITS
    result = {
        "correct": not final,
        "attempted": len(bench.rounds) * bench.plan["ops"],
        "failed": sum(r["failed"] for r in bench.rounds),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "plan": bench.plan, "rounds": bench.rounds,
        "end_to_end": end_to_end, "end_to_end_uncorrected": bench.end_to_end(ok, host_corrected=False),
        "host_probes": bench.recorder.probes, "self_test": getattr(bench, "self_test", None),
        "failures": (bench.messages + final)[:50], "result": result,
    }
    if args.trace:
        record["stages"] = bench.stages(ok)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"{args.workload} seed {args.seed}: {len(bench.rounds)} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed")
    if record["self_test"]:
        st = record["self_test"]
        print(f"self-test: {st['cases'] - len(st['accepted'])} of {st['cases']} wrong values rejected")
    for k, unit in units.items():
        print(f"  {k:40s} {values[k]:14.6g} {unit}")
    print(f"record -> {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
