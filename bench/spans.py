"""Spans around calls into memfuse's public functions.

The benchmark measures a layer by replacing a public function, in every
loaded ``memfuse`` module that refers to it, with a wrapper that times
the call.  The program's own code is not edited.  Each call is a span
with a name, a duration and a parent (the innermost open span); its
self time is its duration minus the time its child spans cover.  Spans
are aggregated in memory as they close and written out at the end of a
run.

Two sets of targets exist.  ``COARSE`` holds the few calls per epoch
that the end-to-end metrics need; they are wrapped in every run.
``FINE`` holds the per-step layers; they are wrapped only in a traced
run, because their wrappers cost a few microseconds per step.

In a run without layer spans the recorder also samples the host's speed:
before a coarse call, at most once per ``PROBE_EVERY`` seconds, it times
``host_probe``, a fixed piece of the benchmark's own numpy work.  The
probe runs outside every span, so only the round's wall time contains
it, and the round subtracts it.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> (module, attribute) of the function that is wrapped
COARSE = {
    "cli.load_experiment": ("memfuse.cli", "load_experiment"),
    "synthdata.gen_dataset": ("memfuse.synthdata", "gen_dataset"),
    "synthdata.split": ("memfuse.synthdata", "split"),
    "synthdata.stack": ("memfuse.synthdata", "stack"),
    "model.build_state": ("memfuse.model", "build_state"),
    "cli.run_single": ("memfuse.cli", "run_single"),
    "model.train_epoch": ("memfuse.model", "train_epoch"),
    "model.evaluate": ("memfuse.model", "evaluate"),
}
FINE = {
    "model.forward_logits": ("memfuse.model", "forward_logits"),
    "fusion.fusion_forward": ("memfuse.fusion", "fusion_forward"),
    "kernels.softmax_rows": ("memfuse.kernels", "softmax_rows"),
    "fusion.write_memory": ("memfuse.fusion", "write_memory"),
    "model.cross_entropy_batch": ("memfuse.model", "cross_entropy_batch"),
    "model.backward_batch": ("memfuse.model", "backward_batch"),
    "fusion.fusion_backward": ("memfuse.fusion", "fusion_backward"),
    "model.adam_step": ("memfuse.model", "adam_step"),
    "metrics.report_from_labels": ("memfuse.metrics", "report_from_labels"),
}
SETUP = ("cli.load_experiment", "synthdata.gen_dataset", "synthdata.split",
         "synthdata.stack", "model.build_state")
# spans that open a phase; every span below them is attributed to it
PHASES = {"model.train_epoch": "train", "model.evaluate": "eval"}
PROBE_EVERY = 0.2


def host_probe(x, w, m, iters=200) -> float:
    """Seconds taken by fixed small-array work shaped like a paper-shape step."""
    t0 = time.perf_counter()
    for _ in range(iters):
        scores = (x @ w) @ m.T
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        recalled = (e / e.sum(axis=1, keepdims=True)) @ m
        parts = {"x": x, "h": np.maximum(np.concatenate([x, recalled], axis=1), 0.0)}
        sum(float(v.sum()) for v in parts.values())
    return time.perf_counter() - t0


class Recorder:
    """Aggregates spans: per-round totals always, per-call times when traced."""

    def __init__(self, traced: bool, probe: bool = False):
        self.traced = traced
        self.probe = probe
        self.probes = []          # seconds of every host probe in the run
        self._next_probe = 0.0
        self._probe_args = (np.full((2, 8), 0.1), np.full((8, 8), 0.1), np.full((20, 8), 0.1))
        self._stack = []          # open spans: [name, phase, child seconds]
        self.per_call = defaultdict(lambda: (array("d"), array("d")))  # name -> (total, self)
        self.tree = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, parent, name) -> [calls, total, self]
        self.cells = []           # what each run_single call returned: (state, curves, report)
        self.new_round()

    def new_round(self) -> None:
        self.round = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.round_probe_s = 0.0
        self.round_probes = []
        self.cells.clear()

    def seconds(self, name: str) -> float:
        return self.round[name][1] if name in self.round else 0.0

    def calls(self, name: str) -> int:
        return self.round[name][0] if name in self.round else 0

    def wrap(self, name: str, fn):
        stack, perf = self._stack, time.perf_counter
        phase_of = PHASES.get(name)
        capture = name == "cli.run_single"

        def span(*args, **kwargs):
            if self.probe and perf() >= self._next_probe:
                self.sample_host()
            parent = stack[-1] if stack else None
            frame = [name, phase_of or (parent[1] if parent else "setup"), 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if parent is not None:
                    parent[2] += dt
                self._close(name, frame, parent, dt)
            if capture:
                self.cells.append(result)
            return result

        return span

    def sample_host(self) -> None:
        t0 = time.perf_counter()
        self.probes.append(host_probe(*self._probe_args))
        self.round_probes.append(self.probes[-1])
        t1 = time.perf_counter()
        self.round_probe_s += t1 - t0
        self._next_probe = t1 + PROBE_EVERY

    def _close(self, name, frame, parent, dt) -> None:
        acc = self.round[name]
        acc[0] += 1
        acc[1] += dt
        if self.traced:
            own = dt - frame[2]
            total, self_t = self.per_call[name]
            total.append(dt)
            self_t.append(own)
            node = self.tree[(frame[1], parent[0] if parent else None, name)]
            node[0] += 1
            node[1] += dt
            node[2] += own

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        targets = dict(COARSE, **(FINE if self.traced else {}))
        saved = []
        try:
            for name, (mod_name, attr) in targets.items():
                orig = getattr(importlib.import_module(mod_name), attr)
                wrapper = self.wrap(name, orig)
                for mod in [m for k, m in list(sys.modules.items())
                            if k == "memfuse" or k.startswith("memfuse.")]:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            saved.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, orig in reversed(saved):
                setattr(mod, key, orig)
