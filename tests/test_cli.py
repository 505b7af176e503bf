"""CLI behavior: exit codes, artifacts, determinism, schema validity."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from memfuse import cli, model
from memfuse.cli import ExperimentConfig, load_experiment, main, restore_state, state_to_arrays
from memfuse.model import build_state, evaluate, train_epoch
from memfuse.serialize import load_arrays, save_arrays
from memfuse.synthdata import Dataset, gen_dataset

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "memfuse" / "schemas"


def tiny_experiment(out_dir, length=240, epochs=2, seeds=(0,), sweep=None):
    doc = {
        "task": {
            "s1": 4, "s2": 4, "classes": 3, "regimes": 3, "regime_period": 8,
            "occlusion_prob": 0.5, "noise_sigma": 0.25, "length": length, "seed": 7,
        },
        "classifier": {
            "variant": "memory", "encoder_hidden": 0, "head_hidden": 8,
            "dropout_rate": 0.0, "slots": 4, "lr": 0.002, "batch": 4,
            "epochs": epochs, "seed": 0,
        },
        "seeds": list(seeds),
        "train_frac": 0.8,
        "val_frac": 0.1,
        "out_dir": str(out_dir),
    }
    if sweep:
        doc["sweep"] = sweep
    return doc


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if the command trains any run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a run was trained")

    monkeypatch.setattr(cli, "run_single", refuse)


class TestTrain:
    def test_missing_config_exit_2_names_path(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 2

    def test_smoke_train_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        assert (out / "checkpoint.bin").exists()
        assert (out / "curves.csv").exists()
        assert (out / "confusion.csv").exists()
        doc = json.loads((out / "metrics.json").read_text())
        jsonschema.validate(doc, load_schema("metrics.schema.json"))
        curves = (out / "curves.csv").read_text().strip().split("\n")
        assert curves[0] == "epoch,train_loss,val_wa,val_ua"
        assert len(curves) == 3  # header + 2 epochs

    def test_deterministic_metrics_bytes(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        first = (out / "metrics.json").read_bytes()
        assert main(["train", "--config", cfg]) == 0
        assert (out / "metrics.json").read_bytes() == first

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exit_3(self, tmp_path):
        # a huge transform gain squares through the memory feedback and
        # overflows within a few batches
        doc = tiny_experiment(tmp_path / "run", length=400, epochs=3)
        doc["classifier"]["transform_gain"] = 1e160
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 3

    def test_seed_override(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg, "--seed", "3"]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["seed"] == 3

    def test_class_mismatch_rejected(self, tmp_path):
        doc = tiny_experiment(tmp_path / "run")
        doc["classifier"]["classes"] = 4
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 2


class TestEvaluate:
    def test_round_trip_through_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        trained = json.loads((out / "metrics.json").read_text())
        out2 = tmp_path / "eval"
        assert main([
            "evaluate", "--config", cfg,
            "--checkpoint", str(out / "checkpoint.bin"),
            "--out", str(out2),
        ]) == 0
        evaluated = json.loads((out2 / "metrics.json").read_text())
        assert evaluated["metrics"]["wa"] == trained["metrics"]["wa"]

    def test_missing_checkpoint_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(tmp_path / "no.bin")]) == 2

    def test_wrong_slot_count_exit_2_names_the_entry(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        code = main(["evaluate", "--config", cfg, "--slots", "6",
                     "--checkpoint", str(out / "checkpoint.bin"), "--out", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert "memory0.matrix" in err and "(4, 8)" in err and "(6, 8)" in err
        assert "Traceback" not in err

    def test_checkpoint_of_another_variant_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        capsys.readouterr()
        for variant, message in (
            ("naive", "'adam_m.fusion0.b_comp' does not belong to this config"),
            ("memory_single", "'param.fusion0.w_read' has shape (8, 8), this config needs (4, 4)"),
        ):
            code = main(["evaluate", "--config", cfg, "--variant", variant,
                         "--checkpoint", str(out / "checkpoint.bin"), "--out", str(tmp_path / "eval")])
            assert code == 2
            assert message in capsys.readouterr().err

    def test_missing_entry_exit_2_names_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        arrays = load_arrays(out / "checkpoint.bin")
        del arrays["adam_v.head1_w"]
        save_arrays(tmp_path / "short.bin", arrays)
        code = main(["evaluate", "--config", cfg, "--checkpoint", str(tmp_path / "short.bin"),
                     "--out", str(tmp_path / "eval")])
        assert code == 2
        assert "no entry 'adam_v.head1_w'" in capsys.readouterr().err

    def test_corrupt_shape_exit_2(self, tmp_path, capsys):
        # a shape field of 2**63 or more once overflowed numpy's element count
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        blob = bytearray((out / "checkpoint.bin").read_bytes())
        (name_len,) = struct.unpack_from("<H", blob, 12)
        struct.pack_into("<Q", blob, 12 + 2 + name_len + 1, 2**63)
        (tmp_path / "corrupt.bin").write_bytes(bytes(blob))
        code = main(["evaluate", "--config", cfg, "--checkpoint", str(tmp_path / "corrupt.bin"),
                     "--out", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert "snapshot container" in err and "Traceback" not in err

    def test_non_finite_logits_exit_3(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        arrays = load_arrays(out / "checkpoint.bin")
        arrays["param.head2_b"][0] = np.nan
        save_arrays(tmp_path / "nan.bin", arrays)
        code = main(["evaluate", "--config", cfg, "--checkpoint", str(tmp_path / "nan.bin"),
                     "--out", str(tmp_path / "eval")])
        assert code == 3
        assert "non-finite logits" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_freeze_writes_flag_runs(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_experiment(out))
        assert main(["train", "--config", cfg]) == 0
        assert main([
            "evaluate", "--config", cfg,
            "--checkpoint", str(out / "checkpoint.bin"),
            "--out", str(tmp_path / "eval2"), "--freeze-writes",
        ]) == 0


class TestAblate:
    def test_consolidated_table_row_count(self, tmp_path):
        out = tmp_path / "abl"
        sweep = {"slots": [2, 4], "variants": ["memory", "memory_cross"], "out_dims": [4]}
        cfg = write_config(tmp_path, tiny_experiment(out, seeds=(0, 1), sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        jsonschema.validate(doc, load_schema("ablation.schema.json"))
        assert len(doc["memory_size"]) == 2 * 2 * 2  # variants x slots x seeds
        assert len(doc["baseline"]) == 2
        assert len(doc["memory_location"]) == 4
        assert len(doc["output_dim"]) == 2

    def test_single_cell_degenerates_to_train(self, tmp_path):
        out = tmp_path / "abl1"
        sweep = {"slots": [4], "variants": ["memory"], "out_dims": [4]}
        cfg = write_config(tmp_path, tiny_experiment(out, sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        assert len(doc["memory_size"]) == 1


    @staticmethod
    def fake_cells(monkeypatch):
        """Replace run_single by a fake; returns the lists of (variant,
        slots, out_dim, seed) keys and of splits it was called with."""
        cells, given_splits = [], []

        def fake_run_single(exp, seed, splits=None, trained=None, **cell):
            cls = dataclasses.replace(exp.classifier, **cell)
            cells.append((cls.variant, cls.slots, cls.out_dim, seed))
            given_splits.append(splits)
            wa = (len(cells) % 7) / 7
            return None, [], SimpleNamespace(wa=wa, ua=wa / 2)

        monkeypatch.setattr(cli, "run_single", fake_run_single)
        return cells, given_splits

    def test_no_cell_trained_twice(self, tmp_path, monkeypatch):
        # classifier.slots (4) is in the slot sweep, so the location study's
        # memory cells are the memory-size study's
        cells, given_splits = self.fake_cells(monkeypatch)
        out = tmp_path / "abl"
        sweep = {"slots": [2, 4], "variants": ["memory", "memory_cross"], "out_dims": [4]}
        cfg = write_config(tmp_path, tiny_experiment(out, seeds=(0, 1), sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 0
        assert len(cells) == len(set(cells)) == 8 + 2 + 2 + 2
        doc = json.loads((out / "ablation.json").read_text())
        assert len(doc["memory_location"]) == 4
        for row in doc["memory_location"]:
            if row["variant"] == "memory":
                assert row in doc["memory_size"]
        # every cell was handed the one dataset the sweep built
        assert given_splits[0] is not None
        assert all(sp is given_splits[0] for sp in given_splits)

    def test_cell_shared_across_studies_trained_once(self, tmp_path, monkeypatch):
        # naive at classifier.slots (4) is both a memory-size cell and the baseline
        cells, _ = self.fake_cells(monkeypatch)
        out = tmp_path / "abl"
        sweep = {"slots": [2, 4], "variants": ["memory", "naive"], "out_dims": [4]}
        cfg = write_config(tmp_path, tiny_experiment(out, seeds=(0, 1), sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 0
        assert len(cells) == len(set(cells)) == 8 + 2 + 2
        doc = json.loads((out / "ablation.json").read_text())
        naive_at_4 = [{k: v for k, v in row.items() if k != "slots"} for row in doc["memory_size"]
                      if row["variant"] == "naive" and row["slots"] == 4]
        assert doc["baseline"] == naive_at_4 and len(naive_at_4) == 2

    def test_each_cell_evaluated_once_on_the_test_split(self, tmp_path, monkeypatch):
        # swapped in every memfuse module that refers to it, as the
        # benchmark's traced run swaps it
        datasets = []
        orig = model.evaluate

        def counting(states, dataset):
            # a lockstep group scores its cells as lanes of one call
            datasets.extend([dataset] * (len(states) if isinstance(states, list) else 1))
            return orig(states, dataset)

        for name, mod in list(sys.modules.items()):
            if name == "memfuse" or name.startswith("memfuse."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, key, counting)
        out = tmp_path / "abl"
        sweep = {"slots": [2, 4], "variants": ["memory", "memory_cross"], "out_dims": [4]}
        cfg = write_config(tmp_path, tiny_experiment(out, epochs=2, sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 0
        # 4 memory-size cells (the location study's memory cell among them),
        # memory_single, one output dim and the baseline; no validation pass
        assert len(datasets) == 4 + 1 + 1 + 1
        test = cli.task_splits(load_experiment(cfg))[2]
        for dataset in datasets:
            for got, want in zip(dataset, test, strict=True):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sweep, named", [
        ({"out_dims": [0]}, "out_dim"),
        ({"slots": [4, 0]}, "slots"),
        ({"variants": ["memory", "bogus"]}, "bogus"),
    ])
    def test_bad_sweep_value_exits_before_any_cell_trains(self, tmp_path, capsys, monkeypatch, no_training,
                                                          sweep, named):
        def refuse(exp):
            raise AssertionError("built the data before checking the sweep")

        monkeypatch.setattr(cli, "task_splits", refuse)
        out = tmp_path / "abl"
        cfg = write_config(tmp_path, tiny_experiment(out, sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
        assert not (out / "ablation.json").exists()

    def test_bench_sweep_document_is_pinned(self, tmp_path, monkeypatch):
        # the values of bench/configs/ablate_sweep.json, inline so that this
        # pin does not move with the benchmark's config
        doc = {
            "task": {"s1": 4, "s2": 4, "classes": 3, "regimes": 3, "regime_period": 8,
                     "occlusion_prob": 0.1, "noise_sigma": 0.25, "length": 1000, "seed": 0},
            "classifier": {"variant": "memory", "encoder_hidden": 0, "head_hidden": 32,
                           "dropout_rate": 0.0, "slots": 20, "lr": 0.002, "batch": 2, "epochs": 2,
                           "seed": 0, "read_bias_init": 0.0, "transform_gain": 1.0},
            "seeds": [0, 1],
            "train_frac": 0.8,
            "val_frac": 0.1,
            "out_dir": str(tmp_path / "abl"),
            "sweep": {"slots": [20, 100], "variants": ["memory", "memory_cross"], "out_dims": [8]},
        }
        lane_fits, real_fit = [], cli.fit

        def counted(states, *splits):
            if isinstance(states, list):
                lane_fits.append(sorted({(s.config.variant, s.config.slots) for s in states}))
            return real_fit(states, *splits)

        monkeypatch.setattr(cli, "fit", counted)
        assert main(["ablate", "--config", write_config(tmp_path, doc)]) == 0
        got = hashlib.sha256((tmp_path / "abl" / "ablation.json").read_bytes()).hexdigest()
        assert got == "8abb3a6703a3aa70d47b56c7e5cbf123b61d8fc449f2d8eb37e02a89d92b008d"
        # memory and memory_cross train as one stack at each slot count: 5 lane fits, not 7
        assert lane_fits == [[("memory", 20), ("memory_cross", 20)], [("memory", 100), ("memory_cross", 100)],
                             [("memory_single", 20)], [("memory_resampled", 20)], [("naive", 20)]]

    def test_a_group_that_raises_trains_its_seeds_one_at_a_time(self, tmp_path, monkeypatch, capsys):
        # seed 1 of memory_cross stops at batch 1: Adam's first step spreads
        # the NaN in its moment into the parameters
        real_build, real_run, real_fit = cli.build_state, cli.run_single, cli.fit
        group_fits = []

        def poisoned(cfg, s1, s2):
            state = real_build(cfg, s1, s2)
            if cfg.variant == "memory_cross" and cfg.seed == 1:
                state.m_flat[0] = np.nan
            return state

        def counted(states, *splits):
            group_fits.append(isinstance(states, list))
            return real_fit(states, *splits)

        monkeypatch.setattr(cli, "build_state", poisoned)
        monkeypatch.setattr(cli, "fit", counted)
        sweep = {"slots": [2, 4], "variants": ["memory", "memory_cross"], "out_dims": [4]}
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "abl", seeds=(0, 1), sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 3
        lockstep = capsys.readouterr()
        # memory and memory_cross train as one group per slot count, and
        # memory_cross seed 1 fails in both: each group's lanes raise, so its
        # cells train alone, until memory_cross seed 1 at 2 slots raises
        assert group_fits == [True, False, False, True, False, False, False, False]
        # the serial loop: every cell trained alone
        monkeypatch.setattr(cli, "run_single", lambda exp, seed, splits=None, trained=None, **cell:
                            real_run(exp, seed, splits, **cell))
        assert main(["ablate", "--config", cfg]) == 3
        assert capsys.readouterr() == lockstep
        rows = lockstep.out.splitlines()
        assert len(rows) == 5 and rows[-1].startswith("[memory_size] variant=memory_cross slots=2 seed=0")
        assert lockstep.err == "numeric error: train_epoch: non-finite loss at batch 1\n"

    def test_dataset_built_once_per_sweep(self, tmp_path, monkeypatch):
        built = []

        def counting_gen_dataset(task):
            built.append(task)
            return gen_dataset(task)

        monkeypatch.setattr(cli, "gen_dataset", counting_gen_dataset)
        out = tmp_path / "abl"
        sweep = {"slots": [2, 4], "variants": ["memory", "memory_cross"], "out_dims": [4]}
        cfg = write_config(tmp_path, tiny_experiment(out, length=120, epochs=1, seeds=(0, 1), sweep=sweep))
        assert main(["ablate", "--config", cfg]) == 0
        assert len(built) == 1
        doc = json.loads((out / "ablation.json").read_text())
        assert len(doc["memory_size"]) + len(doc["output_dim"]) + len(doc["baseline"]) == 8 + 2 + 2


class TestStackedSplits:
    def test_read_only_and_equal_to_a_fresh_stack(self, tmp_path):
        exp = load_experiment(write_config(tmp_path, tiny_experiment(tmp_path / "run")))
        splits = cli.task_splits(exp)
        data = gen_dataset(exp.task)
        n = exp.task.length
        n_train, n_val = int(n * exp.train_frac), int(n * exp.val_frac)
        rows = (slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, n))
        for arrays, r in zip(splits, rows):
            for got, column in zip(arrays, data):
                want = column[r]
                assert not got.flags.writeable
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype and got.shape == want.shape
        with pytest.raises(ValueError):
            splits[0][0][0, 0] = 1.0

    def test_parts_are_read_only_views_of_one_buffer_per_column(self, tmp_path):
        exp = load_experiment(write_config(tmp_path, tiny_experiment(tmp_path / "run")))
        splits = cli.task_splits(exp)
        assert all(isinstance(part, Dataset) for part in splits)
        for i in range(3):
            parts = [part[i] for part in splits]
            base = parts[0].base
            assert base is not None and len(base) == exp.task.length
            for a in parts:
                assert a.base is base and np.shares_memory(a, base)
                assert not a.flags.writeable
            assert sum(len(a) for a in parts) == len(base)

    def test_cells_given_the_splits_match_cells_that_build_them(self, tmp_path):
        exp = load_experiment(write_config(tmp_path, tiny_experiment(tmp_path / "run")))
        splits = cli.task_splits(exp)
        _, curves_a, report_a = cli.run_single(exp, 0, variant="memory_cross", splits=splits)
        _, curves_b, report_b = cli.run_single(exp, 0, variant="memory_cross")
        assert curves_a == curves_b
        assert report_a.to_dict() == report_b.to_dict()


class TestRunSingle:
    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("variant", ["naive", "memory", "memory_cross", "memory_single", "memory_resampled"])
    def test_test_report_equals_an_evaluate_call_on_the_returned_state(self, tmp_path, variant, freeze):
        # what the benchmark's final check asks: the test pass, a lane of
        # fit's evaluation, scores as a call on the trained state alone
        doc = tiny_experiment(tmp_path / "run")
        doc["classifier"]["freeze_eval_writes"] = freeze
        exp = load_experiment(write_config(tmp_path, doc))
        extra = {"out_dim": 3} if variant == "memory_resampled" else {}
        state, curves, report = cli.run_single(exp, 0, variant=variant, **extra)
        again = evaluate(state, cli.task_splits(exp)[2])
        assert report.to_dict() == again.to_dict()
        assert report.confusion.tobytes() == again.confusion.tobytes()
        assert all("val_wa" in row for row in curves)


class TestSeedGroup:
    @pytest.mark.parametrize("variants", [["memory_cross"], ["memory", "memory_cross"]])
    def test_the_groups_first_call_trains_it_as_lanes(self, tmp_path, monkeypatch, variants):
        # seed 3 twice is one run; memory beside memory_cross is a mixed
        # group, whose lanes differ in seed and in the query's mode order
        exp = load_experiment(write_config(tmp_path, tiny_experiment(tmp_path / "run", seeds=(3, 1, 3))))
        splits = cli.task_splits(exp)
        cells = [(variant, seed) for variant in variants for seed in (3, 1)]
        alone = {cell: cli.run_single(exp, cell[1], splits, variant=cell[0]) for cell in cells}
        fits, real_fit = [], cli.fit

        def counted(states, *args):
            fits.append(len(states) if isinstance(states, list) else 1)
            return real_fit(states, *args)

        monkeypatch.setattr(cli, "fit", counted)
        trained = cli.lockstep_groups([dataclasses.replace(exp.classifier, variant=variant, seed=seed)
                                       for variant, seed in cells])
        assert len(trained) == len(cells)
        # the group's first call need not be its first config's
        calls = cells[::-1]
        got = {calls[0]: cli.run_single(exp, calls[0][1], splits, trained=trained, variant=calls[0][0])}
        # one fit of every distinct run; the others wait in the dict
        assert fits == [len(cells)] and len(trained) == len(cells) - 1
        for variant, seed in calls[1:]:
            got[variant, seed] = cli.run_single(exp, seed, splits, trained=trained, variant=variant)
        assert fits == [len(cells)] and trained == {}
        for cell, (state, curves, report) in got.items():
            state_alone, curves_alone, report_alone = alone[cell]
            assert (state.config.variant, state.config.seed) == cell
            assert state.params.flat.tobytes() == state_alone.params.flat.tobytes()
            assert [m.matrix.tobytes() for m in state.memories] == [m.matrix.tobytes() for m in state_alone.memories]
            assert curves == curves_alone and report.to_dict() == report_alone.to_dict()

    def test_groups_are_equal_up_to_seed_and_query_order(self, tmp_path):
        exp = load_experiment(write_config(tmp_path, tiny_experiment(tmp_path / "run")))
        cells = [{"variant": "memory"}, {"variant": "memory_cross"}, {"variant": "memory", "slots": 2},
                 {"variant": "memory_single"}, {"variant": "memory_resampled", "out_dim": 3},
                 {"variant": "naive"}, {"variant": "memory", "seed": 1}, {"variant": "naive", "seed": 1}]
        configs = [dataclasses.replace(exp.classifier, **cell) for cell in cells]
        trained = cli.lockstep_groups(configs)
        groups = {key: [(c.variant, c.slots, c.seed) for c in group] for key, group in trained.items()}
        mixed = [("memory", 4, 0), ("memory_cross", 4, 0), ("memory", 4, 1)]
        naive = [("naive", 4, 0), ("naive", 4, 1)]
        # a config alone in its group has no entry and trains alone
        assert groups == {dataclasses.astuple(configs[i]): group
                          for i, group in ((0, mixed), (1, mixed), (6, mixed), (5, naive), (7, naive))}


class TestSetupCallBudget:
    """A deterministic guard on the Python work of building a run's data.

    Counts every Python-level call event (memfuse, numpy and the standard
    library alike) with sys.setprofile while task_splits builds the
    splits of a 500-step and of a 5000-step stream.  The counts must be
    equal: setup makes no Python call per row.  No timing, so it cannot
    flake.
    """

    @staticmethod
    def count_calls(tmp_path, length):
        exp = load_experiment(write_config(tmp_path, tiny_experiment(tmp_path / "run", length=length)))
        calls = []

        def count(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            cli.task_splits(exp)
        finally:
            sys.setprofile(None)
        return calls

    def test_call_count_does_not_grow_with_the_stream(self, tmp_path):
        self.count_calls(tmp_path, 500)  # first calls may fill caches
        short = self.count_calls(tmp_path, 500)
        long = self.count_calls(tmp_path, 5000)
        assert len(long) == len(short), sorted(set(long) - set(short))


class TestCheckpoint:
    def test_round_trip_is_exact_and_keeps_views(self, tmp_path):
        doc = tiny_experiment(tmp_path / "run")
        doc["classifier"].update(variant="memory_single", encoder_hidden=3)
        exp = load_experiment(write_config(tmp_path, doc))
        cls, task = exp.classifier, exp.task
        state = build_state(cls, task.s1, task.s2)
        m1, m2, labels = gen_dataset(task)
        train_epoch(state, (m1[:40], m2[:40], labels[:40]))
        fresh = build_state(cls, task.s1, task.s2)
        p = fresh.params
        views = [p.head1_w, p.head2_b, p.enc1_w, *vars(p.fusion_layers[1]).values()]
        restore_state(fresh, state_to_arrays(state))

        assert fresh.params.flat.tobytes() == state.params.flat.tobytes()
        assert fresh.m_flat.tobytes() == state.m_flat.tobytes()
        assert fresh.v_flat.tobytes() == state.v_flat.tobytes()
        assert fresh.step == state.step == 10
        assert fresh.mem_seed == state.mem_seed
        assert len(fresh.memories) == len(state.memories) == 2
        for a, b in zip(fresh.memories, state.memories):
            assert a.matrix.tobytes() == b.matrix.tobytes()
            assert a.writes_enabled == b.writes_enabled
        # restored in place: the same views, not rebound copies
        assert p is fresh.params and p.head1_w is views[0] and p.fusion_layers[1].w_comp is views[5]
        assert all(np.shares_memory(v, p.flat) for v in views)
        for k, a in state.params.named().items():
            assert p.named()[k].tobytes() == a.tobytes()


class TestStrictConfig:
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        exp = load_experiment(str(path))
        assert exp.task.length > 0 and exp.classifier.slots > 0

    @pytest.mark.parametrize(
        "section, key",
        [("task", "lenght"), ("classifier", "slotz"), (None, "epochs"), ("sweep", "slot")],
    )
    def test_unknown_key_exit_2_names_it(self, tmp_path, capsys, section, key):
        doc = tiny_experiment(tmp_path / "run", sweep={"slots": [4]})
        (doc if section is None else doc[section])[key] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("classifier", "slots", "20"),
            ("classifier", "lr", "0.01"),
            ("task", "length", "100"),
            ("task", "s1", None),
            ("classifier", "epochs", 1.5),
            ("classifier", "batch", True),
            ("classifier", "freeze_eval_writes", 1),
            ("classifier", "variant", 3),
            (None, "seeds", [0, "1"]),
            (None, "seeds", 0),
            (None, "train_frac", "0.8"),
            (None, "out_dir", 5),
            ("sweep", "slots", [2, 4.0]),
            ("sweep", "variants", "memory"),
            ("sweep", "out_dims", [True]),
        ],
    )
    def test_value_of_the_wrong_type_exit_2_names_it(self, tmp_path, capsys, section, key, value):
        doc = tiny_experiment(tmp_path / "run", sweep={"slots": [4]})
        (doc if section is None else doc[section])[key] = value
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"{key!r} in {section or 'the config'} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key, value, shown",
        [
            ("classifier", "read_bias_init", float("nan"), "NaN"),
            (None, "train_frac", float("nan"), "NaN"),
            ("task", "noise_sigma", float("inf"), "Infinity"),
            ("classifier", "lr", float("-inf"), "-Infinity"),
        ],
    )
    def test_non_finite_float_exit_2_names_it(self, tmp_path, capsys, section, key, value, shown):
        # Python's json reads the non-JSON literals NaN, Infinity and -Infinity
        doc = tiny_experiment(tmp_path / "run")
        (doc if section is None else doc[section])[key] = value
        cfg = write_config(tmp_path, doc)
        assert shown in Path(cfg).read_text()
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{key!r} in {section or 'the config'} must be finite, got {shown}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_int_is_accepted_where_a_number_is_expected(self, tmp_path):
        doc = tiny_experiment(tmp_path / "run")
        doc["task"]["noise_sigma"] = 1
        doc["classifier"].update(lr=1, dropout_rate=0, freeze_eval_writes=True)
        exp = load_experiment(write_config(tmp_path, doc))
        assert (exp.task.noise_sigma, exp.classifier.lr, exp.classifier.dropout_rate) == (1, 1, 0)
        assert exp.classifier.freeze_eval_writes is True

    def test_section_that_is_not_an_object_exit_2(self, tmp_path, capsys):
        doc = tiny_experiment(tmp_path / "run")
        doc["classifier"] = [1, 2]
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2
        assert "classifier must be a JSON object" in capsys.readouterr().err

    def test_gen_data_task_only_document(self, tmp_path, capsys):
        task = tiny_experiment(tmp_path / "run", length=30)["task"]
        out = tmp_path / "d.csv"
        assert main(["gen-data", "--config", write_config(tmp_path, task), "--out", str(out)]) == 0
        task["occlusion"] = 0.5
        assert main(["gen-data", "--config", write_config(tmp_path, task), "--out", str(out)]) == 2
        assert "'occlusion'" in capsys.readouterr().err

    def test_gen_data_experiment_document(self, tmp_path, capsys):
        doc = tiny_experiment(tmp_path / "run", length=30)
        out = tmp_path / "d.csv"
        assert main(["gen-data", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        doc["task"]["sead"] = 3
        assert main(["gen-data", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "'sead'" in capsys.readouterr().err


class TestExperimentDefaults:
    def test_absent_fields_take_the_dataclass_defaults(self, tmp_path):
        doc = tiny_experiment(tmp_path / "run")
        del doc["train_frac"], doc["val_frac"]
        exp = load_experiment(write_config(tmp_path, doc))
        defaults = ExperimentConfig(task=exp.task, classifier=exp.classifier, seeds=[0], out_dir="x")
        for name in ("train_frac", "val_frac", "sweep_slots", "sweep_variants", "sweep_out_dims"):
            assert getattr(exp, name) == getattr(defaults, name)
        assert (exp.train_frac, exp.val_frac) == (0.8, 0.1)
        assert exp.sweep_out_dims == [4, 8, 16]

    def test_present_fields_override(self, tmp_path):
        doc = tiny_experiment(tmp_path / "run", sweep={"slots": [3], "out_dims": [5]})
        doc["val_frac"] = 0.2
        exp = load_experiment(write_config(tmp_path, doc))
        assert (exp.val_frac, exp.sweep_slots, exp.sweep_out_dims) == (0.2, [3], [5])
        assert exp.sweep_variants == ["memory", "memory_cross"]


class TestGradcheckCommand:
    def test_defaults_pass_exit_0(self, capsys):
        code = main(["gradcheck", "--seeds", "2"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("gradcheck.schema.json"))
        assert doc["passed"] is True

    def test_caps_exceeded_exit_2(self):
        assert main(["gradcheck", "--dim", "40"]) == 2
        assert main(["gradcheck", "--batch", "9"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--seeds", "0"), ("--seeds", "-1"),
        ("--threshold", "inf"), ("--threshold", "0"), ("--threshold", "-1"), ("--threshold", "nan"),
        ("--step", "inf"), ("--step", "nan"), ("--step", "0"), ("--step", "-1e-6"),
        # both used to exit with "gradcheck dims must be >= 1", naming neither flag
        ("--slots", "0"), ("--slots", "-2"), ("--batch", "0"), ("--batch", "-1"),
    ])
    def test_bad_flag_value_exit_2_names_it(self, capsys, flag, value):
        assert main(["gradcheck", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("dim", ["0", "1", "-3"])
    def test_dim_below_two_exit_2_names_it(self, capsys, dim):
        # each mode needs one feature or more: --dim 1 used to check a 2-wide layer
        assert main(["gradcheck", "--dim", dim]) == 2
        err = capsys.readouterr().err
        assert "--dim" in err and "out_dim" not in err and "Traceback" not in err

    def test_dim_two_checks_one_feature_per_mode(self, capsys):
        assert main(["gradcheck", "--dim", "2", "--seeds", "1", "--variant", "memory"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_seed_count_respected(self, capsys):
        code = main(["gradcheck", "--seeds", "3", "--variant", "memory"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["variants"]["memory"]["seeds"] == 3
        assert list(doc["variants"]) == ["memory"]


class TestClassifierFieldChecks:
    @pytest.mark.parametrize("field,value", [
        ("head_hidden", 0), ("head_hidden", -2), ("encoder_hidden", -3), ("out_dim", -1),
        # these three used to share one message naming no value
        ("batch", 0), ("slots", 0), ("epochs", -1),
    ])
    def test_out_of_range_exit_2_names_the_field(self, tmp_path, capsys, field, value):
        doc = tiny_experiment(tmp_path / "run")
        doc["classifier"][field] = value
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and f"got {value}" in err
        assert not (tmp_path / "run").exists()


class TestUnallocatableSize:
    """A memory or parameter vector no address space holds exits 2 with
    one error line and no traceback.  At d = 8, 2**55 slots ask for
    2 EiB, which the allocator refuses (MemoryError); 2**60 slots, or a
    2**60-wide block, exceed what numpy can even index.  None allocates
    anything."""

    @pytest.mark.parametrize("slots", [2**55, 2**60])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, slots):
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        assert main(["train", "--config", cfg, "--slots", str(slots)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["head_hidden", "encoder_hidden", "out_dim"])
    def test_parameter_vector_beyond_the_address_space(self, tmp_path, capsys, field):
        # a 2**60-wide block makes the parameter vector too long to index
        doc = tiny_experiment(tmp_path / "run")
        doc["classifier"][field] = 2**60
        if field == "out_dim":
            doc["classifier"]["variant"] = "memory_resampled"
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate: ") and err.count("\n") == 1


class TestGenData:
    def test_writes_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"task": {"s1": 3, "s2": 2, "classes": 3, "regimes": 3, "regime_period": 4,
                      "occlusion_prob": 0.2, "noise_sigma": 0.3, "length": 50, "seed": 1}},
        )
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 51
        assert lines[0].startswith("t,label,m1_0")

    def test_printed_count_is_the_csv_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run", length=37))
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 37
        assert capsys.readouterr().out.startswith(f"wrote {len(rows)} samples ")

    def test_bad_task_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"task": {"s1": 0, "s2": 2}})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


class TestUsage:
    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_variant_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        assert main(["train", "--config", cfg, "--variant", "bogus"]) == 2

    def test_ablate_takes_no_variant_flag(self, tmp_path, capsys, no_training):
        # every ablation cell sets its own variant, so the flag would be ignored
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        assert main(["ablate", "--config", cfg, "--variant", "naive"]) == 2
        assert "unrecognized arguments: --variant" in capsys.readouterr().err


class TestEveryFlagCounts:
    """Every optional flag of every subcommand (a required one is part of
    every run), walked from build_parser() and set to a value other than
    its baseline's, changes some output byte (a file the command writes or
    its stdout) or exits 2.  A flag that
    parses and is then ignored fails here, so a new flag is covered without
    being listed: int, float and on/off flags get their new value by type,
    and a string flag needs one in STRINGS."""

    # arguments every run of a command takes
    BASE = {
        "train": ["--config", "{cfg}"],
        "evaluate": ["--config", "{cfg}"],
        "ablate": ["--config", "{cfg}"],
        "gradcheck": ["--seeds", "1"],
        "gen-data": [],
    }
    # a value for each string flag that no baseline run uses
    STRINGS = {"variant": "naive", "out": "elsewhere", "config": "{cfg}", "checkpoint": "{checkpoint}"}

    @staticmethod
    def flags():
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, sub in commands.choices.items():
            for action in sub._actions:
                if action.option_strings and not action.required and not isinstance(action, argparse._HelpAction):
                    yield command, action

    def changed(self, action, base, paths):
        flag = action.option_strings[0]
        if action.nargs == 0:
            return [flag]
        current = base[base.index(flag) + 1] if flag in base else action.default
        if action.type is int:
            return [flag, str(int(current or 0) + 1)]
        if action.type is float:
            return [flag, repr(float(current) * 2)]
        assert action.dest in self.STRINGS, f"{flag} takes a string: give it a value in STRINGS"
        return [flag, self.STRINGS[action.dest].format(**paths)]

    @staticmethod
    def run(workdir, argv, seed_dir=None):
        """Exit code, stdout and every file of `memfuse argv` run in workdir,
        a new directory, or a fresh copy of seed_dir when given."""
        if seed_dir is None:
            workdir.mkdir()
        else:
            shutil.copytree(seed_dir, workdir)
        stdout = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
            mp.chdir(workdir)
            code = main(argv)
        files = {str(f.relative_to(workdir)): f.read_bytes() for f in sorted(workdir.rglob("*")) if f.is_file()}
        return code, stdout.getvalue(), files

    def test_each_flag_changes_an_output_or_exits_2(self, tmp_path):
        sweep = {"slots": [2], "variants": ["memory"], "out_dims": [4]}
        # out_dir is relative, so every run writes inside its own workdir; at
        # seed 2 a frozen memory changes some of the tiny task's test labels
        doc = tiny_experiment("run", seeds=(2,), sweep=sweep)
        paths = {"cfg": write_config(tmp_path, doc), "checkpoint": str(tmp_path / "other" / "checkpoint.bin")}
        assert main(["train", "--config", paths["cfg"], "--seed", "0", "--out", str(tmp_path / "other")]) == 0
        # what every run starts from: the checkpoint evaluate reads by default
        seed_dir = tmp_path / "seed"
        assert self.run(seed_dir, ["train", "--config", paths["cfg"]])[0] == 0
        base = {}
        for command, args in self.BASE.items():
            argv = [command] + [a.format(**paths) for a in args]
            base[command] = self.run(tmp_path / command, argv, seed_dir)
            assert base[command][0] == 0, (argv, base[command][0])
        ignored = []
        for command, action in self.flags():
            args = [a.format(**paths) for a in self.BASE[command]]
            argv = [command] + args + self.changed(action, args, paths)
            code, stdout, files = self.run(tmp_path / f"{command}{action.option_strings[0]}", argv, seed_dir)
            if code != cli.EXIT_USAGE and (code, stdout, files) == base[command]:
                ignored.append(argv)
        assert not ignored, ignored


class TestUnusablePaths:
    """A path the command cannot use exits 2 with one `error:` line naming
    it, and a bad --out fails before any training."""

    def _refused(self, capsys, argv, path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err and "Traceback" not in err

    def test_train_out_is_an_existing_file(self, tmp_path, capsys, no_training):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        self._refused(capsys, ["train", "--config", cfg, "--out", str(taken)], taken)

    def test_train_out_under_a_file(self, tmp_path, capsys, no_training):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        self._refused(capsys, ["train", "--config", cfg, "--out", str(taken / "sub")], taken / "sub")

    def test_ablate_out_is_an_existing_file(self, tmp_path, capsys, no_training):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        self._refused(capsys, ["ablate", "--config", cfg, "--out", str(taken)], taken)

    def test_gen_data_out_under_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        self._refused(capsys, ["gen-data", "--config", cfg, "--out", str(taken / "x.csv")], taken)

    def test_evaluate_out_is_an_existing_file(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built the data before the output directory was made")

        monkeypatch.setattr(cli, "task_splits", refuse)
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        self._refused(capsys, ["evaluate", "--config", cfg, "--checkpoint", cfg, "--out", str(taken)], taken)

    def test_evaluate_checkpoint_is_a_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_experiment(tmp_path / "run"))
        self._refused(capsys, ["evaluate", "--config", cfg, "--checkpoint", str(tmp_path)], tmp_path)
