"""Every shipped output pinned by its sha256 (`tests/golden.json`).

A change that keeps outputs byte-identical passes unchanged; a change
that means to move an output rewrites the manifest in the same commit
and says why.  The sweep's `ablation.json` and the `wide_train` stream
are pinned by their own tests in test_cli.py and test_synthdata.py.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from memfuse.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
VARIANTS = ("memory", "memory_cross", "memory_single", "naive")


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = {"name": "unknown", "version": ""}
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def write_outputs(out: Path, capsys) -> None:
    """The outputs the manifest names, written under `out` by the CLI."""

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv
        return capsys.readouterr().out

    for name in ("smoke", "regime"):
        run("gen-data", "--config", ROOT / "configs" / f"{name}.json", "--out", out / "gen-data" / f"{name}.csv")
    (out / "gradcheck.json").write_text(run("gradcheck", "--seeds", 3))
    smoke = ROOT / "configs" / "smoke.json"
    for variant in VARIANTS:
        common = ("--config", smoke, "--variant", variant)
        run("train", *common, "--out", out / variant / "train")
        checkpoint = out / variant / "train" / "checkpoint.bin"
        run("evaluate", *common, "--checkpoint", checkpoint, "--out", out / variant / "eval")
        run("evaluate", *common, "--checkpoint", checkpoint, "--out", out / variant / "eval_frozen", "--freeze-writes")


def test_outputs_match_the_manifest(tmp_path, capsys):
    manifest = json.loads(MANIFEST.read_text())
    write_outputs(tmp_path, capsys)
    got = {str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    if got == manifest["sha256"]:
        return
    differs = [name for name in manifest["sha256"] if got.get(name) != manifest["sha256"][name]]
    first = differs[0] if differs else f"unlisted output {sorted(set(got) - set(manifest['sha256']))[0]}"
    # in the manifest's order, so they can be pasted into it
    ordered = {name: got[name] for name in manifest["sha256"] if name in got}
    ordered.update((name, digest) for name, digest in got.items() if name not in ordered)
    here = versions()
    moved = [f"{k} {v} (manifest {manifest['versions'].get(k)})"
             for k, v in here.items() if v != manifest["versions"].get(k)]
    raise AssertionError(
        f"first output that differs: {first} ({len(differs)} of {len(manifest['sha256'])} differ)\n"
        f"versions that differ from the manifest's: {', '.join(moved) or 'none'}\n"
        f"actual hashes:\n{json.dumps(ordered, indent=2)}"
    )
