#!/usr/bin/env python3
"""Print the sha256 reference set of rfloc's outputs on fixed seeds.

The set pins the bits of one full pipeline on the acceptance-2 data
(source seed 0; target seed 1 with corner receivers, 8 dB shadowing and a
-38 dBm reference power; 650 rows each): a 40-epoch train, a 5-epoch adapt
with each method (mtloc and mtloc-conf with the acceptance-2 settings)
and its diagnostics CSV, eval of the source and the five adapted models,
and a mtloc-conf cv over ``alpha=0.7,0.8;k=2,8`` with 5 folds of 2 epochs.
After those come the CLI's own gen-synth pair (default scenario, in a
``synth`` subdirectory), a heatmap of the mtloc-conf model on the target
(its ``.csv``, ``.pgm`` and ``.scale.txt``) and two more 2-epoch cv runs
with 3 folds: mtloc-conf over ``noise_variance=0.1,0.3;k=2,8``, whose
entries need two first-epoch teacher passes per fold, and mtloc over
``alpha=0.7,0.8``.
A change that claims to leave the bits alone must leave every line of the
output unchanged; CHANGES.md records the set of the current code.

Run from the root of a checkout:

    PYTHONPATH=src python tests/digests.py            # first 12 hex digits
    PYTHONPATH=src python tests/digests.py --full     # whole digests
    PYTHONPATH=src python tests/digests.py --keep DIR # also keep the files

Output is one ``name digest`` line per file, in a fixed order. The files'
names are part of their bits (run ids hash the output names), so they are
fixed here too. Each ``.model`` line is followed by a ``<name>.params``
line, the sha256 of the model's parameter arrays alone (their bytes, in
``params`` order), so a change that alters only an artifact's metadata
(its run id or config echo) can show that no weight moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from rfloc import cli  # first: rfloc pins BLAS to one thread before numpy loads
from rfloc.artifact import load_model
from rfloc.data import write_csv
from rfloc.synthetic import SynthConfig, generate_synthetic

TARGET_RX = ((1.5, 1.5), (1.5, 8.5), (8.5, 8.5), (8.5, 1.5))
METHODS = ("mtloc", "mtloc-conf", "shot", "dann", "oracle")
METHOD_SETTINGS = {
    "mtloc": ("noise_variance=0.3",),
    "mtloc-conf": ("noise_variance=0.3", "c_x=1.0", "c_y=1.0", "k=8"),
}
CV_SETTINGS = ("epochs=2", "noise_variance=0.3", "c_x=1.0", "c_y=1.0", "k=8")
# The later cv runs: (table suffix, method, grid, settings), 3 folds each.
MORE_CVS = (
    ("noise", "mtloc-conf", "noise_variance=0.1,0.3;k=2,8", ("epochs=2", "c_x=1.0", "c_y=1.0")),
    ("mtloc", "mtloc", "alpha=0.7,0.8", ("epochs=2", "noise_variance=0.3")),
)


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"rfloc {argv[0]} exited {rc}")


def _settings(pairs) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


def produce(work: Path) -> list[Path]:
    """Run the pipeline in work; returns the files of the set, in order."""
    source, target = work / "source.csv", work / "target.csv"
    write_csv(generate_synthetic(SynthConfig(seed=0, name="source")), source)
    write_csv(
        generate_synthetic(
            SynthConfig(seed=1, name="target", rx=TARGET_RX, shadowing_std_db=8.0,
                        ref_power_dbm=-38.0)
        ),
        target,
    )
    model = work / "train.model"
    _run(["train", "--source-csv", source, "--set", "epochs=40", "--out", model])
    files = [source, target, model]
    for method in METHODS:
        out, diag = work / f"target.{method}.model", work / f"target.{method}.diag.csv"
        argv = ["adapt", "--method", method, "--model", model, "--target-csv", target,
                "--set", "epochs=5", *_settings(METHOD_SETTINGS.get(method, ())),
                "--out", out, "--diagnostics", diag]
        if method == "dann":
            argv += ["--source-csv", source]
        _run(argv)
        files += [out, diag]
    report = work / "target.report.csv"
    adapted = [work / f"target.{m}.model" for m in METHODS]
    _run(["eval", "--model", model, *adapted, "--csv", target, "--out-report", report])
    grid = work / "target.grid.csv"
    _run(["cv", "--method", "mtloc-conf", "--model", model, "--target-csv", target,
          "--grid", "alpha=0.7,0.8;k=2,8", "--folds", "5", *_settings(CV_SETTINGS),
          "--out", grid])
    synth = work / "synth"
    _run(["gen-synth", "--out-dir", synth])
    heatmap = work / "target.heatmap"
    _run(["heatmap", "--model", work / "target.mtloc-conf.model", "--csv", target,
          "--receivers", ";".join(f"{x},{y}" for x, y in TARGET_RX), "--out-prefix", heatmap])
    more_grids = [work / f"target.grid-{suffix}.csv" for suffix, *_ in MORE_CVS]
    for out, (_, method, axes, settings) in zip(more_grids, MORE_CVS):
        _run(["cv", "--method", method, "--model", model, "--target-csv", target,
              "--grid", axes, "--folds", "3", *_settings(settings), "--out", out])
    return files + [report, grid, synth / "source.csv", synth / "target.csv"] + [
        work / f"target.heatmap{suffix}" for suffix in (".csv", ".pgm", ".scale.txt")
    ] + more_grids


def params_digest(path: Path) -> str:
    """sha256 of a model's parameter arrays, in params order."""
    h = hashlib.sha256()
    for param in load_model(path).net.params.values():
        h.update(param.value.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true", help="print whole sha256 digests")
    parser.add_argument("--keep", metavar="DIR", help="copy the files into DIR")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for path in produce(Path(tmp)):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            name = path.relative_to(tmp).as_posix()
            print(name, digest if args.full else digest[:12])
            if path.suffix == ".model":
                digest = params_digest(path)
                print(f"{name}.params", digest if args.full else digest[:12])
            if args.keep:
                kept = Path(args.keep) / name
                kept.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(path, kept)
    return 0


if __name__ == "__main__":
    sys.exit(main())
