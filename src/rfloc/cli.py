"""Command-line interface.

Verbs: gen-synth, train, adapt, eval, heatmap, cv, replay. Every command
writes a run manifest (command, fully resolved config, input hashes,
output paths) and embeds the manifest's run id in each artifact it
produces; `replay` re-executes a manifest and reproduces the artifacts
byte for byte.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure, 5 a worker process died, 6 out of memory. Each is the exit_code
of the error class raised (rfloc.errors).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import math
import os
import re
import sys
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .artifact import load_model, save_model
from .configio import (
    dataclass_to_kv,
    kv_to_dataclass,
    parse_float,
    parse_int,
    parse_pair_tuple,
    read_kv,
    write_kv,
)
from .dann import DannConfig, run_dann
from .data import load_csv, write_csv
from .errors import (
    ConfigError,
    DataError,
    ResourceError,
    RflocError,
    UsageError,
)
from .evalmetrics import (
    METRIC_NAMES,
    compute_heatmap,
    compute_metrics,
    cross_validate,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from .localizer import TrainConfig, finetune_oracle, predict, train_source
from .meanteacher import ConfidenceConfig, MeanTeacherConfig, adapt, first_pass, pass_key
from .shot import ShotConfig, run_shot
from .synthetic import Site, SynthConfig, generate_synthetic

log = logging.getLogger(__name__)

EXIT_OK = 0

# Largest cv grid. Each entry is one adaptation per fold, so this many
# entries already run for days; the cap refuses a grid whose product of
# axis lengths could not even be listed in memory.
MAX_GRID_CONFIGS = 10_000

# ---------------------------------------------------------------- scenario

@dataclass
class SynthScenario(Site):
    """Source/target pair sharing a room but differing in receiver layout
    (and optionally in shadowing), which is what creates the domain shift."""

    source_rx: tuple = ((5.0, 1.0), (0.5, 6.0), (5.0, 9.5), (9.5, 6.2))
    target_rx: tuple = ((1.5, 1.5), (1.5, 8.5), (8.5, 8.5), (8.5, 1.5))
    source_shadowing_std_db: float = 0.5
    target_shadowing_std_db: float = 3.0

    DATASETS = ("source", "target")

    def dataset_config(self, name: str) -> SynthConfig:
        """The config of dataset "source" (seed) or "target" (seed + 1)."""
        shared = {f.name: getattr(self, f.name) for f in fields(Site)}
        return SynthConfig(**{
            **shared,
            "rx": getattr(self, f"{name}_rx"),
            "shadowing_std_db": getattr(self, f"{name}_shadowing_std_db"),
            "seed": self.seed + self.DATASETS.index(name),
            "name": name,
        })


# ---------------------------------------------------------------- manifests

def _hash_file(path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as e:
        raise DataError(f"cannot read input {path}: {e}") from e
    return h.hexdigest()


def _make_run_id(command: str, config_kv: dict, input_hashes: dict, output_names: list) -> str:
    blob = json.dumps(
        {
            "command": command,
            "config": config_kv,
            "inputs": input_hashes,
            "outputs": sorted(output_names),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _write_manifest(
    path, command, run_id, config_kv, inputs, input_hashes, outputs, wall_time
) -> None:
    kv = {
        "command": command,
        "run_id": run_id,
        "version": __version__,
        "wall_time_s": f"{wall_time:.3f}",
    }
    for key, value in config_kv.items():
        kv[f"config.{key}"] = value
    for name, p in inputs.items():
        kv[f"input.{name}.path"] = str(p)
        kv[f"input.{name}.sha256"] = input_hashes[name]
    for name, p in outputs.items():
        kv[f"output.{name}"] = str(p)
    write_kv(path, kv, header="run manifest")


def read_manifest(path) -> dict:
    kv = read_kv(path)
    for required in ("command", "run_id"):
        if required not in kv:
            raise DataError(f"{path}: manifest is missing {required!r}")
    config_kv, inputs, hashes, outputs = {}, {}, {}, {}
    for key, value in kv.items():
        if key.startswith("config."):
            config_kv[key[len("config."):]] = value
        elif key.startswith("input.") and key.endswith(".path"):
            inputs[key[len("input."):-len(".path")]] = value
        elif key.startswith("input.") and key.endswith(".sha256"):
            hashes[key[len("input."):-len(".sha256")]] = value
        elif key.startswith("output."):
            outputs[key[len("output."):]] = value
    return {
        "command": kv["command"],
        "run_id": kv["run_id"],
        "config": config_kv,
        "inputs": inputs,
        "hashes": hashes,
        "outputs": outputs,
    }


def _check_names(command, kind, given, required, optional=()) -> None:
    """Refuse inputs or outputs that lack a required name or have a name
    the verb does not read."""
    missing = sorted(set(required) - set(given))
    if missing:
        raise DataError(f"{command} manifest has no {kind} {missing[0]!r}")
    unexpected = sorted(set(given) - set(required) - set(optional))
    if unexpected:
        raise DataError(f"{command} manifest has an unexpected {kind} {unexpected[0]!r}")


def _check_paths(inputs, outputs, manifest_path) -> None:
    """Refuse a run that would write one file twice or write over one of
    its inputs: the file would not hold what the manifest records, and an
    overwritten input would no longer replay."""
    files = {os.path.realpath(p): f"input {name!r}" for name, p in inputs.items()}
    for name, p in [*outputs.items(), ("manifest", manifest_path)]:
        path = os.path.realpath(p)
        if path in files:
            raise UsageError(
                f"cannot write output {name!r} ({p}): it is the same file as {files[path]}"
            )
        files[path] = f"output {name!r}"


def _run_command(command, config_kv, inputs, outputs, manifest_path, recorded=None) -> None:
    """Check the config snapshot, the input and output names and that no
    written path is another written path or an input, hash the inputs (a
    replay compares them with the recorded hashes), make the output
    directories, run the verb, then write the manifest."""
    start = time.perf_counter()
    if command not in _VERBS:
        raise DataError(f"manifest records unknown command {command!r}")
    parse, run, input_names, output_names, optional_outputs = _VERBS[command]
    cfg = parse(config_kv)
    input_names += _more_inputs(command, cfg, inputs)
    _check_names(command, "input", inputs, input_names)
    _check_names(command, "output", outputs, output_names, optional_outputs)
    _check_paths(inputs, outputs, manifest_path)
    input_hashes = {name: _hash_file(p) for name, p in inputs.items()}
    if recorded is not None:
        for name in sorted({*input_hashes, *recorded}):
            if input_hashes.get(name) != recorded.get(name):
                raise DataError(
                    f"input {name!r} ({inputs.get(name)}) changed since the recorded run"
                    f" (sha256 {input_hashes.get(name)}, recorded {recorded.get(name)});"
                    " refusing to replay"
                )
    run_id = _make_run_id(
        command, config_kv, input_hashes, [Path(p).name for p in outputs.values()]
    )
    written = [str(p) for p in (*outputs.values(), manifest_path)]
    for path in written:
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise UsageError(f"cannot make the directory of output {path}: {e}") from None
        if Path(path).is_dir():
            # Refused before any output is written or renamed into place.
            raise UsageError(f"cannot write output {path}: Is a directory")
    try:
        run(cfg, inputs, outputs, run_id)
        wall = time.perf_counter() - start
        _write_manifest(
            manifest_path, command, run_id, config_kv, inputs, input_hashes, outputs, wall
        )
    except OSError as e:
        if str(e.filename) not in written:
            raise
        raise _output_error(e.filename, e) from None
    for p in outputs.values():
        print(f"wrote {p}")
    print(f"manifest {manifest_path} (run {run_id})")


# ---------------------------------------------------------------- verbs
# Each verb is a _VERBS entry (parse, run, input names, output names,
# optional output names). parse turns a config snapshot into the verb's
# typed config or raises ConfigError; run is a pure function of (typed
# config, inputs, outputs, run id), so replaying the same snapshot
# reproduces the artifacts byte for byte. A manifest must hold each input
# and output name run reads and no other name, but for the optional
# outputs and the inputs that _more_inputs adds.

def _config_value(config_kv: dict, key: str, default: str, parse):
    """A manifest value outside the config dataclasses, parsed so that an
    edited manifest fails with ConfigError rather than a traceback."""
    try:
        return parse(config_kv.get(key, default))
    except ConfigError as e:
        raise ConfigError(f"config key {key!r}: {e}") from None


def _checked(cls, config_kv: dict):
    cfg = kv_to_dataclass(cls, config_kv)
    cfg.validate()
    return cfg


def _parse_gen_synth(config_kv) -> list[SynthConfig]:
    scenario = kv_to_dataclass(SynthScenario, config_kv)
    configs = [scenario.dataset_config(name) for name in SynthScenario.DATASETS]
    for cfg in configs:
        cfg.validate()
    return configs


def _output_error(path, e: OSError) -> UsageError:
    return UsageError(f"cannot write output {path}: {e.strerror}")


def _run_gen_synth(configs, inputs, outputs, run_id) -> None:
    # Each CSV is written under a temporary name beside its output, one
    # dataset in memory at a time, and both are renamed only once both are
    # complete, so a failure leaves neither.
    staged = []
    try:
        for cfg in configs:
            path = Path(outputs[f"{cfg.name}_csv"])
            staged.append((path.with_name(f".{path.name}.partial"), path))
            write_csv(generate_synthetic(cfg), staged[-1][0], run_id=run_id)
        for partial, path in staged:
            partial.replace(path)
    except OSError as e:
        raise _output_error(path, e) from None
    finally:
        for partial, _ in staged:
            partial.unlink(missing_ok=True)


def _run_train(cfg, inputs, outputs, run_id) -> None:
    model = train_source(load_csv(inputs["source_csv"]), cfg)
    model.meta["run_id"] = run_id
    save_model(model, outputs["model"])


# Adapt runners: (cfg, model, target CSV, inputs) -> (adapted model,
# diagnostics rows). They call the trainers as this module's globals at
# call time, so whatever rebinds rfloc.cli.adapt (or run_shot, run_dann,
# finetune_oracle) also sees adapt and cv runs.

def _run_mean_teacher(cfg, model, target, inputs):
    return adapt(model, target.without_labels(), cfg)


def _run_shot(cfg, model, target, inputs):
    return run_shot(model, target.without_labels(), cfg)


def _run_dann(cfg, model, target, inputs):
    return run_dann(model, load_csv(inputs["source_csv"]), target.without_labels(), cfg)


def _run_oracle(cfg, model, target, inputs):
    return finetune_oracle(model, target, cfg), []


@dataclass(frozen=True)
class Method:
    """One adapt method. config is its config class, which holds the
    method's default values and parses its config keys (and, for the
    mean-teacher family, selects whether adapt gates its pseudo labels).
    columns is the diagnostics-CSV header; needs_source says whether it
    reads source data (--source-csv)."""

    config: type
    run: Callable
    columns: tuple[str, ...]
    needs_source: bool = False


METHODS = {
    "mtloc": Method(MeanTeacherConfig, _run_mean_teacher, ("epoch", "kd_loss")),
    "mtloc-conf": Method(
        ConfidenceConfig, _run_mean_teacher, ("epoch", "kd_loss", "n_uncertain", "t_x", "t_y")
    ),
    "dann": Method(
        DannConfig, _run_dann, ("epoch", "reg_loss", "disc_loss", "feat_loss"), needs_source=True
    ),
    "shot": Method(ShotConfig, _run_shot, ("epoch", "cons", "teach", "stat", "coral", "total")),
    "oracle": Method(TrainConfig, _run_oracle, ("epoch",)),
}
# The methods k-fold selection tunes: the mean-teacher family.
CV_METHODS = ("mtloc", "mtloc-conf")


def _method(config_kv, names, own_keys=("method",)):
    """The method a snapshot names, and the snapshot less the verb's own
    keys: the method's config keys, still as text."""
    name = config_kv.get("method")
    if name not in names:
        raise ConfigError(f"method {name!r} is not one of {', '.join(names)}")
    return METHODS[name], {k: v for k, v in config_kv.items() if k not in own_keys}


def _parse_adapt(config_kv):
    method, method_kv = _method(config_kv, tuple(METHODS))
    return method, _checked(method.config, method_kv)


def _run_adapt(parsed, inputs, outputs, run_id) -> None:
    method, cfg = parsed
    model = load_model(inputs["model"])
    target = load_csv(inputs["target_csv"])
    adapted, rows = method.run(cfg, model, target, inputs)
    adapted.meta["run_id"] = run_id
    save_model(adapted, outputs["model"])
    if "diagnostics" in outputs:
        with open(outputs["diagnostics"], "w") as fh:
            fh.write(f"# run: {run_id}\n" + ",".join(method.columns) + "\n")
            for row in rows:
                fh.write(",".join(str(row[c]) for c in method.columns) + "\n")


def _parse_eval(config_kv) -> None:
    if config_kv:
        # Manifests written while eval had a --runs option carry config.runs.
        keys = ", ".join(map(repr, sorted(config_kv)))
        raise ConfigError(f"eval takes no configuration; manifest has config key(s) {keys}")


def _eval_models(inputs) -> list[str]:
    """The model inputs of an eval: model000, model001, ..."""
    return sorted(k for k in inputs if re.fullmatch(r"model\d{3,}", k))


def _run_eval(_, inputs, outputs, run_id) -> None:
    data = load_csv(inputs["csv"])
    if not data.labeled:
        raise DataError("evaluation requires a labeled CSV")
    model_keys = _eval_models(inputs)
    # One model alive at a time: each is dropped before the next loads.
    reports = [
        compute_metrics(predict(load_model(inputs[key]), data), data.labels) for key in model_keys
    ]
    rows = []
    for m in METRIC_NAMES:
        v = [r[m] for r in reports]
        rows.append((m, float(np.mean(v)), float(np.std(v)), v))
    with open(outputs["report"], "w") as fh:
        fh.write(f"# run: {run_id}\n")
        run_cols = ",".join(f"run_{i + 1}" for i in range(len(reports)))
        fh.write(f"metric,mean,std,{run_cols}\n")
        for m, mean, std, v in rows:
            fh.write(f"{m},{mean!r},{std!r},{','.join(map(repr, v))}\n")
    print(f"{'metric':<8}{'mean':>12}{'std':>12}   (n_runs={len(reports)})")
    for m, mean, std, _ in rows:
        print(f"{m:<8}{mean:>12.4f}{std:>12.4f}")


def _parse_heatmap(config_kv):
    cell = _config_value(config_kv, "cell", "1.0", parse_float)
    receivers = _config_value(config_kv, "receivers", "", parse_pair_tuple)
    if any(len(rx) != 2 for rx in receivers):
        raise ConfigError(
            f"config key 'receivers': each receiver needs two values (x, y),"
            f" got {config_kv['receivers']!r}"
        )
    return cell, receivers or None


def _run_heatmap(parsed, inputs, outputs, run_id) -> None:
    cell, receivers = parsed
    data = load_csv(inputs["csv"])
    if not data.labeled:
        raise DataError("heatmaps require a labeled CSV")
    model = load_model(inputs["model"])
    grid = compute_heatmap(predict(model, data), data.labels, cell=cell)
    write_heatmap_csv(grid, outputs["grid_csv"], receivers=receivers, run_id=run_id)
    write_heatmap_pgm(grid, outputs["pgm"], outputs["scale"])


def _parse_grid(text: str, cls) -> list[dict]:
    """The grid's entries, each {key: value text}. A key given twice, or a
    value repeated within an axis (as cls parses it), is refused: either
    would put identical rows in the results table. So is a grid of more
    than MAX_GRID_CONFIGS entries, counted before any is built."""
    axes: dict[str, list[str]] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, values = part.partition("=")
        key = key.strip()
        if not sep or not values.strip():
            raise ConfigError(f"grid axis {part!r} is not of the form key=v1,v2,...")
        if key in axes:
            raise ConfigError(f"grid axis {key!r} is given more than once")
        axes[key] = [v.strip() for v in values.split(",")]
        parsed = [getattr(kv_to_dataclass(cls, {key: v}), key) for v in axes[key]]
        if len(set(parsed)) < len(parsed):
            raise ConfigError(f"grid axis {key!r} repeats a value")
    if not axes:
        raise ConfigError("empty hyperparameter grid")
    size = math.prod(len(values) for values in axes.values())
    if size > MAX_GRID_CONFIGS:
        raise ConfigError(
            f"hyperparameter grid of {size} configs exceeds {MAX_GRID_CONFIGS};"
            " use fewer values per axis"
        )
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _parse_cv(config_kv):
    method, base_kv = _method(config_kv, CV_METHODS, ("method", "grid", "folds", "fold_seed"))
    n_folds = _config_value(config_kv, "folds", "5", parse_int)
    fold_seed = _config_value(config_kv, "fold_seed", "0", parse_int)
    grid = _parse_grid(config_kv.get("grid", ""), method.config)
    configs = [_checked(method.config, {**base_kv, **entry}) for entry in grid]
    return grid, configs, n_folds, fold_seed


def _run_cv(parsed, inputs, outputs, run_id) -> None:
    """Score each grid entry by k-fold validation and mark the best: the
    lowest score, a tie going to the entry whose parsed values, in sorted
    key order, are smallest (numeric order: k=8 before k=10)."""
    grid, configs, n_folds, fold_seed = parsed
    model = load_model(inputs["model"])
    target = load_csv(inputs["target_csv"])

    # The entries that run a first epoch, by the pass_key of its teacher
    # pass. A pass that two or more entries share is computed once per
    # fold, in this process; an entry with a key of its own computes its
    # pass in its worker, so a one-entry grid keeps both stages in the
    # workers, where the folds run side by side.
    users = {}
    for cfg in configs:
        if cfg.epochs >= 1:
            users.setdefault(pass_key(cfg), []).append(cfg)

    def recipe(train):
        train = train.without_labels()
        passes = {
            key: first_pass(model, train, cfgs[0]) for key, cfgs in users.items() if len(cfgs) > 1
        }

        def fit(val, cfg):
            adapted, _ = adapt(model, train, cfg, passes.get(pass_key(cfg)))
            return predict(adapted, val)

        return fit

    scores = cross_validate(target, recipe, configs, n_folds=n_folds, seed=fold_seed)
    vary_keys = sorted(grid[0])
    rows = [[entry[k] for k in vary_keys] for entry in grid]
    best = min(
        range(len(rows)), key=lambda i: (scores[i], [getattr(configs[i], k) for k in vary_keys])
    )
    with open(outputs["table"], "w") as fh:
        fh.write(f"# run: {run_id}\n")
        fh.write(",".join(vary_keys) + ",val_mae_d,best\n")
        for i, (row, score) in enumerate(zip(rows, scores)):
            fh.write(",".join(row) + f",{score!r},{int(i == best)}\n")
    print(f"best config: {', '.join(f'{k}={v}' for k, v in zip(vary_keys, rows[best]))}")


_VERBS = {
    "gen-synth": (_parse_gen_synth, _run_gen_synth, (), ("source_csv", "target_csv"), ()),
    "train": (partial(_checked, TrainConfig), _run_train, ("source_csv",), ("model",), ()),
    "adapt": (_parse_adapt, _run_adapt, ("model", "target_csv"), ("model",), ("diagnostics",)),
    "eval": (_parse_eval, _run_eval, ("csv",), ("report",), ()),
    "heatmap": (_parse_heatmap, _run_heatmap, ("model", "csv"), ("grid_csv", "pgm", "scale"), ()),
    "cv": (_parse_cv, _run_cv, ("model", "target_csv"), ("table",), ()),
}


def _more_inputs(command, cfg, inputs) -> tuple:
    """The input names a verb reads beyond those in _VERBS: source_csv for
    an adapt method that needs source data, and eval's model000, model001,
    ... (at least one)."""
    if command == "adapt" and cfg[0].needs_source:
        return ("source_csv",)
    if command == "eval":
        return tuple(_eval_models(inputs)) or ("model000",)
    return ()


# ---------------------------------------------------------------- arg parsing

def _merge_config(defaults_kv: dict, config_path, set_items) -> dict:
    kv = dict(defaults_kv)

    def apply(key: str, value: str, origin: str) -> None:
        if key not in kv:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        kv[key] = value

    if config_path:
        for key, value in read_kv(config_path).items():
            apply(key, value, str(config_path))
    for item in set_items or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        apply(key.strip(), value.strip(), "--set")
    return kv


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rfloc",
        description="Source-free domain adaptation for RF indoor localization.",
    )
    p.add_argument("--version", action="version", version=f"rfloc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic source/target CSV pair")
    g.add_argument("--config", help="scenario config file (key = value)")
    g.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    g.add_argument("--out-dir", required=True, help="directory for source.csv and target.csv")

    t = sub.add_parser("train", help="train the localizer on labeled source data")
    t.add_argument("--source-csv", required=True)
    t.add_argument("--config")
    t.add_argument("--set", action="append", metavar="KEY=VALUE")
    t.add_argument("--out", required=True, help="model artifact path")

    a = sub.add_parser("adapt", help="adapt a trained model to a target CSV")
    a.add_argument("--method", required=True, choices=tuple(METHODS))
    a.add_argument("--model", required=True, help="source model artifact")
    a.add_argument("--target-csv", required=True)
    a.add_argument("--source-csv", help="labeled source CSV (dann only)")
    a.add_argument("--config")
    a.add_argument("--set", action="append", metavar="KEY=VALUE")
    a.add_argument("--out", required=True, help="adapted model artifact path")
    a.add_argument("--diagnostics", help="per-epoch diagnostics CSV path")

    e = sub.add_parser("eval", help="evaluate model(s) on a labeled CSV")
    e.add_argument("--model", required=True, nargs="+", help="one or more model artifacts")
    e.add_argument("--csv", required=True, help="labeled CSV")
    e.add_argument("--out-report", required=True)

    h = sub.add_parser("heatmap", help="per-cell mean distance error by true location")
    h.add_argument("--model", required=True)
    h.add_argument("--csv", required=True, help="labeled CSV")
    h.add_argument("--cell", type=float, default=1.0, help="cell size in meters")
    h.add_argument("--receivers", default="", help='annotate receiver positions "x,y;x,y;..."')
    h.add_argument("--out-prefix", required=True, help="writes <prefix>.csv/.pgm/.scale.txt")

    c = sub.add_parser("cv", help="k-fold hyperparameter selection for mean-teacher adaptation")
    c.add_argument("--method", default="mtloc-conf", choices=CV_METHODS)
    c.add_argument("--model", required=True)
    c.add_argument("--target-csv", required=True, help="labeled target CSV")
    c.add_argument("--grid", required=True, help='e.g. "alpha=0.7,0.75,0.8,0.9;k=1,2,3,4"')
    c.add_argument("--folds", type=int, default=5)
    c.add_argument("--fold-seed", type=int, default=0)
    c.add_argument("--config")
    c.add_argument("--set", action="append", metavar="KEY=VALUE")
    c.add_argument("--out", required=True, help="per-config results table CSV")

    r = sub.add_parser("replay", help="re-run a recorded manifest")
    r.add_argument("--manifest", required=True)
    r.add_argument("--out-dir", help="redirect outputs into this directory")
    return p


def _request(args):
    """A command line's config snapshot, inputs, outputs and manifest path."""
    if args.command == "gen-synth":
        out_dir = Path(args.out_dir)
        outputs = {f"{name}_csv": str(out_dir / f"{name}.csv") for name in SynthScenario.DATASETS}
        config_kv = _merge_config(dataclass_to_kv(SynthScenario()), args.config, args.set)
        return config_kv, {}, outputs, out_dir / "manifest.txt"
    if args.command == "train":
        config_kv = _merge_config(dataclass_to_kv(TrainConfig()), args.config, args.set)
        inputs, outputs = {"source_csv": args.source_csv}, {"model": args.out}
        return config_kv, inputs, outputs, args.out + ".manifest"
    if args.command == "eval":
        inputs = {"csv": args.csv, **{f"model{i:03d}": m for i, m in enumerate(args.model)}}
        return {}, inputs, {"report": args.out_report}, args.out_report + ".manifest"
    if args.command == "heatmap":
        config_kv = {"cell": repr(float(args.cell)), "receivers": args.receivers}
        inputs = {"model": args.model, "csv": args.csv}
        outputs = {
            "grid_csv": args.out_prefix + ".csv",
            "pgm": args.out_prefix + ".pgm",
            "scale": args.out_prefix + ".scale.txt",
        }
        return config_kv, inputs, outputs, args.out_prefix + ".manifest"
    # adapt and cv: the method's config keys, then the method.
    method = METHODS[args.method]
    config_kv = _merge_config(dataclass_to_kv(method.config()), args.config, args.set)
    config_kv["method"] = args.method
    inputs = {"model": args.model, "target_csv": args.target_csv}
    if args.command == "cv":
        config_kv.update(grid=args.grid, folds=str(args.folds), fold_seed=str(args.fold_seed))
        return config_kv, inputs, {"table": args.out}, args.out + ".manifest"
    if method.needs_source:
        if not args.source_csv:
            raise UsageError(
                f"method {args.method!r} requires access to source data: pass --source-csv"
            )
        inputs["source_csv"] = args.source_csv
    elif args.source_csv:
        # Source-free methods never read source data, even if offered.
        log.warning("method %r is source-free; ignoring --source-csv", args.method)
    outputs = {"model": args.out}
    if args.diagnostics:
        outputs["diagnostics"] = args.diagnostics
    return config_kv, inputs, outputs, args.out + ".manifest"


def _dispatch(args) -> int:
    if args.command != "replay":
        _run_command(args.command, *_request(args))
        return EXIT_OK
    man = read_manifest(args.manifest)
    outputs, manifest_path = man["outputs"], Path(args.manifest)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        outputs = {name: str(out_dir / Path(p).name) for name, p in outputs.items()}
        manifest_path = out_dir / manifest_path.name
    _run_command(
        man["command"], man["config"], man["inputs"], outputs, manifest_path, man["hashes"]
    )
    return EXIT_OK


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_OK
    try:
        try:
            return _dispatch(args)
        except MemoryError as e:
            # numpy's failed allocations are MemoryErrors too, and so is one
            # re-raised from a cv worker process.
            raise ResourceError(f"out of memory: {e}" if str(e) else "out of memory") from None
    except RflocError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
