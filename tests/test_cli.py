"""Command-line pipeline: manifests, replay, exit codes, source-free audit."""

import builtins
import json
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rfloc
from rfloc import cli
from rfloc.artifact import DIGEST_BYTES, FORMAT_VERSION, MAGIC, load_model, save_model
from rfloc.cli import main, read_manifest
from rfloc.configio import dataclass_to_kv, kv_to_dataclass, read_kv, write_kv
from rfloc.data import load_csv, write_csv
from rfloc.errors import RflocError
from rfloc.dann import DannConfig
from rfloc.localizer import TrainConfig
from rfloc.meanteacher import MeanTeacherConfig
from rfloc.shot import ShotConfig
from util import cross_validate_serial, resealed

SMALL_SCENARIO = [
    "--set", "room=6,6",
    "--set", "source_rx=3,0.5;0.5,3;3,5.5;5.5,3",
    "--set", "target_rx=1,1;1,5;5,5;5,1",
    "--set", "target_shadowing_std_db=2.0",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen-synth + train once; later tests branch off these artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-synth", "--out-dir", str(data)] + SMALL_SCENARIO) == 0
    model = root / "source.model"
    assert (
        main(
            [
                "train",
                "--source-csv", str(data / "source.csv"),
                "--set", "epochs=6",
                "--out", str(model),
            ]
        )
        == 0
    )
    return root


def test_gen_synth_outputs_and_manifest(workdir):
    data = workdir / "data"
    man = read_manifest(data / "manifest.txt")
    assert man["command"] == "gen-synth"
    assert man["config"]["room"] == "6,6"
    for name in ("source.csv", "target.csv"):
        first = (data / name).read_text().splitlines()[0]
        assert first == f"# run: {man['run_id']}"
    src = load_csv(data / "source.csv")
    assert src.labeled and len(src) > 100


def test_train_artifact_carries_run_id(workdir):
    man = read_manifest(workdir / "source.model.manifest")
    model = load_model(workdir / "source.model")
    assert model.meta["run_id"] == man["run_id"]
    assert man["inputs"]["source_csv"].endswith("source.csv")
    assert len(man["hashes"]["source_csv"]) == 64
    assert man["config"]["epochs"] == "6"


# Per method: the kind recorded in the adapted model and the header of its
# diagnostics CSV.
ADAPT_CASES = {
    "mtloc": ("mean-teacher", "epoch,kd_loss,n_uncertain,t_x,t_y"),
    "mtloc-conf": ("mean-teacher-confidence", "epoch,kd_loss,n_uncertain,t_x,t_y"),
    "shot": ("shot", "epoch,cons,teach,stat,coral,total"),
    "dann": ("dann", "epoch,reg_loss,disc_loss,feat_loss"),
    "oracle": ("oracle", "epoch"),
}


def _adapt_args(workdir, method, out, *settings):
    data = workdir / "data"
    args = ["adapt", "--method", method, "--model", str(workdir / "source.model"),
            "--target-csv", str(data / "target.csv"), "--out", str(out)]
    if method == "dann":
        args += ["--source-csv", str(data / "source.csv")]
    return args + [arg for pair in settings for arg in ("--set", pair)]


@pytest.mark.parametrize("method", list(ADAPT_CASES))
def test_adapt_eval_heatmap_pipeline(workdir, tmp_path, method):
    data = workdir / "data"
    kind, header = ADAPT_CASES[method]

    def adapt_with_diagnostics(name, epochs):
        out, diag = tmp_path / f"{name}.model", tmp_path / f"{name}.diag.csv"
        args = _adapt_args(workdir, method, out, f"epochs={epochs}")
        assert main(args + ["--diagnostics", str(diag)]) == 0
        man = read_manifest(str(out) + ".manifest")
        lines = diag.read_text().splitlines()
        assert lines[0] == f"# run: {man['run_id']}"
        assert lines[1] == header
        return out, man, lines[2:]

    _, _, rows = adapt_with_diagnostics("zero", 0)
    assert rows == []  # header only
    adapted, man, rows = adapt_with_diagnostics("adapted", 2)
    model = load_model(adapted)
    assert model.meta["kind"] == kind
    assert model.meta["run_id"] == man["run_id"]
    if method == "oracle":
        assert rows == []  # fine-tuning records no per-epoch rows
    else:
        assert [r.split(",")[0] for r in rows] == ["0", "1"]  # two epochs
        assert all(r.count(",") == header.count(",") for r in rows)
    if method == "mtloc":
        assert rows[0].endswith(",,,")  # confidence fields blank for plain mtloc

    report = tmp_path / "report.csv"
    rc = main(
        [
            "eval",
            "--model", str(workdir / "source.model"), str(adapted),
            "--csv", str(data / "target.csv"),
            "--out-report", str(report),
        ]
    )
    assert rc == 0
    rows = report.read_text().splitlines()
    assert rows[1] == "metric,mean,std,run_1,run_2"
    mae_d = next(r for r in rows if r.startswith("mae_d,"))
    cells = mae_d.split(",")
    assert float(cells[1]) > 0.0
    assert cells[3] != cells[4]  # source vs adapted differ

    prefix = tmp_path / "grid"
    rc = main(
        [
            "heatmap",
            "--model", str(adapted),
            "--csv", str(data / "target.csv"),
            "--cell", "1.0",
            "--receivers", "1,1;1,5;5,5;5,1",
            "--out-prefix", str(prefix),
        ]
    )
    assert rc == 0
    assert (tmp_path / "grid.csv").exists()
    assert (tmp_path / "grid.pgm").read_bytes().startswith(b"P5\n")
    assert "vmin" in (tmp_path / "grid.scale.txt").read_text()


def test_replay_reproduces_bytes(workdir, tmp_path):
    data = workdir / "data"
    adapted = tmp_path / "a.model"
    diag = tmp_path / "a.diag.csv"
    args = [
        "adapt",
        "--method", "mtloc-conf",
        "--model", str(workdir / "source.model"),
        "--target-csv", str(data / "target.csv"),
        "--set", "epochs=1",
        "--set", "c_x=1.0",
        "--set", "c_y=1.0",
        "--out", str(adapted),
        "--diagnostics", str(diag),
    ]
    assert main(args) == 0
    replay_dir = tmp_path / "replayed"
    rc = main(["replay", "--manifest", str(adapted) + ".manifest", "--out-dir", str(replay_dir)])
    assert rc == 0
    assert (replay_dir / "a.model").read_bytes() == adapted.read_bytes()
    assert (replay_dir / "a.diag.csv").read_bytes() == diag.read_bytes()
    original = read_manifest(str(adapted) + ".manifest")
    replayed = read_manifest(replay_dir / "a.model.manifest")
    assert replayed["run_id"] == original["run_id"]


def test_replay_gen_synth(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "redo"
    rc = main(["replay", "--manifest", str(data / "manifest.txt"), "--out-dir", str(out)])
    assert rc == 0
    for name in ("source.csv", "target.csv"):
        assert (out / name).read_bytes() == (data / name).read_bytes()


def test_replay_refuses_changed_input(workdir, tmp_path, capsys):
    data = workdir / "data"
    model = tmp_path / "m.model"
    args = [
        "adapt",
        "--method", "shot",
        "--model", str(workdir / "source.model"),
        "--target-csv", str(data / "target.csv"),
        "--set", "epochs=1",
        "--out", str(model),
    ]
    assert main(args) == 0
    # Tamper with the recorded target CSV via a copied manifest setup.
    tampered_csv = tmp_path / "target.csv"
    tampered_csv.write_text((data / "target.csv").read_text() + "# extra\n")
    manifest_text = (model.parent / (model.name + ".manifest")).read_text()
    manifest_text = manifest_text.replace(str(data / "target.csv"), str(tampered_csv))
    tampered_man = tmp_path / "tampered.manifest"
    tampered_man.write_text(manifest_text)
    rc = main(["replay", "--manifest", str(tampered_man), "--out-dir", str(tmp_path / "r")])
    assert rc == 3
    assert "changed since" in capsys.readouterr().err


def test_dann_requires_source_csv(workdir, tmp_path, capsys):
    rc = main(
        [
            "adapt",
            "--method", "dann",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(workdir / "data" / "target.csv"),
            "--out", str(tmp_path / "d.model"),
        ]
    )
    assert rc == 2
    assert "requires access to source data" in capsys.readouterr().err


def test_source_free_methods_never_open_source_csv(workdir, tmp_path, monkeypatch, caplog):
    data = workdir / "data"
    source_csv = str(data / "source.csv")
    opened: list[str] = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    for method in ("mtloc", "shot"):
        opened.clear()
        with caplog.at_level("WARNING"):
            rc = main(
                [
                    "adapt",
                    "--method", method,
                    "--model", str(workdir / "source.model"),
                    "--target-csv", str(data / "target.csv"),
                    "--source-csv", source_csv,  # offered, must be ignored
                    "--set", "epochs=1",
                    "--out", str(tmp_path / f"{method}.model"),
                ]
            )
        assert rc == 0
        assert source_csv not in opened, method
        assert any("source-free" in r.message for r in caplog.records)
        man = read_manifest(tmp_path / f"{method}.model.manifest")
        assert "source_csv" not in man["inputs"]


def test_dann_does_open_source_csv(workdir, tmp_path, monkeypatch):
    # Control for the spy above: the one source-dependent method reads it.
    data = workdir / "data"
    source_csv = str(data / "source.csv")
    opened: list[str] = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    rc = main(
        [
            "adapt",
            "--method", "dann",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(data / "target.csv"),
            "--source-csv", source_csv,
            "--set", "epochs=1",
            "--out", str(tmp_path / "dann.model"),
        ]
    )
    assert rc == 0
    assert source_csv in opened


def test_unknown_config_key_exits_2(workdir, tmp_path, capsys):
    rc = main(
        [
            "adapt",
            "--method", "mtloc",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(workdir / "data" / "target.csv"),
            "--set", "alhpa=0.8",
            "--out", str(tmp_path / "x.model"),
        ]
    )
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_set_exits_2(tmp_path, capsys):
    rc = main(["gen-synth", "--set", "room", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_missing_input_exits_3(workdir, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--source-csv", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "m.model"),
        ]
    )
    assert rc == 3
    assert "cannot read input" in capsys.readouterr().err


def test_eval_prints_table(workdir, tmp_path, capsys):
    rc = main(
        [
            "eval",
            "--model", str(workdir / "source.model"),
            "--csv", str(workdir / "data" / "source.csv"),
            "--out-report", str(tmp_path / "r.csv"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mae_d" in out and "rmse_d" in out


def test_eval_keeps_one_model_alive_at_a_time(workdir, tmp_path):
    # Loading each model while the previous one was still bound added one
    # model's arrays (5.7 MB, mostly the feature covariance) to the peak.
    model = str(workdir / "source.model")

    def peak(n_models):
        args = ["eval", "--model", *[model] * n_models,
                "--csv", str(workdir / "data" / "target.csv"),
                "--out-report", str(tmp_path / f"r{n_models}.csv")]
        tracemalloc.start()
        try:
            assert main(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first use of the code paths, untraced allocations warm
    assert peak(3) - peak(1) < 1024 * 1024


def _needs_labels_args(workdir, verb, csv, out) -> list[str]:
    """A command line of verb that reads csv where it needs labels."""
    model, data = str(workdir / "source.model"), workdir / "data"
    adapt = ["adapt", "--model", model, "--set", "epochs=1", "--out", str(out / "m.model")]
    return {
        "train": ["train", "--source-csv", csv, "--set", "epochs=1",
                  "--out", str(out / "m.model")],
        "oracle": adapt + ["--method", "oracle", "--target-csv", csv],
        "dann": adapt + ["--method", "dann", "--target-csv", str(data / "target.csv"),
                         "--source-csv", csv],
        "eval": ["eval", "--model", model, "--csv", csv, "--out-report", str(out / "r.csv")],
        "heatmap": ["heatmap", "--model", model, "--csv", csv, "--out-prefix", str(out / "grid")],
        "cv": ["cv", "--method", "mtloc", "--model", model, "--target-csv", csv,
               "--grid", "alpha=0.8", "--folds", "2", "--set", "epochs=1",
               "--out", str(out / "cv.csv")],
    }[verb]


# Per verb that reads labels, the error an unlabeled CSV must give.
NEEDS_LABELS = {
    "train": "training data has no x,y label columns",
    "oracle": "oracle fine-tuning requires x,y labels in the target CSV",
    "dann": "adversarial adaptation needs labeled source data",
    "eval": "evaluation requires a labeled CSV",
    "heatmap": "heatmaps require a labeled CSV",
    "cv": "fold selection requires a labeled target CSV",
}


@pytest.mark.parametrize("verb", list(NEEDS_LABELS))
def test_verbs_that_need_labels_refuse_an_unlabeled_csv(workdir, tmp_path, capsys, verb):
    unlabeled = tmp_path / "unlabeled.csv"
    write_csv(load_csv(workdir / "data" / "target.csv").without_labels(), unlabeled)
    out = tmp_path / "out"
    assert main(_needs_labels_args(workdir, verb, str(unlabeled), out)) == 3
    assert capsys.readouterr().err == f"error: {NEEDS_LABELS[verb]}\n"
    assert [p for p in out.rglob("*") if p.is_file()] == []  # no output, no manifest


def test_oracle_adapts_on_labeled_target(workdir, tmp_path):
    out = tmp_path / "oracle.model"
    rc = main(
        [
            "adapt",
            "--method", "oracle",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(workdir / "data" / "target.csv"),
            "--set", "epochs=4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    model = load_model(out)
    assert model.meta["kind"] == "oracle"


def _strict_header(path) -> dict:
    """The artifact's JSON header, refusing NaN and Infinity, which are not
    standard JSON."""
    raw = Path(path).read_bytes()
    assert raw[:4] == MAGIC
    (length,) = struct.unpack("<Q", raw[8:16])

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(raw[16 : 16 + length].decode("utf-8"), parse_constant=reject)


@pytest.mark.parametrize("verb", ["train", "oracle"])
def test_zero_epoch_artifact_header_is_standard_json(workdir, tmp_path, verb):
    out = tmp_path / "m.model"
    if verb == "train":
        args = ["train", "--source-csv", str(workdir / "data" / "source.csv"),
                "--set", "epochs=0", "--out", str(out)]
    else:
        args = _adapt_args(workdir, "oracle", out, "epochs=0")
    assert main(args) == 0
    meta = _strict_header(out)["meta"]
    assert meta["epochs_run"] == 0
    assert meta["final_train_loss"] is None
    assert meta["best_val_loss"] is None
    trained = _strict_header(workdir / "source.model")["meta"]
    assert trained["epochs_run"] == 6
    assert trained["final_train_loss"] > 0.0 and trained["best_val_loss"] > 0.0


@pytest.mark.parametrize(
    "verb, message",
    [
        ("train", "training diverged at epoch 0, batch 1"),
        ("oracle", "training diverged at epoch 0, batch 1"),
        ("mtloc", "adaptation diverged at epoch 0, batch 1"),
        ("mtloc-conf", "adaptation diverged at epoch 0, batch 1"),
        ("shot", "adaptation diverged at epoch 0, batch 1"),
        ("dann", "non-finite gradient for parameter 'conv1_w'"),
    ],
)
def test_divergence_exits_4_without_traceback(workdir, tmp_path, capsys, verb, message):
    out = tmp_path / "m.model"
    if verb == "train":
        args = ["train", "--source-csv", str(workdir / "data" / "source.csv"),
                "--set", "lr=1e300", "--out", str(out)]
    else:
        args = _adapt_args(workdir, verb, out, "lr=1e300")
    with np.errstate(all="ignore"):
        assert main(args) == 4
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["adapt", "cv"])
def test_oversized_n_probe_exits_2_without_traceback(workdir, tmp_path, capsys, verb):
    # A billion probes would need 2.56e12 floats of probe buffers (20 TB);
    # the request is refused before anything is allocated.
    out = tmp_path / "out"
    if verb == "adapt":
        args = _adapt_args(workdir, "mtloc-conf", out, "n_probe=1000000000")
    else:
        args = _cv_grid_args(workdir, "n_probe=1000000000", out)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert (
        "error: n_probe=1000000000 needs 2.56e+12 floats of probe buffers,"
        " over the cap of 3.36e+07; n_probe may be at most 13107\n"
    ) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cv_table(workdir, tmp_path, capsys):
    table = tmp_path / "cv.csv"
    rc = main(
        [
            "cv",
            "--method", "mtloc",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(workdir / "data" / "target.csv"),
            "--grid", "alpha=0.7,0.9",
            "--folds", "2",
            "--set", "epochs=2",
            "--out", str(table),
        ]
    )
    assert rc == 0
    rows = table.read_text().splitlines()
    assert rows[1] == "alpha,val_mae_d,best"
    body = rows[2:]
    assert len(body) == 2
    assert sum(r.endswith(",1") for r in body) == 1  # exactly one winner
    assert "best config: alpha=" in capsys.readouterr().out


def test_cv_rejects_bad_grid_key(workdir, tmp_path, capsys):
    rc = main(
        [
            "cv",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(workdir / "data" / "target.csv"),
            "--grid", "warp=1,2",
            "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def _cv_grid_args(workdir, grid, table):
    return [
        "cv",
        "--method", "mtloc-conf",
        "--model", str(workdir / "source.model"),
        "--target-csv", str(workdir / "data" / "target.csv"),
        "--grid", grid,
        "--folds", "5",
        "--set", "epochs=1",
        "--set", "noise_variance=0.3",
        "--set", "c_x=1.0",
        "--set", "c_y=1.0",
        "--out", str(table),
    ]


def test_cv_table_equals_serial_run(workdir, tmp_path, monkeypatch):
    # The run id hashes output file names, not directories, so the two
    # tables must match byte for byte, run line included.
    args = lambda sub: _cv_grid_args(workdir, "alpha=0.7,0.8;k=2,8", tmp_path / sub / "cv.csv")
    for sub in ("pool", "serial"):
        (tmp_path / sub).mkdir()
    assert main(args("pool")) == 0
    monkeypatch.setattr(cli, "cross_validate", cross_validate_serial)
    assert main(args("serial")) == 0
    pooled = (tmp_path / "pool" / "cv.csv").read_bytes()
    assert len(pooled.splitlines()) == 2 + 4
    assert pooled == (tmp_path / "serial" / "cv.csv").read_bytes()


# Runs the CLI as `rfloc` does, then reports the worker processes left.
_CLI_COUNTING_CHILDREN = (
    "import multiprocessing, sys\n"
    "from rfloc.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(f'children left: {len(multiprocessing.active_children())}', file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def _run_cli_counting_children(args, prelude=""):
    env = {**os.environ, "PYTHONPATH": str(Path(rfloc.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", prelude + _CLI_COUNTING_CHILDREN, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "grid, code, message",
    [
        ("alpha=abc", 2, "config key 'alpha'"),
        ("alpha=0.8,1.5", 2, "alpha must lie in (0, 1], got 1.5"),
        ("alpha=0.8;lr=1e-3,1e300", 4, "adaptation diverged"),
        # The one statement of this rule: cross_validate trusts it.
        (" ; ", 2, "empty hyperparameter grid"),
    ],
    ids=["not-a-number", "out-of-range", "diverging", "empty"],
)
def test_cv_grid_errors_exit_typed_without_traceback(workdir, tmp_path, grid, code, message):
    proc = _run_cli_counting_children(_cv_grid_args(workdir, grid, tmp_path / "cv.csv"))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert "children left: 0" in proc.stderr
    assert not (tmp_path / "cv.csv").exists()


def test_cv_oversized_grid_exits_2_before_building_it(workdir, tmp_path, capsys, monkeypatch):
    # Six 99-value axes make 99**6 = 9.4e11 configs, which the grid's list
    # could never hold: it is sized from the axis lengths first.
    def never(*args, **kwargs):
        raise AssertionError("cross_validate was called")

    monkeypatch.setattr(cli, "cross_validate", never)
    axes = ("epochs", "batch_size", "k", "n_probe", "seed", "c_x")
    grid = ";".join(f"{key}=" + ",".join(str(v) for v in range(2, 101)) for key in axes)
    start = time.perf_counter()
    assert main(_cv_grid_args(workdir, grid, tmp_path / "cv.csv")) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert f"error: hyperparameter grid of {99**6} configs exceeds {cli.MAX_GRID_CONFIGS}" in err
    assert not (tmp_path / "cv.csv").exists()


def test_cv_grid_at_the_cap_is_accepted(workdir, tmp_path, monkeypatch):
    # 100 x 100 = MAX_GRID_CONFIGS entries pass the size check and are built.
    class Stop(Exception):
        pass

    def capture(target, recipe, configs, **kwargs):
        raise Stop(len(configs))

    monkeypatch.setattr(cli, "cross_validate", capture)
    grid = ";".join(f"{key}=" + ",".join(str(v) for v in range(1, 101)) for key in ("seed", "k"))
    with pytest.raises(Stop) as stop:
        main(_cv_grid_args(workdir, grid, tmp_path / "cv.csv"))
    assert stop.value.args == (cli.MAX_GRID_CONFIGS,) == (100 * 100,)


def test_cv_dead_worker_exits_5_without_traceback(workdir, tmp_path):
    # Every fold's adaptation ends its worker process at once, as the
    # out-of-memory killer would.
    prelude = "import os, rfloc.cli\nrfloc.cli.adapt = lambda *args: os._exit(9)\n"
    args, _ = _cv_args(workdir, tmp_path)
    proc = _run_cli_counting_children(args, prelude)
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: a fold selection worker process died" in proc.stderr
    assert "children left: 0" in proc.stderr
    assert not (tmp_path / "cv.csv").exists()


# ---------------------------------------------------------------- resource limits

@pytest.mark.parametrize("setting, rows", [("room=1e15,1e15", "7.14e+30"), ("speed=1e-308", "inf")])
def test_oversized_gen_synth_exits_2_before_writing(tmp_path, capsys, setting, rows):
    # room=1e15,1e15 once asked numpy for 7.11 PiB; the row count is now
    # checked before anything is allocated or written.
    out = tmp_path / "data"
    assert main(["gen-synth", "--out-dir", str(out), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert f"error: the trajectory would have {rows} rows, over the cap of 3355443;" in err
    assert "Traceback" not in err
    assert not out.exists()


def _allocate_2_eib(*args):
    return np.empty(1 << 58)  # fails at once: no address space is that large


def _raise_bare_memory_error(*args):
    raise MemoryError


@pytest.mark.parametrize(
    "callee, message",
    [
        (_allocate_2_eib, "error: out of memory: Unable to allocate 2.00 EiB"),
        (_raise_bare_memory_error, "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_memory_error_exits_6(tmp_path, capsys, monkeypatch, callee, message):
    monkeypatch.setattr(cli, "generate_synthetic", callee)
    assert main(["gen-synth", "--out-dir", str(tmp_path / "data")]) == cli.EXIT_MEMORY == 6
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["gen-synth", "cv"])
def test_memory_error_exits_6_without_traceback(workdir, tmp_path, verb):
    # In cv the allocation fails inside the forked fold workers, and the
    # MemoryError is re-raised in the parent.
    callee = {"gen-synth": "generate_synthetic", "cv": "adapt"}[verb]
    prelude = f"import numpy, rfloc.cli\nrfloc.cli.{callee} = lambda *a: numpy.empty(1 << 58)\n"
    if verb == "cv":
        args, _ = _cv_args(workdir, tmp_path)
    else:
        args = ["gen-synth", "--out-dir", str(tmp_path / "data")]
    proc = _run_cli_counting_children(args, prelude)
    assert proc.returncode == 6, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: out of memory: Unable to allocate 2.00 EiB" in proc.stderr
    assert "children left: 0" in proc.stderr


@pytest.mark.parametrize("cell", ["1e-300", "5e-324"])
def test_tiny_heatmap_cell_exits_2_with_a_short_message(workdir, tmp_path, capsys, cell):
    args, _ = _heatmap_args(workdir, tmp_path)
    assert main(args + ["--cell", cell]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    assert line.endswith(" cells exceeds 1000000 cells; use a larger cell size")
    assert len(line) < 100, line  # the cell counts in %.3g form, not 300 digits


def test_cv_replay_of_edited_grid_fails_before_any_worker(workdir, tmp_path):
    # A replayed manifest's grid is parsed by the same step as a fresh
    # command line's, before the inputs are read: cross_validate, which
    # forks the fold workers, must never be called.
    args, manifest = _cv_args(workdir, tmp_path)
    assert main(args) == 0
    text = manifest.read_text()
    assert "config.grid = alpha=0.8\n" in text
    manifest.write_text(text.replace("config.grid = alpha=0.8\n", "config.grid = alpha=abc\n"))
    prelude = "import os, rfloc.cli\nrfloc.cli.cross_validate = lambda *a, **k: os._exit(97)\n"
    proc = _run_cli_counting_children(
        ["replay", "--manifest", str(manifest), "--out-dir", str(tmp_path / "replayed")], prelude
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config key 'alpha': expected a number, got 'abc'" in proc.stderr
    assert "children left: 0" in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("verb", ["train", "adapt", "cv"])
def test_non_finite_config_value_exits_2(workdir, tmp_path, capsys, verb, value):
    model = str(workdir / "source.model")
    target = str(workdir / "data" / "target.csv")
    args = {
        "train": ["train", "--source-csv", str(workdir / "data" / "source.csv"),
                  "--set", f"lr={value}", "--out", str(tmp_path / "m.model")],
        "adapt": ["adapt", "--method", "mtloc", "--model", model, "--target-csv", target,
                  "--set", f"lr={value}", "--out", str(tmp_path / "m.model")],
        "cv": ["cv", "--model", model, "--target-csv", target, "--grid", f"lr=1e-3,{value}",
               "--folds", "2", "--set", "epochs=1", "--out", str(tmp_path / "cv.csv")],
    }[verb]
    assert main(args) == 2
    assert f"config key 'lr': expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_version_flag():
    assert main(["--version"]) == 0


def test_gen_synth_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-synth", "--out-dir", str(a)] + SMALL_SCENARIO) == 0
    assert main(["gen-synth", "--out-dir", str(b), "--set", "seed=7"] + SMALL_SCENARIO) == 0
    da = load_csv(a / "source.csv")
    db = load_csv(b / "source.csv")
    assert not np.array_equal(da.features, db.features)
    assert np.array_equal(da.labels, db.labels)  # trajectory is seed-free


# ---------------------------------------------------------------- malformed artifacts

def _rewrite_header(src, dst, edit, trim=0):
    """src with its header edited and the last trim payload bytes cut,
    under a fresh checksum, so the header checks behind it are reached."""
    raw = src.read_bytes()[:-DIGEST_BYTES]
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header = edit(json.loads(raw[16 : 16 + header_len]))
    body = json.dumps(header).encode("utf-8")
    payload = raw[16 + header_len : len(raw) - trim]
    dst.write_bytes(resealed(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(body)) + body + payload))


def _nan_bias(src, dst):
    model = load_model(src)
    model.net.params["conv2_b"].value[3] = np.nan
    save_model(model, dst)


def _reshape_conv2_w(header):
    # Same element count, so the header still agrees with the payload size.
    for entry in header["arrays"]:
        if entry["name"] == "param.conv2_w":
            assert entry["shape"] == [128, 64, 2]
            entry["shape"] = [128, 128, 1]
    return header


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda src, dst: _rewrite_header(src, dst, lambda h: [h]), "not a JSON object"),
        (
            lambda src, dst: _rewrite_header(
                src, dst, lambda h: {k: v for k, v in h.items() if k != "arrays"}
            ),
            "lacks an array list",
        ),
        (_nan_bias, "non-finite values"),
        (lambda src, dst: _rewrite_header(src, dst, _reshape_conv2_w),
         "invalid artifact contents"),
    ],
    ids=["list-header", "no-arrays", "nan-bias", "wrong-shape"],
)
def test_malformed_artifact_exits_3_without_traceback(workdir, tmp_path, corrupt, message):
    bad = tmp_path / "bad.model"
    corrupt(workdir / "source.model", bad)
    env = {**os.environ, "PYTHONPATH": str(Path(rfloc.__file__).parents[1])}
    proc = subprocess.run(
        [
            sys.executable, "-m", "rfloc.cli", "eval",
            "--model", str(bad),
            "--csv", str(workdir / "data" / "target.csv"),
            "--out-report", str(tmp_path / "r.csv"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and "bad.model" in proc.stderr
    assert message in proc.stderr
    assert not (tmp_path / "r.csv").exists()


def _edit_feat_cov(edit):
    def corrupt(src, dst):
        model = load_model(src)
        # SourceStats checks the covariance when built, not when changed,
        # so the edited matrix reaches the file as written.
        edit(model.source_stats.feat_cov)
        save_model(model, dst)
    return corrupt


def _make_indefinite(cov):
    # e0' C e0 = -scale, so the smallest eigenvalue is at most -scale.
    cov[0, 0] = -max(1.0, np.abs(cov).max())


@pytest.mark.parametrize("verb", ["eval", "adapt-shot"])
@pytest.mark.parametrize(
    "corrupt, message",
    [(_edit_feat_cov(_make_indefinite), "feature covariance is not positive semidefinite")],
    ids=["indefinite"],
)
def test_bad_feature_covariance_exits_3_without_traceback(
    workdir, tmp_path, corrupt, message, verb
):
    bad = tmp_path / "bad.model"
    corrupt(workdir / "source.model", bad)
    target = str(workdir / "data" / "target.csv")
    out = tmp_path / "out"
    args = {
        "eval": ["eval", "--model", str(bad), "--csv", target, "--out-report", str(out)],
        "adapt-shot": ["adapt", "--method", "shot", "--model", str(bad),
                       "--target-csv", target, "--set", "epochs=1", "--out", str(out)],
    }[verb]
    proc = _run_cli_counting_children(args)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "bad.model" in proc.stderr and message in proc.stderr
    assert not out.exists()


def _version_1(src, dst):
    """src in the version-1 layout: the full covariance, no checksum."""
    model = load_model(src)
    stats = model.source_stats
    arrays = [("norm.mean", model.norm.mean), ("norm.std", model.norm.std)]
    arrays += [(f"param.{name}", p.value) for name, p in model.net.params.items()]
    arrays += [("stats.pred_mean", stats.pred_mean), ("stats.pred_var", stats.pred_var),
               ("stats.feat_cov", stats.feat_cov)]
    header = json.dumps({
        "format_version": 1, "meta": model.meta, "has_source_stats": True,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "payload_bytes": 8 * sum(a.size for _, a in arrays),
    }, sort_keys=True).encode("utf-8")
    payload = b"".join(a.astype("<f8").tobytes() for _, a in arrays)
    dst.write_bytes(MAGIC + struct.pack("<IQ", 1, len(header)) + header + payload)


def _short_triangle(header):
    # One value fewer in the covariance triangle, the last array.
    assert header["arrays"][-1]["name"] == "stats.feat_cov_triu"
    header["arrays"][-1]["shape"][0] -= 1
    header["payload_bytes"] -= 8
    return header


@pytest.mark.parametrize("verb", ["eval", "adapt", "heatmap", "cv"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_version_1, "artifact format version 1 is not supported; this rfloc reads version 2"),
        (lambda src, dst: _rewrite_header(src, dst, _short_triangle, trim=8),
         "feature covariance triangle must hold 295296 values, got 295295"),
    ],
    ids=["version-1", "short-triangle"],
)
def test_old_or_bad_artifact_exits_3_without_traceback(workdir, tmp_path, corrupt, message, verb):
    bad = tmp_path / "bad.model"
    corrupt(workdir / "source.model", bad)
    target = str(workdir / "data" / "target.csv")
    out = tmp_path / "out"
    args = {
        "eval": ["eval", "--model", str(bad), "--csv", target, "--out-report", str(out)],
        "adapt": ["adapt", "--method", "shot", "--model", str(bad), "--target-csv", target,
                  "--set", "epochs=1", "--out", str(out)],
        "heatmap": ["heatmap", "--model", str(bad), "--csv", target, "--out-prefix", str(out)],
        "cv": ["cv", "--model", str(bad), "--target-csv", target, "--grid", "k=1,2",
               "--set", "epochs=1", "--out", str(out)],
    }[verb]
    proc = _run_cli_counting_children(args)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "bad.model" in proc.stderr and message in proc.stderr
    assert not list(tmp_path.glob("out*"))


# ---------------------------------------------------------------- non-UTF-8 inputs

def _not_utf8(path):
    path.write_bytes(b"\xff\xfe\x00\x01abcdef")
    return path


def test_non_utf8_csv_exits_3(workdir, tmp_path, capsys):
    bad = _not_utf8(tmp_path / "bad.csv")
    args = ["eval", "--model", str(workdir / "source.model"), "--csv", str(bad),
            "--out-report", str(tmp_path / "r.csv")]
    assert main(args) == 3
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_non_utf8_manifest_exits_2(tmp_path, capsys):
    bad = _not_utf8(tmp_path / "bad.manifest")
    assert main(["replay", "--manifest", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_exits_2(workdir, tmp_path, capsys):
    bad = _not_utf8(tmp_path / "bad.cfg")
    args = ["train", "--source-csv", str(workdir / "data" / "source.csv"),
            "--config", str(bad), "--out", str(tmp_path / "m.model")]
    assert main(args) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "m.model").exists()


def test_config_with_byte_order_mark_is_read(workdir, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfepochs = 1\n")
    out = tmp_path / "m.model"
    args = ["train", "--source-csv", str(workdir / "data" / "source.csv"),
            "--config", str(cfg), "--out", str(out)]
    assert main(args) == 0
    assert load_model(out).meta["epochs_run"] == 1


def test_manifest_with_byte_order_mark_replays(workdir, tmp_path):
    data = workdir / "data"
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"\xef\xbb\xbf" + (data / "manifest.txt").read_bytes())
    out = tmp_path / "redo"
    assert main(["replay", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
    assert (out / "target.csv").read_bytes() == (data / "target.csv").read_bytes()


def test_csv_schema_errors_exit_3(workdir, tmp_path, capsys):
    lines = (workdir / "data" / "target.csv").read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cases = {
        "repeated": lines[:header_at] + [lines[header_at] + ",r1x"]
        + [row + ",0.0" for row in lines[header_at + 1 :]],
        "long-row": lines[: header_at + 1] + [lines[header_at + 1] + ",0.0"]
        + lines[header_at + 2 :],
    }
    for name, text in cases.items():
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join(text) + "\n")
        args = ["eval", "--model", str(workdir / "source.model"), "--csv", str(bad),
                "--out-report", str(tmp_path / f"{name}.report.csv")]
        assert main(args) == 3, name
        err = capsys.readouterr().err
        assert ("repeats column" if name == "repeated" else "fields, header has") in err
        assert not (tmp_path / f"{name}.report.csv").exists()


# ---------------------------------------------------------------- text reader fuzz

# Bytes that mean something to one of the readers: quote, NUL, separators,
# newlines, comment and assignment marks, a byte-order mark, invalid UTF-8.
_SPECIAL_BYTES = [b'"', b"\x00", b",", b"\r", b"\n", b"#", b"=", b"\xef\xbb\xbf", b"\xff", b"\xc3"]


def _fuzzed(raw: bytes, gen) -> bytes:
    """raw truncated, with 1-3 bytes overwritten, or with a special byte
    sequence inserted; edits land in the first 256 bytes (header) half of
    the time."""
    blob = bytearray(raw)
    kind = int(gen.integers(0, 3))
    if kind == 0:
        del blob[int(gen.integers(0, len(blob))) :]
        return bytes(blob)
    for _ in range(int(gen.integers(1, 4))):
        span = min(len(blob), 256) if gen.random() < 0.5 else len(blob)
        at = int(gen.integers(0, span))
        if kind == 1:
            blob[at] = int(gen.integers(0, 256))
        else:
            blob[at:at] = _SPECIAL_BYTES[int(gen.integers(0, len(_SPECIAL_BYTES)))]
    return bytes(blob)


def _config_file(path):
    write_kv(path, dataclass_to_kv(TrainConfig()))
    return path


@pytest.mark.parametrize(
    "reader, make_seed",
    [
        (load_csv, lambda workdir, tmp: workdir / "data" / "target.csv"),
        (read_manifest, lambda workdir, tmp: workdir / "source.model.manifest"),
        (lambda p: kv_to_dataclass(TrainConfig, read_kv(p)),
         lambda workdir, tmp: _config_file(tmp / "train.cfg")),
    ],
    ids=["load_csv", "read_manifest", "read_kv"],
)
def test_text_reader_fuzz_raises_only_rfloc_error(workdir, tmp_path, reader, make_seed):
    # Truncations, byte flips and inserted special bytes either parse or
    # fail with a typed RflocError, never with an untyped exception.
    seed = make_seed(workdir, tmp_path)
    reader(seed)  # the unfuzzed file parses
    raw = seed.read_bytes()
    gen = np.random.default_rng(0)
    bad = tmp_path / "fuzzed"
    for _ in range(300):
        bad.write_bytes(_fuzzed(raw, gen))
        try:
            reader(bad)
        except RflocError:
            pass


# ---------------------------------------------------------------- gen-synth config fuzz

_HOSTILE_VALUES = ["0", "-1", "1e308", "1e-308", str(2**63), "", "text"]


def _fuzz_settings(defaults: dict) -> list[str]:
    """Every key of defaults set to each hostile value; a key that holds a
    pair or a list of pairs also gets each number as its first entry and
    as every entry."""
    settings = []
    for key, default in defaults.items():
        for value in _HOSTILE_VALUES:
            settings.append(f"{key}={value}")
            parts = re.split(r"([,;])", default)  # numbers and separators
            if len(parts) > 1 and value not in ("", "text"):
                settings.append(f"{key}={value}" + "".join(parts[1:]))
                settings.append(f"{key}=" + "".join(
                    value if i % 2 == 0 else sep for i, sep in enumerate(parts)))
    return settings


# Imports the CLI once, then forks one process per case, a JSON pair of the
# case's number i and its list of arguments, in which "{out}" stands for
# the case's own directory <out>/<i>. Each child limits its own address
# space to what it had at the fork plus the given MiB, sends its output to
# <out>/<i>.err and exits as `rfloc` would: an uncaught exception prints a
# traceback and exits 1. The driver prints "<i> <exit code>" per case.
_FUZZ_DRIVER = """
import json, os, resource, sys, traceback
from rfloc.cli import main
out, headroom = sys.argv[1], int(sys.argv[2]) << 20
with open("/proc/self/statm") as fh:
    limit = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + headroom
for i, case in map(json.loads, sys.argv[3:]):
    pid = os.fork()
    if pid == 0:
        fd = os.open(os.path.join(out, f"{i}.err"), os.O_WRONLY | os.O_CREAT)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        argv = [arg.replace("{out}", os.path.join(out, str(i))) for arg in case]
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    print(i, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), flush=True)
"""


def _fuzz(out: Path, cases: list[list[str]], jobs: int = 2) -> list[int]:
    """Run each case through the fuzz driver, case i on driver i % jobs, the
    drivers side by side; every one must exit 0, 2, 3, 4 or 6 without a
    traceback or a RuntimeWarning. Returns the codes."""
    env = {**os.environ, "PYTHONPATH": str(Path(rfloc.__file__).parents[1])}
    numbered = [json.dumps(pair) for pair in enumerate(cases)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _FUZZ_DRIVER, str(out), "512", *numbered[job::jobs]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for job in range(jobs)
    ]
    codes = {}
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        codes.update(map(int, line.split()) for line in stdout.splitlines())
    codes = [codes[i] for i in range(len(cases))]
    for i, (case, code) in enumerate(zip(cases, codes)):
        err = (out / f"{i}.err").read_text()
        assert code in (0, 2, 3, 4, cli.EXIT_MEMORY), (case, code, err)
        assert "Traceback" not in err, (case, err)
        assert "RuntimeWarning" not in err, (case, err)
    return codes


@pytest.fixture(scope="module")
def slices(workdir, tmp_path_factory):
    """20-row slices of the source and target CSVs, so each fuzz case is short."""
    root = tmp_path_factory.mktemp("slices")
    paths = []
    for name in ("source", "target"):
        lines = (workdir / "data" / f"{name}.csv").read_text().splitlines(keepends=True)
        paths.append(root / f"{name}20.csv")
        paths[-1].write_text("".join(lines[:22]))  # the run line, the header and 20 rows
        assert len(load_csv(paths[-1])) == 20
    return paths


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks one process per case")
def test_gen_synth_config_fuzz_exits_typed_without_traceback(tmp_path):
    settings = _fuzz_settings(dataclass_to_kv(cli.SynthScenario()))
    codes = _fuzz(tmp_path, [["gen-synth", "--set", s, "--out-dir", "{out}"] for s in settings])
    # gen-synth reads no input, so no case may exit 3 (a data error).
    assert {0, 2} <= set(codes) and 3 not in codes


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks one process per case")
def test_heatmap_config_fuzz_exits_typed_without_traceback(workdir, slices, tmp_path):
    # Every case that passes its checks runs predict.
    csv = slices[1]
    settings = _fuzz_settings({"cell": "1.0", "receivers": "1,1;1,5;5,5;5,1"})
    cases = [
        ["heatmap", "--model", str(workdir / "source.model"), "--csv", str(csv),
         f"--{s}", "--out-prefix", "{out}/grid"]
        for s in settings
    ]
    codes = _fuzz(tmp_path, cases)
    assert {0, 2} <= set(codes)
    # A one-value receiver ended in a ValueError traceback.
    assert codes[settings.index("receivers=0")] == 2


# ---------------------------------------------------------------- train, adapt and cv config fuzz

# RFLOC_FULL_FUZZ=1 sweeps every method that reads each config class (CI
# does); tier-1 runs each class once, through the verb and method that
# check the most of its keys.
_FULL_FUZZ = os.environ.get("RFLOC_FULL_FUZZ") == "1"
_FUZZ_CONFIGS = {
    "train": (TrainConfig(), ("train", "oracle")),
    "meanteacher": (MeanTeacherConfig(), ("mtloc-conf", "mtloc", "cv mtloc-conf", "cv mtloc")),
    "shot": (ShotConfig(), ("shot",)),
    "dann": (DannConfig(), ("dann",)),
}


def _fuzz_case(workdir, slices, verb, *options):
    """One train, adapt or cv command on the 20-row slices, one epoch;
    options come last, so a hostile value overrides the defaults."""
    source, target = map(str, slices)
    if verb == "train":
        head = ["train", "--source-csv", source, "--out", "{out}/m.model"]
    elif verb.startswith("cv "):
        head = ["cv", "--method", verb[3:], "--model", str(workdir / "source.model"),
                "--target-csv", target, "--grid", "alpha=0.7,0.8", "--folds", "2",
                "--out", "{out}/cv.csv"]
    else:
        head = ["adapt", "--method", verb, "--model", str(workdir / "source.model"),
                "--target-csv", target, "--out", "{out}/m.model",
                "--diagnostics", "{out}/diag.csv"]
        if verb == "dann":
            head += ["--source-csv", source]
    return head + ["--set", "epochs=1", *options]


def _assert_finite_tables(out: Path, cases, codes) -> None:
    """A case that exits 0 writes no non-finite number into a table."""
    for i, (case, code) in enumerate(zip(cases, codes)):
        for table in (out / str(i)).glob("*.csv") if code == 0 else ():
            body = table.read_text().lower()
            assert "nan" not in body and "inf" not in body, (case, table.name, body)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks one process per case")
@pytest.mark.parametrize("config", list(_FUZZ_CONFIGS))
def test_config_fuzz_exits_typed_without_traceback(workdir, slices, tmp_path, config):
    defaults, verbs = _FUZZ_CONFIGS[config]
    # epochs=2**63 is a valid request for a very long run, not a hostile
    # value: epochs are uncapped, so that case would run until killed.
    settings = [s for s in _fuzz_settings(dataclass_to_kv(defaults)) if s != f"epochs={2**63}"]
    cases = [
        _fuzz_case(workdir, slices, verb, "--set", s)
        for verb in (verbs if _FULL_FUZZ else verbs[:1])
        for s in settings
    ]
    codes = _fuzz(tmp_path, cases)
    _assert_finite_tables(tmp_path, cases, codes)
    assert {0, 2} <= set(codes)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks one process per case")
def test_cv_option_fuzz_exits_typed_without_traceback(workdir, slices, tmp_path):
    settings = _fuzz_settings({"folds": "2", "fold-seed": "0"}) + [
        f"grid={g}" for g in _HOSTILE_VALUES + _fuzz_settings({"alpha": "0.7,0.8"})
    ]
    cases = [
        _fuzz_case(workdir, slices, verb, f"--{s}")
        for verb in (("cv mtloc-conf", "cv mtloc") if _FULL_FUZZ else ("cv mtloc-conf",))
        for s in settings
    ]
    codes = _fuzz(tmp_path, cases)
    _assert_finite_tables(tmp_path, cases, codes)
    assert {0, 2} <= set(codes)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks one process per case")
def test_non_finite_results_never_exit_0(workdir, slices, tmp_path):
    # One epoch at lr=1e308 on one batch, so no loss term sees the update.
    # Each adapt here leaves finite weights near 1e308 that predict only
    # NaN: adapt exits 0, and eval, heatmap and cv's folds refuse the
    # predictions (exit 4). train's source statistics are non-finite.
    target = str(slices[1])
    cases = []
    for method in ("mtloc", "shot", "oracle"):
        model = str(tmp_path / str(len(cases)) / "m.model")
        cases += [
            _fuzz_case(workdir, slices, method, "--set", "lr=1e308"),
            ["eval", "--model", model, "--csv", target, "--out-report", "{out}/report.csv"],
            ["heatmap", "--model", model, "--csv", target, "--out-prefix", "{out}/grid"],
        ]
    cases += [
        _fuzz_case(workdir, slices, "cv mtloc", "--set", "lr=1e308"),
        _fuzz_case(workdir, slices, "train", "--set", "lr=1e308"),
        _fuzz_case(workdir, slices, "dann", "--set", f"batch_size={2**63}"),
    ]
    codes = _fuzz(tmp_path, cases, jobs=1)  # eval and heatmap read the model before them
    assert codes == [0, 4, 4] * 3 + [4, 4, cli.EXIT_MEMORY]
    for i, code in enumerate(codes):
        assert code == 0 or not any((tmp_path / str(i)).glob("*")), cases[i]  # no output left


# ---------------------------------------------------------------- edited manifests

@pytest.mark.parametrize(
    "verb, key, value",
    [("gen-synth", "tx", "5.0,5.0"), ("train", "loss", "l1"),
     ("adapt", "conventional_ema", "false")],
)
def test_replay_of_manifest_with_a_retired_key_exits_2(workdir, tmp_path, capsys, verb, key, value):
    # Manifests written before these keys were removed still record them.
    manifest = {
        "gen-synth": workdir / "data" / "manifest.txt",
        "train": workdir / "source.model.manifest",
        "adapt": tmp_path / "a.model.manifest",
    }[verb]
    if verb == "adapt":
        assert main(_adapt_args(workdir, "mtloc", tmp_path / "a.model", "epochs=0")) == 0
    kv = read_kv(manifest)
    kv[f"config.{key}"] = value
    old = tmp_path / "old.manifest"
    write_kv(old, kv)
    capsys.readouterr()
    assert main(["replay", "--manifest", str(old), "--out-dir", str(tmp_path / "replay")]) == 2
    assert f"error: unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


def _heatmap_args(workdir, out):
    return [
        "heatmap",
        "--model", str(workdir / "source.model"),
        "--csv", str(workdir / "data" / "target.csv"),
        "--out-prefix", str(out / "grid"),
    ], out / "grid.manifest"


def _cv_args(workdir, out):
    return [
        "cv",
        "--method", "mtloc",
        "--model", str(workdir / "source.model"),
        "--target-csv", str(workdir / "data" / "target.csv"),
        "--grid", "alpha=0.8",
        "--folds", "2",
        "--set", "epochs=1",
        "--out", str(out / "cv.csv"),
    ], out / "cv.csv.manifest"


def _eval_args(workdir, out):
    return [
        "eval",
        "--model", str(workdir / "source.model"),
        "--csv", str(workdir / "data" / "target.csv"),
        "--out-report", str(out / "r.csv"),
    ], out / "r.csv.manifest"


@pytest.mark.parametrize(
    "make_args, key, value",
    [
        (_heatmap_args, "config.cell", "abc"),
        (_cv_args, "config.folds", "x"),
        (_cv_args, "config.fold_seed", "1.5"),
    ],
    ids=["cell", "folds", "fold_seed"],
)
def test_replay_of_edited_manifest_exits_2_without_traceback(
    workdir, tmp_path, make_args, key, value
):
    args, manifest = make_args(workdir, tmp_path)
    assert main(args) == 0
    lines = manifest.read_text().splitlines()
    edited = [f"{key} = {value}" if line.split(" = ")[0] == key else line for line in lines]
    assert edited != lines
    manifest.write_text("\n".join(edited) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(rfloc.__file__).parents[1])}
    proc = subprocess.run(
        [
            sys.executable, "-m", "rfloc.cli", "replay",
            "--manifest", str(manifest),
            "--out-dir", str(tmp_path / "replayed"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"config key {key.split('.', 1)[1]!r}" in proc.stderr
    assert repr(value) in proc.stderr


@pytest.mark.parametrize("runs", ["1", "3"])
def test_replay_of_eval_manifest_with_runs_exits_2_without_traceback(workdir, tmp_path, runs):
    # eval no longer has a --runs option; a manifest recorded with one is
    # refused rather than replayed into a different report.
    args, manifest = _eval_args(workdir, tmp_path)
    assert main(args) == 0
    assert "config." not in manifest.read_text()
    with open(manifest, "a") as fh:
        fh.write(f"config.runs = {runs}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(rfloc.__file__).parents[1])}
    proc = subprocess.run(
        [
            sys.executable, "-m", "rfloc.cli", "replay",
            "--manifest", str(manifest),
            "--out-dir", str(tmp_path / "replayed"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "eval takes no configuration" in proc.stderr and "'runs'" in proc.stderr
    assert not (tmp_path / "replayed" / "r.csv").exists()


def test_replay_of_invalid_config_with_changed_input_exits_2(workdir, tmp_path, capsys):
    # The config is checked first, so a replay that fails on both counts is
    # a config error, whichever way the manifest arrived.
    args, manifest = _cv_args(workdir, tmp_path)
    csv = tmp_path / "target.csv"
    csv.write_bytes((workdir / "data" / "target.csv").read_bytes())
    args[args.index("--target-csv") + 1] = str(csv)
    assert main(args) == 0
    manifest.write_text(manifest.read_text().replace("config.folds = 2\n", "config.folds = x\n"))
    with open(csv, "a") as fh:
        fh.write("# changed\n")
    capsys.readouterr()
    assert main(["replay", "--manifest", str(manifest), "--out-dir", str(tmp_path / "r")]) == 2
    assert "config key 'folds'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------- cv grid entries

@pytest.mark.parametrize(
    "grid, message",
    [
        ("alpha=0.7;alpha=0.8", "grid axis 'alpha' is given more than once"),
        ("alpha=0.7;k=2;alpha=0.7", "grid axis 'alpha' is given more than once"),
        ("alpha=0.7,0.7", "grid axis 'alpha' repeats a value"),
        ("k=2,8;alpha=0.7,0.8,0.70", "grid axis 'alpha' repeats a value"),
        ("confidence=true,1", "grid axis 'confidence' repeats a value"),
    ],
    ids=["key", "key-apart", "value", "same-number", "same-bool"],
)
def test_cv_repeated_grid_entry_exits_2(workdir, tmp_path, capsys, monkeypatch, grid, message):
    # Before, a repeated key ran only its last axis, and a repeated value
    # wrote identical rows that were all marked best.
    def never(*args, **kwargs):
        raise AssertionError("cross_validate was called")

    monkeypatch.setattr(cli, "cross_validate", never)
    args, _ = _cv_args(workdir, tmp_path)
    args[args.index("--grid") + 1] = grid
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------- replay input hashes

def test_replay_refuses_input_without_recorded_hash(workdir, tmp_path, capsys):
    args, manifest = _eval_args(workdir, tmp_path)
    assert main(args) == 0
    lines = manifest.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("input.csv.sha256 ")]
    assert len(kept) == len(lines) - 1
    manifest.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert main(["replay", "--manifest", str(manifest), "--out-dir", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "error: input 'csv' (" in err and "changed since the recorded run" in err
    assert "recorded None" in err
    assert not (tmp_path / "r").exists()


def test_replay_hashes_each_input_once(workdir, tmp_path, monkeypatch):
    args, manifest = _eval_args(workdir, tmp_path)
    assert main(args) == 0
    hashed = []
    real_hash = cli._hash_file
    monkeypatch.setattr(cli, "_hash_file", lambda path: hashed.append(str(path)) or real_hash(path))
    assert main(["replay", "--manifest", str(manifest), "--out-dir", str(tmp_path / "r")]) == 0
    assert sorted(hashed) == sorted(read_manifest(manifest)["inputs"].values())


# ---------------------------------------------------------------- replay names

def _gen_synth_manifest(workdir, out):
    manifest = out / "manifest.txt"
    manifest.write_text((workdir / "data" / "manifest.txt").read_text())
    return manifest


def _eval_manifest(workdir, out):
    args, manifest = _eval_args(workdir, out)
    assert main(args) == 0
    return manifest


def _adapt_manifest(workdir, out):
    model = out / "a.model"
    args = ["adapt", "--method", "mtloc", "--model", str(workdir / "source.model"),
            "--target-csv", str(workdir / "data" / "target.csv"),
            "--set", "epochs=1", "--out", str(model)]
    assert main(args) == 0
    return Path(str(model) + ".manifest")


@pytest.mark.parametrize(
    "make_manifest, edit, message",
    [
        (_gen_synth_manifest, "-output.target_csv ",
         "gen-synth manifest has no output 'target_csv'"),
        (_eval_manifest, "-input.csv.", "eval manifest has no input 'csv'"),
        (_eval_manifest, "+output.extra = x.csv", "eval manifest has an unexpected output 'extra'"),
        (_eval_manifest, "+input.model7.path = m", "eval manifest has an unexpected input 'model7'"),
        # A source-free method reads no source data.
        (_adapt_manifest, "+input.source_csv.path = s.csv",
         "adapt manifest has an unexpected input 'source_csv'"),
    ],
    ids=["gen-synth-output", "eval-csv", "eval-extra-output", "eval-extra-input", "adapt-source"],
)
def test_replay_refuses_other_names_before_hashing_or_writing(
    workdir, tmp_path, capsys, monkeypatch, make_manifest, edit, message
):
    # Each verb declares the names it reads. A missing one used to end in a
    # KeyError traceback after gen-synth had already written source.csv.
    manifest = make_manifest(workdir, tmp_path)
    lines = manifest.read_text().splitlines()
    if edit[0] == "-":
        edited = [line for line in lines if not line.startswith(edit[1:])]
    else:
        edited = lines + [edit[1:]]
    assert edited != lines
    manifest.write_text("\n".join(edited) + "\n")

    def never(path):
        raise AssertionError(f"{path} was hashed")

    monkeypatch.setattr(cli, "_hash_file", never)
    capsys.readouterr()
    out = tmp_path / "replayed"
    assert main(["replay", "--manifest", str(manifest), "--out-dir", str(out)]) == 3
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- output paths

def test_train_makes_the_output_directory(workdir, tmp_path):
    out = tmp_path / "missing" / "deeper" / "m.model"
    args = ["train", "--source-csv", str(workdir / "data" / "source.csv"),
            "--set", "epochs=1", "--out", str(out)]
    assert main(args) == 0
    assert load_model(out).meta["run_id"] == read_manifest(str(out) + ".manifest")["run_id"]


def test_train_output_under_a_file_exits_2_before_training(workdir, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("train_source was called")

    monkeypatch.setattr(cli, "train_source", never)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    args = ["train", "--source-csv", str(workdir / "data" / "source.csv"),
            "--out", str(blocker / "m.model")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: cannot make the directory of output {blocker / 'm.model'}:" in err
    assert "Traceback" not in err


def test_eval_report_onto_a_directory_exits_2(workdir, tmp_path, capsys):
    report = tmp_path / "report"
    report.mkdir()
    args, _ = _eval_args(workdir, tmp_path)
    args[args.index("--out-report") + 1] = str(report)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write output {report}: Is a directory\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.manifest").exists()


def test_gen_synth_out_dir_onto_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "data"
    out.write_text("a file\n")
    assert main(["gen-synth", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot make the directory of output {out / 'source.csv'}:" in err
    assert "Traceback" not in err
    assert out.read_text() == "a file\n"


# ---------------------------------------------------------------- gen-synth values

def test_gen_synth_failure_leaves_no_partial_output(tmp_path, capsys):
    # The target fails after the source is generated; neither CSV, nor a
    # staged file, nor a manifest is left.
    out = tmp_path / "data"
    assert main(["gen-synth", "--out-dir", str(out), "--set", "target_shadowing_std_db=1e308"]) == 2
    assert "dataset 'target'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_gen_synth_onto_a_directory_exits_2(tmp_path, capsys):
    # Every output path is checked before anything is written: an existing
    # source.csv keeps its bytes.
    out = tmp_path / "data"
    (out / "target.csv").mkdir(parents=True)
    (out / "source.csv").write_bytes(b"an earlier source.csv\n")
    assert main(["gen-synth", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write output {out / 'target.csv'}: Is a directory\n" in err
    assert (out / "source.csv").read_bytes() == b"an earlier source.csv\n"
    assert not list(out.glob(".*.partial")) and not (out / "manifest.txt").exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        (["source_rx=1e308,1.0;0.5,6.0;5.0,9.5;9.5,6.2"], "dataset 'source': the rx term"),
        (["target_rx=1,1;1,5;5,5;5,-1e308"], "dataset 'target': the rx term"),
        (["path_loss_exponent=1e308"], "dataset 'source': the path_loss_exponent term"),
        (["ref_power_dbm=1e308", "pol_gain_db=1e308,1e308"],
         "dataset 'source': the pol_gain_db term"),
        (["source_shadowing_std_db=1e308"], "dataset 'source': the shadowing_std_db term"),
        (["target_shadowing_std_db=1e308"], "dataset 'target': the shadowing_std_db term"),
        (["room=1e-308,1e-308"], "the trajectory is empty"),
        (["line_spacing=1e308"], "the trajectory is empty"),
    ],
    ids=["source_rx", "target_rx", "exponent", "gain", "source_std", "target_std", "room",
         "spacing"],
)
def test_gen_synth_overflow_and_empty_trajectory_exit_2(tmp_path, capsys, settings, message):
    # Both ended in exit 3, a data error, although gen-synth reads no data;
    # the overflows also printed numpy's RuntimeWarning.
    args = ["gen-synth", "--out-dir", str(tmp_path / "data")]
    for setting in settings:
        args += ["--set", setting]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Warning" not in err
