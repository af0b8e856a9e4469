"""Command-line pipeline: manifests, replay, exit codes, source-free audit."""

import builtins
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfloc
from rfloc import cli
from rfloc.artifact import FORMAT_VERSION, MAGIC, load_model, save_model
from rfloc.cli import main, read_manifest
from rfloc.data import load_csv, write_csv
from util import cross_validate_serial

SMALL_SCENARIO = [
    "--set", "room=6,6",
    "--set", "tx=3,3",
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


def test_adapt_eval_heatmap_pipeline(workdir, tmp_path):
    data = workdir / "data"
    adapted = tmp_path / "adapted.model"
    diag = tmp_path / "diag.csv"
    rc = main(
        [
            "adapt",
            "--method", "mtloc",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(data / "target.csv"),
            "--set", "epochs=2",
            "--out", str(adapted),
            "--diagnostics", str(diag),
        ]
    )
    assert rc == 0
    man = read_manifest(str(adapted) + ".manifest")
    model = load_model(adapted)
    assert model.meta["kind"] == "mean-teacher"
    assert model.meta["run_id"] == man["run_id"]
    lines = diag.read_text().splitlines()
    assert lines[0] == f"# run: {man['run_id']}"
    assert lines[1] == "epoch,kd_loss,n_uncertain,t_x,t_y"
    assert len(lines) == 4  # two epochs
    assert lines[2].endswith(",,,")  # confidence fields blank for plain mtloc

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


def test_eval_runs_replication(workdir, tmp_path):
    report = tmp_path / "rep.csv"
    rc = main(
        [
            "eval",
            "--model", str(workdir / "source.model"),
            "--csv", str(workdir / "data" / "target.csv"),
            "--runs", "3",
            "--out-report", str(report),
        ]
    )
    assert rc == 0
    rows = report.read_text().splitlines()
    assert rows[1] == "metric,mean,std,run_1,run_2,run_3"
    mae_d = next(r for r in rows if r.startswith("mae_d,")).split(",")
    assert mae_d[3] == mae_d[4] == mae_d[5]  # deterministic model replicated
    assert float(mae_d[2]) == 0.0


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


def test_oracle_requires_labels(workdir, tmp_path, capsys):
    unlabeled = tmp_path / "unlabeled.csv"
    ds = load_csv(workdir / "data" / "target.csv")
    write_csv(ds.without_labels(), unlabeled)
    rc = main(
        [
            "adapt",
            "--method", "oracle",
            "--model", str(workdir / "source.model"),
            "--target-csv", str(unlabeled),
            "--set", "epochs=1",
            "--out", str(tmp_path / "o.model"),
        ]
    )
    assert rc == 3
    assert "labels" in capsys.readouterr().err


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
    ],
    ids=["not-a-number", "out-of-range", "diverging"],
)
def test_cv_grid_errors_exit_typed_without_traceback(workdir, tmp_path, grid, code, message):
    proc = _run_cli_counting_children(_cv_grid_args(workdir, grid, tmp_path / "cv.csv"))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert "children left: 0" in proc.stderr
    assert not (tmp_path / "cv.csv").exists()


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


def test_cv_replay_of_edited_grid_fails_in_workers(workdir, tmp_path):
    # The CLI checks grid values before cv starts; a replayed manifest is
    # parsed by the recipe, inside the fold workers.
    args, manifest = _cv_args(workdir, tmp_path)
    assert main(args) == 0
    text = manifest.read_text()
    assert "config.grid = alpha=0.8\n" in text
    manifest.write_text(text.replace("config.grid = alpha=0.8\n", "config.grid = alpha=abc\n"))
    proc = _run_cli_counting_children(
        ["replay", "--manifest", str(manifest), "--out-dir", str(tmp_path / "replayed")]
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

def _rewrite_header(src, dst, edit):
    raw = src.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header = edit(json.loads(raw[16 : 16 + header_len]))
    body = json.dumps(header).encode("utf-8")
    dst.write_bytes(
        MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(body)) + body + raw[16 + header_len :]
    )


def _nan_bias(src, dst):
    model = load_model(src)
    model.net.params["conv2_b"].value[3] = np.nan
    save_model(model, dst)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda src, dst: _rewrite_header(src, dst, lambda h: [h]),
        lambda src, dst: _rewrite_header(
            src, dst, lambda h: {k: v for k, v in h.items() if k != "arrays"}
        ),
        _nan_bias,
    ],
    ids=["list-header", "no-arrays", "nan-bias"],
)
def test_malformed_artifact_exits_3_without_traceback(workdir, tmp_path, corrupt):
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
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------- edited manifests

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
        (_eval_args, "config.runs", "two"),
    ],
    ids=["cell", "folds", "fold_seed", "runs"],
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
