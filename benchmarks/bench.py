#!/usr/bin/env python3
"""rfloc benchmark: one user session per workload, timed end to end, and
in a separate traced run, layer by layer.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload acceptance-650 --seed 0 --seconds 42 --trace 0

The library is imported from ``src/`` next to this directory and driven
only through its public entry points: the in-process ``rfloc.cli.main``
verbs, ``rfloc.localizer.predict``, ``rfloc.synthetic.generate_synthetic``
(with ``rfloc.data.write_csv`` and ``rfloc.artifact.load_model`` to write
its inputs and read back its outputs). A session runs, in order: train,
adapt with mtloc, mtloc-conf, shot, dann and oracle, eval and cv, with
warmed-up bulk predict calls after each verb, and later sessions repeat
part of it while the run's time lasts. Each workload sizes these steps
differently; see README.md for why. The last line of standard output is
one JSON object with the verdict and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
TARGET_RX = ((1.5, 1.5), (1.5, 8.5), (8.5, 8.5), (8.5, 1.5))
ADAPT_METHODS = ("mtloc", "mtloc-conf", "shot", "dann", "oracle")
# The acceptance-2 settings of tests/test_acceptance.py.
METHOD_SETTINGS = {
    "mtloc": ("noise_variance=0.3",),
    "mtloc-conf": ("noise_variance=0.3", "c_x=1.0", "c_y=1.0", "k=8"),
    "shot": (),
    "dann": (),
    "oracle": (),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "adapt_mtloc_s": "s",
    "adapt_mtloc_conf_s": "s",
    "adapt_shot_s": "s",
    "adapt_dann_s": "s",
    "pipeline_s": "s",
    "predict_rows_per_s": "rows/s",
    "cv_s": "s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """Sizes of one session, and what later sessions repeat. Training runs
    with patience equal to its epochs, so early stopping never makes the
    work depend on the seed."""

    name: str
    train_epochs: int
    adapt_epochs: int
    cv_grid: str
    cv_folds: int
    cv_epochs: int
    predict_repeats: int  # timed predict calls after each job from train on
    # Per adapt method, the largest allowed target mae_d as a share of the
    # source-only model's: the median share over 60 seeds of the unchanged
    # library at these sizes, plus three times the largest excess over it
    # seen (see README.md).
    mae_share_max: dict
    # Jobs that only the first session runs ("predict" for the predict
    # calls); later sessions repeat the rest while the run's time lasts.
    # Eval must be here if an adapt is.
    once: tuple[str, ...] = ()
    # Jobs reported as wall time rather than scaled: the long ones, each
    # filling a third of the run (see SpeedReference).
    wall_jobs: tuple[str, ...] = ()
    sample_interval: float = 0.5  # 650 labeled source and 650 target rows
    # When set, mtloc and mtloc-conf adapt for one epoch on a third,
    # larger target, and predict reads it.
    large_interval: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("acceptance-650", train_epochs=40, adapt_epochs=5, cv_grid="alpha=0.8",
                 cv_folds=2, cv_epochs=1, predict_repeats=2,
                 mae_share_max={"mtloc": 0.99, "mtloc-conf": 0.97, "shot": 0.72,
                                "dann": 2.35, "oracle": 0.56}),
        Workload("large-target", train_epochs=10, adapt_epochs=2, cv_grid="alpha=0.8",
                 cv_folds=2, cv_epochs=3, predict_repeats=1, large_interval=0.032,
                 once=("adapt_mtloc-conf", "eval", "predict"), wall_jobs=("adapt_mtloc-conf",),
                 mae_share_max={"mtloc": 1.31, "mtloc-conf": 1.28, "shot": 0.86,
                                "dann": 1.60, "oracle": 0.63}),
        Workload("cv-grid", train_epochs=10, adapt_epochs=2, cv_grid="alpha=0.7,0.8;k=2,8",
                 cv_folds=5, cv_epochs=2, predict_repeats=2, once=("cv",), wall_jobs=("cv",),
                 mae_share_max={"mtloc": 1.08, "mtloc-conf": 1.37, "shot": 0.86,
                                "dann": 1.60, "oracle": 0.63}),
    )
}


class EnvironmentRefused(Exception):
    """The benchmark cannot run meaningfully in this environment."""


def check_environment() -> None:
    """Refuse multi-threaded BLAS, which rfloc only setdefaults to 1,
    then pin every BLAS variable before numpy is imported."""
    for var in BLAS_VARS:
        value = os.environ.get(var)
        if value is None:
            continue
        try:
            threads = int(value)
        except ValueError:
            raise EnvironmentRefused(f"{var}={value!r} is not a thread count") from None
        if threads > 1:
            raise EnvironmentRefused(f"{var}={threads}: rfloc is benchmarked with 1 BLAS thread")
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "rfloc" / "__init__.py").is_file():
        raise EnvironmentRefused(f"no rfloc source under {src}")
    sys.path.insert(0, str(src))


def import_rfloc() -> float:
    """Import the library from the checkout; returns the import time."""
    start = time.perf_counter()
    import rfloc
    import rfloc.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(rfloc.__file__).resolve().parent != (ROOT / "src" / "rfloc").resolve():
        raise EnvironmentRefused(f"imported rfloc from {rfloc.__file__}, not from this checkout")
    return elapsed


def environment_record(workload: str, seed: int) -> dict:
    import numpy as np

    record = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "git_commit": _git_commit(),
    }
    try:
        record["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        record["blas"] = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    return record


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SpeedReference:
    """Reports job times at the speed of a reference host.

    On a shared host the speed changes in phases of a few seconds, by up
    to half, and a job's wall time changes with it. Right before and right
    after each timed job, never while it runs, the benchmark times a small
    fixed kernel that is no rfloc code: an einsum, small GEMMs and a Python
    loop over tiny numpy calls. A job's scaled time is its wall time times
    NOMINAL_S over the mean kernel time of the samples taken from `reach`
    before it starts to `reach` after it ends, where `reach` is WINDOW_S or
    half the job, whichever is longer.

    This corrects short jobs, but not a job of many seconds: samples at its
    ends say little about the phases within it, and scaling cv on cv-grid
    (15 s) spread it more than its wall time did. A workload's long jobs
    (Workload.wall_jobs) are therefore reported as wall time.
    """

    NOMINAL_S = 0.006  # the kernel's time on the host the bounds were set on
    WINDOW_S = 1.0

    def __init__(self):
        import numpy as np

        gen = np.random.default_rng(0)
        self._x = gen.normal(size=(64, 6, 64, 2))
        self._w = gen.normal(size=(128, 64, 2))
        self._a = gen.normal(size=(32, 768))
        self._b = gen.normal(size=(768, 128))
        self._s = gen.normal(size=(32, 2))
        self.log: list[tuple[float, float]] = []  # (start, seconds) of each kernel run

    def sample(self) -> None:
        import numpy as np

        start = time.perf_counter()
        np.einsum("nicj,ocj->nio", self._x, self._w)
        for _ in range(10):
            self._a @ self._b
        total = 0.0
        for _ in range(500):
            total += float(np.abs(self._s).sum())
        self.log.append((start, time.perf_counter() - start))

    def fresh(self) -> bool:
        """Whether the last sample ended less than a millisecond ago."""
        return bool(self.log) and time.perf_counter() - sum(self.log[-1]) < 1e-3

    def seconds(self, interval: tuple[float, float]) -> float:
        """The scaled time of a job that ran over interval, once the run's
        samples are all taken."""
        start, end = interval
        reach = max(self.WINDOW_S, (end - start) / 2)
        window = [d for t, d in self.log if start - reach <= t <= end + reach]
        return (end - start) * self.NOMINAL_S / statistics.mean(window)


def wall_seconds(interval: tuple[float, float]) -> float:
    return interval[1] - interval[0]


def timed(ref: SpeedReference | None, fn, *args):
    """(result, (start, end)) of fn(*args), with a reference sample taken
    right before (unless one was just taken) and right after it."""
    if ref is not None and not ref.fresh():
        ref.sample()
    start = time.perf_counter()
    result = fn(*args)
    end = time.perf_counter()
    if ref is not None:
        ref.sample()
    return result, (start, end)


# ---------------------------------------------------------------- jobs

class Jobs:
    """Attempted jobs and, for each failed one, why."""

    def __init__(self):
        self.failures: dict[str, str | None] = {}
        self.prefix = "setup"  # names the session the jobs belong to

    def attempt(self, job: str) -> None:
        self.failures.setdefault(f"{self.prefix}.{job}", None)

    def fail(self, job: str, reason: str) -> None:
        key = f"{self.prefix}.{job}"
        if self.failures.get(key) is None:
            self.failures[key] = reason
            print(f"FAILED {key}: {reason}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(reason is not None for reason in self.failures.values())


@contextlib.contextmanager
def span(tracer, name: str):
    if tracer is None:
        yield
        return
    sid = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(sid)


def set_up(w: Workload, seed: int, data_dir: Path, jobs: Jobs) -> dict:
    """Generate the acceptance-2 source/target pair (and the large target),
    write the CSVs, and warm up the train and predict paths."""
    import rfloc.cli as cli
    import rfloc.data as data
    import rfloc.localizer as localizer
    import rfloc.synthetic as synthetic
    from rfloc import artifact

    data_dir.mkdir(parents=True)
    configs = {
        "source": synthetic.SynthConfig(seed=seed, name="source", sample_interval=w.sample_interval),
        "target": synthetic.SynthConfig(
            seed=seed + 1, name="target", rx=TARGET_RX, shadowing_std_db=8.0,
            ref_power_dbm=-38.0, sample_interval=w.sample_interval,
        ),
    }
    if w.large_interval is not None:
        configs["large"] = dataclasses.replace(
            configs["target"], seed=seed + 2, name="large", sample_interval=w.large_interval
        )
    datasets = {}
    for name, config in configs.items():
        datasets[name] = synthetic.generate_synthetic(config)
        data.write_csv(datasets[name], data_dir / f"{name}.csv")
    warm_model = data_dir / "warm.model"
    jobs.attempt("warm-up")
    rc = _quiet(cli.main, ["train", "--source-csv", str(data_dir / "source.csv"),
                           "--set", "epochs=1", "--out", str(warm_model)])
    if rc != 0:
        jobs.fail("warm-up", f"train exited {rc}")
    else:
        # The first predict over the large rows is made, untimed, by the
        # session.
        localizer.predict(artifact.load_model(warm_model), datasets["target"].features)
    return datasets


def _predict_rows(datasets: dict):
    return datasets.get("large", datasets["target"]).features


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


@dataclasses.dataclass
class Session:
    times: dict  # job: (start, end)
    predict_times: list  # (start, end) of each timed predict call
    digests: dict
    spent: dict  # job (or "predict", all calls): seconds taken, reference samples included


def run_jobs(w: Workload, seed: int, data_dir: Path, datasets: dict, out: Path, jobs: Jobs,
             ref: SpeedReference | None, skip=()) -> Session:
    """The timed part of one session: every CLI verb but those in skip,
    each followed by timed bulk predict calls once the source model exists
    (unless skip holds "predict")."""
    import rfloc.cli as cli
    import rfloc.localizer as localizer
    from rfloc import artifact

    out.mkdir(parents=True)
    jobs.prefix = out.name
    times, spent = {}, {}
    rows = _predict_rows(datasets)
    predict_times = []
    model = first = None

    def predict_group() -> None:
        # Predict with the source model after every job from train on, so
        # the timed calls sample the whole session rather than one moment.
        nonlocal model, first
        if "predict" in skip or not (out / "source.model").is_file():
            return
        start = time.perf_counter()
        try:
            if model is None:
                jobs.attempt("predict")
                model = artifact.load_model(out / "source.model")
                first = localizer.predict(model, rows)  # warm-up, not timed
            for _ in range(w.predict_repeats):
                preds, seconds = timed(ref, localizer.predict, model, rows)
                predict_times.append(seconds)
                if preds.tobytes() != first.tobytes():
                    jobs.fail("predict", "repeated predict outputs differ")
        except Exception:
            traceback.print_exc()
            jobs.fail("predict", "raised an exception")
        spent["predict"] = spent.get("predict", 0.0) + time.perf_counter() - start

    def verb(job: str, argv: list[str]) -> None:
        if job in skip:
            return
        jobs.attempt(job)
        start = time.perf_counter()
        try:
            rc, times[job] = timed(ref, _quiet, cli.main, [str(a) for a in argv])
        except Exception:  # a crash in one verb must not hide the others
            traceback.print_exc()
            rc, times[job] = "an exception", (math.nan, math.nan)
        spent[job] = time.perf_counter() - start
        predict_group()
        if rc != 0:
            jobs.fail(job, f"exited with {rc}")

    source_csv, target_csv = data_dir / "source.csv", data_dir / "target.csv"
    source_model = out / "source.model"
    e = w.train_epochs
    verb("train", ["train", "--source-csv", source_csv, "--set", f"epochs={e}",
                   "--set", f"patience={e}", "--set", f"seed={seed}", "--out", source_model])
    for method in ADAPT_METHODS:
        on_large = "large" in datasets and method in ("mtloc", "mtloc-conf")
        argv = ["adapt", "--method", method, "--model", source_model,
                "--target-csv", data_dir / "large.csv" if on_large else target_csv,
                "--out", out / f"{method}.model",
                "--set", f"epochs={1 if on_large else w.adapt_epochs}",
                "--set", f"seed={seed}"]
        for setting in METHOD_SETTINGS[method]:
            argv += ["--set", setting]
        if method == "dann":
            argv += ["--source-csv", source_csv]
        verb(f"adapt_{method}", argv)
    models = [source_model] + [out / f"{m}.model" for m in ADAPT_METHODS]
    verb("eval", ["eval", "--model", *models, "--csv", target_csv, "--out-report", out / "report.csv"])
    verb("cv", ["cv", "--method", "mtloc-conf", "--model", source_model, "--target-csv", target_csv,
                "--grid", w.cv_grid, "--folds", w.cv_folds, "--set", f"epochs={w.cv_epochs}",
                "--set", "noise_variance=0.3", "--set", "c_x=1.0", "--set", "c_y=1.0",
                "--set", "k=8", "--set", f"seed={seed}", "--out", out / "cv.csv"])

    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.suffix in (".model", ".csv")
    }
    return Session(times, predict_times, digests, spent)


def check_outputs(w: Workload, out: Path, jobs: Jobs) -> dict:
    """Every model finite, every adapted model changed, adapted errors
    within the workload's reference shares of the source-only error, and
    one best row in the cv table. Returns each model's target mae_d."""
    import numpy as np
    from rfloc import artifact

    source_params = {}
    for job, name in [("train", "source")] + [(f"adapt_{m}", m) for m in ADAPT_METHODS]:
        path = out / f"{name}.model"
        if not path.is_file():
            jobs.fail(job, f"{path.name} was not written")
            continue
        model = artifact.load_model(path)
        arrays = [p.value for _, p in model.net.params.items()] + [model.norm.mean, model.norm.std]
        if model.source_stats is not None:
            s = model.source_stats
            arrays += [s.pred_mean, s.pred_var, s.feat_cov]
        if not all(np.isfinite(a).all() for a in arrays):
            jobs.fail(job, f"{path.name} holds non-finite values")
        params = {key: p.value for key, p in model.net.params.items()}
        if name == "source":
            source_params = params
        elif all(np.array_equal(v, source_params.get(key)) for key, v in params.items()):
            jobs.fail(job, f"{path.name} has the source model's weights")

    report = out / "report.csv"
    mae_d = {}
    if report.is_file():
        values = next(r for r in _csv_rows(report) if r[0] == "mae_d")[3:]
        mae_d = dict(zip(("source",) + ADAPT_METHODS, map(float, values)))
        reference = mae_d["source"]
        for method in ADAPT_METHODS:
            share = w.mae_share_max[method]
            if not 0.0 < mae_d[method] <= share * reference:
                jobs.fail(f"adapt_{method}", f"target mae_d {mae_d[method]:.3f} outside "
                          f"(0, {share} x {reference:.3f}]")
    table = out / "cv.csv"
    if table.is_file():
        best = [r for r in _csv_rows(table)[1:] if r[-1] == "1"]
        if len(best) != 1:
            jobs.fail("cv", f"cv table has {len(best)} best rows, expected 1")
    return mae_d


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


# ---------------------------------------------------------------- runs

def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path, import_s: float) -> dict:
    """One benchmark run. Returns the verdict and metrics printed as the
    last line, plus what the report prints before it and the tracer."""
    tracer = tracing.Tracer() if trace else None
    hooks = tracing.Hooks(tracer) if trace else None
    # Per-layer times are reported as measured.
    ref = None if trace else SpeedReference()
    jobs = Jobs()
    sessions = []
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if hooks:
            hooks.install()
            stack.callback(hooks.remove)
        setup_times = []
        for rep in range(SETUP_REPEATS):
            with span(tracer, "bench.setup"):
                datasets, interval = timed(ref, set_up, w, seed, work / f"setup-{rep}", jobs)
            setup_times.append(interval)
        data_dir = work / f"setup-{SETUP_REPEATS - 1}"

        if trace:
            # An untraced session, then the same session traced: the
            # difference in pipeline time is the tracing overhead.
            hooks.remove()
            sessions.append(run_jobs(w, seed, data_dir, datasets, work / "session-0", jobs, None))
            mae_d = check_outputs(w, work / "session-0", jobs)
            hooks.install()
            tracer.run = "session"
            with span(tracer, "bench.session"):
                sessions.append(run_jobs(w, seed, data_dir, datasets, work / "session-1", jobs, None))
            hooks.remove()
            check_outputs(w, work / "session-1", jobs)
        else:
            sessions.append(run_jobs(w, seed, data_dir, datasets, work / "session-0", jobs, ref))
            mae_d = check_outputs(w, work / "session-0", jobs)
            # Repeat the jobs not in w.once while the next repeat still
            # ends within the run's time.
            repeat_s = sum(t for job, t in sessions[0].spent.items() if job not in w.once)
            while time.perf_counter() - start + repeat_s <= seconds:
                out = work / f"session-{len(sessions)}"
                sessions.append(run_jobs(w, seed, data_dir, datasets, out, jobs, ref, w.once))

    for i, session in enumerate(sessions[1:], 1):
        jobs.prefix = f"session-{i}"
        jobs.attempt("repeat")
        first = sessions[0].digests
        if any(first.get(name) != digest for name, digest in session.digests.items()):
            jobs.fail("repeat", "outputs differ from the first session's")

    samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1, "pipeline_s": len(sessions)}
    if trace:
        pipeline = [sum(wall_seconds(t) for job, t in s.times.items() if job != "cv")
                    for s in sessions]
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = pipeline[1] - pipeline[0]
        units = {name: tracing.unit_of(name) for name in metrics}
        wall = {}
    else:
        for job in sessions[0].times:
            samples[f"{job}_s".replace("-", "_")] = sum(job in s.times for s in sessions)
        samples["predict_rows_per_s"] = sum(len(s.predict_times) for s in sessions)
        rows = len(_predict_rows(datasets))
        def reported_seconds(job, interval):
            return wall_seconds(interval) if job in w.wall_jobs else ref.seconds(interval)

        metrics = end_to_end(sessions, setup_times, import_s, rows, reported_seconds)
        wall = end_to_end(sessions, setup_times, import_s, rows, lambda job, t: wall_seconds(t))
        units = END_TO_END_UNITS
    return {
        "correct": jobs.failed == 0,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "wall": wall,
        "samples": samples,
        "sessions": len(sessions),
        "mae_d": mae_d,
        "tracer": tracer,
    }


def end_to_end(sessions: list[Session], setup_times: list, import_s: float, rows: int,
               seconds_of) -> dict:
    """The end-to-end metrics, each a median over its samples, with the
    time of a job over an interval read by seconds_of(job, interval)."""
    def median_of(job):
        return statistics.median(seconds_of(job, s.times[job]) for s in sessions if job in s.times)

    predict_times = [seconds_of("predict", t) for s in sessions for t in s.predict_times]
    setups = [seconds_of("setup", t) for t in setup_times]
    # The import ran before the first reference sample: scale it as the
    # first set-up.
    return {
        "setup_s": import_s * setups[0] / wall_seconds(setup_times[0]) + statistics.median(setups),
        "train_s": median_of("train"),
        "adapt_mtloc_s": median_of("adapt_mtloc"),
        "adapt_mtloc_conf_s": median_of("adapt_mtloc-conf"),
        "adapt_shot_s": median_of("adapt_shot"),
        "adapt_dann_s": median_of("adapt_dann"),
        "pipeline_s": sum(median_of(job) for job in sessions[0].times if job != "cv"),
        "predict_rows_per_s": rows / statistics.median(predict_times) if predict_times else math.nan,
        "cv_s": median_of("cv"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_report(result: dict) -> None:
    samples = result["samples"]
    print(f"{'metric':<48}{'value':>16}{'wall time':>16}  {'unit':<8}{'n':>5}")
    for name, m in result["metrics"].items():
        wall = f"{result['wall'][name]:.6g}" if name in result["wall"] else ""
        print(f"{name:<48}{m['value']:>16.6g}{wall:>16}  {m['unit']:<8}{samples.get(name, ''):>5}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ratio':<48}{ratio:>16.6g}{'':>16}  {'ratio':<8}{result['attempted']:>5}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        check_environment()
        import_s = import_rfloc()
    except EnvironmentRefused as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    env = environment_record(args.workload, args.seed)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work, import_s)
    except tracing.HookError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["tracer"] is not None:
        path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result["tracer"].write_jsonl(path, env)
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(f"# workload {args.workload}, seed {args.seed}, {result['sessions']} session(s)")
    print("# target mae_d (m): " + ", ".join(f"{k} {v:.3f}" for k, v in result["mae_d"].items()))
    print_report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
