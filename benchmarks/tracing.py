"""Span tracer and the hook table that times rfloc's layers from outside.

Each hook wraps one library function at the name its callers resolve (for
example ``rfloc.networks.conv1d_forward``, which ``networks`` binds at
import), so no source file changes. Spans are kept in memory as
``[name, start, end, parent, run, counts]`` and written out at the end of
the run; self time is computed from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

NO_PARENT = -1


class HookError(RuntimeError):
    """A hook target is missing, or an installed hook never fired."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = "setup"
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, 0.0, None, parent, self.run, None])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, (name, start, end, parent, run, counts) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run, "counts": counts}
                    )
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[sid]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is not None and lo <= cur_hi:
                cur_hi = max(cur_hi, hi)
                continue
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _pick_conv(w_index: int):
    # conv1 reads the single input channel; conv2 reads conv1's 64 filters.
    return lambda args, kwargs: 0 if _arg(args, kwargs, w_index, "w").shape[1] == 1 else 1


def _pick_dense(w_index: int):
    # dense1 (and the discriminator's first layer) read the 768-wide features.
    return lambda args, kwargs: 0 if _arg(args, kwargs, w_index, "w").shape[0] == 768 else 1


def _conv_counts(x_index: int, w_index: int, products: int):
    # Computed from shapes: 2 flop per multiply-add of one valid stride-1
    # cross-correlation, times the products the pass forms (backward: dx, dw).
    def counts(args, kwargs, result):
        x = _arg(args, kwargs, x_index, "x")
        out_ch, in_ch, k = _arg(args, kwargs, w_index, "w").shape
        out_len = x.shape[1] - k + 1
        flop = 2.0 * x.shape[0] * out_len * out_ch * in_ch * k * products
        return {"rows": x.shape[0], "mflop": flop / 1e6}
    return counts


def _file_bytes(path_index: int):
    return lambda args, kwargs, result: {
        "bytes": os.path.getsize(_arg(args, kwargs, path_index, "path"))
    }


def _rows_of_result(args, kwargs, result):
    return {"rows": len(result)}


def _epochs_run(args, kwargs, result):
    return {"localizer.epochs_run": result.meta["epochs_run"]}


def _probe_counts(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "z")) * _arg(args, kwargs, 3, "n_probe")}


def _correct_counts(args, kwargs, result):
    pls = _arg(args, kwargs, 0, "pls")
    return {"rows": len(pls.labels), "uncertain_rows": int((~pls.confident).sum())}


@dataclass(frozen=True)
class Hook:
    """One traced layer function.

    names: the span names the hook records. targets: the names callers
    reach the function through, as "module:attr" or "module:Class.method".
    pick: for a hook split by weight shape, a function of the call's
    (args, kwargs) giving the index into names. counts: a function of
    (args, kwargs, result) giving work counts; a count key holding a dot is
    a full metric name rather than a suffix of the span name. shares:
    (key, numerator, denominator) count keys, each reported as the ratio of
    the two totals.
    """

    names: tuple[str, ...]
    targets: tuple[str, ...]
    pick: Callable | None = None
    counts: Callable | None = None
    count_keys: tuple[str, ...] = ()
    shares: tuple[tuple[str, str, str], ...] = ()


def _split(layer_a: str, layer_b: str, direction: str) -> tuple[str, str]:
    return (f"nn.layers.{layer_a}.{direction}", f"nn.layers.{layer_b}.{direction}")


HOOKS = (
    Hook(_split("conv1", "conv2", "fwd"), ("rfloc.networks:conv1d_forward",),
         _pick_conv(1), _conv_counts(0, 1, 1), ("rows", "mflop")),
    Hook(_split("conv1", "conv2", "bwd"), ("rfloc.networks:conv1d_backward",),
         _pick_conv(2), _conv_counts(1, 2, 2), ("rows", "mflop")),
    Hook(_split("dense1", "dense_tail", "fwd"), ("rfloc.networks:dense_forward",),
         _pick_dense(1)),
    Hook(_split("dense1", "dense_tail", "bwd"), ("rfloc.networks:dense_backward",),
         _pick_dense(2)),
    Hook(("nn.layers.dropout.fwd",), ("rfloc.networks:dropout_forward",)),
    Hook(("nn.layers.dropout.bwd",), ("rfloc.networks:dropout_backward",)),
    Hook(("nn.adam.step",), ("rfloc.nn.adam:Adam.step",)),
    Hook(("nn.rng.stream",), ("rfloc.nn.rng:Rng.stream",)),
    Hook(("networks.extractor.fwd",), ("rfloc.networks:FeatureExtractor.forward",)),
    Hook(("networks.extractor.bwd",), ("rfloc.networks:FeatureExtractor.backward",)),
    Hook(("networks.regressor.fwd",), ("rfloc.networks:Regressor.forward",)),
    Hook(("networks.regressor.bwd",), ("rfloc.networks:Regressor.backward",)),
    Hook(("networks.discriminator.fwd",), ("rfloc.networks:Discriminator.forward",)),
    Hook(("networks.discriminator.bwd",), ("rfloc.networks:Discriminator.backward",)),
    Hook(("localizer.train_source",), ("rfloc.cli:train_source",),
         counts=_epochs_run, count_keys=("localizer.epochs_run",)),
    Hook(("localizer.predict",), ("rfloc.cli:predict", "rfloc.localizer:predict"),
         counts=_rows_of_result, count_keys=("rows",)),
    Hook(("localizer.compute_source_stats",), ("rfloc.localizer:compute_source_stats",)),
    Hook(("localizer.finetune_oracle",), ("rfloc.cli:finetune_oracle",),
         counts=_epochs_run, count_keys=("localizer.epochs_run",)),
    Hook(("meanteacher.adapt",), ("rfloc.cli:adapt",)),
    Hook(("meanteacher.probe",), ("rfloc.meanteacher:_probe",),
         counts=_probe_counts, count_keys=("rows",)),
    Hook(("meanteacher.compute_thresholds",), ("rfloc.meanteacher:compute_thresholds",)),
    Hook(("meanteacher.correct_labels",), ("rfloc.meanteacher:correct_labels",),
         counts=_correct_counts, count_keys=("rows", "uncertain_rows"),
         shares=(("uncertain_share", "uncertain_rows", "rows"),)),
    Hook(("meanteacher.ema_update",), ("rfloc.meanteacher:ema_update",)),
    Hook(("shot.run_shot",), ("rfloc.cli:run_shot",)),
    Hook(("dann.run_dann",), ("rfloc.cli:run_dann",)),
    Hook(("synthetic.generate_synthetic",),
         ("rfloc.synthetic:generate_synthetic", "rfloc.cli:generate_synthetic"),
         counts=_rows_of_result, count_keys=("rows",)),
    Hook(("data.load_csv",), ("rfloc.cli:load_csv",),
         counts=_rows_of_result, count_keys=("rows",)),
    Hook(("data.write_csv",), ("rfloc.data:write_csv", "rfloc.cli:write_csv"),
         counts=lambda a, k, r: {"rows": len(_arg(a, k, 0, "dataset"))}, count_keys=("rows",)),
    Hook(("artifact.save_model",), ("rfloc.cli:save_model",),
         counts=_file_bytes(1), count_keys=("bytes",)),
    Hook(("artifact.load_model",), ("rfloc.cli:load_model", "rfloc.artifact:load_model"),
         counts=_file_bytes(0), count_keys=("bytes",)),
    Hook(("evalmetrics.compute_metrics",),
         ("rfloc.cli:compute_metrics", "rfloc.evalmetrics:compute_metrics")),
    Hook(("evalmetrics.cross_validate",), ("rfloc.cli:cross_validate",)),
    Hook(("cli.main",), ("rfloc.cli:main",)),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Hooks:
    """Installs every hook of HOOKS around one tracer, and removes them."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self._originals: list[tuple[object, str, object]] = []
        missing = []
        self._targets = []
        for hook in hooks:
            for target in hook.targets:
                try:
                    owner, attr = _resolve(target)
                    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    missing.append(target)
                    continue
                if not callable(fn):
                    missing.append(target)
                    continue
                self._targets.append((hook, owner, attr, fn))
        if missing:
            raise HookError("hook targets missing: " + ", ".join(missing))

    def install(self) -> None:
        for hook, owner, attr, fn in self._targets:
            setattr(owner, attr, self._wrap(hook, fn))
            self._originals.append((owner, attr, fn))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, hook: Hook, fn):
        tracer = self.tracer
        names, pick, counts_of = hook.names, hook.pick, hook.counts

        def wrapper(*args, **kwargs):
            sid = tracer.begin(names[0] if pick is None else names[pick(args, kwargs)])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if counts_of is not None:
                tracer.spans[sid][5] = counts_of(args, kwargs, result)
            return result

        return wrapper


UNITS = {"calls": "count", "self_s": "s", "rows": "rows", "mflop": "MFLOP",
         "bytes": "bytes", "uncertain_rows": "rows", "uncertain_share": "ratio",
         "epochs_run": "count", "overhead_s": "s"}


def _metric(span: str, key: str) -> str:
    return key if "." in key else f"{span}.{key}"


def layer_metric_names(hooks=HOOKS) -> list[str]:
    """Every per-layer metric the hooks yield, in hook order."""
    names = []
    for hook in hooks:
        for span in hook.names:
            keys = ["calls", "self_s", *hook.count_keys, *(key for key, *_ in hook.shares)]
            names += [_metric(span, key) for key in keys]
    return list(dict.fromkeys(names))


def layer_metrics(spans, hooks=HOOKS) -> dict[str, float]:
    """Sum calls, self time and work counts per span name.

    Raises HookError when a hooked span never fired, since a layer that
    was refactored away would otherwise read as zero.
    """
    hooked = {span for hook in hooks for span in hook.names}
    totals = defaultdict(float)
    for (name, *_rest, counts), self_s in zip(spans, self_times(spans)):
        if name not in hooked:
            continue
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
        for key, value in (counts or {}).items():
            totals[_metric(name, key)] += value
    silent = sorted(span for span in hooked if not totals[f"{span}.calls"])
    if silent:
        raise HookError("hooks never fired: " + ", ".join(silent))
    for hook in hooks:
        for span in hook.names:
            for key, numerator, denominator in hook.shares:
                totals[_metric(span, key)] = (
                    totals[_metric(span, numerator)] / totals[_metric(span, denominator)]
                )
    return {name: totals[name] for name in layer_metric_names(hooks)}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
