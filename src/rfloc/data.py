"""Dataset container, CSV ingestion, normalization, splits and folds.

A sample is an 8-value received-power fingerprint (4 receivers x 2
polarizations, dBm) with an optional 2-D position label in meters.
Canonical CSV columns are r1x, r1y, r2x, r2y, r3x, r3y, r4x, r4y and,
when labeled, x and y.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CsvParseError, DataError, SchemaError
from .nn import Rng

log = logging.getLogger(__name__)

FEATURE_COLUMNS = ("r1x", "r1y", "r2x", "r2y", "r3x", "r3y", "r4x", "r4y")
LABEL_COLUMNS = ("x", "y")
NUM_FEATURES = len(FEATURE_COLUMNS)
STD_FLOOR = 1e-8
# Rows per write_csv chunk: about 200 KiB of text for labeled rows.
WRITE_CHUNK_ROWS = 1024


@dataclass
class Dataset:
    """Immutable-by-convention bundle of fingerprints and optional labels."""

    name: str
    features: np.ndarray  # (n, 8) float64
    labels: np.ndarray | None = None  # (n, 2) float64 or None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] != NUM_FEATURES:
            raise DataError(
                f"dataset {self.name!r}: features must be (n, {NUM_FEATURES}), "
                f"got {self.features.shape}"
            )
        if len(self.features) == 0:
            raise DataError(f"dataset {self.name!r} is empty")
        if not np.all(np.isfinite(self.features)):
            raise DataError(f"dataset {self.name!r} contains non-finite features")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.float64)
            if self.labels.shape != (len(self.features), 2):
                raise DataError(
                    f"dataset {self.name!r}: labels must be (n, 2), got {self.labels.shape}"
                )
            if not np.all(np.isfinite(self.labels)):
                raise DataError(f"dataset {self.name!r} contains non-finite labels")

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    def __len__(self) -> int:
        return len(self.features)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.name, self.features[idx], self.labels[idx] if self.labeled else None)

    def without_labels(self) -> "Dataset":
        return Dataset(self.name, self.features, None)


# ---------------------------------------------------------------- CSV I/O

def _resolve_columns(header: list[str]):
    """Indices of the feature columns in the file header, and of the label
    columns, or None unless both are present."""
    positions = {h: i for i, h in enumerate(header)}
    missing = [col for col in FEATURE_COLUMNS if col not in positions]
    if missing:
        raise SchemaError(f"missing required column {missing[0]!r}")
    label_idx = [positions[col] for col in LABEL_COLUMNS if col in positions]
    labeled = len(label_idx) == len(LABEL_COLUMNS)
    return [positions[col] for col in FEATURE_COLUMNS], label_idx if labeled else None


def _csv_rows(lines, path):
    """(line number, fields) of each CSV record; a record the csv module
    cannot split (say, a quoted field that runs past the field size limit)
    raises CsvParseError."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise CsvParseError(f"{path}: line {reader.line_num}: {e}") from None


def load_csv(path) -> Dataset:
    """Load a fingerprint CSV (UTF-8 text; a leading byte-order mark, as
    spreadsheet exports write it, is skipped) as a Dataset named by path.

    Rows with any non-finite value are dropped with a logged count;
    non-numeric cells raise CsvParseError with their line number, and so
    do a row whose field count differs from the header's and a record the
    csv module cannot split. A header that names a column twice raises
    SchemaError; a file that cannot be read or is not UTF-8 raises
    DataError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
    header = None
    feats, labels = [], []
    dropped = 0
    for line_num, row in _csv_rows(lines, path):
        if not row or (row[0].startswith("#")):
            continue
        if header is None:
            header = [h.strip() for h in row]
            repeated = sorted({h for h in header if header.count(h) > 1})
            if repeated:
                names = ", ".join(map(repr, repeated))
                raise SchemaError(f"{path}: header repeats column(s) {names}")
            feat_idx, label_idx = _resolve_columns(header)
            continue
        if len(row) != len(header):
            raise CsvParseError(
                f"{path}: line {line_num}: {len(row)} fields, header has {len(header)}"
            )
        values = []
        for i in feat_idx + (label_idx or []):
            cell = row[i].strip()
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvParseError(
                    f"{path}: line {line_num}, column {header[i]!r}: "
                    f"not a number: {cell!r}"
                ) from None
        if not all(map(math.isfinite, values)):
            dropped += 1
            continue
        feats.append(values[:NUM_FEATURES])
        if label_idx:
            labels.append(values[NUM_FEATURES:])
    if header is None:
        raise DataError(f"{path}: no header row")
    if dropped:
        log.warning("%s: dropped %d rows with non-finite values", path, dropped)
    if not feats:
        raise DataError(f"{path}: no usable data rows")
    return Dataset(
        str(path),
        np.array(feats, dtype=np.float64),
        np.array(labels, dtype=np.float64) if label_idx else None,
    )


def write_csv(dataset: Dataset, path, run_id: str | None = None) -> None:
    """Write a dataset using shortest round-trip float representations.

    The format is what csv.writer writes for these rows: the header, then
    one line per row of comma-joined float reprs, each ended by CR LF,
    with no quoting (a finite float's repr holds no comma or quote). Rows
    are converted and written WRITE_CHUNK_ROWS at a time, so no temporary
    spans the whole dataset.
    """
    with open(path, "w", newline="") as fh:
        if run_id:
            fh.write(f"# run: {run_id}\n")
        header = FEATURE_COLUMNS + (LABEL_COLUMNS if dataset.labeled else ())
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(dataset), WRITE_CHUNK_ROWS):
            stop = start + WRITE_CHUNK_ROWS
            rows = dataset.features[start:stop].tolist()
            if dataset.labeled:
                rows = map(list.__add__, rows, dataset.labels[start:stop].tolist())
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


# ---------------------------------------------------------------- normalization

@dataclass
class NormStats:
    """Per-feature z-score statistics fitted on source training data."""

    mean: np.ndarray  # (8,)
    std: np.ndarray  # (8,), floored at STD_FLOOR

    def __post_init__(self):
        self.mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        self.std = np.ascontiguousarray(self.std, dtype=np.float64)
        if self.mean.shape != (NUM_FEATURES,) or self.std.shape != (NUM_FEATURES,):
            raise ConfigError("normalization stats must have one entry per feature")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ConfigError("normalization stats must be finite")
        if np.any(self.std <= 0.0):
            raise ConfigError("normalization std must be positive")


def fit_normalizer(dataset: Dataset) -> NormStats:
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    if np.any(std < STD_FLOOR):
        log.warning(
            "%s: constant feature column(s) %s; std floored at %g",
            dataset.name,
            np.flatnonzero(std < STD_FLOOR).tolist(),
            STD_FLOOR,
        )
        std = np.maximum(std, STD_FLOOR)
    return NormStats(mean, std)


def normalize_features(features: np.ndarray, stats: NormStats) -> np.ndarray:
    return (features - stats.mean) / stats.std


# ---------------------------------------------------------------- folds

@dataclass
class FoldAssignment:
    """Round-robin assignment of shuffled samples to folds."""

    fold_of_sample: np.ndarray  # (n,) int
    n_folds: int

    def val_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_sample == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_sample != fold)


def make_folds(dataset: Dataset, n_folds: int = 5, seed: int = 0) -> FoldAssignment:
    n = len(dataset)
    if n_folds < 2:
        raise ConfigError(f"need at least 2 folds, got {n_folds}")
    if n < n_folds:
        raise DataError(f"cannot split {n} samples into {n_folds} folds")
    perm = Rng(seed).stream("folds").permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % n_folds
    return FoldAssignment(fold_of, n_folds)
