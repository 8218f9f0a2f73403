"""CSV ingestion, label mapping, cleaning, scaling, outlier bounding, splitting.

The fitted Scaler and OutlierBounds are immutable and fitted on training
rows only; applying them to held-out rows may legitimately produce values
outside [0, 1] / outside the winsorizing bounds' source range.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .errors import (
    DegenerateSplit,
    DimensionMismatch,
    EmptyInput,
    MalformedRow,
    MissingColumn,
    UnknownLabel,
)

# benign maps to 0; every attack class maps to 1 (binary detection task).
DEFAULT_LABEL_MAP = {
    "benign": 0,
    "phishing": 1,
    "defacement": 1,
    "malware": 1,
}

# A confidence at or above this cut is labelled malicious (1).
SCORING_CUT = 0.5


@dataclass(frozen=True)
class RawRecord:
    url: str
    label_text: str


@dataclass
class Dataset:
    features: np.ndarray  # n x d float64
    labels: np.ndarray  # n ints in {0, 1}
    urls: list[str]

    def __post_init__(self):
        n = self.features.shape[0]
        if len(self.labels) != n or len(self.urls) != n:
            raise DimensionMismatch("features, labels and urls must have equal row counts")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Scaler:
    col_min: np.ndarray
    col_max: np.ndarray


@dataclass(frozen=True)
class OutlierBounds:
    lower: np.ndarray[Any, np.dtype[np.float64]]
    upper: np.ndarray[Any, np.dtype[np.float64]]


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = 0.2
    seed: int = 42


@dataclass
class CleanReport:
    dropped_empty: int = 0
    dropped_duplicates: int = 0


def read_columns(path: str, names: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, [named fields]) for each data row of a CSV (RFC-4180 quoting).

    Header names match case-insensitively, with a byte-order mark stripped;
    blank lines are skipped. Raises FileNotFoundError, MissingColumn, or
    MalformedRow(line_no) for a data row whose field count differs from the
    header's or a row the csv module cannot read (a field over its size
    limit, say); the file is read as the rows are taken.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lstrip("\ufeff").lower() for h in next(reader, [])]
            for required in names:
                if required not in header:
                    raise MissingColumn(required)
            columns = [header.index(name) for name in names]
            for row in reader:
                if not row:  # blank line
                    continue
                if len(row) != len(header):
                    raise MalformedRow(reader.line_num)
                yield reader.line_num, [row[i] for i in columns]
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from exc


def write_text(path: str, text: str) -> str:
    """Write text to path as UTF-8 with \\n line ends; return path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def load_csv(path: str) -> list[RawRecord]:
    """Read a url/type CSV into RawRecords, in file order, by read_columns' rules."""
    return [RawRecord(url, label) for _, (url, label) in read_columns(path, ("url", "type"))]


def clean(records: list[RawRecord]) -> tuple[list[RawRecord], CleanReport]:
    """Drop rows with empty url/label and exact duplicate (url, label) pairs.

    Keeps the first occurrence of a duplicate. Cleaning is total: it never
    raises, and reports how many rows were dropped for each reason.
    """
    report = CleanReport()
    seen: set[tuple[str, str]] = set()
    kept = []
    for rec in records:
        if not rec.url.strip() or not rec.label_text.strip():
            report.dropped_empty += 1
            continue
        key = (rec.url, rec.label_text)
        if key in seen:
            report.dropped_duplicates += 1
            continue
        seen.add(key)
        kept.append(rec)
    return kept, report


def map_labels(records: list[RawRecord]) -> tuple[list[str], np.ndarray]:
    """Map label text to binary {0, 1} labels by DEFAULT_LABEL_MAP; lookup is case-insensitive."""
    urls = []
    labels = []
    for rec in records:
        key = rec.label_text.strip().lower()
        if key not in DEFAULT_LABEL_MAP:
            raise UnknownLabel(rec.label_text)
        urls.append(rec.url)
        labels.append(DEFAULT_LABEL_MAP[key])
    return urls, np.asarray(labels, dtype=np.int64)


def fit_scaler(train_features: np.ndarray) -> Scaler:
    if train_features.shape[0] == 0:
        raise EmptyInput("cannot fit a scaler on an empty matrix")
    return Scaler(
        col_min=train_features.min(axis=0).astype(np.float64),
        col_max=train_features.max(axis=0).astype(np.float64),
    )


def apply_scaler(scaler: Scaler, features: np.ndarray) -> np.ndarray:
    """Min-max scale each column; constant training columns map to 0.

    Values outside the training range pass through unclamped (may leave
    [0, 1]).
    """
    span = scaler.col_max - scaler.col_min
    out = np.zeros_like(features, dtype=np.float64)
    nonconst = span != 0
    out[:, nonconst] = (features[:, nonconst] - scaler.col_min[nonconst]) / span[nonconst]
    return out


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of X, and each row's group.

    Rows are compared by their bytes, so -0.0 and 0.0 stay apart.
    """
    X = np.ascontiguousarray(X)
    rows = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    return first, group


def one_row(x: np.ndarray) -> np.ndarray:
    """x as a one-row float matrix, the input of a one-row view of a batch predictor.

    Raises DimensionMismatch unless x is one vector.
    """
    q = np.asarray(x, dtype=np.float64)
    if q.ndim != 1:
        raise DimensionMismatch(f"query must be one vector, got shape {q.shape}")
    return q[None, :]


def bound_outliers(train_features: np.ndarray) -> tuple[OutlierBounds, np.ndarray]:
    """Winsorize each column to its training 1st/99th percentiles (nearest-rank).

    Returns the per-column bounds and the clipped training matrix. Rows are
    never deleted, so class balance is untouched.
    """
    n = train_features.shape[0]
    if n == 0:
        raise EmptyInput("cannot bound outliers on an empty matrix")
    # nearest rank: the value at 1-based index ceil(pct/100 * n), at least 1
    ranks = [max(math.ceil(pct / 100.0 * n), 1) - 1 for pct in (1.0, 99.0)]
    lower, upper = np.sort(train_features, axis=0)[ranks].astype(np.float64)
    bounds = OutlierBounds(lower=lower, upper=upper)
    return bounds, apply_bounds(bounds, train_features)


def apply_bounds(bounds: OutlierBounds, features: np.ndarray) -> np.ndarray:
    return np.clip(features, bounds.lower, bounds.upper)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(ds: Dataset, cfg: SplitConfig) -> tuple[Dataset, Dataset]:
    """Split into train/test partitions, deterministic in cfg.seed.

    Draws round(class_count * test_fraction) test rows per class;
    partitions preserve the original row order.
    """
    n = ds.n_rows
    classes, counts = np.unique(ds.labels, return_counts=True)
    if len(classes) < 2:
        raise DegenerateSplit("stratified split requires both classes present")
    quotas = [_round_half_up(int(count) * cfg.test_fraction) for count in counts]
    test_mask = _draw(ds.labels, quotas, cfg.seed)
    if test_mask.all() or not test_mask.any():
        raise DegenerateSplit(
            f"test_fraction {cfg.test_fraction} leaves an empty partition for {n} rows"
        )
    return _take(ds, ~test_mask), _take(ds, test_mask)


def _take(ds: Dataset, mask: np.ndarray) -> Dataset:
    idx = np.flatnonzero(mask)
    return Dataset(
        features=ds.features[idx],
        labels=ds.labels[idx],
        urls=[ds.urls[i] for i in idx],
    )


def stratified_subsample(ds: Dataset, max_rows: int, seed: int) -> Dataset:
    """Cap a dataset at exactly max_rows, preserving class proportions.

    Quotas use the largest-remainder method (never exceeding max_rows in
    total, at least one row per class); row choice is deterministic in seed.
    """
    n = ds.n_rows
    if n <= max_rows:
        return ds
    counts = np.unique(ds.labels, return_counts=True)[1].tolist()
    classes = range(len(counts))  # positions in ascending label order
    quotas = [max(count * max_rows // n, 1) for count in counts]
    remainders = sorted(
        classes, key=lambda c: (counts[c] * max_rows) % n, reverse=True
    )
    deficit = max_rows - sum(quotas)
    # A positive deficit is the sum of the quotas' fractional parts less one for
    # each class raised to 1, so it is below the number of classes with a
    # fractional part, each of which has room: one pass fills it.
    for c in [c for c in remainders if quotas[c] < counts[c]][:max(deficit, 0)]:
        quotas[c] += 1
        deficit -= 1
    while deficit < 0:
        c = max(classes, key=lambda c: quotas[c])
        if quotas[c] <= 1:
            break
        quotas[c] -= 1
        deficit += 1

    return _take(ds, _draw(ds.labels, quotas, seed))


def _draw(labels: np.ndarray, quotas: list[int], seed: int) -> np.ndarray:
    """A mask of quotas[i] rows of the i-th smallest label, each class's rows
    permuted in turn by one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    for cls, quota in zip(np.unique(labels), quotas):
        cls_idx = np.flatnonzero(labels == cls)
        mask[cls_idx[rng.permutation(len(cls_idx))[:quota]]] = True
    return mask
