"""Data model, CSV ingestion, synthetic data, and split/resample plans.

Every file gkrr writes or reads is one table format, kept here: comma-joined
fields, floats at 17 significant digits (float64 round-trips exactly), ints and
strings as written, ``\n`` after each line, UTF-8; readers skip blank lines.

All randomness goes through ``numpy.random.default_rng`` (PCG64), so any
fixture is reproducible across platforms from its integer seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class CsvFormatError(ValueError):
    """Raised when a table file cannot be read or parsed into valid values."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _field(v) -> str:
    return _fmt(v) if isinstance(v, (float, np.floating)) else str(v)


def format_table(rows, header=None) -> str:
    """One comma-joined line per row, each ending in ``\n``; floats (numpy
    floats included) at 17 significant digits, other values through ``str``."""
    rows = rows if header is None else [header, *rows]
    return "".join([",".join(map(_field, row)) + "\n" for row in rows])


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with no newline translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_table(path) -> list[list[str]]:
    """The non-blank comma-separated records of the UTF-8 file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return [record for record in csv.reader(fh) if record]
    except (csv.Error, UnicodeDecodeError) as exc:  # e.g. an oversized field, not UTF-8
        raise CsvFormatError(f"{path}: {exc}") from None


def as_features(X) -> np.ndarray:
    """``X`` as a float64 array; ValueError unless it is 2-D (n x p)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got ndim={X.ndim}")
    return X


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)  # never alias (or re-flag) caller-owned memory
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """An (n x p) feature matrix with a length-n response vector.

    Both arrays are copied, cast to float64 and made read-only, so instances
    are safe to share across threads.
    """

    features: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        X = as_features(self.features)
        y = np.asarray(self.response, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"response must be 1-D, got ndim={y.ndim}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"need at least one row and one column, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"features have {X.shape[0]} rows but response has {y.shape[0]} entries"
            )
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "features", _freeze(X))
        object.__setattr__(self, "response", _freeze(y))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.response[idx])


class SplitPlan(NamedTuple):
    """Disjoint sorted train/test index arrays over ``range(n)`` (``make_kfold``'s)."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def read_rows(path, has_header: bool = False) -> np.ndarray:
    """Parse a numeric CSV at ``path`` into a (rows x fields) float array.

    Parse failures name the offending data row (1-based, header excluded)
    and column. Ragged rows, non-finite values and files without data rows
    are rejected. With ``has_header`` the first non-blank record is skipped.
    """
    records = read_table(path)[1 if has_header else 0 :]
    if not records:
        raise CsvFormatError(f"{path}: no data rows")
    n_fields = len(records[0])
    rows = np.empty((len(records), n_fields))
    for row_no, record in enumerate(records, start=1):
        if len(record) != n_fields:
            raise CsvFormatError(
                f"{path}: row {row_no} has {len(record)} fields, expected {n_fields}"
            )
        for col_no, token in enumerate(record, start=1):
            try:
                v = float(token)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {row_no}, column {col_no}: "
                    f"cannot parse {token!r} as a number"
                ) from None
            if not math.isfinite(v):
                raise CsvFormatError(
                    f"{path}: row {row_no}, column {col_no}: non-finite value {token!r}"
                )
            rows[row_no - 1, col_no - 1] = v
    return rows


def load_csv(path, has_header: bool = False) -> Dataset:
    """Read a dataset from ``path``; the last column is the response.

    Rows are parsed by ``read_rows``; a file needs at least two fields per
    row (one feature plus the response).
    """
    arr = read_rows(path, has_header)
    if arr.shape[1] < 2:
        raise CsvFormatError(
            f"{path}: row 1 has {arr.shape[1]} field(s); "
            "need at least one feature column plus the response"
        )
    return Dataset(arr[:, :-1], arr[:, -1])


def write_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path``, without a header, at 17 significant digits per value."""
    rows = np.column_stack([dataset.features, dataset.response]).tolist()
    write_text(path, format_table(rows))


def generate_synthetic(n: int, noise_sd: float = 0.1, seed: int = 0) -> Dataset:
    """Draw x_i ~ U[-5, 5] and y_i = sin(2 pi x_i) + N(0, noise_sd^2).

    Deterministic for a fixed seed: x values are drawn first, then the noise,
    each from the same PCG64 stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5.0, 5.0, size=n)
    eps = rng.normal(0.0, noise_sd, size=n) if noise_sd > 0 else np.zeros(n)
    y = np.sin(2.0 * np.pi * x) + eps
    return Dataset(x.reshape(n, 1), y)


def make_kfold(n: int, k: int, seed: int = 0) -> list[SplitPlan]:
    """Partition ``range(n)`` into k folds whose sizes differ by at most 1.

    Every index lands in exactly one test set; indices within each plan are
    sorted ascending so downstream slicing is order-stable.
    """
    if not 2 <= k <= n:
        raise ValueError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    # array_split makes the first n % k folds one index longer
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    return [SplitPlan(np.delete(np.arange(n), f), np.sort(f)) for f in folds]
