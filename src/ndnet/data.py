"""Dataset handling: CSV I/O, stratified splits, synthetic spectra, noise.

The on-disk dataset format is a plain UTF-8 CSV whose header names the
bands followed by a final ``label`` column; labels are 0/1 and
reflectances are nonnegative decimal floats. Synthetic generation and
splitting are deterministic functions of their seeds.
"""

from __future__ import annotations

import csv
import itertools
import json
import numbers
import sys
from dataclasses import asdict, dataclass, fields
from importlib import resources as importlib_resources

import numpy as np

__all__ = [
    "Dataset",
    "SplitSpec",
    "SynthSpec",
    "DataFormatError",
    "load_csv",
    "save_csv",
    "stratified_split",
    "synth_generate",
    "inject_noise",
    "load_synth_spec",
    "default_synth_spec",
]


class DataFormatError(ValueError):
    """A dataset file violated the expected format; message carries row/column."""


@dataclass
class Dataset:
    """Band vectors with binary labels.

    ``X`` is (n_samples, n_bands) float64, ``y`` is (n_samples,) int64 in
    {0, 1}. Values loaded from disk or generated synthetically are
    nonnegative; ``inject_noise`` is the one producer that may emit small
    negatives, which evaluation routes through the signed-tolerant
    forward.
    """

    band_names: list
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if self.X.ndim != 2 or self.X.shape[1] != len(self.band_names):
            raise ValueError(
                f"X shape {self.X.shape} inconsistent with "
                f"{len(self.band_names)} band names"
            )
        if y.shape != (self.X.shape[0],):
            raise ValueError("labels must be one per row")
        if not np.isfinite(self.X).all():
            raise ValueError("band values must be finite")
        # checked before the cast, which would truncate 0.5 or 1.7
        if y.dtype.kind not in "buif" or not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        self.y = y.astype(np.int64, copy=False)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_bands(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at integer ``indices``, in order; a mask is rejected."""
        idx = np.asarray(indices)
        if idx.dtype.kind == "b" or (idx.dtype.kind not in "iu" and idx.size):
            raise ValueError(f"subset takes integer row indices, got an array "
                             f"of dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        # indexing by an integer array already copies
        return Dataset(list(self.band_names), self.X[idx], self.y[idx])

    def copy(self) -> "Dataset":
        return Dataset(list(self.band_names), self.X.copy(), self.y.copy())


@dataclass
class SplitSpec:
    """The fold layout for CV: each class is shuffled by ``seed`` and dealt
    into ``n_folds`` folds."""

    n_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.n_folds) and self.n_folds >= 2):
            raise ValueError(f"n_folds must be an integer >= 2 (need at least "
                             f"2 folds), got {self.n_folds!r}")
        _check_seed(self.seed)


@dataclass
class SynthSpec:
    """Recipe for a synthetic two-class spectral dataset.

    Each sample is gain * (class_mean + sigma * z) with z standard normal
    per band and the gain drawn uniformly from [gain_low, gain_high] per
    sample: a multiplicative illumination nuisance that a common-scaling
    invariant feature cancels but raw reflectances do not.
    """

    n_samples: int
    band_names: list
    class0_mean: list
    class1_mean: list
    noise_sigma: float
    gain_low: float
    gain_high: float
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.n_samples) and self.n_samples >= 2):
            raise ValueError(f"n_samples must be an integer >= 2, got "
                             f"{self.n_samples!r}")
        if not (isinstance(self.band_names, list)
                and all(isinstance(name, str) for name in self.band_names)):
            raise ValueError("band_names must be a list of strings")
        for mean in (self.class0_mean, self.class1_mean):
            if not (isinstance(mean, list) and len(mean) == self.n_bands):
                raise ValueError("class means must be lists matching the band "
                                 "count")
            if not all(_is_real(v) and v > 0 for v in mean):
                raise ValueError("class mean spectra must be strictly positive "
                                 "finite reals")
        if not (_is_real(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be a nonnegative finite real")
        if not (_is_real(self.gain_low) and _is_real(self.gain_high)
                and 0 < self.gain_low <= self.gain_high):
            raise ValueError("gain range must be finite reals with "
                             "0 < low <= high")
        _check_seed(self.seed)

    @property
    def n_bands(self) -> int:
        return len(self.band_names)

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthSpec":
        if not isinstance(doc, dict):
            raise DataFormatError("synthetic spec must be a JSON object")
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in doc]
        if missing:
            raise DataFormatError(f"synthetic spec missing fields: {missing}")
        return cls(**{k: doc[k] for k in names})

    def to_dict(self) -> dict:
        return asdict(self)


def _is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed):
    """The one seed rule: an int (not a bool) of at least 0."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _is_real(value) -> bool:
    """A real that float64 holds finitely (a huge int does not); not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# ---------------------------------------------------------------------------
# CSV I/O

LABEL_COLUMN = "label"


# Data rows that ``load_csv`` converts and ``save_csv`` writes at a time.
# Only one block's cells exist as Python objects at once, so reading or
# writing a large scene never holds every cell of it that way.
_CSV_BLOCK_ROWS = 512


def load_csv(path) -> Dataset:
    """Read a dataset CSV; header is band names then ``label``.

    Violations raise DataFormatError naming the offending 1-based row
    (header is row 1) and column. Rows are read in blocks of
    ``_CSV_BLOCK_ROWS``; each block's cells are converted by ``float`` in
    one pass and checked array-wide, and only a block that fails a check is
    walked cell by cell, to name its first bad cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, missing header") from None
        if len(header) < 2 or header[-1] != LABEL_COLUMN:
            raise DataFormatError(
                f"{path}: header must name at least one band followed by "
                f"'{LABEL_COLUMN}', got {header!r}"
            )
        blocks, labels = [], []
        while True:
            first_row, rows = 2 + len(labels), []
            try:
                rows.extend(itertools.islice(reader, _CSV_BLOCK_ROWS))
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                # a bad cell in an earlier row comes first
                _raise_first_bad_cell(path, header, rows, first_row)
                raise DataFormatError(
                    f"{path}: row {first_row + len(rows)}: {exc}") from None
            if not rows:
                break
            blocks.append(_block_values(path, header, rows, first_row))
            labels += [row[-1] == "1" for row in rows]
    if not labels:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(header[:-1], np.concatenate(blocks), labels)


def _block_values(path, header, rows, first_row):
    """The (rows, bands) values of consecutive data rows, the first of them
    row ``first_row`` of the file; raises for the first bad cell."""
    X = None
    if all(len(row) == len(header) for row in rows):
        cells = [cell for row in rows for cell in row[:-1]]
        try:
            X = np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError:
            pass
    if (X is None or not np.isfinite(X).all() or (X < 0).any()
            or not all(row[-1] in ("0", "1") for row in rows)):
        _raise_first_bad_cell(path, header, rows, first_row)
    return X.reshape(len(rows), len(header) - 1)


def _raise_first_bad_cell(path, header, rows, first_row):
    """Raise DataFormatError for the first of ``rows`` (file rows
    ``first_row`` on) that has the wrong cell count, a non-numeric,
    non-finite or negative band value, or a label other than 0 or 1;
    return if there is none."""
    for row_num, row in enumerate(rows, start=first_row):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_num} has {len(row)} cells, expected "
                f"{len(header)}"
            )
        for col, cell in zip(header[:-1], row[:-1]):
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {row_num}, column {col!r}: "
                    f"non-numeric cell {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise DataFormatError(
                    f"{path}: row {row_num}, column {col!r}: "
                    f"non-finite value {cell!r}"
                )
            if value < 0:
                raise DataFormatError(
                    f"{path}: row {row_num}, column {col!r}: "
                    f"negative reflectance {cell!r}"
                )
        if row[-1] not in ("0", "1"):
            raise DataFormatError(
                f"{path}: row {row_num}, column '{LABEL_COLUMN}': "
                f"label must be 0 or 1, got {row[-1]!r}"
            )


def save_csv(dataset: Dataset, path):
    """Write a dataset CSV that ``load_csv`` reads back value-exactly.

    The header goes through ``csv.writer``, which quotes band names that
    need it. Data rows are written ``_CSV_BLOCK_ROWS`` at a time, each block
    turned into Python floats and ints by one ``tolist``: a row is the
    ``repr`` of its values and its label, joined by commas and ended by
    ``\\r\\n``, which are the bytes ``csv.writer`` gives for the row.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(dataset.band_names) + [LABEL_COLUMN])
        for start in range(0, dataset.n_samples, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            fh.writelines(",".join(map(repr, [*row, label])) + "\r\n"
                          for row, label in zip(dataset.X[block].tolist(),
                                                dataset.y[block].tolist()))


# ---------------------------------------------------------------------------
# stratified cross-validation splits


# Share of the non-test rows of a class that train on (70% train and 20%
# validation of the whole).
_TRAIN_SHARE = 0.70 / (0.70 + 0.20)


def _fold_rows(labels, spec: SplitSpec, fold: int):
    """Sorted row indices of the (train, validation, test) parts of a fold.

    Each class is shuffled once by the spec seed (class 0 first) and dealt
    round-robin into folds: its dealt rows ``fold::n_folds`` are the test
    rows. The rest of the class keeps its dealt order and splits
    train/validation 70:20 (``_TRAIN_SHARE``).
    """
    if not (0 <= fold < spec.n_folds):
        raise ValueError(f"fold {fold} out of range for {spec.n_folds} folds")
    rng = np.random.default_rng(spec.seed)
    train, val, test = [], [], []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < spec.n_folds:
            raise ValueError(
                f"class {cls} has {len(members)} samples, fewer than "
                f"{spec.n_folds} folds"
            )
        dealt = members[rng.permutation(len(members))]
        test.append(dealt[fold::spec.n_folds])
        rest = np.delete(dealt, np.s_[fold::spec.n_folds])
        n_train = int(round(len(rest) * _TRAIN_SHARE))
        train.append(rest[:n_train])
        val.append(rest[n_train:])
    return tuple(np.sort(np.concatenate(part)) for part in (train, val, test))


def stratified_split(dataset: Dataset, spec: SplitSpec, fold: int):
    """Deterministic stratified (train, validation, test) split for a fold.

    The rows of each part are those of ``_fold_rows``, in dataset order.
    Splits are disjoint and cover the dataset, with class proportions
    within one sample of the global ones.
    """
    return tuple(dataset.subset(rows)
                 for rows in _fold_rows(dataset.y, spec, fold))


# ---------------------------------------------------------------------------
# synthetic data


def synth_generate(spec: SynthSpec) -> Dataset:
    """Generate a balanced synthetic dataset from the spec, deterministically.

    Draw order per sample: per-band standard normals, then the gain.
    Values are clamped to at least 1e-4 so reflectances stay strictly
    positive even for wide noise settings.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    n1 = n // 2
    labels = np.concatenate([np.zeros(n - n1, dtype=np.int64),
                             np.ones(n1, dtype=np.int64)])
    means = np.array([spec.class0_mean, spec.class1_mean], dtype=np.float64)
    z = rng.standard_normal((n, spec.n_bands))
    gains = rng.uniform(spec.gain_low, spec.gain_high, size=n)
    X = gains[:, None] * (means[labels] + spec.noise_sigma * z)
    X = np.maximum(X, 1e-4)
    order = rng.permutation(n)
    return Dataset(list(spec.band_names), X[order], labels[order])


def load_synth_spec(path) -> SynthSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return SynthSpec.from_dict(doc)


def default_synth_spec() -> SynthSpec:
    """The packaged 2000-sample, 10-band recipe used by the demos and tests."""
    ref = importlib_resources.files("ndnet").joinpath("resources/synth_default.json")
    with ref.open("r", encoding="utf-8") as fh:
        return SynthSpec.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# noise injection


def inject_noise(dataset: Dataset, eta: float, seed: int) -> Dataset:
    """Multiplicative noise: each value becomes b + eta*|b|*z, z ~ N(0, 1).

    ``eta`` is the noise level as a fraction of signal magnitude, allowed
    in [0, 0.5]. Labels are untouched and values are NOT clamped: rare
    small negatives are legitimate outputs and evaluation handles them
    through the signed-tolerant forward. eta = 0 returns the dataset
    unchanged bit-for-bit.
    """
    if not (0 <= eta <= 0.5):
        raise ValueError(f"eta must lie in [0, 0.5], got {eta}")
    if eta == 0:
        return dataset.copy()
    rng = np.random.default_rng(seed)
    # (eta*|b|)*z + b, built in place: the draw is the only other
    # scene-sized array.
    noisy = np.abs(dataset.X)
    noisy *= eta
    noisy *= rng.standard_normal(dataset.X.shape)
    noisy += dataset.X
    return Dataset(list(dataset.band_names), noisy, dataset.y.copy())
