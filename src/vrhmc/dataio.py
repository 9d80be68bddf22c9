"""LIBSVM-format data handling for binary classification experiments.

The on-disk format is one example per line,

    <label> <index>:<value> <index>:<value> ...

with 1-based, strictly increasing feature indices. Datasets are stored
sparse (CSR-style flat arrays) with labels normalized to {-1, +1}. The
three label conventions found in common binary benchmark files are
supported: {-1, +1} kept as is, {0, 1} mapped order-preservingly to
{-1, +1}, and {1, 2} likewise.

Parsing and splitting work on sparse Datasets. Everything downstream
works on dense arrays: a split is densified once with Dataset.to_dense(),
and standardize fits and applies its transform to those arrays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "parse_libsvm",
    "emit_libsvm",
    "train_test_split",
    "standardize",
    "StandardizeTransform",
]


@dataclass
class Dataset:
    """Sparse binary-classification dataset.

    Row i holds features indices[indptr[i]:indptr[i+1]] with the matching
    values; indices are 0-based and strictly increasing within a row.
    """

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    n_features: int

    @property
    def n_rows(self):
        return self.labels.shape[0]

    def row(self, i):
        """(indices, values) pair for one row."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def to_dense(self):
        dense = np.zeros((self.n_rows, self.n_features))
        for i in range(self.n_rows):
            idx, val = self.row(i)
            dense[i, idx] = val
        return dense

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.n_features == other.n_features
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input, with the offending line in the message."""


def _read_lines(source):
    if isinstance(source, (str, Path)):
        with open(source, "r") as handle:
            return handle.read().splitlines()
    if hasattr(source, "read"):
        return source.read().splitlines()
    return list(source)


def _map_labels(raw, label_map):
    raw = np.asarray(raw, dtype=float)
    if isinstance(label_map, dict):
        mapped = np.empty_like(raw)
        for k, value in enumerate(raw):
            if value not in label_map:
                raise LibsvmFormatError(
                    f"row {k}: label {value!r} not covered by the label map"
                )
            mapped[k] = label_map[value]
        if not np.all(np.isin(mapped, (-1.0, 1.0))):
            raise LibsvmFormatError("label map must produce values in {-1, +1}")
        return mapped
    if label_map != "auto":
        raise ValueError("label_map must be 'auto' or a dict")
    observed = set(np.unique(raw))
    # order-preserving policies: the smaller raw label becomes -1
    for accepted, mapping in (
        ({-1.0, 1.0}, None),
        ({0.0, 1.0}, {0.0: -1.0, 1.0: 1.0}),
        ({1.0, 2.0}, {1.0: -1.0, 2.0: 1.0}),
    ):
        if observed <= accepted:
            if mapping is None:
                return raw
            return np.array([mapping[v] for v in raw])
    raise LibsvmFormatError(
        f"labels {sorted(observed)} match none of the known conventions "
        "{-1,+1}, {0,1}, {1,2}"
    )


def parse_libsvm(source, label_map="auto", n_features=None):
    """Parse LIBSVM text into a Dataset.

    source may be a path, an open text handle, or an iterable of lines.
    label_map is either 'auto' (recognize the three standard binary label
    conventions) or an explicit {raw: +-1} dict. n_features overrides the
    inferred feature count (the maximum index seen); it must not be
    smaller than what the data requires.
    """
    lines = _read_lines(source)
    raw_labels = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    max_index = -1
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            raw_labels.append(float(tokens[0]))
        except ValueError:
            raise LibsvmFormatError(
                f"line {lineno}: unreadable label {tokens[0]!r}"
            ) from None
        prev_index = -1
        for pos, token in enumerate(tokens[1:], start=2):
            try:
                index_text, value_text = token.split(":", 1)
                index = int(index_text)
                value = float(value_text)
            except ValueError:
                raise LibsvmFormatError(
                    f"line {lineno}, token {pos}: malformed feature {token!r}"
                ) from None
            if index < 1:
                raise LibsvmFormatError(
                    f"line {lineno}, token {pos}: index {index} is not 1-based"
                )
            if index - 1 <= prev_index:
                raise LibsvmFormatError(
                    f"line {lineno}, token {pos}: index {index} does not increase"
                )
            prev_index = index - 1
            indices.append(prev_index)
            values.append(value)
        max_index = max(max_index, prev_index)
        indptr.append(len(indices))
    if not raw_labels:
        raise LibsvmFormatError("no data rows found")
    inferred = max_index + 1
    if n_features is None:
        n_features = inferred
    elif n_features < inferred:
        raise ValueError(
            f"n_features={n_features} is smaller than the observed maximum "
            f"index ({inferred})"
        )
    return Dataset(
        labels=_map_labels(raw_labels, label_map),
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=float),
        n_features=int(n_features),
    )


def emit_libsvm(dataset):
    """Serialize a Dataset back to LIBSVM text.

    Values are written with repr, so emit followed by parse reproduces the
    Dataset exactly (indices go back to 1-based on the way out).
    """
    lines = []
    for i in range(dataset.n_rows):
        idx, val = dataset.row(i)
        parts = [str(int(dataset.labels[i]))]
        parts.extend(f"{j + 1}:{float(v)!r}" for j, v in zip(idx, val))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _take_rows(dataset, order):
    indptr = [0]
    indices = []
    values = []
    for i in order:
        idx, val = dataset.row(i)
        indices.append(idx)
        values.append(val)
        indptr.append(indptr[-1] + idx.size)
    return Dataset(
        labels=dataset.labels[order].copy(),
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.concatenate(indices) if indices else np.empty(0, dtype=np.int64),
        values=np.concatenate(values) if values else np.empty(0),
        n_features=dataset.n_features,
    )


def train_test_split(dataset, train_fraction, seed):
    """Deterministic shuffled split into (train, test).

    Rows are permuted with a generator seeded by seed and the first
    round(train_fraction * n) rows become the training set. Both sides
    must end up non-empty.
    """
    n = dataset.n_rows
    n_train = int(round(train_fraction * n))
    if not 0 < n_train < n:
        raise ValueError(
            f"train_fraction={train_fraction} leaves an empty split for n={n}"
        )
    order = np.random.default_rng(seed).permutation(n)
    return _take_rows(dataset, order[:n_train]), _take_rows(dataset, order[n_train:])


@dataclass(frozen=True)
class StandardizeTransform:
    """Affine per-feature transform x -> (x - shift) / scale."""

    shift: np.ndarray
    scale: np.ndarray

    def apply(self, dense):
        return (dense - self.shift) / self.scale

    def invert(self, dense):
        return dense * self.scale + self.shift


def standardize(train, test=None):
    """Standardize dense feature arrays to zero mean, unit variance.

    train and test are (rows, features) arrays, typically from
    Dataset.to_dense(); the transform is fitted on train alone.
    Zero-variance features pass through untouched (shift 0, scale 1) so
    constant columns such as intercepts survive. Returns the transformed
    train array, the transformed test array (None if not given), and the
    fitted transform. The output is dense: shifting makes zeros
    informative.
    """
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    constant = std == 0.0
    shift = np.where(constant, 0.0, mean)
    scale = np.where(constant, 1.0, std)
    transform = StandardizeTransform(shift=shift, scale=scale)
    if test is not None and test.shape[1] != train.shape[1]:
        raise ValueError("train and test disagree on the number of features")
    test_out = None if test is None else transform.apply(test)
    return transform.apply(train), test_out, transform
