"""LIBSVM-format data handling for binary classification experiments.

The on-disk format is one example per line,

    <label> <index>:<value> <index>:<value> ...

with 1-based, strictly increasing feature indices and finite values;
an absent index is a zero. A Dataset holds the labels, normalized to
{-1, +1}, and a dense (rows, features) array. The three label
conventions found in common binary benchmark files are supported:
{-1, +1} kept as is, {0, 1} mapped order-preservingly to {-1, +1}, and
{1, 2} likewise.

Parsing fills the dense array directly, a split is a row take, and
standardize fits and applies its transform to the split's arrays.
"""

from __future__ import annotations

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
    """Binary-classification dataset: labels in {-1, +1}, dense features.

    features is a (rows, features) float array; row i goes with labels[i].
    """

    labels: np.ndarray
    features: np.ndarray

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.labels, other.labels) and np.array_equal(
            self.features, other.features
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
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(indptr, k, side="right")) - 1
        lineno = [n for n, text in enumerate(lines, start=1) if text.strip()][row]
        pos = k - indptr[row] + 2
        raise LibsvmFormatError(
            f"line {lineno}, token {pos}: non-finite value "
            f"{lines[lineno - 1].split()[pos - 1]!r}"
        )
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
    features = np.zeros((len(raw_labels), n_features))
    features[np.repeat(np.arange(len(raw_labels)), np.diff(indptr)), indices] = values
    return Dataset(labels=_map_labels(raw_labels, label_map), features=features)


def emit_libsvm(dataset):
    """Serialize a Dataset back to LIBSVM text.

    Each row's nonzeros are written with repr, so emit followed by parse
    (with the same n_features) reproduces the Dataset exactly.
    """
    lines = []
    for label, row in zip(dataset.labels, dataset.features):
        parts = [str(int(label))]
        parts.extend(f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


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
    return tuple(
        Dataset(dataset.labels[rows], dataset.features[rows])
        for rows in np.split(order, [n_train])
    )


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

    train and test are (rows, features) arrays, typically the features of
    the two sides of a split; the transform is fitted on train alone.
    Zero-variance features pass through untouched (shift 0, scale 1) so
    constant columns such as intercepts survive. Returns the transformed
    train array, the transformed test array (None if not given), and the
    fitted transform.
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
