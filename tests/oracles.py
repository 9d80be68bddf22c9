"""Test oracles: exact conditional means of the gradient estimators, and
the per-token LIBSVM parser that vrhmc.dataio.parse_libsvm must match."""

import copy
import itertools
import math
from pathlib import Path

import numpy as np

from vrhmc.dataio import Dataset, LibsvmFormatError

# oracle enumeration refuses above this many batches
_MAX_ENUMERATION = 10_000


def conditional_mean_oracle(estimator, model, x_next):
    """Exact conditional mean of the next estimate at x_next.

    Enumerates every draw the next call can make (every batch, and every
    restart outcome for svrg and sarah) with its probability, evaluating
    each on a deep copy so the estimator state is left untouched. Refuses
    when the number of batches C(N, b) exceeds 10_000; this is a test
    oracle, not a runtime path.
    """
    n, b = model.n_components, estimator.batch_size
    n_batches = math.comb(n, b)
    if n_batches > _MAX_ENUMERATION:
        raise ValueError(
            f"enumeration over C({n}, {b}) = {n_batches} batches exceeds "
            f"{_MAX_ENUMERATION}"
        )
    x_next = model._check_point(x_next)
    batches = [np.array(c) for c in itertools.combinations(range(n), b)]
    outcomes = [(batch, 1.0 / n_batches) for batch in batches]
    if estimator.kind in ("svrg", "sarah"):
        p = 1.0 / estimator.epoch_length
        kept = [(batch, (1.0 - p) / n_batches) for batch in batches]
        if estimator.kind == "sarah":
            outcomes = [(None, p)] + kept
        else:
            outcomes = [((True, batch), p / n_batches) for batch in batches]
            outcomes += [((False, batch), weight) for batch, weight in kept]

    mean = np.zeros(model.dimension)
    for draw, probability in outcomes:
        if probability > 0.0:
            mean += probability * copy.deepcopy(estimator).estimate(x_next, draw)
    return mean


# Reference LIBSVM parser: one Python loop per line and per token.
# vrhmc.dataio.parse_libsvm must give the same Dataset bits, or raise the
# same exception with the same message, on every input of printable ASCII,
# tabs, CRs and LFs that holds no "_".


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
