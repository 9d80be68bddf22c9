"""Test oracles: exact conditional means of the gradient estimators, the
closed-form component gradient and potential f_i of both targets, the
per-token LIBSVM parser that vrhmc.dataio.parse_libsvm must match, the
LIBSVM writer whose output it parses, and the per-row W2 tracker that
vrhmc.sampler.wasserstein_tracker must match."""

import copy
import itertools
import math
from pathlib import Path

import numpy as np

from vrhmc.dataio import Dataset, LibsvmFormatError
from vrhmc.metrics import GaussianSummary
from vrhmc.potentials import QuadraticPotential, sigmoid, softplus

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


# Closed-form components f_i of the two targets, from their public arrays.
# The targets compute only batches, full gradients and f; these are the
# per-component formulas the tests hold those against.


def gradient_component(model, i, x):
    """Gradient of the component f_i at x."""
    x = model._check_point(x)
    if isinstance(model, QuadraticPotential):
        return (2.0 / model.n_components) * (model.precision @ (x - model.data[i]))
    z = model.labels[i] * (model.features[i] @ x)
    coef = -model.labels[i] * sigmoid(-z)
    return (model.ridge / model.n_components) * x + coef * model.features[i]


def potential_component(model, i, x):
    """Value of the component f_i at x."""
    x = model._check_point(x)
    if isinstance(model, QuadraticPotential):
        r = model.data[i] - x
        return float(r @ model.precision @ r) / model.n_components
    z = model.labels[i] * (model.features[i] @ x)
    return float(0.5 * model.ridge / model.n_components * (x @ x) + softplus(-z))


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


def _map_labels(raw):
    raw = np.asarray(raw, dtype=float)
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


def parse_libsvm(source, n_features=None):
    """Parse LIBSVM text into a Dataset.

    source may be a path, an open text handle, or an iterable of lines.
    The labels must follow one of the three standard binary label
    conventions. n_features overrides the inferred feature count (the
    maximum index seen); it must not be smaller than what the data
    requires.
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
    return Dataset(labels=_map_labels(raw_labels), features=features)


def emit_libsvm(dataset):
    """Serialize a Dataset to LIBSVM text.

    Each row's nonzeros are written with repr, so emit followed by parse
    (with the same n_features) reproduces the Dataset exactly.
    """
    lines = []
    for label, row in zip(dataset.labels, dataset.features):
        parts = [str(int(label))]
        parts.extend(f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# Reference W2 tracker: one Gaussian fit and one Bures evaluation per
# recorded row, with two eigh square roots per pair.
# vrhmc.sampler.wasserstein_tracker must give the same bits, NaN rows
# included, and raise on the same inputs.


def _sqrtm_psd_reference(matrix):
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def bures_w2_reference(a, b):
    """W2 between two GaussianSummary objects, ordered by their byte keys."""
    if a.mean.size != b.mean.size:
        raise ValueError("summaries have mismatched dimensions")
    key_a = (a.mean.tobytes(), a.cov.tobytes())
    key_b = (b.mean.tobytes(), b.cov.tobytes())
    if key_b < key_a:
        a, b = b, a
    root_a = _sqrtm_psd_reference(a.cov)
    cross = _sqrtm_psd_reference(root_a @ b.cov @ root_a)
    shift = a.mean - b.mean
    w2_sq = float(shift @ shift + np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return float(np.sqrt(max(w2_sq, 0.0)))


def pooled_fits_reference(records):
    """Yield (row, GaussianSummary) for every row the tracker evaluates.

    The fit of row r pools every chain's post-burn-in positions up to and
    including r; rows before burn-in or with fewer than d + 1 pooled
    samples are skipped. Raises, after the last row, if even the full
    stream is too short to fit a covariance.
    """
    iterations = records[0].iterations
    for record in records[1:]:
        if not np.array_equal(record.iterations, iterations):
            raise ValueError("records disagree on the recorded iteration grid")
    burn_in = records[0].burn_in
    d = records[0].positions.shape[1]
    n_chains = len(records)
    n_rows = iterations.shape[0]
    tail = iterations >= burn_in

    stacked = np.stack([r.positions for r in records])  # (chains, rows, d)
    masked = np.where(tail[None, :, None], stacked, 0.0)
    cum_sum = np.cumsum(masked.sum(axis=0), axis=0)
    row_outer = np.einsum("cri,crj->rij", masked, masked)
    cum_outer = np.cumsum(row_outer, axis=0)
    counts = np.cumsum(tail) * n_chains

    for r in range(n_rows):
        n = counts[r]
        if not tail[r] or n < d + 1:
            continue
        mean = cum_sum[r] / n
        cov = (cum_outer[r] - n * np.outer(mean, mean)) / (n - 1)
        yield r, GaussianSummary(mean=mean, cov=0.5 * (cov + cov.T))
    if counts[-1] < d + 1:
        raise ValueError(
            f"only {int(counts[-1])} pooled post-burn-in samples, need at least {d + 1}"
        )


def wasserstein_tracker_reference(records, target_mean, target_cov):
    """W2 of the pooled fit at each recorded row to the target; NaN where
    pooled_fits_reference skips the row."""
    target = GaussianSummary(
        mean=np.asarray(target_mean, dtype=float),
        cov=np.asarray(target_cov, dtype=float),
    )
    w2 = np.full(records[0].iterations.shape[0], np.nan)
    for r, fit in pooled_fits_reference(records):
        w2[r] = bures_w2_reference(fit, target)
    return w2
