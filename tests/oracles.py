"""Test oracle: exact conditional means of the gradient estimators."""

import copy
import itertools
import math

import numpy as np

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
