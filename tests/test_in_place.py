"""The logistic path's in-place kernels against the plain expressions.

gradient_batch, softplus, the held-out NLL, q_metric and the standardize
transform build their results in place to avoid (N, d) and (S, N)
temporaries. Each must equal, byte for byte, the straightforward
expression it replaced (written out below), give its caller an array the
caller owns, and stay within its memory budget.
"""

import tracemalloc

import numpy as np
import pytest

from vrhmc import metrics
from vrhmc.dataio import standardize
from vrhmc.estimators import SargeEstimator, q_metric
from vrhmc.potentials import LogisticPotential, QuadraticPotential, sigmoid, softplus


def quadratic(n=40, d=6, seed=2):
    return QuadraticPotential.random(n_components=n, dimension=d, seed=seed)


def logistic(n=40, d=6, seed=3, ridge=0.7):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return LogisticPotential(features, labels, ridge=ridge)


def plain_gradient_batch(model, indices, x):
    if isinstance(model, QuadraticPotential):
        diffs = x[None, :] - model.data[indices]
        return (2.0 / model.n_components) * (diffs @ model.precision)
    rows = model.features[indices]
    y = model.labels[indices]
    coef = -y * sigmoid(-y * (rows @ x))
    return (model.ridge / model.n_components) * x[None, :] + coef[:, None] * rows


def plain_softplus(t):
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def plain_losses(features, labels, samples):
    return plain_softplus(-(labels[None, :] * (samples @ features.T)))


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def index_cases(n):
    rng = np.random.default_rng(11)
    return {
        "b=1": rng.integers(0, n, size=1),
        "b=3": rng.choice(n, size=3, replace=False),
        "b=N": np.arange(n),
        "repeated": np.array([4, 1, 4, 4, 0, 1]),
    }


@pytest.mark.parametrize("make", [quadratic, logistic], ids=["quadratic", "logistic"])
class TestGradientBatch:
    def test_matches_plain_expression_bitwise(self, make):
        model = make()
        rng = np.random.default_rng(5)
        for name, indices in index_cases(model.n_components).items():
            for scale in (0.1, 3.0, 40.0):
                x = scale * rng.standard_normal(model.dimension)
                got = model.gradient_batch(indices, x)
                assert same_bytes(got, plain_gradient_batch(model, indices, x)), name

    def test_caller_owns_the_returned_array(self, make):
        model = make()
        x = np.linspace(-1.0, 1.0, model.dimension)
        indices = np.arange(model.n_components)
        state = {k: v.copy() for k, v in vars(model).items() if isinstance(v, np.ndarray)}
        before = model.gradient_batch(indices, x).copy()
        returned = model.gradient_batch(indices, x)
        returned *= 7.0
        returned[:] = np.nan
        for key, value in state.items():
            assert same_bytes(getattr(model, key), value), key
        assert same_bytes(model.gradient_batch(indices, x), before)


def test_q_metric_matches_plain_expression_bitwise():
    for model in (quadratic(), logistic()):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((2, model.dimension))
        indices = np.arange(model.n_components)
        diff = plain_gradient_batch(model, indices, y) - plain_gradient_batch(model, indices, x)
        want = float(model.n_components * np.sum(diff * diff))
        assert same_bytes(q_metric(model, x, y), want)


class TestSoftplus:
    def test_matches_plain_expression_bitwise(self):
        t = np.concatenate(
            [np.linspace(-40.0, 40.0, 801), [-800.0, 800.0, 0.0, -0.0, 1e-300]]
        )
        assert same_bytes(softplus(t), plain_softplus(t))
        for scalar in (-0.3, 0.0, 2.5, 750.0):
            assert same_bytes(softplus(scalar), plain_softplus(scalar))

    def test_leaves_its_input_alone(self):
        t = np.linspace(-3.0, 3.0, 7)
        kept = t.copy()
        softplus(t)
        assert same_bytes(t, kept)

    def test_logistic_potential_full_matches_plain_expression(self):
        model = logistic()
        x = np.random.default_rng(4).standard_normal(model.dimension)
        margins = model.labels * (model.features @ x)
        want = float(0.5 * model.ridge * (x @ x) + plain_softplus(-margins).sum())
        assert same_bytes(model.potential_full(x), want)


class TestHeldOutNll:
    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((300, 12))
        labels = np.where(rng.random(300) < 0.5, -1.0, 1.0)
        samples = 2.0 * rng.standard_normal((200, 12))
        return features, labels, samples

    def test_matches_plain_expressions_bitwise(self, case):
        losses = plain_losses(*case)
        assert same_bytes(metrics.test_nll(*case), float(losses.mean()))
        assert same_bytes(metrics.test_nll_per_sample(*case), losses.mean(axis=1))

    @pytest.mark.parametrize("fn", [metrics.test_nll, metrics.test_nll_per_sample])
    def test_peak_is_two_loss_matrices(self, case, fn):
        features, labels, samples = case
        one = samples.shape[0] * features.shape[0] * 8
        tracemalloc.start()
        try:
            fn(features, labels, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # slack for the (S,) result and small bookkeeping objects
        assert peak <= 2.0 * one + 16_384


def test_sarge_initialization_peaks_near_one_table():
    model = logistic(n=4000, d=50)
    x0 = np.zeros(model.dimension)
    tracemalloc.start()
    try:
        estimator = SargeEstimator(model, x0, batch_size=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * estimator.table.nbytes
    components = plain_gradient_batch(model, np.arange(model.n_components), x0)
    assert same_bytes(estimator.table, (10 / model.n_components) * components)
    assert same_bytes(estimator.prev_estimate, components.sum(axis=0))


def test_standardize_matches_plain_expression_and_leaves_input_alone():
    rng = np.random.default_rng(9)
    train = rng.standard_normal((50, 5)) * [1.0, 3.0, 0.0, 0.5, 7.0] + 2.0
    test = rng.standard_normal((20, 5))
    kept = train.copy(), test.copy()
    train_out, test_out, transform = standardize(train, test)
    for dense, out in ((train, train_out), (test, test_out)):
        assert same_bytes(out, (dense - transform.shift) / transform.scale)
    assert same_bytes(train, kept[0]) and same_bytes(test, kept[1])
