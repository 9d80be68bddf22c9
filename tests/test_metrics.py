"""Tests for the accuracy metrics."""

import numpy as np
import pytest

import oracles
from vrhmc.metrics import GaussianSummary, bures_w2, gradient_mse, potential_mse
from vrhmc.metrics import test_nll as held_out_nll
from vrhmc.metrics import test_nll_per_sample as held_out_nll_per_sample
from vrhmc.sampler import RunRecord


def random_gaussian(rng, d):
    mean = rng.standard_normal(d)
    root = rng.standard_normal((d, d))
    cov = root @ root.T + 0.5 * np.eye(d)
    return GaussianSummary(mean=mean, cov=cov)


def minimal_record(iterations, burn_in, potentials=None, grad_err_sq=None,
                   mean_potential=np.nan):
    iterations = np.asarray(iterations)
    n = iterations.size
    if potentials is None:
        potentials = np.zeros(n)
    return RunRecord(
        chain_id=0,
        burn_in=burn_in,
        iterations=iterations,
        queries=np.arange(n),
        potentials=np.asarray(potentials, dtype=float),
        positions=np.zeros((n, 1)),
        velocities=None,
        grad_err_sq=None if grad_err_sq is None else np.asarray(grad_err_sq, float),
        q_values=None,
        mean_potential=mean_potential,
        final_mean=np.zeros(1),
        final_cov=None,
        total_queries=n,
        wall_time=0.0,
    )


class TestGaussianSummary:
    def test_fit_recovers_moments(self):
        rng = np.random.default_rng(0)
        target = random_gaussian(rng, 3)
        root = np.linalg.cholesky(target.cov)
        samples = target.mean + rng.standard_normal((200_000, 3)) @ root.T
        fit = GaussianSummary.from_samples(samples)
        np.testing.assert_allclose(fit.mean, target.mean, atol=0.02)
        np.testing.assert_allclose(fit.cov, target.cov, rtol=0.05, atol=0.02)

    def test_rejects_bad_shapes_and_asymmetry(self):
        with pytest.raises(ValueError):
            GaussianSummary(mean=np.zeros((2, 2)), cov=np.eye(2))
        with pytest.raises(ValueError):
            GaussianSummary(mean=np.zeros(3), cov=np.eye(2))
        with pytest.raises(ValueError):
            GaussianSummary(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            GaussianSummary.from_samples(np.ones((1, 2)))


class TestBuresW2:
    def test_zero_on_identical_arguments(self):
        rng = np.random.default_rng(1)
        g = random_gaussian(rng, 4)
        assert bures_w2(g, g) <= 1e-7

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_gaussian(rng, 3), random_gaussian(rng, 3)
            assert bures_w2(a, b) == bures_w2(b, a)

    def test_mean_shift_only(self):
        cov = np.diag([2.0, 0.5])
        a = GaussianSummary(mean=np.zeros(2), cov=cov)
        b = GaussianSummary(mean=np.array([3.0, -4.0]), cov=cov)
        np.testing.assert_allclose(bures_w2(a, b), 5.0, rtol=1e-10)

    def test_commuting_diagonal_case(self):
        # diagonal covariances: W2^2 = sum (sqrt(l_i) - sqrt(m_i))^2
        a = GaussianSummary(mean=np.zeros(2), cov=np.diag([1.0, 4.0]))
        b = GaussianSummary(mean=np.zeros(2), cov=np.diag([4.0, 1.0]))
        np.testing.assert_allclose(bures_w2(a, b), np.sqrt(2.0), rtol=1e-12)

    def test_matches_scipy_square_root_route(self):
        from scipy.linalg import sqrtm

        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = random_gaussian(rng, 4), random_gaussian(rng, 4)
            inner = sqrtm(sqrtm(a.cov) @ b.cov @ sqrtm(a.cov)).real
            want_sq = float(
                np.sum((a.mean - b.mean) ** 2)
                + np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(inner)
            )
            np.testing.assert_allclose(bures_w2(a, b), np.sqrt(want_sq), rtol=1e-8)

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_bitwise_equal_to_the_reference_pair_formula(self, d):
        rng = np.random.default_rng(d)
        for _ in range(10):
            a, b = random_gaussian(rng, d), random_gaussian(rng, d)
            assert bures_w2(a, b) == oracles.bures_w2_reference(a, b)
            assert bures_w2(b, a) == oracles.bures_w2_reference(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, c = (random_gaussian(rng, 3) for _ in range(3))
            assert bures_w2(a, c) <= bures_w2(a, b) + bures_w2(b, c) + 1e-10


class TestGradientMse:
    def test_averages_post_burn_in_rows(self):
        record = minimal_record(
            iterations=[0, 1, 2, 3],
            burn_in=2,
            grad_err_sq=[100.0, 100.0, 4.0, 6.0],
        )
        np.testing.assert_allclose(gradient_mse(record), 5.0, rtol=1e-14)

    def test_requires_diagnostics(self):
        record = minimal_record(iterations=[0, 1], burn_in=0)
        with pytest.raises(ValueError):
            gradient_mse(record)

    def test_requires_post_burn_in_rows(self):
        record = minimal_record(iterations=[0, 1], burn_in=5, grad_err_sq=[1.0, 2.0])
        with pytest.raises(ValueError):
            gradient_mse(record)


class TestPotentialMse:
    def test_mean_squared_deviation_across_chains(self):
        records = [
            minimal_record([0], 0, mean_potential=3.0),
            minimal_record([0], 0, mean_potential=7.0),
        ]
        # reference 5: deviations (-2, 2), mean square 4
        np.testing.assert_allclose(potential_mse(records, 5.0), 4.0, rtol=1e-14)


class TestHeldOutNll:
    def test_log_two_at_origin(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((6, 3))
        labels = np.where(rng.random(6) < 0.5, -1.0, 1.0)
        samples = np.zeros((4, 3))
        np.testing.assert_allclose(
            held_out_nll(features, labels, samples), np.log(2.0), rtol=1e-12
        )

    def test_hand_case_single_point(self):
        features = np.array([[2.0]])
        labels = np.array([-1.0])
        samples = np.array([[1.0], [3.0]])
        # margins -2 and -6: mean of softplus(2), softplus(6)
        want = 0.5 * (np.log1p(np.exp(2.0)) + np.log1p(np.exp(6.0)))
        np.testing.assert_allclose(held_out_nll(features, labels, samples), want, rtol=1e-12)

    def test_per_sample_hand_case(self):
        features = np.array([[2.0]])
        labels = np.array([-1.0])
        samples = np.array([[1.0], [3.0]])
        want = [np.log1p(np.exp(2.0)), np.log1p(np.exp(6.0))]
        np.testing.assert_allclose(
            held_out_nll_per_sample(features, labels, samples), want, rtol=1e-12
        )

    def test_per_sample_rows_average_to_the_pooled_value(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((7, 3))
        labels = np.where(rng.random(7) < 0.5, -1.0, 1.0)
        samples = rng.standard_normal((5, 3))
        rows = held_out_nll_per_sample(features, labels, samples)
        assert rows.shape == (5,)
        np.testing.assert_allclose(
            rows.mean(), held_out_nll(features, labels, samples), rtol=1e-14
        )
