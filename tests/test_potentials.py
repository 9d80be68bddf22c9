"""Tests for the finite-sum potential models."""

import numpy as np
import pytest

from vrhmc.potentials import (
    LogisticPotential,
    QuadraticPotential,
    sigmoid,
    softplus,
)

from oracles import gradient_component, potential_component


def central_difference(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = eps
        grad[j] = (fn(x + bump) - fn(x - bump)) / (2.0 * eps)
    return grad


def random_quadratic(seed, n=12, d=4):
    return QuadraticPotential.random(
        n_components=n, dimension=d, max_eigenvalue=6.0, min_eigenvalue=1.5, seed=seed
    )


def random_logistic(seed, n=30, d=4, ridge=0.7):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return LogisticPotential(features, labels, ridge=ridge)


class TestScalarHelpers:
    def test_sigmoid_matches_logistic_function(self):
        # tail values carry ulp(1)-level absolute error from the tanh form
        t = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(
            sigmoid(t), 1.0 / (1.0 + np.exp(-t)), rtol=1e-12, atol=5e-16
        )
        np.testing.assert_allclose(sigmoid(t) + sigmoid(-t), 1.0, rtol=1e-14)

    def test_softplus_matches_reference_and_survives_overflow(self):
        t = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(softplus(t), np.log1p(np.exp(t)), rtol=1e-12)
        big = np.array([-800.0, 800.0])
        out = softplus(big)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 800.0], atol=1e-12)


class TestQuadraticPotential:
    def test_gradients_match_finite_differences(self):
        model = random_quadratic(0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(model.dimension)
            np.testing.assert_allclose(
                model.gradient_full(x),
                central_difference(model.potential_full, x),
                rtol=1e-6,
                atol=1e-8,
            )
            i = int(rng.integers(model.n_components))
            np.testing.assert_allclose(
                gradient_component(model, i, x),
                central_difference(lambda y: potential_component(model, i, y), x),
                rtol=1e-6,
                atol=1e-8,
            )

    def test_full_quantities_equal_component_sums(self):
        model = random_quadratic(2)
        rng = np.random.default_rng(3)
        idx = np.arange(model.n_components)
        for _ in range(5):
            x = rng.standard_normal(model.dimension)
            np.testing.assert_allclose(
                model.gradient_full(x),
                model.gradient_batch(idx, x).sum(axis=0),
                rtol=1e-10,
            )
            np.testing.assert_allclose(
                model.potential_full(x),
                sum(potential_component(model, i, x) for i in idx),
                rtol=1e-10,
            )

    def test_batch_gradient_stacks_components(self):
        model = random_quadratic(4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(model.dimension)
        batch = np.array([3, 0, 7])
        rows = model.gradient_batch(batch, x)
        for row, i in zip(rows, batch):
            np.testing.assert_allclose(row, gradient_component(model, int(i), x), rtol=1e-14)

    def test_component_gradient_differences_are_index_free(self):
        # quadratic components share curvature: the difference is (2/N) P (x - y)
        model = random_quadratic(6)
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, model.dimension))
        want = (2.0 / model.n_components) * model.precision @ (x - y)
        for i in range(model.n_components):
            got = gradient_component(model, i, x) - gradient_component(model, i, y)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_secant_inequality(self):
        model = random_quadratic(8)
        rng = np.random.default_rng(9)
        for _ in range(100):
            x, y = rng.standard_normal((2, model.dimension))
            gap = np.linalg.norm(model.gradient_full(x) - model.gradient_full(y))
            dist = np.linalg.norm(x - y)
            assert model.strong_convexity * dist <= gap * (1 + 1e-12)
            assert gap <= model.smoothness * dist * (1 + 1e-12)

    def test_spectrum_is_pinned(self):
        model = QuadraticPotential.random(
            n_components=5, dimension=6, max_eigenvalue=9.0, min_eigenvalue=2.0, seed=3
        )
        eigs = np.linalg.eigvalsh(model.precision)
        np.testing.assert_allclose(eigs.max(), 9.0, rtol=1e-10)
        np.testing.assert_allclose(eigs.min(), 2.0, rtol=1e-10)
        np.testing.assert_allclose(model.smoothness, 18.0, rtol=1e-10)
        np.testing.assert_allclose(model.strong_convexity, 4.0, rtol=1e-10)
        np.testing.assert_allclose(model.condition_number, 4.5, rtol=1e-10)

    def test_random_is_deterministic_given_seed(self):
        a = random_quadratic(11)
        b = random_quadratic(11)
        np.testing.assert_array_equal(a.precision, b.precision)
        np.testing.assert_array_equal(a.data, b.data)

    def test_target_moments_and_mean_potential_against_quadrature(self):
        """1-d check by numerical integration of the unnormalized density."""
        from scipy.integrate import quad

        rng = np.random.default_rng(13)
        for _ in range(3):
            data = rng.normal(2.0, 1.5, size=(3, 1))
            prec = np.array([[float(10.0 ** rng.uniform(-0.5, 0.5))]])
            model = QuadraticPotential(data=data, precision=prec)

            density = lambda t: np.exp(-model.potential_full(np.array([t])))
            z, _ = quad(density, -40, 40, limit=200)
            mean_num = quad(lambda t: t * density(t), -40, 40, limit=200)[0] / z
            var_num = (
                quad(lambda t: t * t * density(t), -40, 40, limit=200)[0] / z
                - mean_num**2
            )
            mean_u = (
                quad(
                    lambda t: model.potential_full(np.array([t])) * density(t),
                    -40,
                    40,
                    limit=200,
                )[0]
                / z
            )
            mean, cov = model.target_moments()
            np.testing.assert_allclose(mean[0], mean_num, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(cov[0, 0], var_num, rtol=1e-7)
            np.testing.assert_allclose(model.mean_potential(), mean_u, rtol=1e-8)

    def test_mean_potential_is_half_dimension_plus_spread(self):
        model = random_quadratic(15)
        d_bar = model.data.mean(axis=0)
        spread = np.mean(
            [(row - d_bar) @ model.precision @ (row - d_bar) for row in model.data]
        )
        np.testing.assert_allclose(
            model.mean_potential(), 0.5 * model.dimension + spread, rtol=1e-12
        )

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            QuadraticPotential(data=[[0.0]], precision=[[0.0]])  # not positive definite
        with pytest.raises(ValueError):
            QuadraticPotential(data=[[0.0, 1.0]], precision=[[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            QuadraticPotential(data=[[0.0, 1.0]], precision=[[1.0]])
        with pytest.raises(ValueError, match="^max_eigenvalue must be a real number, got True$"):
            QuadraticPotential.random(n_components=4, dimension=2, max_eigenvalue=True)
        for value in (True, None, "1"):
            reason = f"^min_eigenvalue must be a real number, got {value!r}$"
            with pytest.raises(ValueError, match=reason):
                QuadraticPotential.random(n_components=4, dimension=2, min_eigenvalue=value)
        with pytest.raises(ValueError, match="^min_eigenvalue must be positive and finite$"):
            QuadraticPotential.random(n_components=4, dimension=2, min_eigenvalue=0.0)
        with pytest.raises(ValueError, match="^need min_eigenvalue <= max_eigenvalue$"):
            QuadraticPotential.random(n_components=4, dimension=2, min_eigenvalue=11.0)

    def test_rejects_bad_points_and_indices(self):
        model = random_quadratic(17)
        with pytest.raises(ValueError):
            model.gradient_full(np.zeros(model.dimension + 1))
        # batch indices lie in [0, N): N raises, and -1 counts from the end
        for model in (random_quadratic(17), random_logistic(17)):
            n, x = model.n_components, np.ones(model.dimension)
            for batch in ([n], [0, n]):
                with pytest.raises(IndexError):
                    model.gradient_batch(np.array(batch), x)
            for batch in ([-1], [0, -1]):
                np.testing.assert_array_equal(
                    model.gradient_batch(np.array(batch), x),
                    model.gradient_batch(np.array(batch) % n, x),
                )


class TestQuadraticProductBits:
    """The quadratic target's d x d products against their @ expressions."""

    @pytest.mark.parametrize("d", (1, 2, 5, 20))
    def test_match_matmul_expressions_bitwise(self, d):
        model = random_quadratic(d, n=9, d=d)
        precision, n = model.precision, model.n_components
        buffer = 3.0 * np.random.default_rng(d).standard_normal((3, 2 * d))
        points = {
            "contiguous": buffer[0, :d].copy(),
            "row view": buffer[1, d:],
            "strided": buffer[2, ::2],
        }
        batches = (np.array([4]), np.array([7, 0, 3]))
        for name, x in points.items():
            for batch in batches:
                want = (x - model.data[batch]) @ precision * (2.0 / n)
                got = model.gradient_batch(batch, x)
                assert got.tobytes() == want.tobytes(), (name, batch)
            r = x - model._anchor_mean
            want = 2.0 * (precision @ r)
            assert model.gradient_full(x).tobytes() == want.tobytes(), name
            want = float(r @ precision @ r) + model._potential_offset
            assert model.potential_full(x) == want, name


class TestQuadraticSingleIndex:
    """gradient_batch on one index against the take expression, byte for byte."""

    def test_matches_take_expression_bitwise(self):
        data = np.array([[0.0, 0.0, 1.0], [0.5, -1.0, 2.0], [-0.0, 3.0, 0.0]])
        precision = np.array([[2.0, -0.5, 0.3], [-0.5, 1.5, -0.2], [0.3, -0.2, 1.0]])
        model = QuadraticPotential(data=data, precision=precision)
        # the anchors themselves (exactly zero gradients), signed zeros, and
        # a strided view
        points = [*data, np.array([-0.0, -0.0, 1.0]), np.array([0.0, -0.0, -0.0]),
                  np.array([4.0, 0.0, -1.0, 7.0, 0.25, 9.0])[::2]]
        for x in points:
            for i in (0, 1, 2, -1, -3):
                want = (x - data.take([i], axis=0)).dot(precision)
                want *= 2.0 / model.n_components
                for batch in ([i], np.array([i])):
                    got = model.gradient_batch(batch, x)
                    assert got.shape == (1, 3)
                    assert got.tobytes() == want.tobytes(), (x, i)

    def test_out_of_range_single_index_raises(self):
        model = random_quadratic(5, n=6, d=3)
        x = np.zeros(3)
        for i in (6, 7, -7):
            with pytest.raises(IndexError):
                model.gradient_batch([i], x)
            with pytest.raises(IndexError):
                model.gradient_batch(np.array([i]), x)


class TestLogisticPotential:
    def test_gradients_match_finite_differences(self):
        model = random_logistic(0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(model.dimension)
            np.testing.assert_allclose(
                model.gradient_full(x),
                central_difference(model.potential_full, x),
                rtol=1e-6,
                atol=1e-8,
            )
            i = int(rng.integers(model.n_components))
            np.testing.assert_allclose(
                gradient_component(model, i, x),
                central_difference(lambda y: potential_component(model, i, y), x),
                rtol=1e-6,
                atol=1e-8,
            )

    def test_full_quantities_equal_component_sums(self):
        model = random_logistic(2)
        rng = np.random.default_rng(3)
        idx = np.arange(model.n_components)
        x = rng.standard_normal(model.dimension)
        np.testing.assert_allclose(
            model.gradient_full(x), model.gradient_batch(idx, x).sum(axis=0), rtol=1e-10
        )
        np.testing.assert_allclose(
            model.potential_full(x),
            sum(potential_component(model, i, x) for i in idx),
            rtol=1e-10,
        )

    def test_secant_inequality(self):
        model = random_logistic(4)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = rng.standard_normal((2, model.dimension))
            gap = np.linalg.norm(model.gradient_full(x) - model.gradient_full(y))
            dist = np.linalg.norm(x - y)
            assert model.strong_convexity * dist <= gap * (1 + 1e-9)
            assert gap <= model.smoothness * dist * (1 + 1e-9)

    def test_potential_at_origin_is_n_log_two(self):
        model = random_logistic(6, n=25)
        np.testing.assert_allclose(
            model.potential_full(np.zeros(model.dimension)), 25 * np.log(2.0), rtol=1e-12
        )

    def test_single_point_gradient_by_hand(self):
        # one observation a = (1,), label +1, no ridge: grad at 0 is -1/2
        model = LogisticPotential(np.array([[1.0]]), np.array([1.0]), ridge=0.0)
        np.testing.assert_allclose(
            gradient_component(model, 0, np.zeros(1)), [-0.5], rtol=1e-14
        )

    def test_smoothness_matches_dense_eigenvalue(self):
        model = random_logistic(8, n=40, d=6, ridge=1.3)
        gram_top = np.linalg.eigvalsh(model.features.T @ model.features).max()
        np.testing.assert_allclose(model.smoothness, 1.3 + gram_top / 4.0, rtol=1e-12)

    def test_smoothness_with_more_features_than_rows(self):
        # d > N decomposes the N x N Gram A A^T, which shares A^T A's top
        model = random_logistic(5, n=3, d=10, ridge=1.3)
        gram_top = np.linalg.eigvalsh(model.features.T @ model.features).max()
        np.testing.assert_allclose(model.smoothness, 1.3 + gram_top / 4.0, rtol=1e-12)

    def test_smoothness_when_the_top_eigenvector_is_orthogonal_to_ones(self):
        # A^T A = [[6, -6], [-6, 6]] has top eigenvector (1, -1) / sqrt(2)
        # with eigenvalue 12, so L = 1 + 12 / 4 whatever the direction
        features = np.array([[1.0, -1.0], [2.0, -2.0], [-1.0, 1.0]])
        model = LogisticPotential(features, np.ones(3), ridge=1.0)
        np.testing.assert_allclose(model.smoothness, 4.0, rtol=1e-12)

    @pytest.mark.parametrize("shape", ((4, 3), (3, 5), (0, 2)))
    def test_smoothness_of_a_zero_design_is_the_ridge(self, shape):
        model = LogisticPotential(np.zeros(shape), np.ones(shape[0]), ridge=0.7)
        assert model.smoothness == 0.7

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, 1e200))
    def test_rejects_non_finite_features(self, bad):
        features = np.ones((4, 3))
        features[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite or overflow"):
            with np.errstate(over="ignore", invalid="ignore"):
                LogisticPotential(features, np.ones(4))

    def test_condition_number_is_infinite_without_ridge(self):
        assert random_logistic(8, ridge=0.0).condition_number == np.inf
        model = random_logistic(8, ridge=0.5)
        assert model.condition_number == model.smoothness / 0.5

    def test_negative_log_likelihood_by_hand(self):
        features = np.array([[1.0, 0.0], [0.0, 2.0]])
        labels = np.array([1.0, -1.0])
        model = LogisticPotential(features, labels, ridge=0.5)
        x = np.array([0.3, -0.4])
        ridge_term = 0.5 * 0.5 * (0.3**2 + 0.4**2)
        want = ridge_term + softplus(-0.3) + softplus(-0.8)
        np.testing.assert_allclose(model.potential_full(x), want, rtol=1e-12)

    def test_rejects_bad_labels_and_shapes(self):
        good = np.ones((3, 2))
        with pytest.raises(ValueError):
            LogisticPotential(good, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            LogisticPotential(good, np.ones(2))
        with pytest.raises(ValueError):
            LogisticPotential(good, np.ones(3), ridge=-0.1)

    @pytest.mark.parametrize("ridge", (-0.1, np.nan, np.inf))
    def test_rejects_a_ridge_that_is_negative_or_not_finite(self, ridge):
        with pytest.raises(ValueError, match="^ridge weight must be nonnegative and finite$"):
            LogisticPotential(np.ones((3, 2)), np.ones(3), ridge=ridge)

    @pytest.mark.parametrize("ridge", (True, False, None, "1"))
    def test_rejects_a_ridge_that_is_not_a_real(self, ridge):
        with pytest.raises(ValueError, match=f"^ridge must be a real number, got {ridge!r}$"):
            LogisticPotential(np.ones((3, 2)), np.ones(3), ridge=ridge)

    def test_an_integer_zero_ridge_is_legal(self):
        model = LogisticPotential(np.ones((3, 2)), np.ones(3), ridge=0)
        assert model.ridge == model.strong_convexity == 0.0


class TestGradientRows:
    @pytest.mark.parametrize("d", (1, 2, 5, 20, 64))
    def test_quadratic_rows_match_gradient_full_bitwise(self, d):
        model = random_quadratic(d, d=d)
        # rows taken out of a larger buffer, as run_chain's recorded positions are
        points = 3.0 * np.random.default_rng(d).standard_normal((41, d))[1:]
        rows = model.gradient_rows(points)
        assert rows.shape == points.shape
        for point, row in zip(points, rows):
            np.testing.assert_array_equal(row, model.gradient_full(point.copy()))

    def test_default_loop_matches_gradient_full(self):
        model = random_logistic(3)
        points = np.random.default_rng(4).standard_normal((9, model.dimension))
        rows = model.gradient_rows(points)
        for point, row in zip(points, rows):
            np.testing.assert_array_equal(row, model.gradient_full(point))
        assert model.gradient_rows(np.empty((0, model.dimension))).shape == (
            0,
            model.dimension,
        )

    def test_rejects_points_of_the_wrong_shape(self):
        for model in (random_quadratic(0), random_logistic(0)):
            with pytest.raises(ValueError):
                model.gradient_rows(np.zeros(model.dimension))
            with pytest.raises(ValueError):
                model.gradient_rows(np.zeros((3, model.dimension + 1)))
