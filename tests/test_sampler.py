"""Tests for the chain driver, ensembles, and convergence tracking."""

from dataclasses import fields

import numpy as np
import pytest

from vrhmc.cli import _csv
from vrhmc.integrator import noise_coefficients
from vrhmc.metrics import GaussianSummary, bures_w2
from vrhmc.estimators import ESTIMATOR_KINDS
from vrhmc.potentials import LogisticPotential, PotentialModel, QuadraticPotential
from vrhmc.sampler import (
    ChainDivergence,
    RunRecord,
    SamplerConfig,
    run_chain,
    run_ensemble,
    wasserstein_tracker,
)


def small_model(seed=0, d=2):
    return QuadraticPotential.random(
        n_components=5,
        dimension=d,
        max_eigenvalue=2.0,
        min_eigenvalue=0.5,
        seed=seed,
    )


def fake_record(positions, burn_in, iterations=None):
    """RunRecord with just enough filled in for the tracker."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if iterations is None:
        iterations = np.arange(n)
    return RunRecord(
        chain_id=0,
        burn_in=burn_in,
        iterations=np.asarray(iterations),
        queries=np.arange(n),
        potentials=np.zeros(n),
        positions=positions,
        velocities=None,
        grad_err_sq=None,
        q_values=None,
        mean_potential=0.0,
        final_mean=positions[-1],
        final_cov=None,
        total_queries=n,
        wall_time=0.0,
    )


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        good = dict(n_steps=10, step=0.1)
        with pytest.raises(ValueError):
            SamplerConfig(estimator="sgd", **good)
        with pytest.raises(ValueError):
            SamplerConfig(n_steps=-1, step=0.1)
        with pytest.raises(ValueError):
            SamplerConfig(n_steps=10, step=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(batch_size=0, **good)
        with pytest.raises(ValueError):
            SamplerConfig(epoch_length=0, **good)
        with pytest.raises(ValueError):
            SamplerConfig(gamma=-1.0, **good)
        with pytest.raises(ValueError):
            SamplerConfig(xi=0.0, **good)
        with pytest.raises(ValueError):
            SamplerConfig(burn_in=-1, **good)
        with pytest.raises(ValueError):
            SamplerConfig(n_steps=10, step=0.1, burn_in=10)
        with pytest.raises(ValueError):
            SamplerConfig(record_stride=0, **good)
        with pytest.raises(ValueError):
            SamplerConfig(n_chains=0, **good)

    def test_xi_defaults_to_inverse_smoothness(self):
        model = small_model()
        config = SamplerConfig(n_steps=1, step=0.1, burn_in=0)
        assert config.resolve_xi(model) == pytest.approx(1.0 / model.smoothness)
        assert SamplerConfig(
            n_steps=1, step=0.1, burn_in=0, xi=0.3
        ).resolve_xi(model) == 0.3

    def test_scalar_x0_broadcasts(self):
        model = small_model(d=3)
        config = SamplerConfig(n_steps=0, step=0.1, burn_in=0, x0=0.5)
        record = run_chain(config, model)
        np.testing.assert_array_equal(record.positions[0], [0.5, 0.5, 0.5])


class TestRunChain:
    def test_zero_step_record(self):
        model = small_model()
        config = SamplerConfig(
            n_steps=0, step=0.1, burn_in=0, diagnostics=True, record_q=True
        )
        record = run_chain(config, model)
        assert record.iterations.shape == (1,)
        assert record.iterations[0] == 0
        np.testing.assert_array_equal(record.positions[0], np.zeros(2))
        assert record.potentials[0] == pytest.approx(
            model.potential_full(np.zeros(2))
        )
        assert np.isnan(record.grad_err_sq[0]) and np.isnan(record.q_values[0])
        # the single row is past burn_in 0, so the tail statistics exist
        assert record.mean_potential == pytest.approx(record.potentials[0])
        assert record.final_cov is None

    def test_same_seed_is_bit_identical(self):
        model = small_model(seed=3)
        config = SamplerConfig(
            n_steps=500,
            step=0.15,
            estimator="saga",
            burn_in=100,
            record_stride=7,
            seed=11,
            diagnostics=True,
            record_q=True,
        )
        a = run_chain(config, model)
        b = run_chain(config, model)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.potentials, b.potentials)
        np.testing.assert_array_equal(a.queries, b.queries)
        np.testing.assert_array_equal(a.grad_err_sq, b.grad_err_sq)
        np.testing.assert_array_equal(a.q_values, b.q_values)
        assert a.total_queries == b.total_queries

    def test_stride_and_row_count(self):
        model = small_model()
        config = SamplerConfig(n_steps=10, step=0.1, burn_in=0, record_stride=3)
        record = run_chain(config, model)
        np.testing.assert_array_equal(record.iterations, [0, 3, 6, 9])

    def test_queries_are_monotone(self):
        model = small_model()
        config = SamplerConfig(
            n_steps=400, step=0.1, estimator="svrg", burn_in=0, seed=5
        )
        record = run_chain(config, model)
        assert (np.diff(record.queries) >= 0).all()
        assert record.total_queries >= record.queries[-1]

    def test_running_mean_matches_direct_average(self):
        model = small_model(seed=1)
        config = SamplerConfig(
            n_steps=300, step=0.1, burn_in=120, record_stride=4, seed=2
        )
        record = run_chain(config, model)
        tail = record.iterations >= config.burn_in
        expected = np.cumsum(record.potentials[tail]) / np.arange(
            1, tail.sum() + 1
        )
        assert record.mean_potential == pytest.approx(expected[-1])
        positions = record.positions[tail]
        np.testing.assert_allclose(
            record.final_mean, positions.mean(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            record.final_cov, np.cov(positions.T, ddof=1), rtol=1e-10
        )

    def test_noise_free_trajectory_matches_hand_recursion(self):
        model = small_model(seed=4)
        config = SamplerConfig(
            n_steps=50,
            step=0.2,
            gamma=1.5,
            xi=0.7,
            burn_in=0,
            suppress_noise=True,
            x0=np.array([1.0, -2.0]),
            record_velocity=True,
        )
        record = run_chain(config, model)
        coeffs = noise_coefficients(config.dynamics(model))
        x = np.array([1.0, -2.0])
        v = np.zeros(2)
        for k in range(50):
            np.testing.assert_allclose(record.positions[k], x, rtol=1e-13)
            np.testing.assert_allclose(
                record.velocities[k], v, rtol=1e-13, atol=1e-15
            )
            g = model.gradient_full(x)
            x, v = (
                x + coeffs.c_xv * v - coeffs.c_xg * g,
                coeffs.c_vv * v - coeffs.c_vg * g,
            )

    def test_noise_free_run_is_deterministic_across_seeds(self):
        model = small_model()
        base = dict(
            n_steps=40, step=0.1, burn_in=0, suppress_noise=True, x0=1.0
        )
        a = run_chain(SamplerConfig(seed=0, **base), model)
        b = run_chain(SamplerConfig(seed=123, **base), model)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_q_values_describe_recorded_transitions(self):
        model = small_model(seed=6)
        config = SamplerConfig(
            n_steps=30, step=0.1, burn_in=0, record_q=True, seed=7
        )
        record = run_chain(config, model)
        from vrhmc.estimators import q_metric

        for r in range(29):
            assert record.q_values[r] == pytest.approx(
                q_metric(model, record.positions[r], record.positions[r + 1]),
                rel=1e-12,
            )

    def test_full_gradient_diagnostics_are_zero(self):
        model = small_model()
        config = SamplerConfig(
            n_steps=50, step=0.1, burn_in=0, diagnostics=True, seed=1
        )
        record = run_chain(config, model)
        np.testing.assert_array_equal(record.grad_err_sq, np.zeros(50))

    def test_divergence_guard(self):
        # delta far past the stable range for this curvature
        model = QuadraticPotential(
            data=np.array([[0.0]]), precision=np.array([[10.0]])
        )
        config = SamplerConfig(
            n_steps=5000, step=40.0, xi=1.0, burn_in=0, x0=1.0, seed=0
        )
        with pytest.raises(ChainDivergence) as err:
            run_chain(config, model, chain_id=3)
        assert err.value.chain_id == 3
        assert 0 <= err.value.step_index < 5000
        assert err.value.delta == pytest.approx(2.0 * 1.0 * 40.0)
        # the limit is 1e6 x max(||x0||, 1) = 1e6, and the norm is past it
        assert err.value.estimator == "full"
        assert err.value.limit == 1e6
        assert not err.value.norm <= err.value.limit
        message = str(err.value)
        assert message.startswith("full chain 3 diverged at step")
        assert f"; norm {err.value.norm:.6g}, limit 1e+06; delta=80.0)" in message

    def test_divergence_from_the_first_three_fields(self):
        err = ChainDivergence(2, 17, 0.5)
        assert (err.estimator, err.norm, err.limit) == (None, None, None)
        assert str(err) == (
            "chain 2 diverged at step 17 "
            "(position norm exceeded 1e+06 x initial scale; delta=0.5)"
        )


class TestTailFit:
    """final_mean and final_cov are the Gaussian fit of the post-burn-in rows."""

    @pytest.mark.parametrize("stride", (1, 3, 10))
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_matches_from_samples_bit_for_bit(self, kind, stride):
        model = small_model(seed=9, d=7)
        config = SamplerConfig(
            n_steps=300, step=0.1, estimator=kind, batch_size=2,
            burn_in=40, record_stride=stride, seed=13,
        )
        record = run_chain(config, model)
        fit = GaussianSummary.from_samples(
            record.positions[record.iterations >= config.burn_in]
        )
        assert record.final_mean.tobytes() == fit.mean.tobytes()
        assert record.final_cov.tobytes() == fit.cov.tobytes()

    def test_one_row_tail_keeps_its_row_and_no_covariance(self):
        config = SamplerConfig(n_steps=10, step=0.1, burn_in=9, record_stride=3)
        record = run_chain(config, small_model())
        assert record.final_mean.tobytes() == record.positions[-1].tobytes()
        assert record.final_cov is None


class TestRunEnsemble:
    def test_aggregates_are_across_chain_means(self):
        model = small_model(seed=8)
        config = SamplerConfig(
            n_steps=200,
            step=0.1,
            estimator="sg",
            burn_in=50,
            record_stride=5,
            n_chains=3,
            seed=21,
            diagnostics=True,
            record_q=True,
        )
        ensemble = run_ensemble(config, model)
        assert len(ensemble.records) == 3
        np.testing.assert_allclose(
            ensemble.mean_potentials,
            np.mean([r.potentials for r in ensemble.records], axis=0),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            ensemble.mean_grad_err_sq,
            np.mean([r.grad_err_sq for r in ensemble.records], axis=0),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            ensemble.mean_q_values,
            np.mean([r.q_values for r in ensemble.records], axis=0),
            rtol=1e-12,
        )
        tail = ensemble.iterations >= config.burn_in
        pooled = np.concatenate([r.positions[tail] for r in ensemble.records])
        np.testing.assert_array_equal(ensemble.samples, pooled)
        expected = GaussianSummary.from_samples(pooled)
        np.testing.assert_allclose(ensemble.pooled.mean, expected.mean, rtol=1e-12)
        np.testing.assert_allclose(ensemble.pooled.cov, expected.cov, rtol=1e-12)

    def test_chains_are_distinct_but_reproducible(self):
        model = small_model()
        config = SamplerConfig(
            n_steps=100, step=0.1, burn_in=0, n_chains=2, seed=13
        )
        first = run_ensemble(config, model)
        second = run_ensemble(config, model)
        a, b = first.records
        assert not np.array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.positions, second.records[0].positions)
        np.testing.assert_array_equal(b.positions, second.records[1].positions)


class DelegatingTarget(PotentialModel):
    """A custom target that implements only the documented contract."""

    def __init__(self, inner):
        self.inner = inner
        self.n_components = inner.n_components
        self.dimension = inner.dimension
        self.smoothness = inner.smoothness
        self.strong_convexity = inner.strong_convexity

    def gradient_batch(self, indices, x):
        return self.inner.gradient_batch(indices, x)

    def gradient_full(self, x):
        return self.inner.gradient_full(x)

    def potential_full(self, x):
        return self.inner.potential_full(x)


class KeepingTarget(DelegatingTarget):
    """A custom target that keeps every point it is handed, with a copy."""

    def __init__(self, inner):
        super().__init__(inner)
        self.kept = []

    def _keep(self, x):
        self.kept.append((x, np.array(x, copy=True)))

    def gradient_batch(self, indices, x):
        self._keep(x)
        return super().gradient_batch(indices, x)

    def gradient_full(self, x):
        self._keep(x)
        return super().gradient_full(x)

    def potential_full(self, x):
        self._keep(x)
        return super().potential_full(x)


def small_logistic(seed=0, n=20, d=3):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = rng.choice([-1.0, 1.0], size=n)
    return LogisticPotential(features, labels, ridge=0.5)


class TestCustomTarget:
    def test_inherits_gradient_rows(self):
        assert "gradient_rows" not in vars(DelegatingTarget)
        assert DelegatingTarget.gradient_rows is PotentialModel.gradient_rows

    @pytest.mark.parametrize("target", ("quadratic", "logistic"))
    @pytest.mark.parametrize("batch", (1, 3))
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_run_chain_matches_the_builtin_target(self, kind, batch, target):
        inner = small_model(seed=4, d=3) if target == "quadratic" else small_logistic(4)
        config = SamplerConfig(
            n_steps=300,
            step=0.05,
            estimator=kind,
            batch_size=batch,
            epoch_length=7,
            burn_in=50,
            record_stride=3,
            seed=17,
            x0=np.linspace(-0.5, 0.5, inner.dimension),
            diagnostics=True,
            record_q=True,
            record_velocity=True,
        )
        builtin = run_chain(config, inner)
        custom = run_chain(config, DelegatingTarget(inner))
        for entry in fields(builtin):
            if entry.name == "wall_time":
                continue
            want, got = getattr(builtin, entry.name), getattr(custom, entry.name)
            assert (want is None) == (got is None), entry.name
            if want is not None:
                np.testing.assert_array_equal(got, want, err_msg=entry.name)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_points_handed_to_the_target_are_never_written(self, kind):
        target = KeepingTarget(small_model(seed=5, d=3))
        config = SamplerConfig(
            n_steps=200,
            step=0.05,
            estimator=kind,
            epoch_length=4,
            burn_in=20,
            record_stride=3,
            seed=8,
            x0=np.linspace(-0.5, 0.5, 3),
            diagnostics=True,
            record_q=True,
            record_velocity=True,
        )
        run_chain(config, target)
        assert len(target.kept) > 200
        for x, copy in target.kept:
            np.testing.assert_array_equal(x, copy)


class TestWassersteinTracker:
    def test_matches_direct_fit_on_pooled_prefix(self):
        rng = np.random.default_rng(0)
        chains = [rng.standard_normal((40, 2)) for _ in range(3)]
        records = [fake_record(c, burn_in=10) for c in chains]
        target_mean = np.array([0.1, -0.2])
        target_cov = np.array([[1.2, 0.3], [0.3, 0.8]])
        w2 = wasserstein_tracker(records, target_mean, target_cov)
        target = GaussianSummary(mean=target_mean, cov=target_cov)
        for r in [12, 25, 39]:
            pooled = np.concatenate([c[10 : r + 1] for c in chains])
            expected = bures_w2(GaussianSummary.from_samples(pooled), target)
            assert w2[r] == pytest.approx(expected, rel=1e-8)

    def test_nan_before_burn_in_and_until_enough_samples(self):
        rng = np.random.default_rng(1)
        # one chain in 3 dimensions: rows 0,1 are pre-burn-in, row 2 has
        # 1 pooled sample and row 3 has 2, both below d + 1 = 4
        record = fake_record(rng.standard_normal((10, 3)), burn_in=2)
        w2 = wasserstein_tracker([record], np.zeros(3), np.eye(3))
        assert np.isnan(w2[:5]).all()
        assert np.isfinite(w2[5:]).all()

    def test_zero_at_exactly_matching_target(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((30, 2))
        record = fake_record(samples, burn_in=0)
        fitted = GaussianSummary.from_samples(samples)
        w2 = wasserstein_tracker([record], fitted.mean, fitted.cov)
        assert w2[-1] == pytest.approx(0.0, abs=1e-7)

    def test_rejects_grid_mismatch(self):
        rng = np.random.default_rng(3)
        a = fake_record(rng.standard_normal((5, 2)), burn_in=0)
        b = fake_record(
            rng.standard_normal((5, 2)),
            burn_in=0,
            iterations=np.array([0, 2, 4, 6, 8]),
        )
        with pytest.raises(ValueError):
            wasserstein_tracker([a, b], np.zeros(2), np.eye(2))

    def test_rejects_stream_too_short_to_fit(self):
        rng = np.random.default_rng(4)
        record = fake_record(rng.standard_normal((4, 2)), burn_in=2)
        with pytest.raises(ValueError):
            wasserstein_tracker([record], np.zeros(2), np.eye(2))


class TestRunRecordCsv:
    """A chain's record through the CSV writer the CLI uses for every file."""

    HEADER = "iter,queries,potential,grad_err_sq,q_k,w2"

    def render(self, record, w2=None):
        columns = [
            record.iterations,
            record.queries,
            record.potentials,
            record.grad_err_sq,
            record.q_values,
            w2,
        ]
        return _csv(self.HEADER, columns)

    def test_header_and_byte_determinism(self):
        model = small_model()
        config = SamplerConfig(
            n_steps=20, step=0.1, burn_in=5, seed=9, diagnostics=True
        )
        record = run_chain(config, model)
        text = self.render(record)
        assert text == self.render(record)
        lines = text.splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == str(record.queries[0])
        assert float(first[2]) == record.potentials[0]
        # q_k and w2 were not tracked, so those columns are nan
        assert first[4] == "nan" and first[5] == "nan"

    def test_w2_column_round_trips(self):
        model = small_model()
        config = SamplerConfig(n_steps=30, step=0.1, burn_in=0, seed=10)
        record = run_chain(config, model)
        w2 = np.linspace(0.5, 0.1, 30)
        lines = self.render(record, w2=w2).splitlines()[1:]
        back = np.array([float(line.split(",")[5]) for line in lines])
        np.testing.assert_array_equal(back, w2)
