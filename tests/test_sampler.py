"""Tests for the chain driver, ensembles, and convergence tracking."""

import math
from dataclasses import fields

import numpy as np
import pytest

import oracles
from vrhmc.cli import _csv
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


# (field values, the error they raise) on top of a valid config; the NaN
# rows would pass a <= 0.0 check
BAD_SAMPLER_FIELDS = [
    (dict(estimator="sgd"), "unknown estimator"),
    (dict(n_steps=-1), "n_steps must be at least 1"),
    (dict(n_steps=0), "^n_steps must be at least 1, got 0$"),
    (dict(step=0.0), "step must be positive"),
    (dict(step=math.nan), "step must be positive"),
    (dict(step=math.inf), "step must be positive and finite"),
    (dict(batch_size=0), "batch_size must be at least 1"),
    (dict(epoch_length=0), "epoch_length must be at least 1"),
    (dict(gamma=-1.0), "^gamma must be positive and finite$"),
    (dict(gamma=math.nan), "^gamma must be positive and finite$"),
    (dict(gamma=math.inf), "^gamma must be positive and finite$"),
    (dict(xi=0.0), "^xi must be positive and finite$"),
    (dict(xi=math.nan), "^xi must be positive and finite$"),
    (dict(xi=math.inf), "^xi must be positive and finite$"),
    # positive settings must be reals: a bool, None or a string is refused
    (dict(step=True), "^step must be a real number, got True$"),
    (dict(step=None), "^step must be a real number, got None$"),
    (dict(gamma="2"), "^gamma must be a real number, got '2'$"),
    (dict(burn_in=-1), "burn_in must be nonnegative"),
    (dict(burn_in=10), "burn_in must be smaller than n_steps"),
    (dict(record_stride=0), "record_stride must be at least 1"),
    (dict(n_chains=0), "n_chains must be at least 1"),
    # counts must be integers: a float or a bool is refused, not truncated
    (dict(estimator="svrg", batch_size=2.5), "^batch_size must be an integer, got 2.5$"),
    (dict(estimator="svrg", epoch_length=2.5), "^epoch_length must be an integer, got 2.5$"),
    (dict(n_steps=5.5), "^n_steps must be an integer, got 5.5$"),
    (dict(record_stride=2.5), "^record_stride must be an integer, got 2.5$"),
    (dict(n_chains=2.5), "^n_chains must be an integer, got 2.5$"),
    (dict(record_stride=True), "^record_stride must be an integer, got True$"),
    # only epoch_length and xi take None, resolved at run time
    (dict(n_steps=None), "^n_steps must be an integer, got None$"),
    # the seed is a nonnegative integer, not a bool or a float
    (dict(seed=True), "^seed must be an integer, got True$"),
    (dict(seed=2.5), "^seed must be an integer, got 2.5$"),
    (dict(seed=-1), "^seed must be nonnegative, got -1$"),
    # switches are True or False, not a truthy word or number
    (dict(diagnostics="no"), "^diagnostics must be True or False, got 'no'$"),
    (dict(record_q=1), "^record_q must be True or False, got 1$"),
    (dict(record_velocity=None), "^record_velocity must be True or False, got None$"),
    (dict(record_velocity=np.bool_(True)),
     "^record_velocity must be True or False, got "),
    # a start that is not finite is refused before any sampling
    (dict(x0=np.nan), "^x0 must be finite, got nan$"),
    (dict(x0=[0, np.inf, 0]), r"^x0 must be finite, got \[0, inf, 0\]$"),
]


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        valid = dict(n_steps=10, step=0.1, burn_in=0)
        SamplerConfig(**valid)
        for bad, reason in BAD_SAMPLER_FIELDS:
            with pytest.raises(ValueError, match=reason):
                SamplerConfig(**{**valid, **bad})

    def test_has_no_noise_switch(self):
        with pytest.raises(TypeError):
            SamplerConfig(n_steps=10, step=0.1, burn_in=0, suppress_noise=True)

    def test_numpy_integer_counts_run(self):
        model = small_model()
        counts = dict(n_steps=20, batch_size=2, epoch_length=3, burn_in=5,
                      record_stride=4, n_chains=2)
        config = SamplerConfig(
            step=0.1, estimator="svrg", **{k: np.int64(v) for k, v in counts.items()}
        )
        want = run_ensemble(SamplerConfig(step=0.1, estimator="svrg", **counts), model)
        got = run_ensemble(config, model)
        assert len(got.records) == len(want.records) == 2
        for a, b in zip(got.records, want.records):
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.iterations, b.iterations)

    def test_xi_defaults_to_inverse_smoothness(self):
        model = small_model()
        config = SamplerConfig(n_steps=1, step=0.1, burn_in=0)
        assert config.resolve_xi(model) == pytest.approx(1.0 / model.smoothness)
        assert SamplerConfig(
            n_steps=1, step=0.1, burn_in=0, xi=0.3
        ).resolve_xi(model) == 0.3

    def test_scalar_x0_broadcasts(self):
        model = small_model(d=3)
        config = SamplerConfig(n_steps=1, step=0.1, burn_in=0, x0=0.5)
        record = run_chain(config, model)
        np.testing.assert_array_equal(record.positions[0], [0.5, 0.5, 0.5])


class TestRunChain:
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

    def test_divergence_needs_all_six_fields(self):
        with pytest.raises(TypeError):
            ChainDivergence(2, 17, 0.5)


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


class TestWassersteinTrackerPin:
    """The tracker against the per-row reference loop, bit for bit."""

    @staticmethod
    def assert_pinned(records, target_mean, target_cov):
        w2 = wasserstein_tracker(records, target_mean, target_cov)
        want = oracles.wasserstein_tracker_reference(records, target_mean, target_cov)
        assert np.array_equal(w2, want, equal_nan=True)
        return w2

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_every_estimator_at_the_desk_ensemble_shape(self, kind):
        model = QuadraticPotential.random(
            n_components=1000, dimension=5, max_eigenvalue=10.0, min_eigenvalue=1.0, seed=7
        )
        config = SamplerConfig(
            n_steps=1500,
            step=0.05,
            estimator=kind,
            burn_in=750,
            record_stride=10,
            n_chains=4,
            seed=21,
        )
        records = run_ensemble(config, model).records
        w2 = self.assert_pinned(records, *model.target_moments())
        # row 75 (iteration 750) pools 4 samples, below d + 1 = 6
        assert np.isnan(w2[:76]).all() and np.isfinite(w2[76:]).all()

    @pytest.mark.parametrize("d", [1, 2, 20])
    def test_random_streams_in_several_dimensions(self, d):
        rng = np.random.default_rng(d)
        records = [fake_record(rng.standard_normal((60, d)) + 0.3, burn_in=7) for _ in range(3)]
        root = rng.standard_normal((d, d))
        self.assert_pinned(records, rng.standard_normal(d), root @ root.T + np.eye(d))

    def test_fits_sorting_before_and_after_the_target(self):
        # the byte key picks which side's square root is taken; both
        # orders must occur among the rows
        rng = np.random.default_rng(11)
        records = [fake_record(rng.standard_normal((80, 3)), burn_in=5) for _ in range(2)]
        target_mean, target_cov = np.zeros(3) + 0.01, np.diag([1.0, 2.0, 0.5])
        target = GaussianSummary(mean=target_mean, cov=target_cov)
        key = (target.mean.tobytes(), target.cov.tobytes())
        before = [
            (fit.mean.tobytes(), fit.cov.tobytes()) < key
            for _, fit in oracles.pooled_fits_reference(records)
        ]
        assert any(before) and not all(before)
        self.assert_pinned(records, target_mean, target_cov)

    def test_ties_on_the_mean_bytes_and_on_the_whole_key(self):
        rng = np.random.default_rng(12)
        records = [fake_record(rng.standard_normal((40, 3)), burn_in=0) for _ in range(2)]
        *_, (_, last) = oracles.pooled_fits_reference(records)
        # the last row's mean ties, so its covariance bytes decide the order
        for scale in (0.5, 2.0):
            self.assert_pinned(records, last.mean, scale * last.cov)
        w2 = self.assert_pinned(records, last.mean, last.cov)
        assert w2[-1] == pytest.approx(0.0, abs=1e-7)

    def test_rank_deficient_pooled_covariance(self):
        rng = np.random.default_rng(13)
        records = []
        for _ in range(2):
            base = rng.standard_normal((50, 1))
            records.append(fake_record(np.hstack([base, 3.0 * base, 0.1 - base]), burn_in=0))
        negative = [
            np.linalg.eigh(fit.cov)[0].min() < 0.0
            for _, fit in oracles.pooled_fits_reference(records)
        ]
        assert any(negative), "no fit exercises the eigenvalue clip"
        self.assert_pinned(records, np.zeros(3), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_raise_past_burn_in_only(self, bad):
        rng = np.random.default_rng(15)
        positions = rng.standard_normal((20, 2))
        positions[2, 1] = bad
        before = fake_record(positions, burn_in=3)
        self.assert_pinned([before], np.zeros(2), np.eye(2))
        after = fake_record(positions, burn_in=0)
        for tracker in (wasserstein_tracker, oracles.wasserstein_tracker_reference):
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                tracker([after], np.zeros(2), np.eye(2))

    def test_nan_rows_before_burn_in_and_below_d_plus_one_samples(self):
        rng = np.random.default_rng(14)
        # rows 0-2 are pre-burn-in, rows 3-7 pool 1 to 5 samples < d + 1 = 6
        record = fake_record(rng.standard_normal((20, 5)), burn_in=3)
        w2 = self.assert_pinned([record], np.zeros(5), np.eye(5))
        assert np.isnan(w2[:8]).all() and np.isfinite(w2[8:]).all()


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
