"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each check exercises the library through its public API only and prints
a single PASS/FAIL line with the measured quantities and elapsed time.
The checks cover the integrator oracle (stationary covariance and noise
second moments), the estimator bias identities by exhaustive enumeration,
exactness of difference estimators on quadratics, the error orderings on
the synthetic and logistic benchmarks, step-size scaling of the sampling
bias floor, full-batch collapse, and the LIBSVM parser round trip.

Run with `pytest tests/test_acceptance.py` (the suite prints even on
success; -s is already the configured default). Every check carries the
`acceptance` marker, so `pytest -m "not acceptance"` runs the rest of the
suite without them.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from vrhmc.dataio import Dataset, parse_libsvm, emit_libsvm
from vrhmc.estimators import make_estimator, mseb_descriptor
from vrhmc.integrator import (
    DynamicsParams,
    noise_coefficients,
    sample_noise,
    stationary_covariance,
)
from vrhmc.metrics import gradient_mse
from vrhmc.potentials import LogisticPotential, QuadraticPotential
from vrhmc.sampler import SamplerConfig, run_chain, run_ensemble, wasserstein_tracker

from oracles import conditional_mean_oracle

pytestmark = pytest.mark.acceptance


def report(index, label, passed, detail, started, budget_s=None):
    """Print the verdict line; a check with a budget also fails past it.

    The elapsed time printed is the one gated, shown against the budget so
    a timing failure reads as one.
    """
    elapsed = time.perf_counter() - started
    if budget_s is None:
        timing = f"{elapsed:.1f}s"
    else:
        passed = passed and elapsed < budget_s
        timing = f"{elapsed:.1f}s of {budget_s:g}s budget"
    verdict = "PASS" if passed else "FAIL"
    print(f"[{index}] {label}: {verdict} ({detail}; {timing})")
    assert passed, f"check {index} failed: {detail}; {timing}"


def benchmark_quadratic():
    """The synthetic comparison target: N=1000 components in 5 dimensions."""
    return QuadraticPotential.random(
        n_components=1000,
        dimension=5,
        max_eigenvalue=10.0,
        min_eigenvalue=1.0,
        seed=7,
    )


def test_1_stationary_covariance_matches_lyapunov_fixed_point():
    started = time.perf_counter()
    model = QuadraticPotential(data=[[0.0]], precision=[[0.5]])
    config = SamplerConfig(
        n_steps=1_010_000,
        step=0.5,
        gamma=2.0,
        xi=1.0,
        burn_in=10_000,
        record_stride=1,
        seed=42,
        record_velocity=True,
    )
    record = run_chain(config, model)
    tail = record.iterations >= config.burn_in
    joint = np.hstack([record.positions[tail], record.velocities[tail]])
    empirical = np.cov(joint.T)
    coeffs = noise_coefficients(config.dynamics(model))
    predicted = stationary_covariance(coeffs, 2.0 * model.precision)
    rel = np.linalg.norm(empirical - predicted) / np.linalg.norm(predicted)
    report(
        1,
        "stationary (x, v) covariance matches the Lyapunov fixed point",
        rel <= 0.02,
        f"frobenius rel err {rel:.4f} <= 0.02, {1_000_000} post-burn-in steps",
        started,
        budget_s=30.0,
    )


def test_2_noise_moments_match_closed_form_and_stay_psd():
    started = time.perf_counter()
    n = 1_000_000
    rng = np.random.default_rng(314)
    worst = 0.0
    for h in (0.01, 0.1, 1.0):
        coeffs = noise_coefficients(DynamicsParams(gamma=2.0, xi=1.0, step=h))
        e_x, e_v = sample_noise(coeffs, n, rng, steps=1)[0]
        checks = [
            (np.var(e_x, ddof=1), coeffs.s_xx, coeffs.s_xx * np.sqrt(2.0 / (n - 1))),
            (np.var(e_v, ddof=1), coeffs.s_vv, coeffs.s_vv * np.sqrt(2.0 / (n - 1))),
            (
                float(np.cov(e_x, e_v, ddof=1)[0, 1]),
                coeffs.s_xv,
                np.sqrt((coeffs.s_xx * coeffs.s_vv + coeffs.s_xv**2) / (n - 1)),
            ),
        ]
        for observed, exact, se in checks:
            worst = max(worst, abs(observed - exact) / se)
    psd_failures = 0
    for gamma in np.logspace(-2, 2, 10):
        for xi in np.logspace(-3, 2, 10):
            for h in np.logspace(-4, 1, 10):
                c = noise_coefficients(DynamicsParams(gamma=gamma, xi=xi, step=h))
                cov = np.array([[c.s_xx, c.s_xv], [c.s_xv, c.s_vv]])
                eigs = np.linalg.eigvalsh(cov)
                if eigs[0] < -1e-15 * eigs[1]:
                    psd_failures += 1
    report(
        2,
        "noise second moments match closed form and stay PSD on the grid",
        worst <= 5.0 and psd_failures == 0,
        f"worst deviation {worst:.2f} standard errors (cap 5), "
        f"{psd_failures} PSD failures on 1000 parameter triples",
        started,
        budget_s=60.0,
    )


def test_3_enumerated_conditional_means_reproduce_bias_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        b = int(rng.integers(1, min(n, 2) + 1))
        if trial % 2 == 0:
            model = QuadraticPotential.random(
                n_components=n,
                dimension=d,
                max_eigenvalue=2.0,
                min_eigenvalue=0.5,
                seed=trial,
            )
        else:
            local = np.random.default_rng(trial)
            model = LogisticPotential(
                local.standard_normal((n, d)),
                np.where(local.random(n) < 0.5, -1.0, 1.0),
                ridge=0.5,
            )
        x_next = rng.standard_normal(d)
        for kind in ("full", "sg", "svrg", "saga", "sarah", "sarge"):
            estimator = make_estimator(
                kind, model, rng.standard_normal(d), batch_size=b, epoch_length=3
            )
            for _ in range(3):
                estimator.estimate(rng.standard_normal(d), estimator.draw(rng, 1)[0])
            expected_bias = 0.0
            if kind in ("sarah", "sarge"):
                rho_b = mseb_descriptor(
                    kind, n, batch_size=b, epoch_length=3
                ).rho_b
                expected_bias = (1.0 - rho_b) * (
                    estimator.prev_estimate
                    - model.gradient_full(estimator.prev_point)
                )
            mean = conditional_mean_oracle(estimator, model, x_next)
            gap = mean - model.gradient_full(x_next) - expected_bias
            scale = max(1.0, float(np.abs(model.gradient_full(x_next)).max()))
            worst = max(worst, float(np.abs(gap).max()) / scale)
    report(
        3,
        "enumerated conditional means reproduce the bias identities",
        worst <= 1e-12,
        f"20 instances x 6 estimators, worst residual {worst:.2e} <= 1e-12",
        started,
        budget_s=10.0,
    )


def test_4_difference_estimators_are_exact_on_quadratics():
    started = time.perf_counter()
    model = benchmark_quadratic()
    values = {}
    for kind in ("full", "svrg", "sarah"):
        config = SamplerConfig(
            n_steps=100_000,
            step=0.02,
            estimator=kind,
            batch_size=1,
            burn_in=0,
            record_stride=1,
            seed=0,
            diagnostics=True,
        )
        values[kind] = gradient_mse(run_chain(config, model))
    worst = max(values.values())
    report(
        4,
        "full, SVRG, and SARAH gradients are exact on the quadratic family",
        worst <= 1e-20,
        "time-averaged squared gradient error over 1e5 steps: "
        + ", ".join(f"{kind} {value:.2e}" for kind, value in values.items())
        + " (cap 1e-20)",
        started,
        budget_s=60.0,
    )


def test_5_error_orderings_hold_across_sixteen_seeds():
    started = time.perf_counter()
    model = benchmark_quadratic()
    reference = model.mean_potential()
    kinds = ("sg", "saga", "sarge", "svrg")
    grad = {kind: [] for kind in kinds}
    mean_potentials = {kind: [] for kind in kinds}
    for seed in range(16):
        for kind in kinds:
            config = SamplerConfig(
                n_steps=110_000,
                step=0.02,
                estimator=kind,
                batch_size=1,
                burn_in=10_000,
                record_stride=1,
                seed=seed,
                diagnostics=True,
            )
            record = run_chain(config, model)
            grad[kind].append(gradient_mse(record))
            mean_potentials[kind].append(record.mean_potential)
    sarge_below_saga = int(
        np.sum(np.array(grad["sarge"]) < np.array(grad["saga"]))
    )
    saga_below_sg = int(np.sum(np.array(grad["saga"]) < np.array(grad["sg"])))
    potential_mse = {
        kind: float(np.mean((np.array(mean_potentials[kind]) - reference) ** 2))
        for kind in kinds
    }
    ratio = potential_mse["sg"] / potential_mse["svrg"]
    report(
        5,
        "gradient-error and potential-error orderings hold across 16 seeds",
        sarge_below_saga >= 14
        and saga_below_sg >= 14
        and ratio >= 10.0,
        f"sarge<saga in {sarge_below_saga}/16, saga<sg in {saga_below_sg}/16 "
        f"(need 14), sg/svrg potential MSE ratio {ratio:.0f} (need 10)",
        started,
        budget_s=600.0,
    )


def test_6_sampling_bias_floor_scales_with_the_step_size():
    started = time.perf_counter()
    model = QuadraticPotential(data=[[0.0]], precision=[[0.5]])
    mean, cov = model.target_moments()
    floors = {}
    for h in (0.4, 0.2):
        config = SamplerConfig(
            n_steps=135_000,
            step=h,
            gamma=2.0,
            xi=1.0,
            burn_in=10_000,
            record_stride=10,
            seed=3,
            n_chains=16,
        )
        ensemble = run_ensemble(config, model)
        w2 = wasserstein_tracker(ensemble.records, mean, cov)
        floors[h] = float(w2[np.isfinite(w2)][-1])
    ratio = floors[0.4] / floors[0.2]
    report(
        6,
        "exact-gradient W2 floor scales linearly with the step size",
        1.3 <= ratio <= 2.8,
        f"W2 floor {floors[0.4]:.4f} at h=0.4 vs {floors[0.2]:.4f} at h=0.2, "
        f"ratio {ratio:.2f} in [1.3, 2.8]",
        started,
        budget_s=300.0,
    )


def test_7_logistic_benchmark_orderings_at_equal_query_budgets():
    started = time.perf_counter()
    # well-conditioned synthetic binary problem, serialized and re-read
    # through the LIBSVM text format so the whole data path is exercised
    rng = np.random.default_rng(12)
    n, d = 200, 10
    features = rng.standard_normal((n, d))
    gram_max = np.linalg.eigvalsh(features.T @ features).max()
    features *= np.sqrt(8.0 / gram_max)
    truth = rng.standard_normal(d)
    margins = features @ truth
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-margins)), 1.0, -1.0)
    lines = [
        str(int(labels[i]))
        + " "
        + " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(features[i]))
        for i in range(n)
    ]
    dataset = parse_libsvm(lines, n_features=d)
    np.testing.assert_array_equal(dataset.features, features)
    model = LogisticPotential(dataset.features, dataset.labels, ridge=1.0)

    budget = 50 * n
    window_potential = {}
    window_grad_mse = {}
    for kind in ("sg", "svrg", "saga", "sarah", "sarge"):
        config = SamplerConfig(
            n_steps=budget + 200,
            step=0.1,
            estimator=kind,
            batch_size=1,
            burn_in=1,
            record_stride=1,
            seed=0,
            diagnostics=True,
        )
        record = run_chain(config, model)
        assert record.queries[-1] >= budget, kind
        window = (record.queries >= budget // 2) & (record.queries <= budget)
        assert window.any(), kind
        window_potential[kind] = float(np.mean(record.potentials[window]))
        window_grad_mse[kind] = float(np.mean(record.grad_err_sq[window]))
    orderings = {
        "svrg potential <= sg": window_potential["svrg"] <= window_potential["sg"],
        "saga potential <= sg": window_potential["saga"] <= window_potential["sg"],
        "sarah grad MSE <= saga": window_grad_mse["sarah"] <= window_grad_mse["saga"],
        "sarge grad MSE <= saga": window_grad_mse["sarge"] <= window_grad_mse["saga"],
    }
    report(
        7,
        "logistic benchmark orderings hold at equal query budgets",
        all(orderings.values()),
        f"budget {budget} queries; "
        + ", ".join(f"{name}: {ok}" for name, ok in orderings.items()),
        started,
        budget_s=600.0,
    )


def test_8_every_estimator_at_full_batch_reproduces_the_exact_chain():
    started = time.perf_counter()
    model = QuadraticPotential.random(
        n_components=16, dimension=3, max_eigenvalue=4.0, min_eigenvalue=1.0, seed=0
    )

    def run(kind):
        config = SamplerConfig(
            n_steps=200,
            step=0.1,
            estimator=kind,
            batch_size=16,
            epoch_length=1,
            burn_in=0,
            record_stride=1,
            seed=77,
            record_velocity=True,
        )
        return run_chain(config, model)

    reference = run("full")
    mismatches = []
    for kind in ("sg", "svrg", "saga", "sarah", "sarge"):
        record = run(kind)
        if not (
            np.array_equal(record.positions, reference.positions)
            and np.array_equal(record.velocities, reference.velocities)
        ):
            mismatches.append(kind)
    report(
        8,
        "every estimator at full batch reproduces the exact-gradient chain",
        not mismatches,
        "bit-identical trajectories over 200 steps"
        if not mismatches
        else f"diverging estimators: {mismatches}",
        started,
        budget_s=5.0,
    )


def test_9_libsvm_round_trip_and_benchmark_shapes():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(200):
        n_rows = int(rng.integers(1, 40))
        n_features = int(rng.integers(1, 15))
        density = float(rng.uniform(0.1, 1.0))
        labels = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
        features = np.zeros((n_rows, n_features))
        for row in features:
            cols = np.flatnonzero(rng.random(n_features) < density)
            row[cols] = rng.standard_normal(cols.size)
        dataset = Dataset(labels=labels, features=features)
        back = parse_libsvm(
            emit_libsvm(dataset).splitlines(), n_features=n_features
        )
        if back != dataset:
            failures += 1

    expected_shapes = {
        "australian": (690, 14),
        "german.numer": (1000, 24),
        "phishing": (11055, 68),
        "mushrooms": (8124, 112),
    }
    data_dir = Path(__file__).resolve().parent.parent / "data"
    shape_failures = []
    found = 0
    for name, (want_rows, want_features) in expected_shapes.items():
        for candidate in (name, f"{name}.txt", f"{name}.libsvm"):
            path = data_dir / candidate
            if path.exists():
                found += 1
                parsed = parse_libsvm(path)
                if (parsed.n_rows, parsed.n_features) != (want_rows, want_features):
                    shape_failures.append(
                        f"{name}: got ({parsed.n_rows}, {parsed.n_features}), "
                        f"want ({want_rows}, {want_features})"
                    )
                break
    shape_note = (
        f"{found}/4 benchmark files present"
        + (", shapes recovered" if found and not shape_failures else "")
        + ("" if found else " (shape check skipped)")
    )
    report(
        9,
        "LIBSVM round trip is exact and benchmark shapes are recovered",
        failures == 0 and not shape_failures,
        f"{200 - failures}/200 random datasets round-tripped exactly; "
        + (", ".join(shape_failures) if shape_failures else shape_note),
        started,
    )
