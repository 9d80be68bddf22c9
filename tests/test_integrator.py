"""Tests for the exact gradient-conditioned integrator.

Reference values were computed once with mpmath at 50 significant digits
and frozen here; the sweep tests recompute them live so the Taylor-branch
seams are exercised on both sides.
"""

import numpy as np
import pytest

from vrhmc.integrator import (
    DynamicsParams,
    _advance,
    _step_columns,
    noise_coefficients,
    sample_noise,
    stationary_covariance,
)

# mpmath, 50 digits, gamma=2, xi=1, h=0.1 (delta = 0.2)
FROZEN_REFERENCE = {
    "delta": 0.2,
    "c_vv": 0.8187307530779818586699,
    "c_vg": 0.09063462346100907066503,
    "c_xv": 0.09063462346100907066503,
    "c_xg": 0.004682688269495464667484,
    "s_vv": 0.3296799539643606992556,
    "s_xv": 0.01642926993983779170228,
    "s_xx": 0.001150741569072033483827,
    "l_xx": 0.03392258199300332568698,
    "l_vx": 0.4843166107823513343504,
    "l_vv": 0.3084110479289889292087,
}

# same source, gamma=2, xi=1, varying h
FROZEN_SECOND_MOMENTS = {
    0.01: (1.3135186744998610114e-6, 0.00019604626940630249879, 0.039210560847676790561),
    1.0: (0.38075637351442914682, 0.37382253620775439825, 0.98168436111126581971),
}


def mp_coefficients(gamma, xi, h):
    """Recompute every coefficient at 50 digits. Test-only oracle."""
    import mpmath as mp

    with mp.workdps(50):
        g = mp.mpf(repr(float(gamma)))
        x = mp.mpf(repr(float(xi)))
        hh = mp.mpf(repr(float(h)))
        d = g * x * hh
        em1 = mp.expm1(-d)
        values = {
            "delta": d,
            "c_vv": mp.e**-d,
            "c_vg": -em1 / (g * x),
            "c_xv": -em1 / g,
            "c_xg": (d + em1) / (g**2 * x),
            "s_vv": -mp.expm1(-2 * d) / x,
            "s_xv": em1**2 / (g * x),
            "s_xx": (2 * d - 3 + 4 * mp.e**-d - mp.e ** (-2 * d)) / (g**2 * x),
        }
        values["l_xx"] = mp.sqrt(values["s_xx"])
        values["l_vx"] = values["s_xv"] / values["l_xx"]
        values["l_vv"] = mp.sqrt(values["s_vv"] - values["s_xv"] ** 2 / values["s_xx"])
        return {k: float(v) for k, v in values.items()}


class TestNoiseCoefficients:
    def test_frozen_reference_point(self):
        coeffs = noise_coefficients(DynamicsParams(gamma=2.0, xi=1.0, step=0.1))
        for name, want in FROZEN_REFERENCE.items():
            np.testing.assert_allclose(
                getattr(coeffs, name), want, rtol=1e-12, err_msg=name
            )

    @pytest.mark.parametrize("h", sorted(FROZEN_SECOND_MOMENTS))
    def test_frozen_second_moments(self, h):
        coeffs = noise_coefficients(DynamicsParams(gamma=2.0, xi=1.0, step=h))
        want = FROZEN_SECOND_MOMENTS[h]
        np.testing.assert_allclose(
            (coeffs.s_xx, coeffs.s_xv, coeffs.s_vv), want, rtol=1e-12
        )

    def test_matches_high_precision_across_delta_range(self):
        """Sweep delta from 1e-10 to 50, both sides of the Taylor seam."""
        deltas = np.concatenate(
            [
                np.logspace(-10, np.log10(50.0), 31),
                [0.045, 0.0499, 0.05, 0.0501, 0.055],
            ]
        )
        for delta in deltas:
            for gamma, xi in ((1.0, 1.0), (2.0, 0.05), (0.3, 8.0)):
                h = delta / (gamma * xi)
                coeffs = noise_coefficients(DynamicsParams(gamma, xi, h))
                want = mp_coefficients(gamma, xi, h)
                for name, value in want.items():
                    np.testing.assert_allclose(
                        getattr(coeffs, name),
                        value,
                        rtol=1e-12,
                        err_msg=f"{name} at delta={delta}",
                    )

    def test_small_delta_leading_orders(self):
        gamma, xi = 2.0, 0.5
        h = 1e-8 / (gamma * xi)
        coeffs = noise_coefficients(DynamicsParams(gamma, xi, h))
        delta = coeffs.delta
        np.testing.assert_allclose(coeffs.s_vv, 2 * delta / xi, rtol=1e-7)
        np.testing.assert_allclose(coeffs.s_xv, delta**2 / (gamma * xi), rtol=1e-7)
        np.testing.assert_allclose(
            coeffs.s_xx, 2 * delta**3 / (3 * gamma**2 * xi), rtol=1e-7
        )
        np.testing.assert_allclose(coeffs.c_xv, delta / gamma, rtol=1e-7)

    def test_large_delta_asymptotes(self):
        coeffs = noise_coefficients(DynamicsParams(gamma=4.0, xi=2.0, step=10.0))
        np.testing.assert_allclose(coeffs.s_vv, 1.0 / 2.0, rtol=1e-12)
        assert coeffs.c_vv < 1e-30

    def test_momentum_variance_identity(self):
        # stationary velocity variance of the free chain is exactly 1/xi
        rng = np.random.default_rng(5)
        for _ in range(200):
            gamma = 10.0 ** rng.uniform(-2, 2)
            xi = 10.0 ** rng.uniform(-2, 2)
            h = 10.0 ** rng.uniform(-6, 1)
            coeffs = noise_coefficients(DynamicsParams(gamma, xi, h))
            np.testing.assert_allclose(
                coeffs.c_vv**2 / xi + coeffs.s_vv, 1.0 / xi, rtol=1e-13
            )

    def test_covariance_psd_and_cholesky_on_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            gamma = 10.0 ** rng.uniform(-2, 2)
            xi = 10.0 ** rng.uniform(-3, 3)
            h = 10.0 ** rng.uniform(-7, 1.5)
            coeffs = noise_coefficients(DynamicsParams(gamma, xi, h))
            cov = np.array(
                [[coeffs.s_xx, coeffs.s_xv], [coeffs.s_xv, coeffs.s_vv]]
            )
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-18 * max(eigs.max(), 1.0)
            chol = np.array([[coeffs.l_xx, 0.0], [coeffs.l_vx, coeffs.l_vv]])
            np.testing.assert_allclose(
                chol @ chol.T, cov, rtol=1e-10, atol=1e-300
            )

    def test_rejects_bad_parameters(self):
        for bad in (
            dict(gamma=0.0, xi=1.0, step=0.1),
            dict(gamma=1.0, xi=-2.0, step=0.1),
            dict(gamma=1.0, xi=1.0, step=0.0),
        ):
            with pytest.raises(ValueError):
                DynamicsParams(**bad)

    def test_rejects_a_bool(self):
        with pytest.raises(ValueError, match="^xi must be a real number, got True$"):
            DynamicsParams(gamma=1.0, xi=True, step=0.1)

    @pytest.mark.parametrize("name", ("gamma", "xi", "step"))
    @pytest.mark.parametrize("value", (np.nan, np.inf))
    def test_rejects_non_finite_parameters(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            DynamicsParams(**{**dict(gamma=1.0, xi=1.0, step=0.1), name: value})


class TestStep:
    """The noise blocks and the update that run_chain applies each step."""

    def test_matches_ode_solver_with_constant_gradient(self):
        """Noise-free step equals the flow of dx = xi v dt, dv = (-gamma xi v - g) dt."""
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(3)
        for _ in range(5):
            gamma = 10.0 ** rng.uniform(-1, 1)
            xi = 10.0 ** rng.uniform(-1, 1)
            h = 10.0 ** rng.uniform(-2, 0)
            d = 3
            x0, v0 = rng.standard_normal(d), rng.standard_normal(d)
            g = rng.standard_normal(d)
            coeffs = noise_coefficients(DynamicsParams(gamma, xi, h))
            x, v = _advance(np.array([x0, v0]), g, _step_columns(coeffs), 0.0)

            def field(_, y):
                x, v = y[:d], y[d:]
                return np.concatenate([xi * v, -gamma * xi * v - g])

            sol = solve_ivp(
                field, (0.0, h), np.concatenate([x0, v0]),
                rtol=1e-12, atol=1e-14, dense_output=False,
            )
            np.testing.assert_allclose(x, sol.y[:d, -1], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(v, sol.y[d:, -1], rtol=1e-9, atol=1e-12)

    def test_semigroup_composition(self):
        # two noise-free half steps against one full step, frozen gradient
        rng = np.random.default_rng(9)
        x0, v0, g = rng.standard_normal((3, 4))
        half = noise_coefficients(DynamicsParams(1.3, 0.7, 0.05))
        full = noise_coefficients(DynamicsParams(1.3, 0.7, 0.10))
        half, full = _step_columns(half), _step_columns(full)
        x, v = _advance(_advance(np.array([x0, v0]), g, half, 0.0), g, half, 0.0)
        direct_x, direct_v = _advance(np.array([x0, v0]), g, full, 0.0)
        np.testing.assert_allclose(x, direct_x, rtol=1e-13)
        np.testing.assert_allclose(v, direct_v, rtol=1e-13)

    def test_free_dynamics_velocity_marginal(self):
        """Zero gradient: v equilibrates to variance 1/xi."""
        xi = 2.5
        coeffs = noise_coefficients(DynamicsParams(gamma=2.0, xi=xi, step=0.3))
        noise = sample_noise(coeffs, 8, np.random.default_rng(11), steps=40_000)
        state, zero, columns = np.zeros((2, 8)), np.zeros(8), _step_columns(coeffs)
        samples = []
        for k in range(40_000):
            state = _advance(state, zero, columns, noise[k])
            if k >= 2_000:
                samples.append(state[1])
        var = np.concatenate(samples).var()
        # generous band; correlated draws inflate the naive standard error
        np.testing.assert_allclose(var, 1.0 / xi, rtol=0.05)

    @pytest.mark.parametrize("d", (1, 5, 112))
    def test_stacked_update_matches_the_two_line_formula_bitwise(self, d):
        rng = np.random.default_rng(d)
        c = noise_coefficients(DynamicsParams(1.7, 0.6, 0.2))
        for _ in range(20):
            state, g = rng.standard_normal((2, d)), rng.standard_normal(d)
            x, v = state
            for noise in (sample_noise(c, d, rng, steps=1)[0], 0.0):
                e_x, e_v = (noise, noise) if np.isscalar(noise) else noise
                want = np.array([
                    x + c.c_xv * v - c.c_xg * g + e_x,
                    c.c_vv * v - c.c_vg * g + e_v,
                ])
                before = state.copy()
                got = _advance(state, g, _step_columns(c), noise)
                assert got.tobytes() == want.tobytes()
                assert state.tobytes() == before.tobytes()

    def test_sample_noise_consumes_one_block(self):
        coeffs = noise_coefficients(DynamicsParams(2.0, 1.0, 0.1))
        rng = np.random.default_rng(21)
        shadow = np.random.default_rng(21)
        e_x, e_v = sample_noise(coeffs, 5, rng, steps=1)[0]
        z = shadow.standard_normal((2, 5))
        np.testing.assert_allclose(e_x, coeffs.l_xx * z[0], rtol=1e-15)
        np.testing.assert_allclose(
            e_v, coeffs.l_vx * z[0] + coeffs.l_vv * z[1], rtol=1e-15
        )
        # streams stay aligned afterwards
        assert rng.integers(1 << 30) == shadow.integers(1 << 30)

    def test_noise_block_equals_successive_single_draws(self):
        coeffs = noise_coefficients(DynamicsParams(2.0, 0.7, 0.3))
        rng = np.random.default_rng(5)
        shadow = np.random.default_rng(5)
        block = sample_noise(coeffs, 3, rng, steps=7)
        assert block.shape == (7, 2, 3)
        for k in range(7):
            single = sample_noise(coeffs, 3, shadow, steps=1)
            np.testing.assert_array_equal(block[k], single[0])
        assert rng.integers(1 << 30) == shadow.integers(1 << 30)


class TestStationaryCovariance:
    def make_hessian(self, rng, d):
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = 10.0 ** rng.uniform(-0.5, 0.8, size=d)
        hessian = basis @ np.diag(eigs) @ basis.T
        return 0.5 * (hessian + hessian.T)

    def test_fixed_point_and_scipy_agreement(self):
        from scipy.linalg import solve_discrete_lyapunov

        rng = np.random.default_rng(7)
        for d in (1, 2, 4):
            hessian = self.make_hessian(rng, d)
            coeffs = noise_coefficients(DynamicsParams(2.0, 0.8, 0.05))
            cov = stationary_covariance(coeffs, hessian)
            eye = np.eye(d)
            transfer = np.block(
                [
                    [eye - coeffs.c_xg * hessian, coeffs.c_xv * eye],
                    [-coeffs.c_vg * hessian, coeffs.c_vv * eye],
                ]
            )
            forcing = np.block(
                [
                    [coeffs.s_xx * eye, coeffs.s_xv * eye],
                    [coeffs.s_xv * eye, coeffs.s_vv * eye],
                ]
            )
            residual = cov - (transfer @ cov @ transfer.T + forcing)
            assert np.abs(residual).max() < 1e-12 * np.abs(cov).max()
            reference = solve_discrete_lyapunov(transfer, forcing)
            np.testing.assert_allclose(cov, reference, rtol=1e-10, atol=1e-14)

    def test_rejects_unstable_step(self):
        hessian = np.array([[20.0]])
        coeffs = noise_coefficients(DynamicsParams(2.0, 1.0, 5.0))
        with pytest.raises(ValueError):
            stationary_covariance(coeffs, hessian)
