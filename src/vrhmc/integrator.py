"""Exact gradient-conditioned discretization of underdamped Langevin dynamics.

The continuous dynamics on position x and velocity v are

    dX_t = xi * V_t dt
    dV_t = -grad f(X_t) dt - gamma * xi * V_t dt + sqrt(2 * gamma) dB_t,

whose invariant density is proportional to exp(-f(x) - xi * ||v||^2 / 2).
Freezing the gradient over one step of length h makes the dynamics an
Ornstein-Uhlenbeck process that can be integrated in closed form. With
delta = gamma * xi * h, one step reads

    x' = x + c_xv * v - c_xg * g + e_x
    v' = c_vv * v - c_vg * g + e_v

where g is the (estimated) gradient held fixed over the step and
(e_x, e_v) is centered Gaussian noise with per-coordinate covariance

    s_vv = (1 - exp(-2 delta)) / xi
    s_xv = (1 - exp(-delta))^2 / (gamma xi)
    s_xx = (2 delta - 3 + 4 exp(-delta) - exp(-2 delta)) / (gamma^2 xi).

The deterministic coefficients are

    c_vv = exp(-delta)
    c_vg = (1 - exp(-delta)) / (gamma xi)
    c_xv = (1 - exp(-delta)) / gamma
    c_xg = (delta - 1 + exp(-delta)) / (gamma^2 xi).

Both s_xx and the Schur complement s_vv - s_xv^2 / s_xx lose all their
leading digits if evaluated naively as delta -> 0, so noise_coefficients
switches to Taylor expansions below a small-delta threshold and otherwise
rearranges the brackets around expm1. The result is accurate to about
1e-12 relative over delta in [1e-10, 50].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DynamicsParams",
    "NoiseCoefficients",
    "noise_coefficients",
    "sample_noise",
    "stationary_covariance",
]

# switch point between the rearranged closed forms and their Taylor series
_TAYLOR_THRESHOLD = 5e-2


def _check_real(name, value):
    """Refuse a value that is not a Python or numpy real (a bool is not one)."""
    if type(value) not in (int, float) and not isinstance(
        value, (np.integer, np.floating)
    ):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_positive(name, value):
    """Refuse a value that is not a real (see _check_real), or not positive
    and finite, NaN included."""
    _check_real(name, value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class DynamicsParams:
    """Friction gamma, inverse velocity-scale xi, and step size h."""

    gamma: float
    xi: float
    step: float

    def __post_init__(self):
        for name in ("gamma", "xi", "step"):
            _check_positive(name, getattr(self, name))

    @property
    def delta(self):
        return self.gamma * self.xi * self.step


@dataclass(frozen=True)
class NoiseCoefficients:
    """Closed-form step coefficients for one (gamma, xi, h) triple.

    l_xx, l_vx, l_vv are the Cholesky factors of the 2x2 per-coordinate
    noise covariance [[s_xx, s_xv], [s_xv, s_vv]]: the noise is sampled as
    e_x = l_xx z1, e_v = l_vx z1 + l_vv z2 with z1, z2 standard normal.
    """

    delta: float
    c_vv: float
    c_vg: float
    c_xv: float
    c_xg: float
    s_vv: float
    s_xv: float
    s_xx: float
    l_xx: float
    l_vx: float
    l_vv: float


def _horner(delta, coefficients):
    """c_0 + delta * (c_1 + delta * (... + delta * c_n)), innermost first."""
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = c + delta * acc
    return acc


def _delta_minus_em1(delta):
    """delta - 1 + exp(-delta), accurate near zero.

    Series: sum_{k>=2} (-delta)^k / k!, truncation below 5e-15 relative
    at the branch seam.
    """
    if delta < _TAYLOR_THRESHOLD:
        return delta * delta * _horner(
            delta,
            (
                1.0 / 2.0, -1.0 / 6.0, 1.0 / 24.0, -1.0 / 120.0,
                1.0 / 720.0, -1.0 / 5040.0, 1.0 / 40320.0,
            ),
        )
    return delta + math.expm1(-delta)


def _sxx_bracket(delta, em1):
    """2 delta - 3 + 4 exp(-delta) - exp(-2 delta), accurate near zero.

    Series: sum_{k>=3} (-1)^k (4 - 2^k) / k! delta^k. Above the threshold
    the bracket is computed as 2 (delta - 1 + exp(-delta)) minus
    (1 - exp(-delta))^2: exact algebra, but the subtraction cancels two
    O(delta^2) quantities down to O(delta^3), so its relative error grows
    like 3e-16 / delta^2 and the seam sits where both branches stay
    comfortably below 1e-12.
    """
    if delta < _TAYLOR_THRESHOLD:
        return delta**3 * _horner(
            delta,
            (
                2.0 / 3.0, -1.0 / 2.0, 7.0 / 30.0, -1.0 / 12.0, 31.0 / 1260.0,
                -1.0 / 160.0, 127.0 / 90720.0, -17.0 / 60480.0, 511.0 / 9979200.0,
            ),
        )
    return 2.0 * _delta_minus_em1(delta) - em1 * em1


def _schur_bracket(delta, em1, em2, sxx_bracket):
    """xi times the Schur complement s_vv - s_xv^2 / s_xx.

    Series: delta/2 - delta^2/8 + 7 delta^3/480 + delta^4/1920
            - 107 delta^5/268800 + 89 delta^6/3225600
            + 523 delta^7/64512000 + ...
    """
    if delta < _TAYLOR_THRESHOLD:
        return delta * _horner(
            delta,
            (
                1.0 / 2.0, -1.0 / 8.0, 7.0 / 480.0, 1.0 / 1920.0,
                -107.0 / 268800.0, 89.0 / 3225600.0, 523.0 / 64512000.0,
            ),
        )
    return em2 - em1**4 / sxx_bracket


def noise_coefficients(params: DynamicsParams) -> NoiseCoefficients:
    """Evaluate all step coefficients for the given dynamics parameters.

    The 2x2 noise covariance is factored here once; sampling a step's
    noise then costs two standard normal draws per coordinate.
    """
    gamma, xi = params.gamma, params.xi
    delta = params.delta
    e1 = math.exp(-delta)
    em1 = -math.expm1(-delta)  # 1 - exp(-delta)
    em2 = -math.expm1(-2.0 * delta)  # 1 - exp(-2 delta)

    dm = _delta_minus_em1(delta)
    sxx_br = _sxx_bracket(delta, em1)
    schur_br = _schur_bracket(delta, em1, em2, sxx_br)
    if schur_br < 0.0:
        if schur_br < -1e-12 * em2:
            raise ArithmeticError(
                f"noise covariance lost positive definiteness at delta={delta!r}"
            )
        schur_br = 0.0

    s_xx = sxx_br / (gamma * gamma * xi)
    l_xx = math.sqrt(s_xx)
    s_xv = em1 * em1 / (gamma * xi)
    return NoiseCoefficients(
        delta=delta,
        c_vv=e1,
        c_vg=em1 / (gamma * xi),
        c_xv=em1 / gamma,
        c_xg=dm / (gamma * gamma * xi),
        s_vv=em2 / xi,
        s_xv=s_xv,
        s_xx=s_xx,
        l_xx=l_xx,
        l_vx=s_xv / l_xx,
        l_vv=math.sqrt(schur_br / xi),
    )


def sample_noise(coeffs: NoiseCoefficients, dimension, rng, steps):
    """Draw the correlated step noise (e_x, e_v) of `steps` steps at once.

    The result is one (steps, 2, dimension) array whose [k, 0] and [k, 1]
    rows are step k's e_x and e_v. A block of m steps is bit-identical to
    m successive steps=1 blocks from the same generator, because
    standard_normal fills its output in the same order either way.
    """
    z = rng.standard_normal((steps, 2, dimension))
    e_v = coeffs.l_vx * z[:, 0] + coeffs.l_vv * z[:, 1]
    z[:, 0] *= coeffs.l_xx
    z[:, 1] = e_v
    return z


def _step_columns(coeffs: NoiseCoefficients):
    """The (2, 1) columns [c_xv; c_vv] and [c_xg; c_vg] that _advance takes."""
    return (
        np.array([[coeffs.c_xv], [coeffs.c_vv]]),
        np.array([[coeffs.c_xg], [coeffs.c_vg]]),
    )


def _advance(state, gradient, columns, noise):
    """One step of the (2, d) state [x; v] with the gradient held fixed.

    This is the update run_chain applies. columns comes from
    _step_columns and noise is a (2, d) row [e_x; e_v] of sample_noise,
    or 0.0. The result is a new (2, d) array; state is not written. Each
    element gets the roundings of x + c_xv v - c_xg g + e_x and
    c_vv v - c_vg g + e_v, because IEEE addition commutes exactly.
    """
    v_column, g_column = columns
    advanced = v_column * state[1]
    advanced[0] += state[0]
    advanced -= g_column * gradient
    advanced += noise
    return advanced


def stationary_covariance(coeffs: NoiseCoefficients, hessian):
    """Stationary covariance of the chain on a quadratic potential.

    On a target with constant Hessian H the exact-gradient chain is the
    linear recursion z' = A z + noise on z = (x, v), with

        A = [[I - c_xg H, c_xv I], [-c_vg H, c_vv I]]

    and noise covariance W assembled from (s_xx, s_xv, s_vv). This solves
    the discrete Lyapunov equation P = A P A^T + W by doubling: it
    accumulates sum_j A^j W (A^j)^T while squaring A, which converges once
    the spectral radius of A is below one.
    """
    hessian = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = hessian.shape[0]
    if hessian.shape != (d, d):
        raise ValueError("hessian must be square")
    eye = np.eye(d)
    a = np.block(
        [
            [eye - coeffs.c_xg * hessian, coeffs.c_xv * eye],
            [-coeffs.c_vg * hessian, coeffs.c_vv * eye],
        ]
    )
    radius = np.max(np.abs(np.linalg.eigvals(a)))
    if radius >= 1.0:
        raise ValueError(
            f"update matrix has spectral radius {radius:.6f} >= 1; "
            "the chain has no stationary covariance at this step size"
        )
    w = np.block(
        [
            [coeffs.s_xx * eye, coeffs.s_xv * eye],
            [coeffs.s_xv * eye, coeffs.s_vv * eye],
        ]
    )
    cov = w.copy()
    m = a.copy()
    for _ in range(200):
        update = m @ cov @ m.T
        cov += update
        if np.max(np.abs(update)) <= 1e-16 * np.max(np.abs(cov)):
            break
        m = m @ m
    return 0.5 * (cov + cov.T)
