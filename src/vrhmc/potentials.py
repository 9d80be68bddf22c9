"""Finite-sum potentials for smooth, strongly log-concave targets.

A potential is f(x) = sum_i f_i(x) over n_components smooth terms. The
samplers in this package touch a target only through batch gradients,
full gradients and potential values, so a new target plugs in by
subclassing PotentialModel, setting its four attributes and implementing
gradient_batch, gradient_full and potential_full.
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import _check_count
from .integrator import _check_positive, _check_real

__all__ = [
    "PotentialModel",
    "QuadraticPotential",
    "LogisticPotential",
    "sigmoid",
    "softplus",
]

# the dtype np.asarray(x, dtype=float) leaves an array in as it is
_FLOAT64 = np.dtype(float)

# mean and variance of QuadraticPotential.random's anchor coordinates
_ANCHOR_MEAN = 2.0
_ANCHOR_VARIANCE = 2.0


def sigmoid(t):
    """Logistic function, evaluated without overflow for large |t|."""
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def softplus(t):
    """log(1 + exp(t)) via max(t, 0) + log1p(exp(-|t|)), stable for large |t|."""
    return _softplus_in_place(np.array(t, dtype=float))


def _softplus_in_place(t):
    """Overwrite the float array t with softplus(t) and return it.

    The only temporary is one array the size of t: |t| run through
    negative, exp and log1p with out=. Each element still gets exactly
    max(t, 0) + log1p(exp(-|t|)), the bits of the out-of-place form.
    """
    tail = np.abs(t, out=np.empty_like(t))
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(t, 0.0, out=t)
    t += tail
    return t


class PotentialModel:
    """Base class for finite-sum potentials f(x) = sum_i f_i(x).

    Attributes
    ----------
    n_components : int
        Number of summands N.
    dimension : int
        Dimension d of the state space.
    smoothness : float
        Lipschitz constant L of the full gradient.
    strong_convexity : float
        Strong convexity constant m of f (0 when the model is only convex).

    A subclass sets these and implements the three methods the samplers
    call: gradient_batch(indices, x), the component gradients at x as a
    (len(indices), d) array; gradient_full(x), the gradient of f; and
    potential_full(x), the value f(x) as a float.

    gradient_batch returns a new array that the caller owns: estimators
    scale and subtract into it in place, so it must never be a view of,
    or be kept by, the model. Its indices lie in [0, N); the package
    passes only indices an estimator drew, so they go unchecked. An
    index >= N raises IndexError, and a negative index counts from the
    end, as numpy indexing does.
    """

    n_components: int
    dimension: int
    smoothness: float
    strong_convexity: float

    @property
    def condition_number(self):
        """L / m, and infinite for a target that is only convex (m = 0)."""
        if self.strong_convexity == 0.0:
            return math.inf
        return self.smoothness / self.strong_convexity

    def gradient_rows(self, points):
        """Full gradients at every row of an (n, d) array of points.

        Row r equals gradient_full(points[r]) bit for bit, so diagnostics
        evaluated here after a run match the ones a per-step loop would
        have computed. The default loops over gradient_full; subclasses
        may vectorize only where that identity still holds.
        """
        points = self._check_points(points)
        return np.array([self.gradient_full(p) for p in points]).reshape(points.shape)

    def _check_point(self, x):
        """x as a float64 (d,) array; any other shape raises ValueError.

        An array of type np.ndarray itself, with the native float64 dtype
        and shape (d,), strided or not, comes back as the same object at
        once, as np.asarray(x, dtype=float) would return it. Everything
        else (sequences, other dtypes, byte-swapped arrays, subclasses)
        goes through that conversion.
        """
        if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.shape == (self.dimension,):
            return x
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.dimension},)"
            )
        return x

    def _check_points(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"points have shape {points.shape}, expected (n, {self.dimension})"
            )
        return points


class QuadraticPotential(PotentialModel):
    """Quadratic finite sum f(x) = sum_i (1/N) (d_i - x)^T P (d_i - x).

    P is a symmetric positive-definite precision-like matrix shared by all
    components and d_i are anchor points. The normalized density
    exp(-f(x)) is Gaussian with mean equal to the anchor average and
    covariance P^{-1} / 2; both are available analytically, which makes
    this model the reference target for integrator and estimator checks.

    Because the Hessian of f is 2P, the model reports smoothness 2*max
    eigenvalue of P and strong convexity 2*min eigenvalue of P.
    """

    def __init__(self, data, precision):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        precision = np.asarray(precision, dtype=float)
        n, d = data.shape
        if precision.shape != (d, d):
            raise ValueError(
                f"precision has shape {precision.shape}, expected ({d}, {d})"
            )
        if not np.allclose(precision, precision.T, rtol=0.0, atol=1e-12):
            raise ValueError("precision matrix must be symmetric")
        eigvals, eigvecs = np.linalg.eigh(precision)
        if eigvals[0] <= 0.0:
            raise ValueError("precision matrix must be positive definite")

        self.data = data
        self.precision = precision
        self.n_components = n
        self.dimension = d
        self.smoothness = 2.0 * float(eigvals[-1])
        self.strong_convexity = 2.0 * float(eigvals[0])
        self._row_scale = 2.0 / n
        self._anchor_mean = data.mean(axis=0)
        # covariance of exp(-f): P^{-1} / 2, assembled from the eigenbasis
        self._covariance = (eigvecs / eigvals) @ eigvecs.T / 2.0
        # f(x) = (x - dbar)^T P (x - dbar) + spread, cross terms cancel
        centered = data - self._anchor_mean
        self._potential_offset = float(
            np.sum((centered @ precision) * centered)
        ) / n

    @classmethod
    def random(
        cls,
        n_components,
        dimension,
        max_eigenvalue=10.0,
        min_eigenvalue=1.0,
        seed=0,
    ):
        """Draw a random instance with a controlled precision spectrum.

        Anchors are sampled i.i.d. from N(_ANCHOR_MEAN, _ANCHOR_VARIANCE * I).
        The precision matrix has a random orthogonal eigenbasis; its
        spectrum is pinned to [min_eigenvalue, max_eigenvalue] at the
        endpoints with any interior eigenvalues drawn log-uniformly in
        between. With dimension 1 the single eigenvalue is max_eigenvalue.
        """
        _check_count("n_components", n_components)
        _check_count("dimension", dimension)
        _check_positive("max_eigenvalue", max_eigenvalue)
        _check_positive("min_eigenvalue", min_eigenvalue)
        if min_eigenvalue > max_eigenvalue:
            raise ValueError("need min_eigenvalue <= max_eigenvalue")
        rng = np.random.default_rng(seed)
        data = _ANCHOR_MEAN + np.sqrt(_ANCHOR_VARIANCE) * rng.standard_normal(
            (n_components, dimension)
        )
        if dimension == 1:
            eigvals = np.array([max_eigenvalue])
        else:
            interior = np.exp(
                rng.uniform(
                    np.log(min_eigenvalue), np.log(max_eigenvalue), dimension - 2
                )
            )
            eigvals = np.sort(
                np.concatenate([[min_eigenvalue, max_eigenvalue], interior])
            )
        basis, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
        precision = (basis * eigvals) @ basis.T
        precision = 0.5 * (precision + precision.T)
        return cls(data, precision)

    def gradient_batch(self, indices, x):
        x = self._check_point(x)
        # d x d products use ndarray.dot: the BLAS call of @ without
        # matmul's ufunc dispatch, which costs more than the flops at small d
        if len(indices) == 1:
            # a basic-index row skips take's gather, and the 1-D product
            # runs the gemv numpy gives a one-row matrix, so the bits are
            # the same; an out-of-range index raises IndexError as take does
            row = (x - self.data[indices[0]]).dot(self.precision)
            row *= self._row_scale
            return row[None]
        diffs = self.data.take(indices, axis=0)
        np.subtract(x, diffs, out=diffs)
        rows = diffs.dot(self.precision)
        rows *= self._row_scale
        return rows

    def gradient_full(self, x):
        x = self._check_point(x)
        return 2.0 * self.precision.dot(x - self._anchor_mean)

    def gradient_rows(self, points):
        # a stacked matrix-vector product runs the same BLAS gemv per row
        # as gradient_full does, so the rows match it bit for bit
        points = self._check_points(points)
        centered = points - self._anchor_mean
        return 2.0 * (self.precision @ centered[:, :, None])[:, :, 0]

    def potential_full(self, x):
        # centered closed form, O(d^2) instead of O(N d^2)
        x = self._check_point(x)
        r = x - self._anchor_mean
        return float(r.dot(self.precision).dot(r)) + self._potential_offset

    def target_moments(self):
        """Mean and covariance of the normalized density exp(-f)."""
        return self._anchor_mean.copy(), self._covariance.copy()

    def mean_potential(self):
        """E[f(X)] under the target, in closed form.

        Writing dbar for the anchor average, the expectation is
        d/2 + (1/N) sum_i (dbar - d_i)^T P (dbar - d_i); the d/2 term is
        the trace of P times the target covariance P^{-1}/2.
        """
        return 0.5 * self.dimension + self._potential_offset


class LogisticPotential(PotentialModel):
    """Ridge-regularized logistic regression potential.

    For feature rows a_i with labels y_i in {-1, +1} and ridge weight
    lambda >= 0, the components are

        f_i(x) = (lambda / (2N)) ||x||^2 + log(1 + exp(-y_i a_i^T x)),

    so the full potential is the usual penalized negative log-likelihood
    with the ridge term split evenly across components. The gradient is
    (lambda + max_eig(A^T A)/4)-Lipschitz; smoothness holds that bound with
    the exact largest eigenvalue of A^T A, computed at construction.
    """

    def __init__(self, features, labels, ridge=1.0):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        n, d = features.shape
        if labels.shape != (n,):
            raise ValueError(f"labels have shape {labels.shape}, expected ({n},)")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must take values in {-1, +1}")
        _check_real("ridge", ridge)
        if not 0.0 <= ridge < math.inf:
            raise ValueError("ridge weight must be nonnegative and finite")
        # A^T A and A A^T share their nonzero eigenvalues, so decompose the
        # smaller one; initial=0.0 covers an empty design
        gram = features.T @ features if d <= n else features @ features.T
        if not np.isfinite(gram).all():
            raise ValueError("features are non-finite or overflow A^T A")
        gram_top = float(np.linalg.eigvalsh(gram).max(initial=0.0))
        self.features = features
        self.labels = labels
        self.ridge = float(ridge)
        self.n_components = n
        self.dimension = d
        self.smoothness = self.ridge + gram_top / 4.0
        self.strong_convexity = self.ridge

    def _margins(self, x):
        return self.labels * (self.features @ x)

    def gradient_batch(self, indices, x):
        # take() gathers a fresh copy, which is scaled and shifted in place
        x = self._check_point(x)
        rows = self.features.take(indices, axis=0)
        y = self.labels.take(indices)
        coef = -y * sigmoid(-y * (rows @ x))
        rows *= coef[:, None]
        rows += (self.ridge / self.n_components) * x
        return rows

    def gradient_full(self, x):
        x = self._check_point(x)
        coef = -self.labels * sigmoid(-self._margins(x))
        return self.ridge * x + self.features.T @ coef

    def potential_full(self, x):
        x = self._check_point(x)
        margins = self._margins(x)
        losses = _softplus_in_place(np.negative(margins, out=margins))
        return float(0.5 * self.ridge * (x @ x) + losses.sum())
