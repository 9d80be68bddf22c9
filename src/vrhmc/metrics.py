"""Accuracy metrics: Gaussian 2-Wasserstein distance, MSEs, held-out NLL.

The Gaussian W2 runs as one stacked Bures kernel: a pair (bures_w2) is
its one-row case, and sampler.wasserstein_tracker hands it every
recorded row at once. Each row is put in the same canonical order
against the other Gaussian by comparing their bytes, which makes the
distance exactly symmetric and gives a row the same bits whether it is
evaluated alone or in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import _softplus_in_place

__all__ = [
    "GaussianSummary",
    "bures_w2",
    "gradient_mse",
    "potential_mse",
    "test_nll",
    "test_nll_per_sample",
]


@dataclass(frozen=True)
class GaussianSummary:
    """Mean vector and covariance matrix of a Gaussian fit."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be a vector and cov a matching square matrix")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(cov).max())):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @classmethod
    def from_samples(cls, samples):
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[0] < 2:
            raise ValueError("need at least two samples to fit a covariance")
        mean = samples.mean(axis=0)
        centered = samples - mean
        cov = centered.T @ centered / (samples.shape[0] - 1)
        return cls(mean=mean, cov=cov)


def _sqrtm_psd(matrices):
    # symmetric square roots of a stack of matrices via eigendecomposition,
    # clamping the tiny negative eigenvalues that sample covariances produce;
    # eigh and matmul run each matrix of the stack through the same LAPACK
    # and BLAS calls a single matrix takes, so every root has its own bits
    eigvals, eigvecs = np.linalg.eigh(matrices)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)[..., None, :]) @ eigvecs.swapaxes(-1, -2)


def _bures_w2_rows(means, covs, target):
    """W2 from each Gaussian (means[r], covs[r]) to the GaussianSummary target.

    means is (rows, d) and covs (rows, d, d), each covariance symmetric.
    Every row is ordered against the target by bures_w2's byte key, the
    concatenated bytes of mean and covariance, and the formula runs once
    over the whole stack. Returns a (rows,) array.
    """
    n_rows, d = means.shape
    row_keys = np.concatenate([means, covs.reshape(n_rows, d * d)], axis=1).view(np.uint8)
    target_key = np.concatenate([target.mean, target.cov.ravel()]).view(np.uint8)
    # bytes compare unsigned and lexicographically: the first differing
    # byte decides, and equal keys keep the row first
    differs = row_keys != target_key
    first = differs.argmax(axis=1)
    swap = differs.any(axis=1) & (target_key[first] < row_keys[np.arange(n_rows), first])

    mean_a = np.where(swap[:, None], target.mean, means)
    mean_b = np.where(swap[:, None], means, target.mean)
    cov_a = np.where(swap[:, None, None], target.cov, covs)
    cov_b = np.where(swap[:, None, None], covs, target.cov)
    root_a = _sqrtm_psd(cov_a)
    cross = _sqrtm_psd(root_a @ cov_b @ root_a)
    shift = mean_a - mean_b
    # stacked (1, d) @ (d, 1) products run the same BLAS dot as shift @ shift
    w2_sq = (
        (shift[:, None, :] @ shift[:, :, None])[:, 0, 0]
        + np.trace(cov_a, axis1=1, axis2=2)
        + np.trace(cov_b, axis1=1, axis2=2)
        - 2.0 * np.trace(cross, axis1=1, axis2=2)
    )
    return np.sqrt(np.maximum(w2_sq, 0.0))


def bures_w2(a: GaussianSummary, b: GaussianSummary) -> float:
    """2-Wasserstein distance between Gaussians.

    W2^2 = ||mu_a - mu_b||^2
           + tr(C_a + C_b - 2 (C_a^{1/2} C_b C_a^{1/2})^{1/2}).

    The formula is evaluated after ordering the arguments by a canonical
    byte key, so the result is exactly symmetric in its inputs despite the
    asymmetric-looking cross term. A pair is the one-row case of the
    stacked kernel that wasserstein_tracker runs over every recorded row,
    so the ordering rule and the arithmetic live in one place.
    """
    if a.mean.size != b.mean.size:
        raise ValueError("summaries have mismatched dimensions")
    return float(_bures_w2_rows(a.mean[None], a.cov[None], b)[0])


def gradient_mse(record):
    """Time-averaged squared gradient error over post-burn-in recorded steps."""
    if record.grad_err_sq is None:
        raise ValueError("run was recorded without gradient diagnostics")
    mask = record.iterations >= record.burn_in
    if not mask.any():
        raise ValueError("no recorded steps past burn-in")
    return float(record.grad_err_sq[mask].mean())


def potential_mse(records, reference):
    """Mean squared error of per-chain time-averaged potentials.

    reference is the true mean potential under the target; each chain
    contributes (its post-burn-in time average - reference)^2.
    """
    if not records:
        raise ValueError("no run records given")
    deviations = [record.mean_potential - reference for record in records]
    return float(np.mean(np.square(deviations)))


def _held_out_losses(features, labels, samples):
    # (S, N) matrix of log(1 + exp(-y_n a_n^T x_s)) from one stacked
    # product; a sample taken alone can round differently, since a (1, d)
    # @ (d, N) product takes another BLAS path. The matrix is built in the
    # product's own array, so the peak is two (S, N) arrays
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on the number of rows")
    if features.shape[0] == 0 or samples.shape[0] == 0:
        raise ValueError("need at least one test row and one sample")
    losses = samples @ features.T
    np.multiply(labels, losses, out=losses)
    np.negative(losses, out=losses)
    return _softplus_in_place(losses)


def test_nll(features, labels, samples):
    """Average held-out negative log-likelihood per data point.

    Averages log(1 + exp(-y a^T x)) over all test rows and all posterior
    samples x. The prior term is deliberately excluded.
    """
    return float(_held_out_losses(features, labels, samples).mean())


def test_nll_per_sample(features, labels, samples):
    """Average held-out NLL of each sample x_s, as an (S,) array."""
    return _held_out_losses(features, labels, samples).mean(axis=1)
