"""Chain driver: single chains, seeded ensembles, and convergence tracking.

run_chain couples one gradient estimator to the exact gradient-conditioned
integrator step and records a thinned trace of the trajectory. Every chain
derives two independent generator streams from its seed, one for the
estimator's batch and restart draws and one for the integrator noise, so
changing the estimator never perturbs the thermal noise sequence. That
makes runs with different estimators under the same seed exactly paired,
and makes full-batch runs collapse bit-for-bit onto full-gradient runs.

The step loop draws its randomness in blocks of _BLOCK_STEPS steps: one
integrator.sample_noise call for the noise and one estimator.draw call
for the estimator's draws, each handed to estimate(x, draw) in turn. Both
blocks hold exactly the draws the same steps would make one at a time,
so trajectories are bit-identical to a per-step loop.

The chain state is one (2, d) array [x; v], stepped by
integrator._advance with the block's (2, d) noise row. Each step makes
a new state array, so the row x that estimate and the target are handed
is never written afterwards.

Recording stays cheap inside the loop: a recorded row stores the
position, the query count and (with diagnostics) the estimate. After the
loop the potentials are evaluated with one potential_full call per row,
and the squared gradient errors against one model.gradient_rows pass;
both match what a per-step evaluation would have produced bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .estimators import _check_count, _check_kind, make_estimator, q_metric
from .integrator import (
    DynamicsParams,
    _advance,
    _check_positive,
    _step_columns,
    noise_coefficients,
    sample_noise,
)
from .metrics import GaussianSummary, _bures_w2_rows

__all__ = [
    "SamplerConfig",
    "RunRecord",
    "EnsembleResult",
    "ChainDivergence",
    "run_chain",
    "run_ensemble",
    "wasserstein_tracker",
]

# a chain is declared divergent when ||x|| exceeds this multiple of its
# initial scale (with floor 1), which catches overflow long before inf
_DIVERGENCE_FACTOR = 1e6

# steps whose noise and estimator draws are taken at once; a block holds
# exactly the draws the same steps would make one at a time
_BLOCK_STEPS = 256

# SamplerConfig's checked settings in field order: a count maps to its
# floor, a positive and finite real to None
_SETTINGS = {
    "n_steps": 0, "step": None, "batch_size": 1, "epoch_length": 1, "gamma": None,
    "xi": None, "burn_in": 0, "record_stride": 1, "n_chains": 1, "seed": 0,
}
# SamplerConfig's switches, each True or False
_FLAGS = ("diagnostics", "record_q", "record_velocity", "suppress_noise")


class ChainDivergence(RuntimeError):
    """Raised when a chain's position norm explodes or turns non-finite.

    run_chain also passes the estimator and the position norm with its
    limit; an error built from the first three fields leaves them None.
    """

    def __init__(self, chain_id, step_index, delta, estimator=None, norm=None, limit=None):
        self.chain_id, self.step_index, self.delta = chain_id, step_index, delta
        self.estimator, self.norm, self.limit = estimator, norm, limit
        who = f"chain {chain_id}" if estimator is None else f"{estimator} chain {chain_id}"
        norms = "" if norm is None else f"; norm {norm:.6g}, limit {limit:.6g}"
        super().__init__(
            f"{who} diverged at step {step_index} "
            f"(position norm exceeded {_DIVERGENCE_FACTOR:.0e} x initial scale{norms}; "
            f"delta={delta!r})"
        )


@dataclass
class SamplerConfig:
    """Everything one chain needs besides the model.

    xi defaults to 1/L (resolved against the model at run time) and gamma
    to 2, which keeps delta = gamma xi h of order h/L. Diagnostics are
    off by default: the squared gradient error costs an exact gradient
    per recorded row (evaluated after the loop) and q values cost O(N d).
    seed is a nonnegative integer, and the four switches are True or False.
    """

    n_steps: int
    step: float
    estimator: str = "full"
    batch_size: int = 1
    epoch_length: int | None = None
    gamma: float = 2.0
    xi: float | None = None
    burn_in: int = 10_000
    record_stride: int = 1
    n_chains: int = 1
    seed: int = 0
    x0: object = None
    diagnostics: bool = False
    record_q: bool = False
    record_velocity: bool = False
    suppress_noise: bool = False

    def __post_init__(self):
        _check_kind(self.estimator)
        for name, floor in _SETTINGS.items():
            value = getattr(self, name)
            if value is None and name in ("epoch_length", "xi"):
                continue  # N/b and 1/L, resolved at run time
            if floor is None:
                _check_positive(name, value)
            else:
                _check_count(name, value, floor)
        for name in _FLAGS:
            value = getattr(self, name)
            if type(value) is not bool:
                raise ValueError(f"{name} must be True or False, got {value!r}")
        if self.n_steps > 0 and self.burn_in >= self.n_steps:
            raise ValueError("burn_in must be smaller than n_steps")

    def resolve_xi(self, model):
        return self.xi if self.xi is not None else 1.0 / model.smoothness

    def dynamics(self, model):
        return DynamicsParams(
            gamma=self.gamma, xi=self.resolve_xi(model), step=self.step
        )

    def initial_point(self, model):
        if self.x0 is None:
            return np.zeros(model.dimension)
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim == 0:
            return np.full(model.dimension, float(x0))
        return model._check_point(x0)


@dataclass
class RunRecord:
    """Thinned trace of one chain.

    Row r describes iteration iterations[r]: the position BEFORE that
    step, the potential there, the cumulative gradient queries including
    the estimate used by that step, and (optionally) the squared error of
    that estimate and the q value of the transition it produced. With
    n_steps == 0 the record holds the single initial row.
    """

    chain_id: int
    burn_in: int
    iterations: np.ndarray
    queries: np.ndarray
    potentials: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None
    grad_err_sq: np.ndarray | None
    q_values: np.ndarray | None
    mean_potential: float
    final_mean: np.ndarray
    final_cov: np.ndarray | None
    total_queries: int
    wall_time: float


def run_chain(config, model, seed_seq=None, chain_id=0):
    """Run one chain and return its RunRecord.

    seed_seq defaults to SeedSequence(config.seed); ensembles pass spawned
    children so chains are independent but reproducible.
    """
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    est_stream, noise_stream = seed_seq.spawn(2)
    est_rng = np.random.default_rng(est_stream)
    noise_rng = np.random.default_rng(noise_stream)

    coeffs = noise_coefficients(config.dynamics(model))
    columns = _step_columns(coeffs)
    d = model.dimension
    state = np.zeros((2, d))  # [x; v]
    state[0] = config.initial_point(model)
    x = state[0]
    estimator = make_estimator(
        config.estimator,
        model,
        x,
        batch_size=config.batch_size,
        epoch_length=config.epoch_length,
    )
    limit = _DIVERGENCE_FACTOR * max(float(np.linalg.norm(x)), 1.0)
    limit_sq = limit**2

    n_steps = config.n_steps
    stride = config.record_stride
    n_rows = 1 if n_steps == 0 else (n_steps + stride - 1) // stride
    queries = np.empty(n_rows, dtype=np.int64)
    positions = np.empty((n_rows, d))
    velocities = np.empty((n_rows, d)) if config.record_velocity else None
    estimates = np.empty((n_rows, d)) if config.diagnostics else None
    q_values = np.empty(n_rows) if config.record_q else None

    estimate = estimator.estimate
    record_q = config.record_q

    started = time.perf_counter()
    row = 0
    for first in range(0, n_steps, _BLOCK_STEPS):
        m = min(_BLOCK_STEPS, n_steps - first)
        if config.suppress_noise:
            noise = np.zeros((m, 2, d))
        else:
            noise = sample_noise(coeffs, d, noise_rng, steps=m)
        draws = estimator.draw(est_rng, m)
        for i in range(m):
            k = first + i
            grad = estimate(x, draws[i])
            recording = k % stride == 0
            if recording:
                queries[row] = estimator.query_count
                positions[row] = x
                if velocities is not None:
                    velocities[row] = state[1]
                if estimates is not None:
                    estimates[row] = grad
            state = _advance(state, grad, columns, noise[i])
            if recording:
                if record_q:
                    q_values[row] = q_metric(model, x, state[0])
                row += 1
            x = state[0]
            norm_sq = x.dot(x)  # the BLAS dot of x @ x, without matmul dispatch
            if not norm_sq <= limit_sq:  # catches NaN as well as blowup
                norm = float(np.sqrt(norm_sq))
                raise ChainDivergence(chain_id, k, coeffs.delta, config.estimator, norm, limit)
    if n_steps == 0:
        queries[0] = estimator.query_count
        positions[0] = x
        if velocities is not None:
            velocities[0] = state[1]
        if record_q:
            q_values[0] = np.nan
    potentials = np.fromiter(
        (model.potential_full(p) for p in positions), dtype=float, count=n_rows
    )
    if estimates is None:
        grad_errs = None
    elif n_steps == 0:
        grad_errs = np.full(1, np.nan)
    else:
        err = estimates - model.gradient_rows(positions)
        # stacked (1, d) @ (d, 1) products run the same BLAS dot as err @ err
        grad_errs = (err[:, None, :] @ err[:, :, None])[:, 0, 0]
    wall = time.perf_counter() - started

    iterations = np.arange(n_rows, dtype=np.int64) * stride
    tail = iterations >= config.burn_in
    tail_positions = positions[tail]
    n_tail = tail_positions.shape[0]
    mean_potential, final_mean, final_cov = float(np.nan), np.full(d, np.nan), None
    if n_tail:
        # the last running mean; np.sum would add in another order
        mean_potential = float(np.cumsum(potentials[tail])[-1] / n_tail)
        final_mean = tail_positions[0]
    if n_tail >= 2:
        fit = GaussianSummary.from_samples(tail_positions)
        final_mean, final_cov = fit.mean, fit.cov

    return RunRecord(
        chain_id=chain_id,
        burn_in=config.burn_in,
        iterations=iterations,
        queries=queries,
        potentials=potentials,
        positions=positions,
        velocities=velocities,
        grad_err_sq=grad_errs,
        q_values=q_values,
        mean_potential=mean_potential,
        final_mean=final_mean,
        final_cov=final_cov,
        total_queries=int(estimator.query_count),
        wall_time=wall,
    )


@dataclass
class EnsembleResult:
    """Per-chain records plus across-chain means on the shared grid.

    Chains share the recorded-iteration grid; queries can differ between
    chains for estimators with random restarts, so the aggregate query
    axis is the across-chain mean. samples holds every chain's
    post-burn-in positions, chain by chain; pooled is their Gaussian fit,
    None when there are fewer than d + 1 of them.
    """

    records: list
    iterations: np.ndarray
    mean_queries: np.ndarray
    mean_potentials: np.ndarray
    mean_grad_err_sq: np.ndarray | None
    mean_q_values: np.ndarray | None
    samples: np.ndarray
    pooled: GaussianSummary | None


def run_ensemble(config, model):
    """Run config.n_chains chains with independently spawned seed streams."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    records = [
        run_chain(config, model, seed_seq=child, chain_id=j)
        for j, child in enumerate(children)
    ]
    # every chain has the same n_steps and stride, hence the same grid
    iterations = records[0].iterations
    mean_queries = np.mean([r.queries for r in records], axis=0)
    mean_potentials = np.mean([r.potentials for r in records], axis=0)
    mean_grad = (
        np.mean([r.grad_err_sq for r in records], axis=0)
        if config.diagnostics
        else None
    )
    mean_q = (
        np.mean([r.q_values for r in records], axis=0) if config.record_q else None
    )
    tail = iterations >= config.burn_in
    samples = np.concatenate([r.positions[tail] for r in records])
    pooled = None
    if samples.shape[0] >= model.dimension + 1:
        pooled = GaussianSummary.from_samples(samples)
    return EnsembleResult(
        records=records,
        iterations=iterations,
        mean_queries=mean_queries,
        mean_potentials=mean_potentials,
        mean_grad_err_sq=mean_grad,
        mean_q_values=mean_q,
        samples=samples,
        pooled=pooled,
    )


def wasserstein_tracker(records, target_mean, target_cov):
    """Gaussian W2 distance to the target along the pooled sample stream.

    At each recorded iteration past burn-in, a Gaussian is fitted to all
    post-burn-in positions pooled across chains up to and including that
    row, and its Bures-Wasserstein distance to the target is returned.
    Rows before burn-in, or with fewer than d + 1 pooled samples, hold
    NaN. Raises if even the full stream is too short to fit a covariance,
    or if a post-burn-in position is not finite.

    The fits come from running sums of the positions and their outer
    products, all rows at once, and one call of the stacked Bures kernel
    that bures_w2 also runs evaluates every fitted row; each row gets the
    bits a per-row fit and bures_w2 call would give it.
    """
    target = GaussianSummary(
        mean=np.asarray(target_mean, dtype=float),
        cov=np.asarray(target_cov, dtype=float),
    )
    iterations = records[0].iterations
    for record in records[1:]:
        if not np.array_equal(record.iterations, iterations):
            raise ValueError("records disagree on the recorded iteration grid")
    burn_in = records[0].burn_in
    d = records[0].positions.shape[1]
    n_chains = len(records)
    tail = iterations >= burn_in
    counts = np.cumsum(tail) * n_chains
    if counts[-1] < d + 1:
        raise ValueError(
            f"only {int(counts[-1])} pooled post-burn-in samples, need at least {d + 1}"
        )

    stacked = np.stack([r.positions for r in records])  # (chains, rows, d)
    masked = np.where(tail[None, :, None], stacked, 0.0)
    cum_sum = np.cumsum(masked.sum(axis=0), axis=0)
    row_outer = np.einsum("cri,crj->rij", masked, masked)
    cum_outer = np.cumsum(row_outer, axis=0)

    fitted = tail & (counts >= d + 1)
    n = counts[fitted][:, None, None]
    means = cum_sum[fitted] / n[:, 0]
    outer = means[:, :, None] * means[:, None, :]
    covs = (cum_outer[fitted] - n * outer) / (n - 1)
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    # a GaussianSummary fit symmetrizes once more; the pass is repeated so
    # every entry, overflowing ones included, keeps the per-row bits
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    if np.isnan(covs).any():
        raise ValueError("pooled post-burn-in positions are not finite")

    w2 = np.full(iterations.shape[0], np.nan)
    w2[fitted] = _bures_w2_rows(means, covs, target)
    return w2
