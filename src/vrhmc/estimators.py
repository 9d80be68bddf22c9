"""Stochastic gradient estimators with bounded mean-squared-error-bias (MSEB).

Each estimator consumes component gradients of a finite-sum potential and
produces a (possibly biased) estimate of the full gradient, maintaining
whatever per-chain memory its recursion needs:

    full   exact gradient, N component queries per call: sg at b = N
    sg     plain minibatch (N/b) sum_{i in B} grad f_i(x), b queries
    svrg   minibatch control variate against a snapshot refreshed with
           probability 1/p per call
    saga   minibatch control variate against a table of the last stored
           gradient per component
    sarah  recursive difference estimator, restarted from the exact
           gradient with probability 1/p per call
    sarge  recursive SAGA-style estimator, never needing full-gradient
           restarts after initialization

All of them (except sg, whose variance is not controlled by iterate
movement) satisfy an MSEB bound: the mean squared error of the estimate
decays geometrically except for a forcing term proportional to

    Q_k = N * sum_i ||grad f_i(x_{k+1}) - grad f_i(x_k)||^2,

and the conditional bias contracts by a factor (1 - rho_b) per step.
mseb_descriptor returns the constants.

Randomness contract: an estimator touches a generator only in
draw(rng, steps), which returns the draws of its next `steps` estimate
calls, one per call: the restart coin first (svrg and sarah, drawn only
when epoch_length > 1), then the batch (None on a sarah restart, and the
full index set, drawn from nothing, at b = N). estimate(x, draw) is the
update and draws nothing, so a block of draws taken ahead holds exactly
what the same calls would draw one at a time; sampler.run_chain takes one
block per block of steps for every kind. svrg and sarah at b = 1 < N <
2**32 on a PCG64 generator (the one run_chain makes) take their block in
one pass over the generator's raw outputs, _coin_and_index_draws, which
yields the bits and the final generator state of the per-call coin and
batch draws; other generators and batch sizes draw call by call.

One-row batches (b = 1) take a row path with the bits of the batch path:
_batch_sum adds 0.0 to the row instead of reducing it, and _commit_table
writes the table row by integer index. Each choice is made from the
batch's own row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ESTIMATOR_KINDS",
    "GradientEstimator",
    "MinibatchGradient",
    "SvrgEstimator",
    "SagaEstimator",
    "SarahEstimator",
    "SargeEstimator",
    "make_estimator",
    "sample_batch",
    "q_metric",
    "MsebDescriptor",
    "mseb_descriptor",
]

ESTIMATOR_KINDS = ("full", "sg", "svrg", "saga", "sarah", "sarge")

# running component-gradient sums are recomputed from the table this often
# to stop float drift over long chains
_RESUM_INTERVAL = 10_000


def _check_kind(kind):
    """Refuse a kind that is not one of ESTIMATOR_KINDS as written."""
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator {kind!r}; choose from {ESTIMATOR_KINDS}")


def _check_count(name, value, low=1, high=None):
    """value, if it is an int or numpy integer (not a bool) in [low, high],
    or in [low, inf) when high is None."""
    if type(value) is not int and not isinstance(value, np.integer):
        rule = "an integer"
    elif low <= value and (high is None or value <= high):
        return value
    elif high is not None:
        rule = f"in [{low}, {high}]"
    else:
        rule = "nonnegative" if low == 0 else f"at least {low}"
    raise ValueError(f"{name} must be {rule}, got {value}")


def sample_batch(rng, n_components, batch_size):
    """Uniform batch of distinct component indices.

    batch_size == n_components returns the full index set without
    consuming random draws, so full-batch runs stay aligned with
    full-gradient runs (sg at b = N) that share a noise stream. Any
    smaller batch is one rng.choice call; at b = 1 that draws the index
    and leaves the generator state integers(0, n_components) would.
    """
    _check_count("batch_size", batch_size, 1, n_components)
    if batch_size == n_components:
        return np.arange(n_components)
    return rng.choice(n_components, size=batch_size, replace=False)


class GradientEstimator:
    """Base class: owns per-chain memory and the gradient-query counter.

    query_count counts component-gradient evaluations, the unit all
    cross-estimator comparisons are aligned by. Initialization costs
    n_components queries for estimators that store gradient state (svrg,
    saga, sarah, sarge) and nothing for full and sg.
    """

    kind = "base"

    def __init__(self, model, batch_size=1):
        _check_count("batch_size", batch_size, 1, model.n_components)
        self.model = model
        self.batch_size = int(batch_size)
        self.query_count = 0
        # with b == N every estimator below reduces algebraically to the
        # exact gradient; routing through gradient_full makes the collapse
        # bit-for-bit rather than merely up to summation order
        self._full_collapse = self.batch_size == model.n_components

    def draw(self, rng, steps):
        """The draws of the next `steps` estimate calls: here one batch each.

        Singleton batches from N > 1 components come from one integers(0,
        N, size=(steps, 1)) call, which yields exactly the indices `steps`
        successive sample_batch calls on the same generator would. At
        b = N all steps share one index set (estimate only reads it).
        """
        n, b = self.model.n_components, self.batch_size
        if b == n:
            return [np.arange(n)] * steps
        if b == 1:
            return rng.integers(0, n, size=(steps, 1))
        return [sample_batch(rng, n, b) for _ in range(steps)]

    def estimate(self, x, draw):
        """Return the gradient estimate at x, updating memory and queries."""
        raise NotImplementedError


class MinibatchGradient(GradientEstimator):
    """Unbiased minibatch gradient (N/b) sum_{i in B} grad f_i(x)."""

    kind = "sg"

    def estimate(self, x, batch):
        self.query_count += len(batch)
        if self._full_collapse:
            return self.model.gradient_full(x)
        scale = self.model.n_components / len(batch)
        return scale * _batch_sum(self.model.gradient_batch(batch, x))


class SvrgEstimator(GradientEstimator):
    """Minibatch gradient with a snapshot control variate.

    Keeps a snapshot point and its exact gradient; each call first decides
    (probability 1/epoch_length) whether to move the snapshot to the
    current point, then returns

        (N/b) sum_{i in B} (grad f_i(x) - grad f_i(snapshot)) + grad f(snapshot).

    A draw is the pair (refresh, batch).
    """

    kind = "svrg"

    def __init__(self, model, x0, batch_size=1, epoch_length=None):
        super().__init__(model, batch_size=batch_size)
        self.epoch_length = _resolve_epoch(
            model.n_components, batch_size, epoch_length
        )
        self.snapshot = np.array(x0, dtype=float)
        self.snapshot_gradient = model.gradient_full(self.snapshot)
        self.query_count = model.n_components

    def draw(self, rng, steps):
        """The (refresh, batch) pairs of the next `steps` calls, the coin
        drawn before the batch within each call. One-row batches from a
        PCG64 generator come from one pass over its raw outputs, which
        yields the bits _restart_coin and sample_batch would, in turn."""
        n, b, p = self.model.n_components, self.batch_size, self.epoch_length
        if _takes_raw_pass(rng, n, b):
            return list(zip(*_coin_and_index_draws(rng, n, p, steps, False)))
        return [(_restart_coin(rng, p), sample_batch(rng, n, b)) for _ in range(steps)]

    def estimate(self, x, draw):
        refresh, batch = draw
        model = self.model
        if refresh:
            self.snapshot = np.array(x, dtype=float)
            self.snapshot_gradient = model.gradient_full(self.snapshot)
            self.query_count += model.n_components
        self.query_count += 2 * len(batch)
        correction = model.gradient_batch(batch, x)
        correction -= model.gradient_batch(batch, self.snapshot)
        scale = model.n_components / len(batch)
        return scale * _batch_sum(correction) + self.snapshot_gradient


class SagaEstimator(GradientEstimator):
    """Minibatch gradient with a per-component gradient table.

    The table phi stores the most recently evaluated gradient of every
    component; each call returns

        (N/b) sum_{i in B} (grad f_i(x) - phi_i) + sum_j phi_j

    and then overwrites phi_i for i in B. The table sum is maintained
    incrementally and recomputed every _RESUM_INTERVAL calls.
    """

    kind = "saga"

    def __init__(self, model, x0, batch_size=1):
        super().__init__(model, batch_size=batch_size)
        self.table = model.gradient_batch(np.arange(model.n_components), x0)
        self.table_sum = self.table.sum(axis=0)
        self.query_count = model.n_components
        self._calls_since_resum = 0

    def estimate(self, x, batch):
        model = self.model
        self.query_count += len(batch)
        fresh = model.gradient_batch(batch, x)
        residual_sum = _batch_sum(fresh - self.table.take(batch, axis=0))
        if self._full_collapse:
            estimate = model.gradient_full(x)
        else:
            scale = model.n_components / len(batch)
            estimate = scale * residual_sum + self.table_sum
        _commit_table(self, batch, fresh, residual_sum)
        return estimate


class SarahEstimator(GradientEstimator):
    """Recursive difference estimator with probabilistic restarts.

    With probability 1/epoch_length a call returns the exact gradient;
    otherwise it returns

        (N/b) sum_{i in B} (grad f_i(x) - grad f_i(x_prev)) + previous estimate.

    The estimate is conditionally biased: the residual against the exact
    gradient contracts by (1 - 1/epoch_length) per call in expectation.
    A draw is the batch, or None for a restart, which draws no batch.
    """

    kind = "sarah"

    def __init__(self, model, x0, batch_size=1, epoch_length=None):
        super().__init__(model, batch_size=batch_size)
        self.epoch_length = _resolve_epoch(
            model.n_components, batch_size, epoch_length
        )
        self.prev_point = np.array(x0, dtype=float)
        self.prev_estimate = model.gradient_full(self.prev_point)
        self.query_count = model.n_components

    def draw(self, rng, steps):
        """The batches of the next `steps` calls, None where the restart
        coin comes up. One-row batches from a PCG64 generator come from
        one pass over its raw outputs, which yields the bits _restart_coin
        and sample_batch would, in turn."""
        n, b, p = self.model.n_components, self.batch_size, self.epoch_length
        if _takes_raw_pass(rng, n, b):
            coins, rows = _coin_and_index_draws(rng, n, p, steps, True)
            return [None if coin else row for coin, row in zip(coins, rows)]
        return [
            None if _restart_coin(rng, p) else sample_batch(rng, n, b)
            for _ in range(steps)
        ]

    def estimate(self, x, batch):
        model = self.model
        if batch is None:
            estimate = model.gradient_full(x)
            self.query_count += model.n_components
        else:
            self.query_count += 2 * len(batch)
            diff = model.gradient_batch(batch, x)
            diff -= model.gradient_batch(batch, self.prev_point)
            scale = model.n_components / len(batch)
            estimate = scale * _batch_sum(diff) + self.prev_estimate
        self.prev_point = np.array(x, dtype=float)
        self.prev_estimate = estimate
        return estimate


class SargeEstimator(GradientEstimator):
    """Recursive table estimator that never restarts from a full gradient.

    Maintains a table psi with running sum and the previous estimate. With
    w = 1 - b/N, a call at x given previous point x_prev computes for each
    i in B

        psi_new_i = grad f_i(x) - w * grad f_i(x_prev)

    and returns

        (N/b) sum_{i in B} (psi_new_i - psi_i) + sum_j psi_j + w * previous estimate,

    then commits psi_i = psi_new_i for i in B. The conditional bias
    contracts by w per call. Initialization takes the point before the
    start to equal the start, so psi_i = (b/N) grad f_i(x0) and the
    previous estimate is the full gradient at x0; a full-size table would
    blow the first residuals up through the N/b scaling.
    """

    kind = "sarge"

    def __init__(self, model, x0, batch_size=1):
        super().__init__(model, batch_size=batch_size)
        components = model.gradient_batch(np.arange(model.n_components), x0)
        self.prev_estimate = components.sum(axis=0)
        # the caller owns gradient_batch's array, so it becomes the table
        components *= self.batch_size / model.n_components
        self.table = components
        self.table_sum = self.table.sum(axis=0)
        self.prev_point = np.array(x0, dtype=float)
        self.query_count = model.n_components
        self._calls_since_resum = 0

    def estimate(self, x, batch):
        model = self.model
        n = model.n_components
        self.query_count += 2 * len(batch)
        w = 1.0 - len(batch) / n
        fresh = model.gradient_batch(batch, x)
        previous = model.gradient_batch(batch, self.prev_point)
        previous *= w
        fresh -= previous
        residual_sum = _batch_sum(fresh - self.table.take(batch, axis=0))
        if self._full_collapse:
            estimate = model.gradient_full(x)
        else:
            scale = n / len(batch)
            estimate = scale * residual_sum + self.table_sum + w * self.prev_estimate
        _commit_table(self, batch, fresh, residual_sum)
        self.prev_point = np.array(x, dtype=float)
        self.prev_estimate = estimate
        return estimate


def _restart_coin(rng, epoch_length):
    # svrg's refresh and sarah's restart: true with probability
    # 1/epoch_length, and drawing nothing at epoch_length == 1
    return epoch_length == 1 or rng.random() < 1.0 / epoch_length


def _takes_raw_pass(rng, n_components, batch_size):
    # the one-row draws _coin_and_index_draws replays: numpy's 32-bit
    # bounded draw from PCG64, the generator run_chain makes
    return (
        batch_size == 1 < n_components < 2**32
        and type(rng.bit_generator) is np.random.PCG64
    )


def _coin_and_index_draws(rng, n, p, steps, skip_batch_on_coin):
    """The restart coins and (steps, 1) int64 one-row batches of `steps`
    svrg (skip_batch_on_coin False) or sarah (True) calls, with the bits
    and final generator state of _restart_coin and sample_batch called in
    turn, read from PCG64's raw 64-bit outputs in one pass.

    random() is (u >> 11) * 2**-53 of a fresh output u, so it is below
    the float 1.0 / p exactly when u is below ceil(2**53 * (1.0 / p)) << 11
    (both products by 2**53 are exact). integers(0, n) is
    numpy's 32-bit Lemire draw: it multiplies a 32-bit half by n, takes
    the high word, and redraws while the low word is below 2**32 % n.
    The half comes from PCG64's buffer (has_uint32, uinteger) when that
    is set; else it is the low half of a fresh output, whose high half is
    buffered. Raw outputs cannot be put back, so each fetch takes only
    what the remaining calls are sure to use: one output per call at
    p > 1, one per two calls at p = 1. A sarah restart at the row of a
    true coin holds 0 and draws nothing.
    """
    coins = [True] * steps
    indices = [0] * steps
    if p == 1 and skip_batch_on_coin:
        return coins, np.zeros((steps, 1), dtype=np.int64)
    bitgen = rng.bit_generator
    state = bitgen.state
    has_half, half = state["has_uint32"], state["uinteger"]
    coin_limit = math.ceil(2**53 * (1.0 / p)) << 11
    reject_below = 2**32 % n
    raw, pos = [], 0
    for k in range(steps):
        if p > 1:
            if pos == len(raw):
                raw, pos = bitgen.random_raw(steps - k).tolist(), 0
            coin = coins[k] = raw[pos] < coin_limit
            pos += 1
            if coin and skip_batch_on_coin:
                continue
        while True:
            if has_half:
                product, has_half = half * n, 0
            else:
                if pos == len(raw):
                    fetch = steps - k if p > 1 else (steps - k + 1) // 2
                    raw, pos = bitgen.random_raw(fetch).tolist(), 0
                word = raw[pos]
                pos += 1
                product, half, has_half = (word & 0xFFFFFFFF) * n, word >> 32, 1
            if product & 0xFFFFFFFF >= reject_below:
                break
        indices[k] = product >> 32
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has_half, half
    bitgen.state = state
    return coins, np.array(indices, dtype=np.int64).reshape(steps, 1)


def _batch_sum(rows):
    # the batch rows summed over axis 0; one row is copied, not reduced.
    # add.reduce starts from 0.0, so a one-row sum turns -0.0 into +0.0,
    # and so does + 0.0: both keep every other value's bits (NaN included)
    if len(rows) == 1:
        return rows[0] + 0.0
    return rows.sum(axis=0)


def _commit_table(estimator, batch, fresh, residual_sum):
    # saga and sarge: store the batch's fresh table rows, keep table_sum in
    # step with the batch's summed residual (the same sum the estimate
    # used), and re-sum the table every _RESUM_INTERVAL calls against drift
    estimator.table_sum = estimator.table_sum + residual_sum
    if len(batch) == 1:
        # an integer index writes the row without fancy indexing's set-up
        estimator.table[batch[0]] = fresh[0]
    else:
        estimator.table[batch] = fresh
    estimator._calls_since_resum += 1
    if estimator._calls_since_resum >= _RESUM_INTERVAL:
        estimator.table_sum = estimator.table.sum(axis=0)
        estimator._calls_since_resum = 0


def _resolve_epoch(n_components, batch_size, epoch_length):
    # restart period p of svrg and sarah, for the estimators and their
    # MSEB descriptors alike: epoch_length if given, else N/b
    if epoch_length is None:
        return max(1, round(n_components / batch_size))
    return int(_check_count("epoch_length", epoch_length))


def make_estimator(kind, model, x0, batch_size=1, epoch_length=None):
    """Construct an estimator by kind name, initialized at x0."""
    _check_kind(kind)
    x0 = model._check_point(x0)
    if kind in ("full", "sg"):
        # the exact gradient is the minibatch estimator at b = N
        return MinibatchGradient(
            model, batch_size=model.n_components if kind == "full" else batch_size
        )
    if kind in ("svrg", "sarah"):
        cls = SvrgEstimator if kind == "svrg" else SarahEstimator
        return cls(model, x0, batch_size=batch_size, epoch_length=epoch_length)
    cls = SagaEstimator if kind == "saga" else SargeEstimator
    return cls(model, x0, batch_size=batch_size)


def q_metric(model, x_current, x_next):
    """Iterate-movement forcing term N * sum_i ||grad f_i(x') - grad f_i(x)||^2.

    This is the quantity whose decay along a chain drives every MSEB
    estimator's error bound. Costs O(N d) per evaluation.
    """
    x_current = model._check_point(x_current)
    x_next = model._check_point(x_next)
    indices = np.arange(model.n_components)
    diff = model.gradient_batch(indices, x_next)
    diff -= model.gradient_batch(indices, x_current)
    diff *= diff
    return float(model.n_components * np.sum(diff))


@dataclass(frozen=True)
class MsebDescriptor:
    """MSEB constants of an estimator configuration.

    The bound has the shape

        M_k <= M1 * Q_k + F_k + (1 - rho_m) * M_{k-1},
        F_k <= sum_{l<k} M2 * (1 - rho_f)^{k-l} * Q_l,

    with conditional bias contracting by (1 - rho_b). bounded is False for
    plain minibatch gradients, whose error is not controlled by iterate
    movement; their theta is infinite.
    """

    kind: str
    m1: float
    m2: float
    rho_m: float
    rho_f: float
    rho_b: float
    bounded: bool = True

    @property
    def theta(self):
        """Aggregate constant M1/rho_m + M2/(rho_m rho_f) entering step bounds."""
        if not self.bounded:
            return math.inf
        return self.m1 / self.rho_m + self.m2 / (self.rho_m * self.rho_f)


def mseb_descriptor(kind, n_components, batch_size=1, epoch_length=None):
    """MSEB constants for an estimator kind at the given configuration."""
    _check_kind(kind)
    n = _check_count("n_components", n_components)
    b = int(_check_count("batch_size", batch_size, 1, n))
    if kind == "full":
        return MsebDescriptor(kind, m1=0.0, m2=0.0, rho_m=1.0, rho_f=1.0, rho_b=1.0)
    if kind == "sg":
        nan = math.nan
        return MsebDescriptor(
            kind, m1=nan, m2=nan, rho_m=nan, rho_f=nan, rho_b=1.0, bounded=False
        )
    if kind == "saga":
        return MsebDescriptor(
            kind, m1=3.0 * n / b**2, m2=0.0, rho_m=b / (2.0 * n), rho_f=1.0, rho_b=1.0
        )
    if kind == "svrg":
        p = _resolve_epoch(n, b, epoch_length)
        return MsebDescriptor(
            kind, m1=3.0 * p / b, m2=0.0, rho_m=1.0 / (2.0 * p), rho_f=1.0, rho_b=1.0
        )
    if kind == "sarah":
        p = _resolve_epoch(n, b, epoch_length)
        return MsebDescriptor(
            kind, m1=1.0, m2=0.0, rho_m=1.0 / p, rho_f=1.0, rho_b=1.0 / p
        )
    rho = b / (2.0 * n)  # sarge
    return MsebDescriptor(
        kind, m1=12.0, m2=(27.0 + 12.0 * b) / n, rho_m=rho, rho_f=rho, rho_b=b / n
    )
