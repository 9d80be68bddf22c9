"""Tests for the gradient estimators, their query accounting, and the
MSEB descriptors.

The bias identities are checked by exhaustive enumeration through
conditional_mean_oracle on instances small enough to enumerate; the
contraction factors must come out equal to 1 - rho_b of the matching
descriptor.
"""

import copy
import math

import numpy as np
import pytest

from vrhmc.estimators import (
    _RESUM_INTERVAL,
    _batch_sum,
    _coin_and_index_draws,
    _restart_coin,
    ESTIMATOR_KINDS,
    make_estimator,
    mseb_descriptor,
    q_metric,
    sample_batch,
)
from vrhmc.potentials import LogisticPotential, QuadraticPotential

from oracles import conditional_mean_oracle, gradient_component


def quadratic(seed, n=12, d=3):
    return QuadraticPotential.random(
        n_components=n, dimension=d, max_eigenvalue=5.0, min_eigenvalue=1.0, seed=seed
    )


def logistic(seed, n=8, d=3):
    rng = np.random.default_rng(seed)
    return LogisticPotential(
        rng.standard_normal((n, d)),
        np.where(rng.random(n) < 0.5, -1.0, 1.0),
        ridge=0.9,
    )


def warm_up(estimator, rng, n_calls=3, scale=0.5):
    """Advance the estimator along a random path so its memory is nontrivial."""
    x = np.zeros(estimator.model.dimension)
    for _ in range(n_calls):
        x = x + scale * rng.standard_normal(x.size)
        estimator.estimate(x, estimator.draw(rng, 1)[0])
    return x


class TestSampleBatch:
    def test_full_batch_consumes_no_draws(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        batch = sample_batch(rng, 7, 7)
        np.testing.assert_array_equal(batch, np.arange(7))
        assert rng.bit_generator.state == before

    def test_singleton_batches_are_uniform(self):
        rng = np.random.default_rng(1)
        draws = np.array([int(sample_batch(rng, 3, 1)[0]) for _ in range(30_000)])
        for i in range(3):
            freq = float(np.mean(draws == i))
            assert 0.313 <= freq <= 0.353, f"index {i} frequency {freq}"

    @pytest.mark.parametrize(
        "n", (2, 7, 1000, 2**31 + 11, 2**32 + 5, 2**33, 2**62)
    )
    def test_singleton_batch_is_a_size_one_draw(self, n):
        # interleaved with restart coins, as svrg and sarah draw them
        rng, twin = np.random.default_rng(n % 997), np.random.default_rng(n % 997)
        for _ in range(500):
            assert rng.random() == twin.random()
            got, want = sample_batch(rng, n, 1), twin.integers(0, n, size=1)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_intermediate_batches_are_distinct_and_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            batch = sample_batch(rng, 9, 4)
            assert len(set(batch.tolist())) == 4
            assert batch.min() >= 0 and batch.max() < 9

    def test_rejects_bad_sizes(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_batch(rng, 5, 0)
        with pytest.raises(ValueError):
            sample_batch(rng, 5, 6)


class TestDraws:
    @pytest.mark.parametrize("epoch_length", (1, 3))
    @pytest.mark.parametrize("batch_size", (1, 3, 8))
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_block_replays_per_call_draws(self, kind, batch_size, epoch_length):
        model = logistic(2)
        est = make_estimator(
            kind, model, np.zeros(model.dimension),
            batch_size=batch_size, epoch_length=epoch_length,
        )
        block_rng, call_rng = np.random.default_rng(8), np.random.default_rng(8)
        block = est.draw(block_rng, 20)
        calls = [est.draw(call_rng, 1)[0] for _ in range(20)]
        assert len(block) == 20
        for got, want in zip(block, calls):
            np.testing.assert_equal(got, want)
        assert block_rng.bit_generator.state == call_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ("full", "sg", "saga", "sarge"))
    def test_full_batch_draws_take_nothing_from_the_generator(self, kind):
        model = quadratic(20, n=6)
        est = make_estimator(kind, model, np.zeros(model.dimension), batch_size=6)
        rng = np.random.default_rng(21)
        before = rng.bit_generator.state
        assert len(est.draw(rng, 256)) == 256
        assert rng.bit_generator.state == before

    def test_full_adds_n_queries_per_estimate(self):
        model = quadratic(22, n=6)
        est = make_estimator("full", model, np.zeros(model.dimension))
        x = np.ones(model.dimension)
        for calls, draw in enumerate(est.draw(np.random.default_rng(23), 5), start=1):
            est.estimate(x, draw)
            assert est.query_count == 6 * calls


def per_call_draws(rng, kind, n, p, steps):
    """The draws of `steps` svrg or sarah calls, made one call at a time
    through _restart_coin and sample_batch."""
    draws = []
    for _ in range(steps):
        coin = _restart_coin(rng, p)
        if kind == "svrg":
            draws.append((coin, sample_batch(rng, n, 1)))
        else:
            draws.append(None if coin else sample_batch(rng, n, 1))
    return draws


def twin_generators(seed, buffered, bit_generator=np.random.PCG64):
    """Two generators in one state; buffered leaves PCG64's spare 32-bit
    half set, as one odd integers call does."""
    twins = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if buffered:
        for rng in twins:
            rng.integers(0, 3)
    return twins


def assert_same_generators(rng, twin):
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    assert rng.random() == twin.random()
    assert rng.integers(0, 1000) == twin.integers(0, 1000)
    assert rng.integers(0, 7) == twin.integers(0, 7)


class TestOneRowPass:
    """svrg and sarah at b = 1 read their coins and indices from PCG64's raw
    outputs in one pass; it must give the bits and the generator state of
    the per-call functions. A numpy release that changes how random() or
    integers() use the bit generator fails here."""

    @pytest.mark.parametrize("buffered", (False, True))
    @pytest.mark.parametrize("steps", (1, 255, 256, 257))
    @pytest.mark.parametrize("epoch_length", (1, 2, 3, 13))
    @pytest.mark.parametrize("kind", ("svrg", "sarah"))
    def test_draw_replays_the_per_call_functions(self, kind, epoch_length, steps, buffered):
        model = quadratic(31, n=13)
        est = make_estimator(
            kind, model, np.zeros(model.dimension), batch_size=1, epoch_length=epoch_length
        )
        rng, twin = twin_generators(steps + epoch_length, buffered)
        assert rng.bit_generator.state["has_uint32"] == int(buffered)
        got = est.draw(rng, steps)
        want = per_call_draws(twin, kind, 13, epoch_length, steps)
        assert len(got) == steps
        for g, w in zip(got, want):
            np.testing.assert_equal(g, w)
            batch, ref = (g[1], w[1]) if kind == "svrg" else (g, w)
            if ref is not None:
                assert batch.dtype == ref.dtype and batch.shape == ref.shape
        assert_same_generators(rng, twin)

    @pytest.mark.parametrize("buffered", (False, True))
    @pytest.mark.parametrize("epoch_length", (1, 2, 3))
    @pytest.mark.parametrize("kind", ("svrg", "sarah"))
    def test_pass_replays_rejected_draws(self, kind, epoch_length, buffered):
        # at n = 2**31 + 5 the 32-bit draw rejects about half its tries
        n, steps = 2**31 + 5, 257
        rng, twin = twin_generators(epoch_length, buffered)
        coins, rows = _coin_and_index_draws(rng, n, epoch_length, steps, kind == "sarah")
        want = per_call_draws(twin, kind, n, epoch_length, steps)
        assert rows.shape == (steps, 1) and rows.dtype == np.int64
        for coin, row, w in zip(coins, rows, want):
            if kind == "svrg":
                assert coin is w[0]
                np.testing.assert_array_equal(row, w[1])
            else:
                assert coin is (w is None)
                if w is not None:
                    np.testing.assert_array_equal(row, w)
        assert_same_generators(rng, twin)

    @pytest.mark.parametrize("kind", ("svrg", "sarah"))
    def test_other_bit_generators_draw_per_call(self, kind):
        model = quadratic(32, n=13)
        est = make_estimator(kind, model, np.zeros(model.dimension), epoch_length=3)
        rng, twin = twin_generators(3, False, np.random.Philox)
        got = est.draw(rng, 257)
        want = per_call_draws(twin, kind, 13, 3, 257)
        for g, w in zip(got, want):
            np.testing.assert_equal(g, w)
        assert_same_generators(rng, twin)

    @pytest.mark.parametrize("kind", ("svrg", "sarah"))
    def test_single_component_draws_no_index(self, kind):
        # b = N = 1: the batch is the full index set, drawn from nothing
        model = quadratic(33, n=1)
        est = make_estimator(kind, model, np.zeros(model.dimension), epoch_length=3)
        rng, twin = twin_generators(4, True)
        draws = est.draw(rng, 257)
        coins = [twin.random() < 1 / 3 for _ in range(257)]
        for draw, coin in zip(draws, coins):
            if kind == "svrg":
                assert draw[0] is coin
                np.testing.assert_array_equal(draw[1], [0])
            else:
                assert (draw is None) is coin
                if draw is not None:
                    np.testing.assert_array_equal(draw, [0])
        assert_same_generators(rng, twin)

    def test_sarah_restarting_every_call_takes_nothing(self):
        model = quadratic(34, n=13)
        est = make_estimator("sarah", model, np.zeros(model.dimension), epoch_length=1)
        rng = twin_generators(5, True)[0]
        before = rng.bit_generator.state
        assert est.draw(rng, 256) == [None] * 256
        assert rng.bit_generator.state == before


class TestQueryAccounting:
    def test_initialization_costs(self):
        model = quadratic(0, n=10)
        x0 = np.zeros(model.dimension)
        for kind, want in (
            ("full", 0), ("sg", 0), ("svrg", 10), ("saga", 10),
            ("sarah", 10), ("sarge", 10),
        ):
            est = make_estimator(kind, model, x0, batch_size=2)
            assert est.query_count == want, kind

    def test_flat_per_call_costs(self):
        model = quadratic(1, n=10)
        x0 = np.zeros(model.dimension)
        rng = np.random.default_rng(4)
        x = np.ones(model.dimension)
        for kind, per_call in (("full", 10), ("sg", 2), ("saga", 2), ("sarge", 4)):
            est = make_estimator(kind, model, x0, batch_size=2)
            start = est.query_count
            for k in range(5):
                est.estimate(x, est.draw(rng, 1)[0])
            assert est.query_count - start == 5 * per_call, kind

    def test_svrg_and_sarah_reset_rates(self):
        """Reconstruct reset counts from the query totals, 5 sigma band."""
        model = quadratic(2, n=12)
        x0 = np.zeros(model.dimension)
        calls, p, b = 400, 5, 2
        mean, sigma = calls / p, math.sqrt(calls * (1 / p) * (1 - 1 / p))
        rng = np.random.default_rng(5)
        x = 0.1 * np.ones(model.dimension)

        svrg = make_estimator("svrg", model, x0, batch_size=b, epoch_length=p)
        for _ in range(calls):
            svrg.estimate(x, svrg.draw(rng, 1)[0])
        refreshes = (svrg.query_count - 12 - calls * 2 * b) / 12
        assert refreshes == int(refreshes)
        assert abs(refreshes - mean) <= 5 * sigma

        sarah = make_estimator("sarah", model, x0, batch_size=b, epoch_length=p)
        for _ in range(calls):
            sarah.estimate(x, sarah.draw(rng, 1)[0])
        restarts = (sarah.query_count - 12 - calls * 2 * b) / (12 - 2 * b)
        assert restarts == int(restarts)
        assert abs(restarts - mean) <= 5 * sigma


class TestFullBatchCollapse:
    def test_every_kind_collapses_bitwise(self):
        model = quadratic(3, n=6)
        x0 = np.zeros(model.dimension)
        rng_path = np.random.default_rng(6)
        path = [x0 + 0.3 * rng_path.standard_normal(model.dimension) for _ in range(10)]
        reference = make_estimator("full", model, x0)
        draws = reference.draw(np.random.default_rng(7), len(path))
        wanted = [reference.estimate(x, draw) for x, draw in zip(path, draws)]
        for kind in ESTIMATOR_KINDS:
            est = make_estimator(kind, model, x0, batch_size=6, epoch_length=1)
            rng = np.random.default_rng(7)
            for x, want in zip(path, wanted):
                got = est.estimate(x, est.draw(rng, 1)[0])
                np.testing.assert_array_equal(got, want, err_msg=kind)


class TestWhiteBoxFormulas:
    """Each estimator against its defining formula, spelled out by hand."""

    def setup_method(self):
        self.model = quadratic(4, n=5, d=2)
        self.x0 = np.array([0.2, -0.4])
        self.x1 = np.array([-0.3, 0.5])
        self.grad = lambda i, x: gradient_component(self.model, i, np.asarray(x, float))

    def test_sg(self):
        est = make_estimator("sg", self.model, self.x0, batch_size=2)
        batch = np.array([1, 3])
        want = (5 / 2) * (self.grad(1, self.x1) + self.grad(3, self.x1))
        np.testing.assert_allclose(est.estimate(self.x1, batch), want, rtol=1e-14)

    def test_svrg_without_refresh(self):
        est = make_estimator("svrg", self.model, self.x0, batch_size=2, epoch_length=9)
        batch = np.array([0, 4])
        anchor = sum(self.grad(i, self.x0) for i in range(5))
        want = (5 / 2) * (
            self.grad(0, self.x1) - self.grad(0, self.x0)
            + self.grad(4, self.x1) - self.grad(4, self.x0)
        ) + anchor
        np.testing.assert_allclose(est.estimate(self.x1, (False, batch)), want, rtol=1e-12)

    def test_svrg_with_refresh_returns_exact_gradient(self):
        est = make_estimator("svrg", self.model, self.x0, batch_size=2, epoch_length=9)
        got = est.estimate(self.x1, (True, np.array([2, 3])))
        np.testing.assert_array_equal(got, self.model.gradient_full(self.x1))
        np.testing.assert_array_equal(est.snapshot, self.x1)

    def test_saga_estimate_and_commit(self):
        est = make_estimator("saga", self.model, self.x0, batch_size=2)
        batch = np.array([1, 2])
        table_sum = sum(self.grad(i, self.x0) for i in range(5))
        want = (5 / 2) * (
            self.grad(1, self.x1) - self.grad(1, self.x0)
            + self.grad(2, self.x1) - self.grad(2, self.x0)
        ) + table_sum
        np.testing.assert_allclose(est.estimate(self.x1, batch), want, rtol=1e-12)
        np.testing.assert_allclose(est.table[1], self.grad(1, self.x1), rtol=1e-14)
        np.testing.assert_allclose(est.table[0], self.grad(0, self.x0), rtol=1e-14)

    def test_sarah_difference_step(self):
        est = make_estimator("sarah", self.model, self.x0, batch_size=1, epoch_length=7)
        prev_estimate = est.prev_estimate.copy()
        batch = np.array([3])
        want = 5 * (self.grad(3, self.x1) - self.grad(3, self.x0)) + prev_estimate
        np.testing.assert_allclose(est.estimate(self.x1, batch), want, rtol=1e-12)
        np.testing.assert_array_equal(est.prev_point, self.x1)

    def test_sarah_restart(self):
        est = make_estimator("sarah", self.model, self.x0, batch_size=1, epoch_length=7)
        got = est.estimate(self.x1, None)
        np.testing.assert_array_equal(got, self.model.gradient_full(self.x1))

    def test_sarge_step(self):
        est = make_estimator("sarge", self.model, self.x0, batch_size=2)
        w = 1 - 2 / 5
        table = {i: (2 / 5) * self.grad(i, self.x0) for i in range(5)}
        prev_estimate = sum(self.grad(i, self.x0) for i in range(5))
        batch = np.array([0, 3])
        fresh = {
            i: self.grad(i, self.x1) - w * self.grad(i, self.x0) for i in (0, 3)
        }
        want = (
            (5 / 2) * sum(fresh[i] - table[i] for i in (0, 3))
            + sum(table.values())
            + w * prev_estimate
        )
        np.testing.assert_allclose(est.estimate(self.x1, batch), want, rtol=1e-12)
        np.testing.assert_allclose(est.table[0], fresh[0], rtol=1e-14)
        np.testing.assert_allclose(est.table[1], table[1], rtol=1e-14)


def anchored_quadratic():
    """A target whose anchors hold exact zeros, with a path through them.

    At an anchor a component gradient is exactly zero, and a path point
    of -0.0s against a +0.0 anchor makes the zeros signed; these are the
    values on which a one-row sum and the row itself can differ in bits.
    """
    data = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.5, -1.0, 2.0],
            [0.0, 1.0, 0.0],
            [-1.5, 0.25, 0.0],
            [3.0, -2.0, 1.0],
        ]
    )
    precision = np.array([[2.0, -0.5, 0.3], [-0.5, 1.5, -0.2], [0.3, -0.2, 1.0]])
    model = QuadraticPotential(data=data, precision=precision)
    path = [
        np.array([-0.0, -0.0, -0.0]),
        data[1].copy(),
        np.array([-0.0, 1.0, -0.0]),
        data[1].copy(),
        np.array([0.7, -0.3, 0.0]),
        data[0].copy(),
        data[3].copy(),
    ]
    # each point's own anchor first, then another component
    batches = [0, 1, 2, 1, 4, 0, 3, 2, 0, 1, 3, 3, 0, 4]
    return model, path, [np.array([i]) for i in batches]


def signed_zero_line():
    """A one-dimensional target on which a component gradient is -0.0.

    At d = 1 the product -0.0 * p keeps its sign through dot, so the path's
    -0.0 points against the +0.0 anchor give -0.0 gradient rows, and
    differences of them against +0.0 rows stay -0.0.
    """
    model = QuadraticPotential(data=[[0.0], [1.5], [-2.0]], precision=[[2.0]])
    path = [np.array([0.0]), np.array([-0.0]), np.array([-0.0]), np.array([1.5]),
            np.array([-0.0]), np.array([0.0]), np.array([-0.0])]
    batches = [0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 1, 0]
    return model, path, [np.array([i]) for i in batches]


def take_rows(model, batch, x):
    # gradient_batch written with take and a broadcast subtract
    rows = (x - model.data.take(batch, axis=0)).dot(model.precision)
    rows *= 2.0 / model.n_components
    return rows


def single_row_reference(est, x, draw):
    """(estimate, table row, table_sum) of one b = 1 call by its formula,
    summing the batch with rows.sum(axis=0), from the state before it."""
    model, n = est.model, est.model.n_components
    kind = est.kind
    if kind == "sg":
        return n * take_rows(model, draw, x).sum(axis=0), None, None
    if kind == "svrg":
        _, batch = draw
        rows = take_rows(model, batch, x) - take_rows(model, batch, est.snapshot)
        return n * rows.sum(axis=0) + est.snapshot_gradient, None, None
    if kind == "sarah":
        rows = take_rows(model, draw, x) - take_rows(model, draw, est.prev_point)
        return n * rows.sum(axis=0) + est.prev_estimate, None, None
    fresh = take_rows(model, draw, x)
    if kind == "sarge":
        w = 1.0 - 1 / n
        fresh = fresh - w * take_rows(model, draw, est.prev_point)
    residual = (fresh - est.table.take(draw, axis=0)).sum(axis=0)
    estimate = n * residual + est.table_sum
    if kind == "sarge":
        estimate = estimate + w * est.prev_estimate
    return estimate, fresh[0], est.table_sum + residual


class TestSingleRowBits:
    """b = 1 estimates against their rows.sum(axis=0) formulas, byte for byte,
    on a path through exactly zero component gradients."""

    def test_batch_sum_matches_axis_sum(self):
        nan = np.nan
        values = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.copysign(nan, 1.0), np.copysign(nan, -1.0),
             5e-324, -5e-324, 2.5, -1e-300]
        )
        cases = [values[None], values[::-1][None], np.stack([values, -values]),
                 np.stack([values, values[::-1], np.zeros_like(values)])]
        for rows in cases:
            with np.errstate(invalid="ignore"):  # inf + -inf across rows
                got, want = _batch_sum(rows), rows.sum(axis=0)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), rows
            assert not np.shares_memory(got, rows)

    @pytest.mark.parametrize("target", (anchored_quadratic, signed_zero_line))
    @pytest.mark.parametrize("kind", ("sg", "svrg", "saga", "sarah", "sarge"))
    def test_estimate_matches_batch_sum_formula(self, kind, target):
        model, path, batches = target()
        est = make_estimator(kind, model, path[0], batch_size=1, epoch_length=10**6)
        for step, batch in enumerate(batches):
            x = path[step % len(path)]
            draw = (False, batch) if kind == "svrg" else batch
            want, row, table_sum = single_row_reference(est, x, draw)
            got = est.estimate(x, draw)
            assert got.tobytes() == want.tobytes(), (kind, step)
            if row is not None:
                assert est.table[batch[0]].tobytes() == row.tobytes(), (kind, step)
                assert est.table_sum.tobytes() == table_sum.tobytes(), (kind, step)


@pytest.mark.parametrize("kind", ("saga", "sarge"))
class TestTableMaintenance:
    def test_running_sum_stays_exact(self, kind):
        model = quadratic(5, n=9)
        est = make_estimator(kind, model, np.zeros(model.dimension), batch_size=2)
        rng = np.random.default_rng(8)
        warm_up(est, rng, n_calls=300)
        np.testing.assert_allclose(
            est.table_sum, est.table.sum(axis=0), rtol=1e-12, atol=1e-14
        )

    def test_periodic_resummation_triggers(self, kind):
        model = quadratic(6, n=4)
        est = make_estimator(kind, model, np.zeros(model.dimension), batch_size=1)
        est._calls_since_resum = _RESUM_INTERVAL - 1
        rng = np.random.default_rng(9)
        est.estimate(np.ones(model.dimension), est.draw(rng, 1)[0])
        assert est._calls_since_resum == 0
        np.testing.assert_array_equal(est.table_sum, est.table.sum(axis=0))


class TestConditionalMean:
    def test_refuses_large_enumerations(self):
        model = quadratic(7, n=30)
        est = make_estimator("sg", model, np.zeros(model.dimension), batch_size=15)
        with pytest.raises(ValueError):
            conditional_mean_oracle(est, model, np.zeros(model.dimension))

    def test_does_not_mutate_estimator(self):
        model = quadratic(8, n=6)
        est = make_estimator("saga", model, np.zeros(model.dimension), batch_size=2)
        rng = np.random.default_rng(10)
        x = warm_up(est, rng)
        table = est.table.copy()
        table_sum = est.table_sum.copy()
        queries = est.query_count
        conditional_mean_oracle(est, model, x + 0.1)
        np.testing.assert_array_equal(est.table, table)
        np.testing.assert_array_equal(est.table_sum, table_sum)
        assert est.query_count == queries

    def test_sg_mean_is_exact_gradient_by_symmetry(self):
        model = quadratic(9, n=5)
        est = make_estimator("sg", model, np.zeros(model.dimension), batch_size=2)
        x = np.array([0.4, -0.2, 0.9])
        np.testing.assert_allclose(
            conditional_mean_oracle(est, model, x),
            model.gradient_full(x),
            rtol=1e-12,
        )


class TestBiasIdentities:
    """Unbiasedness and geometric bias contraction, enumerated exactly."""

    def instances(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(2, 5))
            b = int(rng.integers(1, min(n, 2) + 1))
            d = int(rng.integers(1, 4))
            if trial % 2 == 0:
                model = QuadraticPotential.random(
                    n_components=n, dimension=d,
                    max_eigenvalue=4.0, min_eigenvalue=1.0, seed=trial,
                )
            else:
                sub = np.random.default_rng(trial)
                model = LogisticPotential(
                    sub.standard_normal((n, d)),
                    np.where(sub.random(n) < 0.5, -1.0, 1.0),
                    ridge=0.8,
                )
            yield trial, model, b

    def test_unbiased_kinds_have_zero_conditional_bias(self):
        for trial, model, b in self.instances():
            rng = np.random.default_rng(100 + trial)
            for kind in ("full", "sg", "svrg", "saga"):
                est = make_estimator(kind, model, np.zeros(model.dimension),
                                     batch_size=b, epoch_length=3)
                x = warm_up(est, rng)
                x_next = x + 0.3 * rng.standard_normal(model.dimension)
                mean = conditional_mean_oracle(est, model, x_next)
                exact = model.gradient_full(x_next)
                np.testing.assert_allclose(
                    mean, exact, rtol=1e-12, atol=1e-12,
                    err_msg=f"{kind} trial {trial}",
                )

    def test_biased_kinds_contract_by_one_minus_rho_b(self):
        for trial, model, b in self.instances():
            rng = np.random.default_rng(200 + trial)
            for kind, epoch in (("sarah", 3), ("sarge", None)):
                est = make_estimator(kind, model, np.zeros(model.dimension),
                                     batch_size=b, epoch_length=epoch)
                x = warm_up(est, rng)
                x_next = x + 0.3 * rng.standard_normal(model.dimension)
                mean = conditional_mean_oracle(est, model, x_next)
                exact = model.gradient_full(x_next)
                residual_prev = est.prev_estimate - model.gradient_full(est.prev_point)
                descriptor = mseb_descriptor(
                    kind, model.n_components, batch_size=b, epoch_length=epoch
                )
                factor = 1.0 - descriptor.rho_b
                np.testing.assert_allclose(
                    mean - exact, factor * residual_prev,
                    rtol=1e-10, atol=1e-12,
                    err_msg=f"{kind} trial {trial}",
                )


class TestQMetric:
    def test_matches_componentwise_sum(self):
        for model in (quadratic(12, n=7), logistic(13, n=7)):
            rng = np.random.default_rng(14)
            x, y = rng.standard_normal((2, model.dimension))
            brute = model.n_components * sum(
                np.sum(
                    (gradient_component(model, i, y) - gradient_component(model, i, x))
                    ** 2
                )
                for i in range(model.n_components)
            )
            np.testing.assert_allclose(q_metric(model, x, y), brute, rtol=1e-12)

    def test_quadratic_closed_form(self):
        model = quadratic(15, n=9, d=4)
        rng = np.random.default_rng(16)
        x, y = rng.standard_normal((2, 4))
        want = 4.0 * np.sum((model.precision @ (y - x)) ** 2)
        np.testing.assert_allclose(q_metric(model, x, y), want, rtol=1e-12)


class TestMsebDescriptors:
    def test_frozen_reference_table(self):
        n, b, p = 1000, 1, 1000
        want = {
            "full": 0.0,
            "saga": 6.0e6,
            "svrg": 6.0e6,
            "sarah": 1000.0,
            "sarge": 180_000.0,
        }
        for kind, theta in want.items():
            descriptor = mseb_descriptor(kind, n, batch_size=b, epoch_length=p)
            np.testing.assert_allclose(descriptor.theta, theta, rtol=1e-12)
            assert descriptor.bounded

    def test_sg_is_unbounded(self):
        descriptor = mseb_descriptor("sg", 1000)
        assert not descriptor.bounded
        assert math.isinf(descriptor.theta)
        assert math.isnan(descriptor.m1)

    def test_batch_size_scalings(self):
        # doubling the batch size divides SAGA's theta by eight
        a = mseb_descriptor("saga", 64, batch_size=1)
        b = mseb_descriptor("saga", 64, batch_size=2)
        np.testing.assert_allclose(a.theta / b.theta, 8.0, rtol=1e-12)
        # SARAH's theta is the epoch length
        assert mseb_descriptor("sarah", 64, epoch_length=17).theta == 17.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mseb_descriptor("nope", 10)
        with pytest.raises(ValueError):
            mseb_descriptor("saga", 10, batch_size=11)
        with pytest.raises(ValueError):
            mseb_descriptor("svrg", 10, epoch_length=0)


class TestMakeEstimator:
    def test_default_epoch_is_n_over_b(self):
        model = quadratic(17, n=12)
        est = make_estimator("svrg", model, np.zeros(model.dimension), batch_size=3)
        assert est.epoch_length == 4

    def test_rejects_unknown_kind(self):
        model = quadratic(18, n=4)
        with pytest.raises(ValueError):
            make_estimator("sgd", model, np.zeros(model.dimension))

    def test_rejects_bad_batch(self):
        model = quadratic(19, n=4)
        with pytest.raises(ValueError):
            make_estimator("saga", model, np.zeros(model.dimension), batch_size=5)



class TestSettingRules:
    """Counts must be integers and kinds must be named as listed, in every
    entry point that takes them."""

    @pytest.mark.parametrize(
        "kind, counts, reason",
        [
            ("svrg", dict(batch_size=2.5), "batch_size must be an integer, got 2.5"),
            ("saga", dict(batch_size=True), "batch_size must be an integer, got True"),
            ("svrg", dict(epoch_length=2.5), "epoch_length must be an integer, got 2.5"),
            ("sarah", dict(epoch_length=0), "epoch_length must be at least 1, got 0"),
        ],
        ids=["float batch", "bool batch", "float epoch", "zero epoch"],
    )
    def test_non_integer_counts_are_refused(self, kind, counts, reason):
        model = quadratic(20, n=10)
        with pytest.raises(ValueError, match=f"^{reason}$"):
            make_estimator(kind, model, np.zeros(model.dimension), **counts)
        with pytest.raises(ValueError, match=f"^{reason}$"):
            mseb_descriptor(kind, 10, **counts)

    def test_sizes_given_alone_are_refused_as_floats(self):
        with pytest.raises(ValueError, match=r"^batch_size must be an integer, got 2.0$"):
            sample_batch(np.random.default_rng(0), 5, 2.0)
        with pytest.raises(ValueError, match=r"^n_components must be an integer, got 10.5$"):
            mseb_descriptor("saga", 10.5)

    def test_numpy_integer_counts_are_accepted(self):
        model = quadratic(21, n=12)
        est = make_estimator(
            "svrg", model, np.zeros(model.dimension),
            batch_size=np.int64(3), epoch_length=np.int64(5),
        )
        assert (est.batch_size, est.epoch_length) == (3, 5)
        assert mseb_descriptor(
            "svrg", 12, batch_size=np.int64(3), epoch_length=np.int64(5)
        ) == mseb_descriptor("svrg", 12, batch_size=3, epoch_length=5)

    def test_kind_names_are_not_lower_cased(self):
        model = quadratic(22, n=4)
        reason = r"^unknown estimator 'SG'; choose from \('full', 'sg',"
        with pytest.raises(ValueError, match=reason):
            make_estimator("SG", model, np.zeros(model.dimension))
        with pytest.raises(ValueError, match=reason):
            mseb_descriptor("SG", 4)
