"""run_chain against a frozen per-step reference loop.

reference_chain below is the chain loop as it stood before run_chain drew
its randomness in blocks and deferred the gradient-error diagnostic: one
noise draw, one estimate call on that step's own draw(rng, 1), and one exact
gradient per recorded row, all inside the step loop. run_chain must
reproduce it bit for bit on every recorded column, including the step at
which a divergent chain stops.
"""

import numpy as np
import pytest

from vrhmc.estimators import make_estimator, q_metric
from vrhmc.integrator import noise_coefficients
from vrhmc.potentials import LogisticPotential, QuadraticPotential
from vrhmc.sampler import _DIVERGENCE_FACTOR, ChainDivergence, SamplerConfig, run_chain

KINDS = ("full", "sg", "svrg", "saga", "sarah", "sarge")
N_COMPONENTS = 12
COLUMNS = (
    "iterations",
    "queries",
    "potentials",
    "positions",
    "velocities",
    "grad_err_sq",
    "q_values",
)


def reference_chain(config, model, seed_seq=None, chain_id=0):
    """Per-step chain loop; returns the recorded columns and total_queries."""
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    est_stream, noise_stream = seed_seq.spawn(2)
    est_rng = np.random.default_rng(est_stream)
    noise_rng = np.random.default_rng(noise_stream)

    c = noise_coefficients(config.dynamics(model))
    x = config.initial_point(model)
    d = model.dimension
    v = np.zeros(d)
    estimator = make_estimator(
        config.estimator,
        model,
        x,
        batch_size=config.batch_size,
        epoch_length=config.epoch_length,
    )
    limit_sq = (_DIVERGENCE_FACTOR * max(float(np.linalg.norm(x)), 1.0)) ** 2

    n_steps, stride = config.n_steps, config.record_stride
    n_rows = 1 if n_steps == 0 else (n_steps + stride - 1) // stride
    out = {
        "iterations": np.empty(n_rows, dtype=np.int64),
        "queries": np.empty(n_rows, dtype=np.int64),
        "potentials": np.empty(n_rows),
        "positions": np.empty((n_rows, d)),
        "velocities": np.empty((n_rows, d)) if config.record_velocity else None,
        "grad_err_sq": np.empty(n_rows) if config.diagnostics else None,
        "q_values": np.empty(n_rows) if config.record_q else None,
    }
    row = 0
    for k in range(n_steps):
        grad = estimator.estimate(x, estimator.draw(est_rng, 1)[0])
        recording = k % stride == 0
        if recording:
            out["iterations"][row] = k
            out["queries"][row] = estimator.query_count
            out["potentials"][row] = model.potential_full(x)
            out["positions"][row] = x
            if config.record_velocity:
                out["velocities"][row] = v
            if config.diagnostics:
                err = grad - model.gradient_full(x)
                out["grad_err_sq"][row] = err @ err
        if config.suppress_noise:
            e_x = e_v = 0.0
        else:
            z = noise_rng.standard_normal((2, d))
            e_x = c.l_xx * z[0]
            e_v = c.l_vx * z[0] + c.l_vv * z[1]
        x_prev = x
        x, v = (
            x + c.c_xv * v - c.c_xg * grad + e_x,
            c.c_vv * v - c.c_vg * grad + e_v,
        )
        if recording:
            if config.record_q:
                out["q_values"][row] = q_metric(model, x_prev, x)
            row += 1
        if not x @ x <= limit_sq:
            raise ChainDivergence(chain_id, k, c.delta)
    if n_steps == 0:
        out["iterations"][0] = 0
        out["queries"][0] = estimator.query_count
        out["potentials"][0] = model.potential_full(x)
        out["positions"][0] = x
        if config.record_velocity:
            out["velocities"][0] = v
        if config.diagnostics:
            out["grad_err_sq"][0] = np.nan
        if config.record_q:
            out["q_values"][0] = np.nan
    out["total_queries"] = int(estimator.query_count)
    return out


def assert_same_chain(record, expected):
    for name in COLUMNS:
        got, want = getattr(record, name), expected[name]
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want, equal_nan=True), name
    assert record.total_queries == expected["total_queries"]


def quadratic_target():
    return QuadraticPotential.random(
        n_components=N_COMPONENTS,
        dimension=3,
        max_eigenvalue=4.0,
        min_eigenvalue=0.5,
        seed=2,
    )


def logistic_target():
    rng = np.random.default_rng(4)
    features = rng.standard_normal((N_COMPONENTS, 4))
    labels = np.where(rng.random(N_COMPONENTS) < 0.5, -1.0, 1.0)
    return LogisticPotential(features, labels, ridge=0.5)


TARGETS = {"quadratic": quadratic_target, "logistic": logistic_target}


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batch_size", (1, 3, N_COMPONENTS))
@pytest.mark.parametrize("stride", (1, 7))
def test_matches_per_step_reference(target, kind, batch_size, stride):
    model = TARGETS[target]()
    # 600 steps: two full 256-step noise blocks and a partial third
    config = SamplerConfig(
        n_steps=600,
        step=0.1,
        estimator=kind,
        batch_size=batch_size,
        burn_in=100,
        record_stride=stride,
        seed=17,
        diagnostics=True,
        record_q=True,
        record_velocity=True,
    )
    seed_seq = np.random.SeedSequence([17, 3])
    record = run_chain(config, model, seed_seq=seed_seq, chain_id=3)
    assert_same_chain(
        record, reference_chain(config, model, np.random.SeedSequence([17, 3]), 3)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_matches_reference_without_noise(kind):
    model = quadratic_target()
    config = SamplerConfig(
        n_steps=300,
        step=0.1,
        estimator=kind,
        burn_in=0,
        x0=1.5,
        seed=5,
        diagnostics=True,
        record_velocity=True,
        suppress_noise=True,
    )
    assert_same_chain(run_chain(config, model), reference_chain(config, model))


@pytest.mark.parametrize("kind", KINDS)
def test_matches_reference_at_zero_steps(kind):
    model = logistic_target()
    config = SamplerConfig(
        n_steps=0,
        step=0.1,
        estimator=kind,
        burn_in=0,
        x0=0.25,
        diagnostics=True,
        record_q=True,
        record_velocity=True,
    )
    assert_same_chain(run_chain(config, model), reference_chain(config, model))


@pytest.mark.parametrize("kind", KINDS)
def test_divergence_stops_at_the_reference_step(kind):
    # delta = 0.46 is just past the stable range for curvature 20, so the
    # chain grows slowly and blows up after 600 to 1300 steps, several
    # blocks into the run rather than inside the first one
    model = QuadraticPotential(
        data=np.array([[0.0], [0.5]]), precision=np.array([[10.0]])
    )
    config = SamplerConfig(
        n_steps=5000, step=0.23, estimator=kind, xi=1.0, burn_in=0, x0=1.0, seed=0
    )
    with pytest.raises(ChainDivergence) as expected:
        reference_chain(config, model, chain_id=2)
    with pytest.raises(ChainDivergence) as got:
        run_chain(config, model, chain_id=2)
    assert got.value.step_index == expected.value.step_index
    assert got.value.chain_id == expected.value.chain_id == 2
    assert got.value.delta == expected.value.delta
