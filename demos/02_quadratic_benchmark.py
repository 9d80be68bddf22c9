"""Estimator comparison on the analytic quadratic target.

The quadratic family is the one place every quantity of interest has a
closed form: the target moments, the mean potential under the target,
and the exact gradient. That makes it the right bench for separating
estimator noise from discretization bias. Two things to notice below:

* Estimators built on differences of component gradients at two points
  (SVRG, SARAH) are exact here, because all components share the same
  Hessian; their measured gradient error is floating-point dust.
* Among the others the MSEB constant theta predicts the ordering of the
  measured gradient error: SARGE < SAGA < SG at batch size 1.

Run with: python3 demos/02_quadratic_benchmark.py  (about 5 seconds)
"""

import numpy as np

from vrhmc import (
    QuadraticPotential,
    SamplerConfig,
    gradient_mse,
    mseb_descriptor,
    run_chain,
    wasserstein_tracker,
)

model = QuadraticPotential.random(
    n_components=1000, dimension=5, max_eigenvalue=10.0, min_eigenvalue=1.0, seed=7
)
print("=== target ===")
print(
    f"N={model.n_components} components in d={model.dimension}, "
    f"L={model.smoothness:.2f}, kappa={model.condition_number:.2f}"
)
reference = model.mean_potential()
print(f"mean potential under the target (closed form): {reference:.6f}\n")

print("=== MSEB noise constants at batch size 1 ===")
print("theta aggregates an estimator's variance and bias-decay constants;")
print("smaller is better, 0 is the exact gradient, SG has no finite theta.")
for kind in ("full", "sg", "svrg", "saga", "sarah", "sarge"):
    descriptor = mseb_descriptor(
        kind, model.n_components, batch_size=1, epoch_length=1000
    )
    theta = "unbounded" if not descriptor.bounded else f"{descriptor.theta:g}"
    print(f"  {kind:6s} theta = {theta}")
print()

print("=== measured errors, 60k steps at h=0.02, one seed ===")
mean, cov = model.target_moments()
rows = []
for kind in ("sg", "svrg", "saga", "sarah", "sarge"):
    config = SamplerConfig(
        n_steps=60_000,
        step=0.02,
        estimator=kind,
        batch_size=1,
        burn_in=10_000,
        record_stride=1,
        seed=0,
        diagnostics=True,
    )
    record = run_chain(config, model)
    w2 = wasserstein_tracker([record], mean, cov)
    rows.append(
        (
            kind,
            gradient_mse(record),
            (record.mean_potential - reference) ** 2,
            float(w2[np.isfinite(w2)][-1]),
            record.total_queries / config.n_steps,
        )
    )
print(f"  {'method':6s} {'grad MSE':>11s} {'potential sq err':>17s} {'final W2':>9s} {'queries/step':>13s}")
for kind, g, p, w, q in rows:
    print(f"  {kind:6s} {g:11.3e} {p:17.3e} {w:9.4f} {q:13.2f}")
print()
print("SVRG pays roughly 3 queries per step here (2 per step plus the")
print("amortized full-gradient refresh); the table methods pay 1-2 but")
print("SAGA carries an O(N d) memory table to do it.")
