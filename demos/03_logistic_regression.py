"""Posterior sampling for ridge-penalized logistic regression.

End-to-end tour of the data path and the sampling loop on a binary
classification posterior: synthesize a dataset, write it as LIBSVM text,
parse it back, split it, then sample the posterior with a plain
stochastic gradient and with SVRG at a matched gradient-query budget.
The variance-reduced chain sits at a lower training potential for the
same query spend, with a matching edge in held-out likelihood.

The feature matrix is scaled so the posterior is well conditioned
(smoothness = ridge + 2); sampling with single-component gradients at a
practical step size needs that, and it is what a standardize-and-shrink
preprocessing pass buys on real data.

Run with: python3 demos/03_logistic_regression.py  (about 10 seconds)
"""

import numpy as np

from vrhmc import (
    LogisticPotential,
    SamplerConfig,
    parse_libsvm,
    run_chain,
    standardize,
    test_nll,
    train_test_split,
)

print("=== synthesize and round-trip a dataset ===")
rng = np.random.default_rng(42)
n, d = 300, 8
features = rng.standard_normal((n, d))
features *= np.sqrt(8.0 / np.linalg.eigvalsh(features.T @ features).max())
truth = rng.standard_normal(d)
labels = np.where(
    rng.random(n) < 1.0 / (1.0 + np.exp(-5.0 * (features @ truth))), 1, -1
)
lines = [
    f"{labels[i]} "
    + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(map(float, features[i])))
    for i in range(n)
]
dataset = parse_libsvm(lines)
exact = np.array_equal(dataset.to_dense(), features)
print(f"parsed back: {dataset.n_rows} rows, {dataset.n_features} features, "
      f"values recovered exactly: {exact}")

train, test = train_test_split(dataset, train_fraction=0.8, seed=0)
print(f"split: {train.n_rows} train / {test.n_rows} test\n")
# sampling and standardization work on dense arrays: densify each split once
train_features, test_features = train.to_dense(), test.to_dense()

print("=== standardize is available when features arrive on wild scales ===")
scaled_train, _, transform = standardize(train_features)
print(f"after standardize: per-feature mean {np.abs(scaled_train.mean(axis=0)).max():.1e}, "
      f"std {scaled_train.std(axis=0).mean():.3f}")
recovered = transform.invert(scaled_train)
print(f"invert recovers the original features: "
      f"{np.allclose(recovered, train_features, atol=1e-12)}")
print("(not applied below; this dataset is already deliberately scaled)\n")

model = LogisticPotential(train_features, train.labels, ridge=1.0)
print("=== posterior geometry ===")
print(
    f"N={model.n_components} components, L={model.smoothness:.2f}, "
    f"kappa={model.condition_number:.2f}"
)
zero = np.zeros(model.dimension)
print(f"held-out NLL at the prior mean (log 2): "
      f"{test_nll(test_features, test.labels, zero[None, :]):.4f}\n")

print("=== SG vs SVRG at a matched query budget ===")
budget = 60 * model.n_components
for kind in ("sg", "svrg"):
    config = SamplerConfig(
        n_steps=budget + 100,
        step=0.1,
        estimator=kind,
        batch_size=1,
        burn_in=1,
        record_stride=1,
        seed=5,
        diagnostics=True,
    )
    record = run_chain(config, model)
    window = (record.queries >= budget // 2) & (record.queries <= budget)
    potential = float(np.mean(record.potentials[window]))
    grad_err = float(np.mean(record.grad_err_sq[window]))
    nll = test_nll(test_features, test.labels, record.positions[window])
    print(
        f"  {kind:5s} window mean potential {potential:8.3f}   "
        f"grad MSE {grad_err:9.3e}   held-out NLL {nll:.4f}"
    )
print(f"\n(window: the second half of the {budget}-query budget)")
