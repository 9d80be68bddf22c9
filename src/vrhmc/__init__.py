"""Hamiltonian Monte Carlo with variance-reduced stochastic gradients.

The package samples from smooth strongly log-concave targets written as
finite sums, pairing an exact gradient-conditioned discretization of
underdamped Langevin dynamics with pluggable gradient estimators (full,
plain minibatch, SVRG, SAGA, SARAH, SARGE). It ships two benchmark
targets (an analytic Gaussian quadratic and penalized logistic
regression on LIBSVM-format data), accuracy metrics, and an experiment
driver exposed as the ``vrhmc`` console command.
"""

from .dataio import (
    Dataset,
    LibsvmFormatError,
    StandardizeTransform,
    emit_libsvm,
    parse_libsvm,
    standardize,
    train_test_split,
)
from .estimators import (
    ESTIMATOR_KINDS,
    FullGradient,
    GradientEstimator,
    MinibatchGradient,
    MsebDescriptor,
    SagaEstimator,
    SarahEstimator,
    SargeEstimator,
    SvrgEstimator,
    make_estimator,
    mseb_descriptor,
    q_metric,
    sample_batch,
)
from .integrator import (
    DynamicsParams,
    NoiseCoefficients,
    noise_coefficients,
    sample_noise,
    stationary_covariance,
)
from .metrics import (
    GaussianSummary,
    bures_w2,
    gradient_mse,
    potential_mse,
    test_nll,
    test_nll_per_sample,
)
from .potentials import (
    LogisticPotential,
    PotentialModel,
    QuadraticPotential,
    sigmoid,
    softplus,
)
from .sampler import (
    ChainDivergence,
    EnsembleResult,
    RunRecord,
    SamplerConfig,
    run_chain,
    run_ensemble,
    wasserstein_tracker,
)

__version__ = "0.1.0"

__all__ = [
    "ChainDivergence",
    "Dataset",
    "DynamicsParams",
    "ESTIMATOR_KINDS",
    "EnsembleResult",
    "FullGradient",
    "GaussianSummary",
    "GradientEstimator",
    "LibsvmFormatError",
    "LogisticPotential",
    "MinibatchGradient",
    "MsebDescriptor",
    "NoiseCoefficients",
    "PotentialModel",
    "QuadraticPotential",
    "RunRecord",
    "SagaEstimator",
    "SamplerConfig",
    "SarahEstimator",
    "SargeEstimator",
    "StandardizeTransform",
    "SvrgEstimator",
    "bures_w2",
    "emit_libsvm",
    "gradient_mse",
    "make_estimator",
    "mseb_descriptor",
    "noise_coefficients",
    "parse_libsvm",
    "potential_mse",
    "q_metric",
    "run_chain",
    "run_ensemble",
    "sample_batch",
    "sample_noise",
    "sigmoid",
    "softplus",
    "standardize",
    "stationary_covariance",
    "test_nll",
    "test_nll_per_sample",
    "train_test_split",
    "wasserstein_tracker",
]
