"""Hamiltonian Monte Carlo with variance-reduced stochastic gradients.

The package samples from smooth strongly log-concave targets written as
finite sums, pairing an exact gradient-conditioned discretization of
underdamped Langevin dynamics with pluggable gradient estimators (full,
plain minibatch, SVRG, SAGA, SARAH, SARGE). It ships two benchmark
targets (an analytic Gaussian quadratic and penalized logistic
regression on LIBSVM-format data), accuracy metrics, and an experiment
driver exposed as the ``vrhmc`` console command.
"""

from . import dataio, estimators, integrator, metrics, potentials, sampler
from .dataio import *
from .estimators import *
from .integrator import *
from .metrics import *
from .potentials import *
from .sampler import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (dataio, estimators, integrator, metrics, potentials, sampler)
    for name in module.__all__
)
