"""Signature-matrix design and evaluation for binary-input synchronous CDMA.

Design real-valued, unit-column spreading matrices for overloaded systems
by optimizing capacity-related fitness criteria with a genetic algorithm,
and evaluate any matrix's sum capacity, bit error rate, and constellation
measures under additive white Gaussian noise.
"""

from .baselines import orthogonal_matrix, random_normalized, wbe_matrix, wbe_verify
from .capacity import BerEstimate, CapacityEstimate, estimate, exact_capacity_1d
from .criteria import (
    ConstellationMeasures,
    CriterionSpec,
    constellation_measures,
    population_fitness,
    q_function,
)
from .ga import GaConfig, GaRun, evolve
from .model import (
    NumericFailure,
    SignatureMatrix,
    enumerate_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "BerEstimate",
    "CapacityEstimate",
    "ConstellationMeasures",
    "CriterionSpec",
    "GaConfig",
    "GaRun",
    "NumericFailure",
    "SignatureMatrix",
    "constellation_measures",
    "enumerate_inputs",
    "estimate",
    "evolve",
    "exact_capacity_1d",
    "orthogonal_matrix",
    "population_fitness",
    "q_function",
    "random_normalized",
    "wbe_matrix",
    "wbe_verify",
]
