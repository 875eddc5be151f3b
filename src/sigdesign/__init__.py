"""Signature-matrix design and evaluation for binary-input synchronous CDMA.

Design real-valued, unit-column spreading matrices for overloaded systems
by optimizing capacity-related fitness criteria with a genetic algorithm,
and evaluate any matrix's sum capacity, bit error rate, and constellation
measures under additive white Gaussian noise.
"""

from .baselines import orthogonal_matrix, random_normalized, wbe_matrix, wbe_verify
from .ber import BerEstimate, ml_decode, q_function, simulate_ber, union_bound
from .capacity import (
    CapacityEstimate,
    estimate_capacity,
    exact_capacity_1d,
    log_output_density,
    noise_entropy,
)
from .criteria import (
    CriterionSpec,
    exp_distance,
    fitness,
    min_distance,
    population_fitness,
    q_approx,
    q_distance,
)
from .errors import (
    DimensionError,
    InvalidSamplesError,
    MatrixFileError,
    NanFitnessError,
    NonConvergenceError,
    QuadratureFailure,
    TooManyUsersError,
    ZeroColumnError,
)
from .ga import (
    GaConfig,
    GaRun,
    evolve,
    init_population,
    random_search,
)
from .model import (
    ChannelSpec,
    Constellation,
    SignatureMatrix,
    build_constellation,
    enumerate_inputs,
    normalize_columns,
    transmit,
)

__version__ = "0.1.0"

__all__ = [
    "BerEstimate",
    "CapacityEstimate",
    "ChannelSpec",
    "Constellation",
    "CriterionSpec",
    "DimensionError",
    "GaConfig",
    "GaRun",
    "InvalidSamplesError",
    "MatrixFileError",
    "NanFitnessError",
    "NonConvergenceError",
    "QuadratureFailure",
    "SignatureMatrix",
    "TooManyUsersError",
    "ZeroColumnError",
    "build_constellation",
    "enumerate_inputs",
    "estimate_capacity",
    "evolve",
    "exact_capacity_1d",
    "exp_distance",
    "fitness",
    "init_population",
    "log_output_density",
    "min_distance",
    "ml_decode",
    "noise_entropy",
    "normalize_columns",
    "orthogonal_matrix",
    "population_fitness",
    "q_approx",
    "q_distance",
    "q_function",
    "random_normalized",
    "random_search",
    "simulate_ber",
    "transmit",
    "union_bound",
    "wbe_matrix",
    "wbe_verify",
]
