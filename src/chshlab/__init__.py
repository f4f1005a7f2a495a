"""chshlab: a numerical laboratory for CHSH experiment protocols.

The package cross-checks, along independent computational routes, the
correlations of two-photon singlet pairs, local-hidden-variable CHSH
protocols (shared latent variable vs independent pairs), the constrained
reduction of four independent pairs to four variables, and the spectral
structure of the single CHSH observable.
"""

__version__ = "0.1.0"

from .lhv import AngleConfig, CorrelationEstimate, tsirelson_angles
from .quantum import PairOutcomeDistribution, joint_distribution, singlet_correlation
from .constrained import (
    ConstrainedDistribution,
    CorrelationQuad,
    build_constrained,
    constrained_expectation_bruteforce,
    constrained_expectation_closed,
    correlation_quad,
    quantum_eight_variable_sum,
)
from .chsh_operator import ChshOperator, build_t, t_distribution, t_mean, t_spectrum
from .linalg import SpectralDecomposition, hermitian_eigen
from .scan import ScanReport, grid_scan, verify_bound

__all__ = [
    "__version__",
    "AngleConfig",
    "ChshOperator",
    "ConstrainedDistribution",
    "CorrelationEstimate",
    "CorrelationQuad",
    "PairOutcomeDistribution",
    "ScanReport",
    "SpectralDecomposition",
    "build_constrained",
    "build_t",
    "constrained_expectation_bruteforce",
    "constrained_expectation_closed",
    "correlation_quad",
    "grid_scan",
    "hermitian_eigen",
    "joint_distribution",
    "quantum_eight_variable_sum",
    "singlet_correlation",
    "t_distribution",
    "t_mean",
    "t_spectrum",
    "tsirelson_angles",
    "verify_bound",
]
