"""Local quantum Fisher information and local quantum uncertainty for two-qubit
X states, with thermal-model sweeps, sudden-transition location, and an
independent brute-force verification path.

Importing the package loads no numpy: the closed forms run on ``math``, and
numpy is imported by the first array operation.  The oracle's names below are
re-exported lazily, so ``from qxcorr import jacobi_eigh`` loads the oracle and
numpy on that line.
"""

from .analysis import (
    BoundaryClassification,
    SweepRow,
    SweepSpec,
    TransitionPoint,
    bell_diagonal_boundary,
    find_transitions,
    sweep,
)
from .correlations import (
    BranchPair,
    MomentDiagonal,
    lqfi_thermal,
    lqfi_x,
    lqu_thermal,
    lqu_x,
    m_eigenvalues,
    m_eigenvalues_raw,
    thermal_xmatrix,
    w_eigenvalues,
    w_eigenvalues_raw,
)
from .limits import (
    IndeterminateZeroTemperatureLimit,
    SeriesValue,
    high_t_series,
    zero_t_limit,
)
from .xalgebra import EigenFrame, XSpectrum, eigenframe, local_spin_in_eigenbasis, spectrum
from .xmodel import (
    DerivedRadii,
    HamiltonianParams,
    XMatrix,
    XStateParams,
    dephase,
    derived_radii,
    energy_levels,
    gibbs_xstate,
    hamiltonian_matrix,
    partition_function,
    realize,
)

__version__ = "0.1.0"

#: names re-exported from ``oracle`` on first access (PEP 562)
_ORACLE_NAMES = (
    "fibonacci_sphere",
    "jacobi_eigh",
    "lambda_max_closed",
    "lambda_max_jacobi",
    "minimize_over_observables",
    "oracle_m_matrix",
    "oracle_w_matrix",
    "random_x_state",
    "spectral_moments",
    "validate_density_matrix",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundaryClassification",
    "BranchPair",
    "DerivedRadii",
    "EigenFrame",
    "HamiltonianParams",
    "IndeterminateZeroTemperatureLimit",
    "MomentDiagonal",
    "SeriesValue",
    "SweepRow",
    "SweepSpec",
    "TransitionPoint",
    "XMatrix",
    "XSpectrum",
    "XStateParams",
    "bell_diagonal_boundary",
    "dephase",
    "derived_radii",
    "eigenframe",
    "energy_levels",
    "fibonacci_sphere",
    "find_transitions",
    "gibbs_xstate",
    "hamiltonian_matrix",
    "high_t_series",
    "jacobi_eigh",
    "lambda_max_closed",
    "lambda_max_jacobi",
    "local_spin_in_eigenbasis",
    "lqfi_thermal",
    "lqfi_x",
    "lqu_thermal",
    "lqu_x",
    "m_eigenvalues",
    "m_eigenvalues_raw",
    "minimize_over_observables",
    "oracle_m_matrix",
    "oracle_w_matrix",
    "partition_function",
    "random_x_state",
    "realize",
    "spectral_moments",
    "spectrum",
    "sweep",
    "thermal_xmatrix",
    "validate_density_matrix",
    "w_eigenvalues",
    "w_eigenvalues_raw",
    "zero_t_limit",
]
