"""Bound states of a generalized inverted hyperbolic potential.

Closed-form spectrum and wavefunctions from a polynomial reduction of
the radial equation, special-case potentials (Rosen-Morse,
Poschl-Teller, Scarf), and independent numerical oracles (finite
differences and Numerov shooting) that quantify how well the printed
closed forms hold up.
"""

from .analytic import (
    AuxQuantities,
    DimensionlessParams,
    EnergyLevel,
    RadialWavefunction,
    aux_quantities,
    closed_form_diagnostics,
    dimensionless_from_eps2,
    dimensionless_params,
    energy_levels,
    nu_problem,
    ode_residual,
    quantization_coefficients,
    quantization_residual,
    radial_wavefunction,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    EvaluationOverflowError,
    HyperwellError,
    NonNormalizableError,
    NoPhysicalBranchError,
    ResolutionError,
    SamplingError,
    SingularCoefficientError,
    StructureError,
)
from .exact import ExactLevel, surrogate_level
from .nu import NUProblem, NUSolution, Poly, k_candidates, lambda_n_of, pi_tau_select, radicand_coeffs
from .oracle import (
    NumericSpectrum,
    RadialGrid,
    approximation_study,
    compare_levels,
    default_grid,
    fall_to_center_unreliable,
    fd_spectrum,
    numerov_spectrum,
)
from .potential import (
    PhysicalConstants,
    PotentialParams,
    centrifugal_approx,
    effective_potential,
    eval_potential,
    poschl_teller_params,
    rosen_morse_params,
    scan_series,
    scarf_params,
    with_alpha,
)
from .special import JacobiSpec, hyperbolic_pair, jacobi, jacobi_sum, principal_sqrt, solve_quadratic

__version__ = "0.1.0"
