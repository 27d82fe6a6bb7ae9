"""Bound states of an induced electric dipole in an inverse-square potential
with harmonic confinement and a hard-wall cut-off.

Three independent routes to the spectrum:

* closed-form geometric ladder (`spectrum.energy_levels_asymptotic`),
* exact quantization of the Whittaker-W boundary condition
  (`spectrum.quantize_exact`),
* direct finite-difference eigensolve (`oracle.fd_eigensolve`).

`solve.solve` runs any of them for levels n = 1..n_max and records each
route's level, or the error that route raised, per level.
"""

from .errors import (
    BracketError,
    ConvergenceError,
    DipoleWellError,
    DomainError,
    ForbiddenRegion,
    GridTooCoarse,
    NoBoundStateRegime,
    PoleError,
    RegimeError,
)
from .model import (
    DerivedParams,
    PhysicalParams,
    derive,
    effective_potential,
    energy_of_kappa,
    kappa_of_energy,
)
from .oracle import (
    OracleResult,
    RadialGridSpec,
    fd_eigensolve,
    sturm_tridiag_eigs,
)
from .solve import ROUTES, Solution, Verdict, solve, validate
from .special import (
    SmallXApprox,
    gamma_uniform_asymptotic,
    ln_gamma_complex,
    whittaker_w_scaled,
    whittaker_w_smallx_approx,
)
from .spectrum import (
    EnergyLevel,
    RadialProfile,
    Route,
    binding_energy,
    energy_levels_asymptotic,
    quantize_exact,
    radial_wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError", "ConvergenceError", "DipoleWellError", "DomainError",
    "ForbiddenRegion", "GridTooCoarse", "NoBoundStateRegime", "PoleError",
    "RegimeError",
    "DerivedParams", "PhysicalParams", "derive", "effective_potential",
    "energy_of_kappa", "kappa_of_energy",
    "OracleResult", "RadialGridSpec", "fd_eigensolve", "sturm_tridiag_eigs",
    "ROUTES", "Solution", "Verdict", "solve", "validate",
    "SmallXApprox", "gamma_uniform_asymptotic", "ln_gamma_complex",
    "whittaker_w_scaled", "whittaker_w_smallx_approx",
    "EnergyLevel", "RadialProfile", "Route", "binding_energy",
    "energy_levels_asymptotic", "quantize_exact", "radial_wavefunction",
    "__version__",
]
