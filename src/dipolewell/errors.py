"""Exception types shared across the package.

Every failure mode carries a dedicated class so callers (and the CLI exit-code
mapping) can react to the *kind* of failure, not to message text.
"""

from __future__ import annotations


class DipoleWellError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DipoleWellError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Gamma function evaluated at (or within machine epsilon of) a pole."""


class ConvergenceError(DipoleWellError):
    """A series or iteration failed its truncation/convergence test."""


class RegimeError(DipoleWellError):
    """Arguments fall outside the validity regime of an approximation."""


class NoBoundStateRegime(DipoleWellError):
    """ell^2 >= 2 m alpha lambda^2: no Whittaker-type bound states exist."""


class ForbiddenRegion(DomainError):
    """Radial coordinate inside the hard-wall cut-off r < R."""


class BracketError(DipoleWellError):
    """Root bracketing found no sign change inside the allowed window."""


class GridTooCoarse(DipoleWellError):
    """Discretization error estimate too large relative to level spacing."""

