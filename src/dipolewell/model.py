"""Physical configuration of the dipole-in-a-field problem and derived parameters.

A neutral atom with polarizability alpha sits in the radial electric field
E = lambda/r of a uniformly charged non-conducting cylinder of radius R.
The induced dipole energy is the attractive inverse-square potential
-alpha*lambda^2/r^2; a two-dimensional harmonic trap of frequency omega is
superimposed, and the region r < R is forbidden (hard wall).  Natural units
hbar = c = 1 throughout; energies are reported in the same units as the
inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, ForbiddenRegion, NoBoundStateRegime

CONFIG_KEYS = ("mass", "alpha", "lambda", "omega", "radius", "ell", "pz")
_FLOAT_FIELDS = (
    "mass_m", "polarizability_alpha", "field_coupling_lambda", "omega", "cutoff_R", "p_z"
)


@dataclass(frozen=True)
class PhysicalParams:
    """Inputs of the physical problem.

    mass_m                particle mass (> 0)
    polarizability_alpha  atomic polarizability (> 0)
    field_coupling_lambda field strength constant lambda in E = lambda/r (> 0)
    omega                 trap angular frequency (>= 0; 0 disables the trap)
    cutoff_R              hard-wall cylinder radius (> 0)
    ell                   angular momentum quantum number (integer)
    p_z                   axial momentum eigenvalue (enters as a rigid
                          energy shift p_z^2/(2m))

    Every float field must be finite, and lambda^2, R^2, p_z^2, ell^2,
    2 m alpha lambda^2 and p_z^2/(2m) must not overflow; DomainError otherwise.
    """

    mass_m: float
    polarizability_alpha: float
    field_coupling_lambda: float
    omega: float
    cutoff_R: float
    ell: int = 0
    p_z: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mass_m", "polarizability_alpha", "field_coupling_lambda", "cutoff_R"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be strictly positive")
        if self.omega < 0:
            raise DomainError("omega must be >= 0")
        if not isinstance(self.ell, int) or isinstance(self.ell, bool):
            raise DomainError("ell must be an integer")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        for name in ("field_coupling_lambda", "cutoff_R", "p_z", "ell"):
            v = float(getattr(self, name))
            if not math.isfinite(v * v):
                raise DomainError(f"{name} squared leaves double range")
        if not math.isfinite(self.coupling_strength):
            raise DomainError("2 m alpha lambda^2 leaves double range")
        if not math.isfinite(self.energy_shift):
            raise DomainError("p_z^2/(2m) leaves double range")

    @property
    def coupling_strength(self) -> float:
        """2 m alpha lambda^2, the dimensionless inverse-square strength."""
        return 2.0 * self.mass_m * self.polarizability_alpha * self.field_coupling_lambda**2

    @property
    def energy_shift(self) -> float:
        return self.p_z**2 / (2.0 * self.mass_m)


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless parameters of the radial problem.

    Lambda          sqrt(2 m alpha lambda^2 - ell^2)  (> 0 in the bound regime)
    mu              Lambda / 2, the imaginary order of the Whittaker functions
    x0              m omega R^2, the cut-off in the oscillator variable x = m omega r^2
    """

    Lambda: float
    mu: float
    x0: float


def derive(params: PhysicalParams) -> DerivedParams:
    """Derive (Lambda, mu, x0) from the physical inputs.

    Raises NoBoundStateRegime when ell^2 >= 2 m alpha lambda^2, where the
    imaginary-order solution family (and the closed-form spectrum) ceases
    to exist.  The boundary ell^2 == 2 m alpha lambda^2 is rejected too:
    Lambda = 0 degenerates the order.
    """
    strength = params.coupling_strength
    lam_sq = strength - float(params.ell) ** 2
    if lam_sq <= 0:
        raise NoBoundStateRegime(
            f"ell^2 = {params.ell**2} >= 2*m*alpha*lambda^2 = {strength:.6g}: "
            "no imaginary-order bound-state family (need ell^2 < 2*m*alpha*lambda^2)"
        )
    Lambda = math.sqrt(lam_sq)
    x0 = params.mass_m * params.omega * params.cutoff_R**2
    return DerivedParams(Lambda, 0.5 * Lambda, x0)


def effective_potential(
    params: PhysicalParams, r: float, *, include_centrifugal: bool = False
) -> float:
    """Effective radial potential -alpha lambda^2/r^2 + m omega^2 r^2 / 2.

    With include_centrifugal=True the quantum centrifugal term
    ell^2/(2 m r^2) is added.  r < cutoff_R raises ForbiddenRegion, and a
    value outside double range raises DomainError.
    """
    if r < params.cutoff_R:
        raise ForbiddenRegion(f"r = {r} < cutoff radius R = {params.cutoff_R}")
    try:
        inv_sq = -params.polarizability_alpha * params.field_coupling_lambda**2
        if include_centrifugal:
            inv_sq += float(params.ell) ** 2 / (2.0 * params.mass_m)
        value = inv_sq / (r * r) + 0.5 * params.mass_m * params.omega**2 * r * r
    except (OverflowError, ZeroDivisionError):  # a square past double range, or r * r == 0
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"effective potential at r = {r} leaves double range")
    return value


def outer_turning_radius(params: PhysicalParams, energy: float) -> float:
    """Classical outer turning point of -alpha lambda^2/r^2 + m omega^2 r^2/2.

    Solves m omega^2 r^4 - 2 e r^2 - 2 alpha lambda^2 = 0 for r^2, with
    e = energy - shift.  Below zero the root is taken in the form
    c^2 / (m omega^2 (hypot(e, c) - e)), c^2 = 2 m omega^2 alpha lambda^2,
    which does not cancel for deep levels.  The centrifugal term is left
    out: it only weakens the attraction, so the turning point without it
    lies farther out.  DomainError where r^2 leaves double range.
    """
    if params.omega <= 0:
        raise DomainError("outer turning point needs omega > 0")
    try:
        al2 = params.polarizability_alpha * params.field_coupling_lambda**2
        mw2 = params.mass_m * params.omega**2
        e = energy - params.energy_shift
        c = math.sqrt(2.0 * mw2 * al2)
        r_sq = c * c / (mw2 * (math.hypot(e, c) - e)) if e < 0 else (e + math.hypot(e, c)) / mw2
    except (OverflowError, ZeroDivisionError):  # m omega^2 overflows, or underflows to 0
        r_sq = math.inf
    if not math.isfinite(r_sq):
        raise DomainError(f"outer turning radius at E = {energy:.6g} leaves double range")
    return math.sqrt(r_sq)


def kappa_of_energy(params: PhysicalParams, energy: float) -> float:
    """Whittaker parameter kappa = (E - shift) / (2 omega); beta = 1/2 - kappa.

    Defined only for omega > 0: the static problem has no oscillator variable
    and is handled by the numeric oracle alone.  DomainError where kappa
    leaves double range.
    """
    if params.omega <= 0:
        raise DomainError("the kappa map requires omega > 0")
    kappa = (energy - params.energy_shift) / (2.0 * params.omega)
    if not math.isfinite(kappa):
        raise DomainError(f"kappa at E = {energy:.6g} leaves double range")
    return kappa


def energy_of_kappa(params: PhysicalParams, kappa: float) -> float:
    """Inverse of kappa_of_energy: E = 2 omega kappa + shift."""
    return 2.0 * params.omega * kappa + params.energy_shift


def is_count(n) -> bool:
    """The one rule for a level or point count: an integer (numpy's too), not a bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def parse_config_text(text: str) -> dict[str, float]:
    """Parse the flat ``key = value`` configuration format.

    Lines are UTF-8, ``#`` starts a comment, blank lines are ignored.
    Recognized keys: mass, alpha, lambda, omega, radius, ell, pz.
    """
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = float(val.strip())
        except ValueError as exc:
            raise DomainError(f"config line {lineno}: bad number {val.strip()!r}") from exc
    return out


def params_from_mapping(values: dict[str, float]) -> PhysicalParams:
    """Build PhysicalParams from config-file / CLI keys (missing pz -> 0)."""
    missing = [k for k in ("mass", "alpha", "lambda", "omega", "radius") if k not in values]
    if missing:
        raise DomainError(f"missing required parameter(s): {', '.join(missing)}")
    ell = values.get("ell", 0.0)
    if not math.isfinite(ell) or abs(ell - round(ell)) > 0:
        raise DomainError(f"ell must be an integer, got {ell}")
    return PhysicalParams(
        mass_m=values["mass"],
        polarizability_alpha=values["alpha"],
        field_coupling_lambda=values["lambda"],
        omega=values["omega"],
        cutoff_R=values["radius"],
        ell=int(round(ell)),
        p_z=values.get("pz", 0.0),
    )
