"""Tests for the physical model: parameters, derivation, potential, kappa maps."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dipolewell import model
from dipolewell.errors import DomainError, ForbiddenRegion, NoBoundStateRegime
from dipolewell.model import energy_of_kappa, kappa_of_energy

from oracles import deep_params


def test_params_validation():
    with pytest.raises(DomainError):
        deep_params(mass_m=0.0)
    with pytest.raises(DomainError):
        deep_params(polarizability_alpha=-1.0)
    with pytest.raises(DomainError):
        deep_params(cutoff_R=0.0)
    with pytest.raises(DomainError):
        deep_params(omega=-1e-6)
    with pytest.raises(DomainError):
        deep_params(ell=1.5)  # type: ignore[arg-type]


def test_params_reject_bool_ell():
    for ell in (True, False):
        with pytest.raises(DomainError, match="ell must be an integer"):
            deep_params(ell=ell)
    d = model.derive(deep_params(ell=1))
    assert (d.Lambda, d.mu, d.x0) == (4.898979485566356, 2.449489742783178, 1.0000000000000003e-05)


@pytest.mark.parametrize("field", ["mass_m", "polarizability_alpha", "field_coupling_lambda",
                                   "omega", "cutoff_R", "p_z"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(DomainError):
        deep_params(**{field: value})


def test_params_from_mapping_rejects_non_finite_ell():
    values = {"mass": 1.0, "alpha": 12.5, "lambda": 1.0, "omega": 1e-3, "radius": 0.1}
    for ell in (math.inf, math.nan):
        with pytest.raises(DomainError):
            model.params_from_mapping({**values, "ell": ell})


def test_derive_basic_cases():
    p = deep_params(polarizability_alpha=1.0, field_coupling_lambda=math.sqrt(2.0))
    d = model.derive(p)
    assert abs(d.Lambda - 2.0) < 1e-14
    assert abs(d.mu - 1.0) < 1e-14
    p1 = deep_params(polarizability_alpha=1.0, field_coupling_lambda=math.sqrt(2.0), ell=1)
    assert abs(model.derive(p1).Lambda - math.sqrt(3.0)) < 1e-14


def test_derive_boundary_rejected():
    # 2 m alpha lambda^2 = 4 exactly; ell = 2 sits on the boundary
    p = deep_params(polarizability_alpha=2.0, field_coupling_lambda=1.0, ell=2)
    with pytest.raises(NoBoundStateRegime):
        model.derive(p)
    p3 = deep_params(polarizability_alpha=2.0, field_coupling_lambda=1.0, ell=3)
    with pytest.raises(NoBoundStateRegime):
        model.derive(p3)


def test_derive_x0_bitwise():
    p = deep_params()
    d = model.derive(p)
    assert d.x0 == p.mass_m * p.omega * p.cutoff_R**2


def test_derive_scale_consistency():
    # only the product alpha * lambda^2 enters Lambda
    rng = np.random.default_rng(2)
    for _ in range(20):
        alpha = float(rng.uniform(0.5, 5))
        lam = float(rng.uniform(0.5, 3))
        c = float(rng.uniform(0.1, 10))
        p0 = deep_params(polarizability_alpha=alpha, field_coupling_lambda=lam)
        p1 = deep_params(
            polarizability_alpha=c * alpha, field_coupling_lambda=lam / math.sqrt(c)
        )
        l0 = model.derive(p0).Lambda
        l1 = model.derive(p1).Lambda
        assert abs(l1 - l0) <= 5e-15 * l0


def test_effective_potential_values():
    p = deep_params(polarizability_alpha=1.0, field_coupling_lambda=1.0, omega=0.0)
    assert model.effective_potential(p, 2.0) == -0.25
    with pytest.raises(ForbiddenRegion):
        model.effective_potential(p, 0.5 * p.cutoff_R)


def test_effective_potential_outside_double_range():
    p = deep_params()
    for params, r in ((p, 1e200), (deep_params(cutoff_R=1e-170), 1e-170),
                      (deep_params(omega=1e200), 1.0)):
        with pytest.raises(DomainError, match=re.escape(f"at r = {r} leaves double range")):
            model.effective_potential(params, r)
    assert math.isfinite(model.effective_potential(p, 1e150))


def test_effective_potential_attractive_is_strictly_increasing():
    # the attractive inverse-square plus trap has no stationary point:
    # V' = 2 a l^2 / r^3 + m w^2 r > 0 everywhere
    p = deep_params(polarizability_alpha=1.0, field_coupling_lambda=1.0, omega=1.0)
    r = np.linspace(p.cutoff_R, 8.0, 1000)
    v = np.array([model.effective_potential(p, float(x)) for x in r])
    assert np.all(np.diff(v) > 0)


def test_effective_potential_centrifugal_minimum():
    # with ell^2/(2m) > alpha lambda^2 the net 1/r^2 term is repulsive and a
    # true minimum appears at r* = (2 c / (m w^2))^{1/4}, c = ell^2/2m - a l^2
    p = deep_params(polarizability_alpha=1.0, field_coupling_lambda=1.0, omega=1.0, ell=2)
    c = p.ell**2 / (2 * p.mass_m) - 1.0
    r_star = (2.0 * c / (p.mass_m * p.omega**2)) ** 0.25
    h = 1e-6
    v_prime = (
        model.effective_potential(p, r_star + h, include_centrifugal=True)
        - model.effective_potential(p, r_star - h, include_centrifugal=True)
    ) / (2 * h)
    assert abs(v_prime) < 1e-8


def test_outer_turning_radius_of_deep_level():
    # deep.cfg at E = -1e8: r^2 -> alpha lambda^2 / |E|, where e + hypot(e, c) cancels
    r = model.outer_turning_radius(deep_params(), -1e8)
    assert math.isclose(r, 3.5355339059327e-4, rel_tol=1e-12)
    # the radius does not depend on the cut-off; a smaller one lets V be evaluated there
    v = model.effective_potential(deep_params(cutoff_R=1e-6), r)
    assert math.isclose(v, -1e8, rel_tol=1e-12)


@pytest.mark.parametrize("energy", [-1e8, -794.7, -1.0, -1e-9, 0.0, 1e-9, 3e-3, 5.0])
def test_outer_turning_radius_is_the_outer_root(energy):
    p = deep_params(p_z=0.3, cutoff_R=1e-6)
    r = model.outer_turning_radius(p, energy + p.energy_shift)
    v = model.effective_potential(p, r)
    assert math.isclose(v, energy, rel_tol=1e-12, abs_tol=1e-12)
    # the outer root: the potential rises through the energy there
    assert model.effective_potential(p, 1.001 * r) > v


def test_outer_turning_radius_rejects_zero_omega():
    with pytest.raises(DomainError):
        model.outer_turning_radius(deep_params(omega=0.0), -1.0)


@pytest.mark.parametrize("omega", [1e-200, 1e-300, 1e200])
def test_outer_turning_radius_past_double_range(omega):
    # m omega^2 underflows to 0 (a division by zero) or overflows: a typed error
    with pytest.raises(DomainError, match="leaves double range"):
        model.outer_turning_radius(deep_params(omega=omega), -1.0)


def test_kappa_map_basics():
    p = deep_params(omega=0.5)
    assert kappa_of_energy(p, 0.0) == 0.0
    assert kappa_of_energy(p, 1.0) == 1.0
    # p_z = 1, m = 2: shift p_z^2/(2m) = 0.25
    ps = deep_params(omega=0.5, mass_m=2.0, p_z=1.0)
    assert kappa_of_energy(ps, 0.25) == 0.0


def test_kappa_map_round_trip():
    rng = np.random.default_rng(8)
    p = deep_params(p_z=0.3)  # shift 0.045
    for _ in range(100):
        e = float(rng.uniform(-500, 5))
        rt = energy_of_kappa(p, kappa_of_energy(p, e))
        assert abs(rt - e) <= 4.0 * np.spacing(max(abs(e), 1.0))


def test_kappa_map_rejects_zero_omega():
    with pytest.raises(DomainError):
        kappa_of_energy(deep_params(omega=0.0), 1.0)


def test_parse_config_text():
    text = """
    # deep regime
    mass = 1.0
    alpha = 12.5   # polarizability
    lambda = 1.0
    omega = 1e-3
    radius = 0.1
    """
    vals = model.parse_config_text(text)
    assert vals == {"mass": 1.0, "alpha": 12.5, "lambda": 1.0, "omega": 1e-3, "radius": 0.1}
    p = model.params_from_mapping(vals)
    assert p.ell == 0 and p.p_z == 0.0


def test_parse_config_rejects_garbage():
    with pytest.raises(DomainError):
        model.parse_config_text("massiveness = 1")
    with pytest.raises(DomainError):
        model.parse_config_text("mass: 1")
    with pytest.raises(DomainError):
        model.parse_config_text("mass = one")
    with pytest.raises(DomainError):
        model.params_from_mapping({"mass": 1.0})
    with pytest.raises(DomainError):
        model.params_from_mapping(
            {"mass": 1.0, "alpha": 1.0, "lambda": 1.0, "omega": 0.0, "radius": 1.0, "ell": 0.5}
        )
