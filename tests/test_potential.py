"""Log-potential quadrature against an independent high-precision oracle."""

import mpmath as mp
import numpy as np
import pytest

from ellipticlab import (
    EllipseRegion,
    EllipticParam,
    distributional_check,
    log_potential,
    log_potential_derivative_check,
    log_potential_grid,
    solve_dyson_grid,
)
from ellipticlab import TestFunction as Bump
from ellipticlab import potential
from ellipticlab.quad2d import QuadratureError


def oracle_potential_origin() -> float:
    """L(0) from the closed-form v(0, eta) by high-precision quadrature."""
    mp.mp.dps = 30
    t_cut = mp.mpf(10) ** 8
    integrand = lambda t: (mp.sqrt(t * t + 4) - t) / 2 - 1 / (1 + t)
    head = mp.quad(integrand, [0, 1, 10, 1000, t_cut])
    # analytic antiderivative tail: value at infinity minus value at t_cut
    tail = (mp.mpf(0.5) - ((t_cut / 4) * mp.sqrt(t_cut ** 2 + 4)
                           + mp.asinh(t_cut / 2) - t_cut ** 2 / 4
                           - mp.log(1 + t_cut)))
    return float(-(head + tail))


def test_origin_against_oracle():
    oracle = oracle_potential_origin()
    assert abs(oracle - (-0.5)) < 1e-12          # freeze: L(0) = -1/2
    val = log_potential(0.0, EllipticParam(0.0), quad_tol=1e-6)
    assert abs(val - oracle) < 1e-4


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.7, 0.95])
def test_inside_matches_closed_form(rho):
    # inside the ellipse L = (|z|^2 - rho Re z^2) / (2 (1 - rho^2)) - 1/2
    z = EllipseRegion(rho, delta=0.05).sample_uniform(np.random.default_rng(8), 12)
    closed = (np.abs(z) ** 2 - rho * (z ** 2).real) / (2.0 * (1.0 - rho ** 2)) - 0.5
    vals = log_potential_grid(z, EllipticParam(rho), quad_tol=1e-6)
    assert np.max(np.abs(vals - closed)) < 1e-10


def joukowski_potential(z, rho):
    """L outside the ellipse: log|w| + Re(rho / (2 w^2)), z = w + rho/w, |w| > 1."""
    root = np.sqrt(z * z - 4.0 * rho)
    w = np.where(np.abs(z + root) >= np.abs(z - root), z + root, z - root) / 2.0
    assert np.all(np.abs(w) > 1.0)
    return np.log(np.abs(w)) + (rho / (2.0 * w * w)).real


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.7, 0.95])
def test_outside_matches_joukowski_closed_form(rho):
    # |w| in [1.1, 8] maps outside the ellipse and into |zeta| <= 9 + |rho|
    rng = np.random.default_rng(9)
    w = rng.uniform(1.1, 8.0, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
    z = w + rho / w
    assert not np.any(EllipseRegion(rho).contains(z))
    vals = log_potential_grid(z, EllipticParam(rho), quad_tol=1e-6)
    assert np.max(np.abs(vals - joukowski_potential(z, rho))) < 1e-10


def test_far_field_within_quad_tol():
    z = 1e4 * np.exp(1j * np.array([0.0, 0.7, 2.0, -2.5]))
    for rho in (0.0, 0.5, -0.7, 0.95):
        vals = log_potential_grid(z, EllipticParam(rho), quad_tol=1e-6)
        assert np.max(np.abs(vals - joukowski_potential(z, rho))) <= 1e-6


def test_origin_rho_independent():
    # v(0, eta) does not involve rho, so neither does L(0)
    for rho in (0.0, 0.5, -0.7):
        assert abs(log_potential(0.0, EllipticParam(rho)) + 0.5) < 1e-4


def test_finite_on_disk():
    param = EllipticParam(0.5)
    pts = np.array([0.0, 1.0 + 0.2j, 3.0 - 1.0j, 9.0, -5.0j])
    vals = log_potential_grid(pts, param, quad_tol=1e-5)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 10.0


def test_outside_matches_point_charge():
    # far from the ellipse the potential approaches log|zeta|
    param = EllipticParam(0.3)
    for z in (6.0 + 0.0j, 4.0j, -5.0 - 3.0j):
        val = log_potential(z, param, quad_tol=1e-6)
        assert abs(val - np.log(abs(z))) < 0.05


def test_integrand_bounds():
    # v <= 2/(1+eta) on the disk of radius 10, and the tail integral is O(1/T)
    param = EllipticParam(0.5)
    etas = np.geomspace(1e-6, 1e4, 60)
    for z in (0.0, 2.0 + 1.0j, 9.5):
        v, _, _, _ = solve_dyson_grid(np.full(etas.shape, z, dtype=complex),
                                      etas, param.rho)
        assert np.all(v <= 2.0 / (1.0 + etas) + 1e-12)


def test_truncated_potential_and_derivative_identity():
    param = EllipticParam(0.5)
    val = log_potential_derivative_check(0.4 + 0.0j, 0.1, param, step=1e-4)
    assert val <= 1e-4
    val2 = log_potential_derivative_check(0.3 + 0.2j, 0.05, param, step=1e-4)
    assert val2 <= 1e-4


def test_derivative_identity_at_origin():
    # both sides vanish by symmetry
    assert log_potential_derivative_check(0.0, 0.2, EllipticParam(0.5)) < 1e-9


def test_derivative_identity_random_bulk_points():
    param = EllipticParam(-0.6)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-1.0, 1.0))
        assert log_potential_derivative_check(z, 0.1, param, step=1e-4) < 1e-4


def test_finite_difference_is_second_order():
    param = EllipticParam(0.5)
    coarse = log_potential_derivative_check(0.4, 0.1, param, step=1e-2,
                                            quad_tol=1e-11)
    fine = log_potential_derivative_check(0.4, 0.1, param, step=1e-3,
                                          quad_tol=1e-11)
    assert coarse / fine == pytest.approx(100.0, rel=0.6)


def test_eps_monotone_to_full():
    param = EllipticParam(0.2)
    full = log_potential(0.5 + 0.1j, param, quad_tol=1e-7)
    approx = [float(log_potential_grid(0.5 + 0.1j, param, quad_tol=1e-7, eps=eps))
              for eps in (1e-2, 1e-4, 1e-6)]
    diffs = np.abs(np.array(approx) - full)
    assert diffs[-1] < 1e-5
    assert np.all(np.diff(diffs) <= 1e-12)


def test_distributional_identity_small():
    psi = Bump(kind="polynomial-bump", center=0.1 + 0.05j, radius=0.35)
    lhs, rhs = distributional_check(psi, EllipticParam(0.5), nodes=48,
                                    quad_tol=2e-5)
    assert rhs > 0
    assert abs(lhs - rhs) / rhs < 1e-2


def test_distributional_check_rejects_nonbulk_support():
    psi = Bump(center=1.4 + 0.0j, radius=0.5)
    with pytest.raises(ValueError):
        distributional_check(psi, EllipticParam(0.5))


@pytest.mark.parametrize("quad_tol", [0.0, np.nan, np.inf])
def test_quad_tol_not_positive_finite_rejected(quad_tol, monkeypatch):
    # inf would stop after one grid doubling, nan run to the node cap
    solves = []
    monkeypatch.setattr(potential, "solve_dyson_grid", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match="quad_tol"):
        log_potential(0.0, EllipticParam(0.5), quad_tol=quad_tol)
    assert solves == []


def test_quad_tol_validation():
    with pytest.raises(ValueError):
        log_potential(0.0, EllipticParam(0.0), quad_tol=-1.0)
    with pytest.raises((ValueError, QuadratureError)):
        log_potential_grid(np.array([0.0]), EllipticParam(0.0), quad_tol=1e-15,
                           eps=2e4)
