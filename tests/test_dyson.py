"""Dyson solver identities against closed forms and random spectral points."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellipticlab import (
    DysonConvergenceError,
    EllipseRegion,
    EllipticParam,
    SpectralPoint,
    b_from_v,
    elliptic_density,
    m_matrix,
    solve_dyson,
    solve_dyson_grid,
    v_equation_residual,
    v_limit_bulk,
)
from ellipticlab import dyson
from ellipticlab.dyson import _MAX_STEPS


def closed_form_v_origin(eta):
    # at zeta = 0 the scalar equation reduces to v (eta + v) = 1
    return (np.sqrt(eta ** 2 + 4.0) - eta) / 2.0


def random_points(count, seed=11):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z) < 10:
            pts.append((z, 10 ** rng.uniform(-6, 0), rng.uniform(-0.9, 0.9)))
    return pts


class TestClosedForms:
    def test_origin_eta_one(self):
        sol = solve_dyson(SpectralPoint(0.0, 1.0), EllipticParam(0.5))
        assert abs(sol.v - (np.sqrt(5) - 1) / 2) < 1e-12
        assert abs(sol.b) < 1e-12

    @pytest.mark.parametrize("eta", [1e-3, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.7])
    def test_origin_quadratic_oracle(self, eta, rho):
        sol = solve_dyson(SpectralPoint(0.0, eta), EllipticParam(rho))
        assert abs(sol.v - closed_form_v_origin(eta)) < 1e-12
        assert abs(sol.b) < 1e-12

    def test_large_eta_asymptotics(self):
        # eta * v -> 1 with O(1/eta) error on a disk of bounded zeta
        for eta in (1e2, 1e3, 1e4):
            v, _, _, _ = solve_dyson_grid(3.0 + 4.0j, eta, 0.6)
            assert abs(eta * float(v) - 1.0) < 30.0 / eta

    def test_bulk_limit_formula(self):
        sol = solve_dyson(SpectralPoint(0.3 + 0.2j, 1e-6), EllipticParam(0.5))
        assert abs(sol.v ** 2 - 0.8) < 1e-3
        assert abs(v_limit_bulk(0.3 + 0.2j, EllipticParam(0.5)) - np.sqrt(0.8)) < 1e-12


class TestIdentities:
    @pytest.mark.parametrize("idx", range(0, 40, 7))
    def test_random_point_identities(self, idx):
        z, eta, rho = random_points(40)[idx]
        point, param = SpectralPoint(z, eta), EllipticParam(rho)
        sol = solve_dyson(point, param)
        assert sol.v > 0
        tol = 1e-9
        assert abs(sol.v ** 2 + abs(sol.b) ** 2 - sol.v / (eta + sol.v)) < tol
        assert abs(-np.conj(sol.b)
                   - (sol.v ** 2 + abs(sol.b) ** 2) * (z + rho * sol.b)) < tol
        assert abs(v_equation_residual(sol.v, point, param)) < tol
        assert abs(b_from_v(sol.v, point, param) - sol.b) < 1e-10
        assert sol.v <= min(1.0, 1.0 / eta) + 1e-12
        assert sol.v <= 2.0 / (1.0 + eta)

    def test_b_from_v_trivial_cases(self):
        assert b_from_v(0.37, SpectralPoint(0.0, 0.2), EllipticParam(0.5)) == 0
        val = b_from_v(1.0, SpectralPoint(1.0, 1e-9), EllipticParam(0.0))
        assert abs(val - (-1.0)) < 1e-8

    def test_v_equation_residual_off_solution(self):
        # v = 0.5 is not the solution at (0, 0.5): residual = -(1/2 - 1/4)
        val = v_equation_residual(0.5, SpectralPoint(0.0, 0.5), EllipticParam(0.3))
        assert val == pytest.approx(-0.25, abs=1e-14)

    def test_v_equation_residual_limit_case(self):
        # v = 1 solves the equation in the eta -> 0 limit at zeta = 0
        val = v_equation_residual(1.0, SpectralPoint(0.0, 1e-6), EllipticParam(0.7))
        assert abs(val) < 1e-5

    def test_m_matrix_structure(self):
        sol = solve_dyson(SpectralPoint(0.4 - 0.1j, 0.05), EllipticParam(-0.3))
        m = m_matrix(sol)
        assert m[0, 0] == m[1, 1] == 1j * sol.v
        assert m[0, 1] == np.conj(m[1, 0]) == np.conj(sol.b)
        # plug back into the defining relation
        z2 = np.array([[1j * sol.eta, sol.zeta],
                       [np.conj(sol.zeta), 1j * sol.eta]])
        s_m = np.array([[m[1, 1], sol.rho * m[1, 0]],
                        [sol.rho * m[0, 1], m[0, 0]]])
        assert np.max(np.abs(np.linalg.inv(m) + z2 + s_m)) < 1e-10
        assert np.linalg.norm(m, 2) <= min(1.0, 1.0 / sol.eta) + 1e-10

    def test_identity_when_b_zero(self):
        sol = solve_dyson(SpectralPoint(0.0, 2.0), EllipticParam(0.0))
        m = m_matrix(sol)
        assert np.allclose(m, 1j * sol.v * np.eye(2))


class TestBulkScaling:
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.7])
    def test_limit_matches_solver_on_grid(self, rho):
        param = EllipticParam(rho)
        region = EllipseRegion(rho, delta=0.3)
        rng = np.random.default_rng(5)
        pts = region.sample_uniform(rng, 10)
        for z in pts:
            v, _, _, _ = solve_dyson_grid(z, 1e-6, rho)
            assert abs(float(v) ** 2 - v_limit_bulk(complex(z), param) ** 2) < 1e-3

    def test_v_lower_bound_in_bulk(self):
        # v stays comparable to its eta -> 0 limit throughout eta <= 1
        param = EllipticParam(0.5)
        region = EllipseRegion(0.5, delta=0.4)
        pts = region.sample_uniform(np.random.default_rng(6), 6)
        etas = np.geomspace(1e-6, 1.0, 8)
        for z in pts:
            floor = 0.5 * v_limit_bulk(complex(z), param)
            v, _, _, _ = solve_dyson_grid(np.full_like(etas, z, dtype=complex),
                                          etas, 0.5)
            assert np.all(v >= floor)


class TestRegionAndDensity:
    def test_density_values(self):
        param = EllipticParam(0.5)
        assert abs(elliptic_density(0.0, param) - 1.0 / (0.75 * np.pi)) < 1e-14
        assert elliptic_density(2.0 + 0.0j, param) == 0.0
        assert abs(elliptic_density(0.0, EllipticParam(0.0)) - 1.0 / np.pi) < 1e-14

    def test_boundary_is_inside(self):
        region = EllipseRegion(0.5, delta=0.0)
        assert bool(region.contains(1.5 + 0.0j))
        assert bool(region.contains(0.0 + 0.5j))
        assert not bool(region.contains(1.5000001))
        # density on the boundary takes the interior value
        assert elliptic_density(1.5 + 0.0j, EllipticParam(0.5)) > 0

    def test_delta_shrinks_region(self):
        region = EllipseRegion(0.5, delta=0.19)
        assert bool(region.contains(1.5 * 0.9))
        assert not bool(region.contains(1.5 * 0.91))

    def test_v_limit_rejects_outside(self):
        with pytest.raises(ValueError):
            v_limit_bulk(1.5 + 0.0j, EllipticParam(0.5))
        with pytest.raises(ValueError):
            v_limit_bulk(2.0, EllipticParam(0.5))

    def test_contains_disk(self):
        region = EllipseRegion(0.5)          # semi-axes 1.5 and 0.5
        assert region.contains_disk(0.1 + 0.05j, 0.2)      # well inside
        # tangent from inside at +-0.5i: the boundary counts as inside
        assert region.contains_disk(0.0, 0.5)
        assert not region.contains_disk(0.0, 0.5 + 1e-9)
        assert not region.contains_disk(1.2 + 0.0j, 0.4)   # crosses the edge at 1.5
        assert not region.contains_disk(3.0 + 0.0j, 0.1)   # wholly outside

    def test_contains_disk_with_delta(self):
        # E_{0.5, 0.19} has semi-axes 0.9 * (1.5, 0.5)
        region = EllipseRegion(0.5, delta=0.19)
        assert region.contains_disk(0.0, 0.44)
        assert not region.contains_disk(0.0, 0.46)
        assert EllipseRegion(0.5).contains_disk(0.0, 0.46)

    def test_uniform_sampling_stays_inside(self):
        region = EllipseRegion(-0.4, delta=0.1)
        pts = region.sample_uniform(np.random.default_rng(0), 500)
        assert np.all(region.contains(pts))


class TestValidationAndErrors:
    def test_eta_rejected(self):
        with pytest.raises(ValueError):
            SpectralPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            SpectralPoint(0.0, -1.0)
        with pytest.raises(ValueError):
            SpectralPoint(0.0, 1e-14)
        with pytest.raises(ValueError):
            solve_dyson_grid(0.0, 0.0, 0.5)

    def test_rho_rejected(self):
        with pytest.raises(ValueError):
            EllipticParam(1.0)
        with pytest.raises(ValueError):
            solve_dyson_grid(0.0, 1.0, -1.0)

    def test_unreachable_tol_raises(self):
        with pytest.raises(DysonConvergenceError):
            solve_dyson(SpectralPoint(9.0 + 3.0j, 1e-6), EllipticParam(0.5),
                        tol=1e-18)

    @pytest.mark.parametrize("zeta, eta, rho, tol", [
        (complex(np.nan, 0.0), 1.0, 0.5, 1e-12),
        (complex(0.0, np.inf), 1.0, 0.5, 1e-12),
        (0.0, np.nan, 0.5, 1e-12),
        (0.0, np.inf, 0.5, 1e-12),
        (0.0, np.array([1.0, np.nan]), 0.5, 1e-12),
        (0.0, 1.0, np.nan, 1e-12),
        (0.0, 1.0, 0.5, np.nan),
        (0.0, 1.0, 0.5, np.inf),
        (0.0, 1.0, 0.5, 0.0),
    ], ids=["zeta-nan", "zeta-inf", "eta-nan", "eta-inf", "eta-nan-in-array", "rho-nan",
            "tol-nan", "tol-inf", "tol-zero"])
    def test_non_finite_input_rejected(self, zeta, eta, rho, tol):
        # each would otherwise return NaN or pass the residual gate unchecked
        with pytest.raises(ValueError):
            solve_dyson_grid(zeta, eta, rho, tol=tol)

    def test_nan_residual_raises(self, monkeypatch):
        # the gate asks all(res <= tol), which a NaN residual fails
        residual = dyson._mde_residual

        def nan_at_first_point(*args):
            res = residual(*args)
            res[0] = np.nan
            return res
        monkeypatch.setattr(dyson, "_mde_residual", nan_at_first_point)
        with pytest.raises(DysonConvergenceError, match="nan"):
            solve_dyson_grid(np.array([0.1, 0.2]), 0.5, 0.5)

    def test_grid_shapes(self):
        zs = np.array([[0.1, 0.2 + 0.1j], [0.0, -0.3j]])
        v, b, r, it = solve_dyson_grid(zs, 0.5, 0.2)
        assert v.shape == b.shape == r.shape == it.shape == (2, 2)
        assert np.all(r <= 1e-12)


def mp_v(zeta, eta, rho):
    """v from a 50-digit geometric bisection of the scalar equation in u = eta/v."""
    with mp.workdps(50):
        x2, y2 = mp.mpf(zeta.real) ** 2, mp.mpf(zeta.imag) ** 2
        e, r = mp.mpf(eta), mp.mpf(rho)

        def g(u):
            return (x2 / (1 + r + u) ** 2 + y2 / (1 - r + u) ** 2
                    + e * e / u ** 2 - 1 / (1 + u))

        lo, hi = e * max(1, e), 2 * (1 + x2 + y2 + e * e)
        assert g(lo) >= 0 > g(hi)
        for _ in range(200):
            mid = mp.sqrt(lo * hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(e / mp.sqrt(lo * hi))


class TestDysonContract:
    """Every point of the parameter box meets the solver's contract."""

    @settings(max_examples=300, deadline=None)
    @given(rho=st.one_of(st.sampled_from([-0.999, 0.999]),
                         st.floats(-0.999, 0.999)),
           log_eta=st.floats(-12.0, 8.0),
           log_abs=st.floats(-3.0, 4.0),
           phase=st.floats(0.0, 2.0 * np.pi))
    @example(rho=0.5, log_eta=-12.0, log_abs=np.log10(1.5), phase=0.0)
    @example(rho=0.5, log_eta=-12.0, log_abs=np.log10(1.5), phase=np.pi)
    @example(rho=-0.999, log_eta=-12.0, log_abs=-3.0, phase=0.3)
    @example(rho=0.999, log_eta=-12.0, log_abs=0.0, phase=0.0)
    def test_residual_bounds_and_oracle(self, rho, log_eta, log_abs, phase):
        eta = 10.0 ** log_eta
        zeta = 10.0 ** log_abs * complex(np.cos(phase), np.sin(phase))
        sol = solve_dyson(SpectralPoint(zeta, eta), EllipticParam(rho))
        assert sol.residual <= 1e-12
        assert 0.0 < sol.v <= min(1.0, 1.0 / eta) + 1e-12
        assert sol.iterations <= _MAX_STEPS
        exact = mp_v(complex(zeta), eta, rho)
        assert abs(sol.v - exact) <= 1e-7 * exact
