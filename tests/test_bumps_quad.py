"""Test functions (closed-form Laplacians, norms) and the 2-D quadrature."""

import numpy as np
import pytest
from scipy.integrate import quad

from ellipticlab import TestFunction as Bump
from ellipticlab.quad2d import QuadratureError, adaptive_quad2d


def fd_laplacian(f, z, h=1e-4):
    return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h ** 2


class TestBumps:
    @pytest.mark.parametrize("kind", ["polynomial-bump", "gaussian-bump"])
    def test_laplacian_matches_finite_differences(self, kind):
        tf = Bump(kind=kind, center=0.2 - 0.1j, radius=0.7)
        rng = np.random.default_rng(1)
        for _ in range(25):
            z = tf.center + 0.6 * tf.radius * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            assert fd_laplacian(tf.f, z) == pytest.approx(float(tf.laplacian(z)),
                                                          rel=2e-4, abs=1e-5)

    @pytest.mark.parametrize("kind", ["polynomial-bump", "gaussian-bump"])
    def test_compact_support_and_c2(self, kind):
        tf = Bump(kind=kind)
        assert tf.f(1.0 + 0.0j) == 0.0
        assert tf.f(2.0) == 0.0
        assert tf.laplacian(1.0 + 1e-12j) == 0.0
        # value and Laplacian decay continuously to the boundary
        assert abs(tf.f(0.999)) < 1e-4 or kind == "polynomial-bump"
        assert abs(tf.f(0.9999)) < 1e-9

    def test_poly_delta_l1_closed_form(self):
        # 2 pi * 12 * int_0^1 (1-r^2)|3r^2-1| r dr = 32 pi / 9
        tf = Bump(kind="polynomial-bump")
        assert tf.norm_delta_l1 == pytest.approx(32 * np.pi / 9, rel=1e-13)

    @pytest.mark.parametrize("kind, kink", [("polynomial-bump", 1 / np.sqrt(3)),
                                            ("gaussian-bump", np.sqrt((np.sqrt(5) - 1) / 2))])
    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_norms_match_adaptive_quadrature(self, kind, kink, a):
        # the oracle is scipy's adaptive quadrature told where Delta p changes sign
        tf = Bump(kind=kind, radius=0.7, a=a)
        assert tf.laplacian(kink * tf.radius) == pytest.approx(0.0, abs=1e-12)

        def norm(p):
            val, _ = quad(lambda r: np.abs(tf.laplacian(r)) ** p * r, 0.0, tf.radius,
                          points=[kink * tf.radius], limit=400, epsabs=0.0, epsrel=1e-13)
            return (2 * np.pi * val) ** (1 / p)

        assert tf.norm_delta_l1 == pytest.approx(norm(1.0), rel=1e-12)
        assert tf.norm_delta_l2a == pytest.approx(norm(2.0 + a), rel=1e-12 if a == 1.0 else 1e-10)

    def test_equality_survives_reading_a_norm(self):
        a, b = Bump(alpha=0.25), Bump(alpha=0.25)
        assert a.norm_delta_l1 > 0 and a.norm_delta_l2a > 0
        assert a == b
        with pytest.raises(TypeError):
            Bump(_norm_cache={})

    def test_l1_scale_invariance(self):
        a = Bump(radius=1.0).norm_delta_l1
        b = Bump(radius=0.2).norm_delta_l1
        assert a == pytest.approx(b, rel=1e-9)

    def test_observable_scaling(self):
        tf = Bump(center=0.3, alpha=0.25)
        n = 256
        z = 0.3 + 0.01j
        base = tf.f(tf.center + (z - tf.center) * tf.scale(n))
        assert tf.observable(z, n) == pytest.approx(tf.scale(n) ** 2 * float(base))
        assert tf.support_radius(n) == pytest.approx(n ** -0.25)

    def test_observable_laplacian_consistency(self):
        tf = Bump(center=0.1 + 0.1j, alpha=0.3)
        n = 64
        f_obs = lambda z: tf.observable(z, n)
        z = tf.center + 0.4 * tf.support_radius(n)
        assert fd_laplacian(f_obs, z, h=1e-5) == pytest.approx(
            float(tf.observable_laplacian(z, n)), rel=1e-3)

    def test_laplacian_integrates_to_zero(self):
        tf = Bump(kind="gaussian-bump", radius=0.5)
        val, _ = adaptive_quad2d(lambda p: np.real(tf.laplacian(p)),
                                 (-0.5, 0.5, -0.5, 0.5), tol=1e-6)
        assert abs(val) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            Bump(kind="sombrero")
        with pytest.raises(ValueError):
            Bump(alpha=0.5)
        with pytest.raises(ValueError):
            Bump(radius=0.0)
        Bump().validate(256)  # smooth bump on the unit disk passes

    @pytest.mark.parametrize("field, value", [
        ("center", complex(np.nan, 0.0)), ("center", complex(0.0, np.inf)),
        ("radius", np.nan), ("radius", np.inf), ("a", np.nan), ("a", np.inf),
    ], ids=["center-nan", "center-inf", "radius-nan", "radius-inf", "a-nan", "a-inf"])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Bump(**{field: value})

    @pytest.mark.parametrize("kind", ["polynomial-bump", "gaussian-bump"])
    def test_observable_at_alpha_zero_is_f(self, kind):
        # n^0 = 1 scales exactly, so the two paths agree bit for bit
        tf = Bump(kind=kind, center=0.2 - 0.1j, radius=0.7)
        z = np.array([1.0, 1j]) @ np.random.default_rng(3).uniform(-1, 1, (2, 50))
        assert np.array_equal(tf.observable(z, 256), tf.f(z))
        assert np.array_equal(tf.observable_laplacian(z, 256), tf.laplacian(z))


class TestQuad2d:
    def test_separable_polynomial(self):
        val, err = adaptive_quad2d(lambda p: p.real ** 2 * p.imag ** 2,
                                   (0.0, 1.0, 0.0, 2.0), tol=1e-10)
        assert val == pytest.approx((1 / 3) * (8 / 3), abs=1e-9)
        assert err < 1e-8

    def test_gaussian_integral(self):
        val, _ = adaptive_quad2d(lambda p: np.exp(-np.abs(p) ** 2),
                                 (-6.0, 6.0, -6.0, 6.0), tol=1e-9)
        assert val == pytest.approx(np.pi, abs=1e-7)

    def test_disc_indicator(self):
        val, _ = adaptive_quad2d(lambda p: (np.abs(p) <= 0.8).astype(float),
                                 (-1.0, 1.0, -1.0, 1.0), tol=1e-4)
        assert val == pytest.approx(np.pi * 0.64, abs=2e-3)

    def test_bump_mass_matches_radial_quadrature(self):
        tf = Bump(kind="polynomial-bump", center=0.5j, radius=0.4)
        val, _ = adaptive_quad2d(lambda p: np.real(tf.f(p)),
                                 (-0.4, 0.4, 0.1, 0.9), tol=1e-9)
        # int (1-r^2)^3 over the unit disk = pi/4, scaled by radius^2
        assert val == pytest.approx(np.pi / 4 * 0.4 ** 2, rel=1e-7)

    def test_cell_budget_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_quad2d(lambda p: np.sin(60.0 * p.real) * np.cos(77.0 * p.imag),
                            (0.0, 10.0, 0.0, 10.0), tol=1e-14, max_depth=30,
                            max_cells=500)

    def test_max_depth_miss_raises(self):
        # the indicator's edge cannot reach tol=1e-4 in 4 levels (error ~42x tol)
        with pytest.raises(QuadratureError):
            adaptive_quad2d(lambda p: (np.abs(p) <= 0.8).astype(float),
                            (-1.0, 1.0, -1.0, 1.0), tol=1e-4, max_depth=4)

    def test_split_reuses_parent_nodes(self):
        calls = []

        def bicubic(p):
            calls.append(p.size)
            return p.real ** 3 * p.imag ** 3 + p.real * p.imag

        # Simpson is exact for a bicubic: one split, 9 + 16 points (45 without reuse)
        val, _ = adaptive_quad2d(bicubic, (0.0, 1.0, 0.0, 2.0), tol=1e-10)
        assert val == pytest.approx(1.0 + 1.0, rel=1e-12)
        assert calls == [9, 16]

    def test_split_evaluates_only_new_points(self):
        seen = []

        def gaussian(p):
            seen.append(p.copy())
            return np.exp(-np.abs(p) ** 2)

        val, _ = adaptive_quad2d(gaussian, (-6.0, 6.0, -6.0, 6.0), tol=1e-6)
        assert val == pytest.approx(np.pi, abs=1e-6)
        assert seen[0].size == 9
        mid = lambda a, b: 0.5 * (a + b)
        new = np.ones((5, 5), dtype=bool)
        new[::2, ::2] = False
        # each later call holds the 16 new points of every cell it splits, and
        # those cells are children of the cells split by the call before
        children = {(-6.0, 6.0, -6.0, 6.0)}
        for pts in seen[1:]:
            split = set()
            for cell in pts.reshape(-1, 16):
                x0, x1 = cell.real.min(), cell.real.max()
                y0, y1 = cell.imag.min(), cell.imag.max()
                assert (x0, x1, y0, y1) in children
                split.add((x0, x1, y0, y1))
                xs = np.array([x0, mid(x0, mid(x0, x1)), mid(x0, x1),
                               mid(mid(x0, x1), x1), x1])
                ys = np.array([y0, mid(y0, mid(y0, y1)), mid(y0, y1),
                               mid(mid(y0, y1), y1), y1])
                expected = (xs[:, None] + 1j * ys[None, :])[new]
                np.testing.assert_array_equal(np.sort(cell), np.sort(expected))
            children = {(a, b, c, d) for x0, x1, y0, y1 in split
                        for a, b in ((x0, mid(x0, x1)), (mid(x0, x1), x1))
                        for c, d in ((y0, mid(y0, y1)), (mid(y0, y1), y1))}
        assert len(seen) > 3
        assert sum(p.size for p in seen) == 9 + 16 * sum(p.size // 16 for p in seen[1:])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad2d(lambda p: np.ones_like(p.real), (0, 0, 0, 1), tol=1e-6)

    @pytest.mark.parametrize("box", [(0.0, np.nan, 0.0, 1.0), (0.0, 1.0, -np.inf, 1.0),
                                     (-np.inf, np.inf, 0.0, 1.0)],
                             ids=["nan", "minus-inf", "both-inf"])
    def test_non_finite_box_rejected(self, box):
        calls = []

        def func(p):
            calls.append(p.size)
            return np.ones_like(p.real)
        with pytest.raises(ValueError, match="finite corners"):
            adaptive_quad2d(func, box, tol=1e-6)
        assert calls == []

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_not_positive_finite_rejected(self, tol):
        # refining toward such a tol would run until the cell budget is gone
        calls = []

        def func(p):
            calls.append(p.size)
            return np.ones_like(p.real)
        with pytest.raises(ValueError, match="tol"):
            adaptive_quad2d(func, (0.0, 1.0, 0.0, 1.0), tol=tol, max_cells=20000)
        assert calls == []
