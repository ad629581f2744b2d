"""Log-potential of the elliptic law via the Dyson solution.

L(zeta) = -int_0^infty (v(zeta, eta) - 1/(1+eta)) d eta  is the logarithmic
potential of the uniform measure on the ellipse:  (1/2 pi) Delta L = density
in the distributional sense.  The integrand decays like eta^{-2}, so the
quadrature runs on a log-spaced Simpson grid over [eta_min, T] with the
tail beyond T added analytically,

    int_T^infty (v - 1/(1+eta)) d eta = log((1+T)/sqrt(T^2 + 1 + |zeta|^2)) + O(T^{-3}),

and the head below eta_min bounded by 2*eta_min (midpoint value used).
"""

from __future__ import annotations

import numpy as np

from .bumps import TestFunction
from .dyson import EllipseRegion, EllipticParam, elliptic_density, solve_dyson_grid
from .quad2d import QuadratureError

ETA_MIN = 1e-8
ETA_MAX = 1e4
_N0 = 256
_N_CAP = 1 << 16
_SOLVER_TOL = 1e-12      # Dyson tolerance at every quadrature node


def _integrand(zeta_col, etas, rho):
    v, _, _, _ = solve_dyson_grid(zeta_col[:, None], etas[None, :], rho, tol=_SOLVER_TOL)
    return v - 1.0 / (1.0 + etas[None, :])


def _tail(t_cut, zeta):
    return np.log((1.0 + t_cut) / np.sqrt(t_cut ** 2 + 1.0 + np.abs(zeta) ** 2))


def _simpson_weights(n: int, length: float) -> np.ndarray:
    """Composite Simpson weights of n (even) panels on an interval of `length`."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= length / (3.0 * n)
    return w


def _simpson_log(zeta_flat, rho, lo, hi, quad_tol):
    """Composite Simpson in s = log eta with grid doubling until converged."""
    s_lo, s_hi = np.log(lo), np.log(hi)
    n = _N0
    prev = None
    while n <= _N_CAP:
        s = np.linspace(s_lo, s_hi, n + 1)
        etas = np.exp(s)
        # d eta = eta ds
        vals = _integrand(zeta_flat, etas, rho) * etas[None, :]
        cur = vals @ _simpson_weights(n, s_hi - s_lo)
        if prev is not None and np.max(np.abs(cur - prev)) <= 0.5 * quad_tol:
            return cur + (cur - prev) / 15.0
        prev = cur
        n *= 2
    raise QuadratureError(f"log-potential quadrature did not reach quad_tol={quad_tol:g}")


def log_potential_grid(zeta, param: EllipticParam, quad_tol: float = 1e-6,
                       eps: float = 0.0):
    """L_eps(zeta) = -int_eps^infty (v - 1/(1+eta)) d eta on an array of zeta
    values (eps=0 gives L itself)."""
    quad_tol = float(quad_tol)
    if not 0.0 < quad_tol < np.inf:
        raise ValueError(f"quad_tol must be a positive finite number, got {quad_tol!r}")
    if eps < 0 or eps >= ETA_MAX:
        raise ValueError(f"eps must lie in [0, {ETA_MAX:g})")
    zeta = np.asarray(zeta, dtype=complex)
    flat = zeta.ravel()

    lo = max(eps, ETA_MIN)
    integral = _simpson_log(flat, param.rho, lo, ETA_MAX, quad_tol)
    integral += _tail(ETA_MAX, flat)
    if eps < ETA_MIN:
        # head segment [eps, ETA_MIN]: midpoint value, |integrand| <= 2 there
        mid = 0.5 * (eps + ETA_MIN)
        head = _integrand(flat, np.array([mid]), param.rho)[:, 0]
        integral += head * (ETA_MIN - eps)
    out = -integral
    return out.reshape(zeta.shape) if zeta.shape else float(out[0])


def log_potential(zeta: complex, param: EllipticParam,
                  quad_tol: float = 1e-6) -> float:
    """The log-potential L(zeta)."""
    return float(log_potential_grid(np.asarray(zeta, complex), param, quad_tol))


def log_potential_derivative_check(zeta: complex, eps: float, param: EllipticParam,
                                   step: float = 1e-4, quad_tol: float = 1e-10) -> float:
    """|2 dL_eps(zeta) + b(zeta, eps)| with d the zeta-Wirtinger derivative.

    The derivative is a second-order central difference with stencil `step`;
    the identity 2 dL_eps = -b(zeta, eps) holds exactly for the true L_eps.
    """
    if eps < ETA_MIN:
        raise ValueError(f"eps must be >= {ETA_MIN:g} for the derivative check")
    z = complex(zeta)
    stencil = np.array([z + step, z - step, z + 1j * step, z - 1j * step])
    lvals = log_potential_grid(stencil, param, quad_tol, eps=eps)
    d_re = (lvals[0] - lvals[1]) / (2.0 * step)
    d_im = (lvals[2] - lvals[3]) / (2.0 * step)
    dl = 0.5 * (d_re - 1j * d_im)
    _, b, _, _ = solve_dyson_grid(z, eps, param.rho)
    return float(abs(2.0 * dl + complex(b)))


def distributional_check(psi: TestFunction, param: EllipticParam,
                         nodes: int = 64, quad_tol: float = 1e-5):
    """Pair L against a bump: returns ((1/2pi) int DeltaPsi L, int Psi sigma).

    psi must be supported inside the open ellipse, in E_{rho,1e-6}; both
    integrals run on the same tensor Simpson grid over the support square.
    """
    if not EllipseRegion(param.rho, 1e-6).contains_disk(psi.center, psi.radius):
        raise ValueError("bump support must lie strictly inside the ellipse")

    nodes += nodes % 2
    c, r = psi.center, psi.radius
    xs = np.linspace(c.real - r, c.real + r, nodes + 1)
    ys = np.linspace(c.imag - r, c.imag + r, nodes + 1)
    w = _simpson_weights(nodes, 2.0 * r)
    w2 = np.outer(w, w)
    grid = xs[:, None] + 1j * ys[None, :]

    lap = psi.laplacian(grid)
    lvals = log_potential_grid(grid, param, quad_tol)
    lhs = float(np.sum(w2 * lap * lvals)) / (2.0 * np.pi)

    rhs = float(np.sum(w2 * psi.f(grid) * elliptic_density(grid, param)))
    return lhs, rhs
