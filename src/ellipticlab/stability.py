"""Stability operator of the 2x2 Dyson equation.

The linearization L: R -> R - M (S R) M is singular along the diagonal
sign matrix E_- = diag(1, -1) as eta -> 0, but stays invertible on the
orthogonal complement E_-^perp (Hilbert-Schmidt inner product), which is
spanned by the identity and the first two Pauli matrices.  This module
represents L restricted to that 3-dimensional subspace, computes the
operator norm of its inverse, and evaluates the analytic bound

    ||L^{-1}|_{E_-^perp}|| <= C / ((1-|rho|) ||M||^2 (2 v^2 + eta/(eta+v))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyson import DysonSolution, EllipticParam, SpectralPoint, m_matrix, solve_dyson

_SQRT2 = np.sqrt(2.0)
E_MINUS = np.diag([1.0, -1.0]).astype(complex)

# Hilbert-Schmidt orthonormal basis of E_-^perp: identity, Pauli x, Pauli y.
PERP_BASIS = (
    np.eye(2, dtype=complex) / _SQRT2,
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / _SQRT2,
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex) / _SQRT2,
)


@dataclass
class StabilityReport:
    """Spectral data of S and L on E_-^perp at one spectral point."""

    s_spectrum: tuple[float, float, float]   # eigenvalues of S|E_-^perp, descending
    gap: float                               # ||M||^2 (1 - |rho|)
    inv_norm: float                          # ||L^{-1}|_{E_-^perp}||
    bound_rhs: float                         # analytic bound on inv_norm / C
    solution: DysonSolution


def self_energy_2x2(r: np.ndarray, rho: float) -> np.ndarray:
    """S[[a11, a12], [a21, a22]] = [[a22, rho a21], [rho a12, a11]]."""
    return np.array([[r[1, 1], rho * r[1, 0]], [rho * r[0, 1], r[0, 0]]])


def _hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.trace(a.conj().T @ b))


def stability_operator(m: np.ndarray, rho: float):
    """L and S as 3x3 matrices on the orthonormal basis of E_-^perp."""
    l3 = np.zeros((3, 3), dtype=complex)
    s3 = np.zeros((3, 3), dtype=complex)
    for j, bj in enumerate(PERP_BASIS):
        sb = self_energy_2x2(bj, rho)
        lb = bj - m @ sb @ m
        for i, bi in enumerate(PERP_BASIS):
            s3[i, j] = _hs_inner(bi, sb)
            l3[i, j] = _hs_inner(bi, lb)
    return l3, s3


def eminus_leakage(m: np.ndarray, rho: float) -> float:
    """Max projection of L[basis] onto E_-; zero when E_-^perp is invariant."""
    e_unit = E_MINUS / _SQRT2
    worst = 0.0
    for bj in PERP_BASIS:
        lb = bj - m @ self_energy_2x2(bj, rho) @ m
        worst = max(worst, abs(_hs_inner(e_unit, lb)))
    return worst


def stability_analysis(point: SpectralPoint, param: EllipticParam) -> StabilityReport:
    """Solve at the point (to 1e-12) and analyse L restricted to E_-^perp."""
    sol = solve_dyson(point, param)
    m = m_matrix(sol)
    l3, s3 = stability_operator(m, param.rho)

    s_eigs = np.linalg.eigvalsh(0.5 * (s3 + s3.conj().T)).real
    s_spectrum = tuple(sorted((float(x) for x in s_eigs), reverse=True))

    sigma_min = float(np.linalg.svd(l3, compute_uv=False)[-1])
    inv_norm = 1.0 / sigma_min

    norm_m_sq = sol.norm_m_sq
    gap = norm_m_sq * (1.0 - abs(param.rho))
    denom = gap * (2.0 * sol.v ** 2 + sol.eta / (sol.eta + sol.v))
    return StabilityReport(s_spectrum=s_spectrum, gap=float(gap),
                           inv_norm=inv_norm, bound_rhs=1.0 / denom,
                           solution=sol)
