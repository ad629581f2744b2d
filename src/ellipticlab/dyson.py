"""Deterministic 2x2 Dyson equation of the elliptic ensemble Hermitization.

The self-consistent equation

    -M^{-1} = [[i*eta, zeta], [conj(zeta), i*eta]] + S[M],
    S[[a11, a12], [a21, a22]] = [[a22, rho*a21], [rho*a12, a11]],

has a unique solution with positive definite imaginary part, of the form
M = [[i*v, conj(b)], [b, i*v]] with v > 0.  This module solves for (v, b)
and evaluates the derived quantities: the uniform density on the ellipse
with semi-axes 1+rho and 1-rho, the eta -> 0 bulk limit of v, and the
algebraic identities tying v and b together.

The solver finds the unique positive root u = eta/v of the scalar equation
that v satisfies, and recovers v = eta/u and b from it.  One bracketed,
safeguarded Newton iteration finds the root: Newton steps inside a sign
bracket, geometric bisection where Newton would leave the bracket or stall.
A point stops once its step falls below an ulp of u; its `iterations`
count is the number of steps it took.  The flat (zeta, eta) arrays go
through the solver in blocks of fixed size, so its temporary memory does
not grow with the grid.  A final check of the defining relation raises
DysonConvergenceError where tol is not met.  All entry points are
vectorized over (zeta, eta) grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this spectral scale the equation is numerically degenerate; the
# eta -> 0 limit is exposed separately through v_limit_bulk.
ETA_FLOOR = 1e-12

_BLOCK = 1 << 15          # points per block; bounds the solver's temporaries
_MAX_STEPS = 100          # safeguarded steps per point; a backstop only
_EPS = np.finfo(float).eps


class DysonConvergenceError(RuntimeError):
    """Raised when no method reaches the requested residual.

    Signals that tol is below what double precision supports at this
    point, or that eta is denormally small.
    """


@dataclass(frozen=True)
class EllipticParam:
    """Entry correlation rho in (-1, 1)."""

    rho: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter zeta and scale eta > 0."""

    zeta: complex
    eta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.zeta):
            raise ValueError("zeta must be finite")
        if not (self.eta >= ETA_FLOOR and np.isfinite(self.eta)):
            raise ValueError(f"eta must be >= {ETA_FLOOR:g}, got {self.eta}")


@dataclass(frozen=True)
class EllipseRegion:
    """The ellipse E_{rho,delta}; boundary points count as inside."""

    rho: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")

    @property
    def semi_axes(self) -> tuple[float, float]:
        return (1.0 + self.rho, 1.0 - self.rho)

    def ellipse_form(self, zeta):
        """(Re z)^2/(1+rho)^2 + (Im z)^2/(1-rho)^2, vectorized."""
        zeta = np.asarray(zeta, dtype=complex)
        ax, ay = self.semi_axes
        return (zeta.real / ax) ** 2 + (zeta.imag / ay) ** 2

    def contains(self, zeta):
        return self.ellipse_form(zeta) <= 1.0 - self.delta

    def contains_disk(self, center: complex, radius: float) -> bool:
        """Whether the disk |z - center| <= radius lies in the region: the region
        is convex, so this reads the disk's rim, at 721 points."""
        rim = center + radius * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
        return bool(np.all(self.contains(rim)))

    def sample_uniform(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m points uniform on the region, by rejection from its bounding box."""
        ax, ay = self.semi_axes
        s = np.sqrt(1.0 - self.delta)
        x0, x1, y0, y1 = -ax * s, ax * s, -ay * s, ay * s
        out = np.empty(m, dtype=complex)
        filled = 0
        while filled < m:
            k = max(2 * (m - filled), 16)
            cand = rng.uniform(x0, x1, k) + 1j * rng.uniform(y0, y1, k)
            cand = cand[self.contains(cand)]
            take = min(cand.size, m - filled)
            out[filled:filled + take] = cand[:take]
            filled += take
        return out


@dataclass
class DysonSolution:
    """Solution pair (v, b) at one spectral point, with solver diagnostics."""

    v: float
    b: complex
    residual: float
    iterations: int
    zeta: complex
    eta: float
    rho: float

    @property
    def norm_m_sq(self) -> float:
        """||M||^2 = v^2 + |b|^2 = v/(eta+v)."""
        return self.v ** 2 + abs(self.b) ** 2


def elliptic_density(zeta, param: EllipticParam):
    """Uniform density 1/(pi (1-rho^2)) on the ellipse, 0 outside."""
    inside = EllipseRegion(param.rho).contains(zeta)
    out = np.where(inside, 1.0 / (np.pi * (1.0 - param.rho ** 2)), 0.0)
    return float(out) if np.isscalar(zeta) or np.ndim(zeta) == 0 else out


def v_limit_bulk(zeta: complex, param: EllipticParam) -> float:
    """eta -> 0 limit of v for zeta strictly inside the ellipse."""
    form = float(EllipseRegion(param.rho).ellipse_form(zeta))
    if form >= 1.0:
        raise ValueError(f"zeta={zeta} is not strictly inside the ellipse")
    return float(np.sqrt(1.0 - form))


def b_from_v(v, point: SpectralPoint, param: EllipticParam) -> complex:
    """Off-diagonal b recovered from v at a spectral point."""
    if np.any(np.asarray(v) <= 0):
        raise ValueError("v must be positive")
    return _b_from_u(point.zeta, point.eta / v, param.rho)


def v_equation_residual(v, point: SpectralPoint, param: EllipticParam) -> float:
    """Residual of the scalar equation for v; zero at the true solution."""
    x2, y2 = point.zeta.real ** 2, point.zeta.imag ** 2
    return _scalar_g(point.eta / v, x2, y2, point.eta ** 2, param.rho)


def m_matrix(solution: DysonSolution) -> np.ndarray:
    """The 2x2 matrix [[i v, conj(b)], [b, i v]]."""
    v, b = solution.v, solution.b
    return np.array([[1j * v, np.conjugate(b)], [b, 1j * v]])


def _mde_residual(m, c, d, z, e, rho):
    """Max-entry residual of I + (i eta + Z + S[M]) M for M = [[m, c], [d, m]]."""
    a = 1j * e + m
    p = z + rho * d
    q = np.conj(z) + rho * c
    r11 = 1.0 + a * m + p * d
    r12 = a * c + p * m
    r21 = q * m + a * d
    r22 = 1.0 + q * c + a * m
    return np.max(np.abs(np.stack([r11, r12, r21, r22])), axis=0)


def _scalar_g(u, x2, y2, e2, rho):
    """Scalar equation in u = eta/v; positive left of the root."""
    # 1 + rho is exact for rho <= -1/2, so adding u last keeps the small
    # denominator accurate near rho = -1
    return (x2 / (1.0 + rho + u) ** 2 + y2 / (1.0 - rho + u) ** 2
            + e2 / u ** 2 - 1.0 / (1.0 + u))


def _scalar_g_prime(u, x2, y2, e2, rho):
    return (-2.0 * x2 / (1.0 + rho + u) ** 3 - 2.0 * y2 / (1.0 - rho + u) ** 3
            - 2.0 * e2 / u ** 3 + 1.0 / (1.0 + u) ** 2)


def _b_from_u(z, u, rho):
    """Off-diagonal b at the root u = eta/v; v itself is eta/u."""
    return -z.real / (1.0 + rho + u) + 1j * z.imag / (1.0 - rho + u)


def _root_u(x2, y2, e, rho):
    """Positive root of the scalar equation, and the steps each point took.

    Bracketed, safeguarded Newton (Numerical Recipes' rtsafe): a Newton
    step is taken when it lands inside the bracket and is at most half as
    long as the previous step, a geometric bisection step otherwise, and
    the sign of g narrows the bracket at every step.  Converged points
    leave the active set.
    """
    e2 = e * e
    lo = e * np.maximum(1.0, e)          # v = min(1, 1/eta); g >= 0 there
    hi = 2.0 * (1.0 + x2 + y2 + e2)      # (1+u) g < -1/2 there
    u, step = lo, hi - lo
    out = np.empty_like(u)
    steps = np.full(u.size, _MAX_STEPS)
    idx = np.arange(u.size)
    for k in range(1, _MAX_STEPS + 1):
        g = _scalar_g(u, x2, y2, e2, rho)
        pos = g > 0
        lo = np.where(pos, u, lo)
        hi = np.where(pos, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = u - g / _scalar_g_prime(u, x2, y2, e2, rho)
        bisect = (~((newton > lo) & (newton < hi))
                  | (np.abs(newton - u) > 0.5 * np.abs(step)))
        u_next = np.where(bisect, np.sqrt(lo * hi), newton)
        step = u_next - u
        # a step below an ulp: Newton has converged or the bracket has collapsed
        done = np.abs(step) <= 2.0 * _EPS * u
        out[idx[done]] = u_next[done]
        steps[idx[done]] = k
        keep = ~done
        idx, u, lo, hi, step, x2, y2, e2 = (
            a[keep] for a in (idx, u_next, lo, hi, step, x2, y2, e2))
        if not idx.size:
            break
    out[idx] = u
    return out, steps


def _solve_flat(z, e, rho, tol):
    """Solve for flat arrays z (complex) and e (float) of equal size, by blocks."""
    v = np.empty(z.size)
    b = np.empty(z.size, dtype=complex)
    res = np.empty(z.size)
    iters = np.empty(z.size, dtype=np.int64)
    for first in range(0, z.size, _BLOCK):
        blk = slice(first, first + _BLOCK)
        zk, ek = z[blk], e[blk]
        u, iters[blk] = _root_u(zk.real ** 2, zk.imag ** 2, ek, rho)
        vk, bk = ek / u, _b_from_u(zk, u, rho)
        v[blk], b[blk] = vk, bk
        res[blk] = _mde_residual(1j * vk, np.conj(bk), bk, zk, ek, rho)

    # a NaN residual fails `res <= tol`, so it raises too
    if not np.all(res <= tol):
        worst = float(res.max())
        raise DysonConvergenceError(
            f"Dyson solver did not reach tol={tol:g} (worst residual {worst:.3e}); "
            "tol may be below double-precision reach at this point")
    return v, b, res, iters


def solve_dyson_grid(zeta, eta, rho: float, tol: float = 1e-12):
    """Vectorized solve over broadcast (zeta, eta) arrays at fixed rho.

    Returns arrays (v, b, residual, iterations) in the broadcast shape.
    Raises ValueError for a non-finite zeta, an eta below ETA_FLOOR or not
    finite, and a tol that is not a positive finite number.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=float)
    if not np.isfinite(zeta).all():
        raise ValueError("zeta must be finite")
    # NaN fails both comparisons
    if not ((eta >= ETA_FLOOR) & (eta < np.inf)).all():
        raise ValueError(f"eta must be finite and >= {ETA_FLOOR:g}")
    zb, eb = np.broadcast_arrays(zeta, eta)
    shape = zb.shape
    v, b, res, iters = _solve_flat(zb.ravel(), eb.ravel(), float(rho), tol)
    return (v.reshape(shape), b.reshape(shape),
            res.reshape(shape), iters.reshape(shape))


def solve_dyson(point: SpectralPoint, param: EllipticParam,
                tol: float = 1e-12) -> DysonSolution:
    """Solve the Dyson equation at a single spectral point."""
    v, b, res, iters = solve_dyson_grid(point.zeta, point.eta, param.rho, tol=tol)
    return DysonSolution(v=float(v), b=complex(b), residual=float(res),
                         iterations=int(iters), zeta=complex(point.zeta),
                         eta=float(point.eta), rho=float(param.rho))
