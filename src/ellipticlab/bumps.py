"""Compactly supported C^2 test functions with closed-form Laplacians.

Two radial profiles on the unit disk are provided:

  polynomial-bump   p(r) = (1 - r^2)^3
  gaussian-bump     p(r) = exp(1 - 1/(1 - r^2))   (smooth bump)

A TestFunction places the profile at a center with a support radius, and
exposes the mesoscopic observable n^{2 alpha} f(n^alpha (zeta - zeta0))
together with its Laplacian and the L^1 / L^{2+a} norms of Delta f.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

KINDS = ("polynomial-bump", "gaussian-bump")


def _poly_profile(rho):
    w = np.maximum(1.0 - rho ** 2, 0.0)
    return w ** 3


def _poly_laplacian(rho):
    w = 1.0 - rho ** 2
    return np.where(w > 0.0, 12.0 * w * (3.0 * rho ** 2 - 1.0), 0.0)


def _gauss_profile(rho):
    w = 1.0 - rho ** 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.exp(1.0 - 1.0 / np.where(w > 0.0, w, 1.0))
    return np.where(w > 0.0, val, 0.0)


def _gauss_laplacian(rho):
    w = 1.0 - rho ** 2
    safe = np.where(w > 0.0, w, 1.0)
    r2 = rho ** 2
    factor = 4.0 * r2 / safe ** 4 - 8.0 * r2 / safe ** 3 - 4.0 / safe ** 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.exp(1.0 - 1.0 / safe) * factor
    return np.where(w > 0.0, val, 0.0)


_PROFILES = {
    "polynomial-bump": (_poly_profile, _poly_laplacian),
    "gaussian-bump": (_gauss_profile, _gauss_laplacian),
}

# radius where the profile's Laplacian changes sign, so |Delta p| has a kink:
# 3 r^2 = 1 for the polynomial bump, r^4 + r^2 = 1 for the gaussian bump
_KINKS = {
    "polynomial-bump": 1.0 / np.sqrt(3.0),
    "gaussian-bump": np.sqrt((np.sqrt(5.0) - 1.0) / 2.0),
}

# Gauss-Legendre nodes on each side of the kink.  Exact for the polynomial
# bump at p = 1 and 3 (polynomial pieces of degree <= 13); for the gaussian
# bump, 48 nodes already agree with 96 to 1.3e-14 at p = 1 and 3.  A
# non-integer p leaves |r - kink|^p at the piece ends: 64 nodes are then good
# to about 2e-11 relative at p = 2.1.
_RADIAL_NODES = 64


@functools.cache
def _radial_rule(kind: str) -> tuple:
    """Nodes r in (0, 1) and weights w with w @ g(r) ~ 2 pi int_0^1 g(r) r dr,
    split at the kink of |Delta p|."""
    x, w = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    k = _KINKS[kind]
    r = np.concatenate([k * (x + 1.0) / 2.0, k + (1.0 - k) * (x + 1.0) / 2.0])
    weights = np.concatenate([k * w, (1.0 - k) * w]) * np.pi * r
    return r, weights


@dataclass
class TestFunction:
    """Radial C^2 bump f centered at `center` with support radius `radius`.

    `alpha` is the mesoscopic scale exponent in [0, 1/2); `a` fixes which
    L^{2+a} norm of Delta f accompanies the L^1 norm.
    """

    kind: str = "polynomial-bump"
    center: complex = 0.0 + 0.0j
    radius: float = 1.0
    alpha: float = 0.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if not np.isfinite(complex(self.center)):
            raise ValueError(f"center must be finite, got {self.center}")
        # NaN fails every comparison below
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not (0.0 <= self.alpha < 0.5):
            raise ValueError(f"alpha must lie in [0, 1/2), got {self.alpha}")
        if not 0.0 < self.a < np.inf:
            raise ValueError(f"a must be positive and finite, got {self.a}")

    def _radial(self, zeta, s: float, laplacian: bool):
        """s^2 p, or s^4 Delta p / radius^2, at rho = s |zeta - center| / radius:
        the base f (or its Laplacian) at s = 1, where each factor s is exact."""
        rho = s * np.abs(np.asarray(zeta, dtype=complex) - self.center) / self.radius
        if laplacian:
            return s ** 4 * _PROFILES[self.kind][1](rho) / self.radius ** 2
        return s ** 2 * _PROFILES[self.kind][0](rho)

    # base function f (no mesoscopic scaling)

    def f(self, zeta):
        return self._radial(zeta, 1.0, laplacian=False)

    def laplacian(self, zeta):
        return self._radial(zeta, 1.0, laplacian=True)

    # mesoscopic observable f_{zeta0, alpha}

    def scale(self, n: int) -> float:
        return float(n) ** self.alpha

    def support_radius(self, n: int) -> float:
        return self.radius / self.scale(n)

    def observable(self, zeta, n: int):
        return self._radial(zeta, self.scale(n), laplacian=False)

    def observable_laplacian(self, zeta, n: int):
        return self._radial(zeta, self.scale(n), laplacian=True)

    def support_rule(self, n: int) -> tuple:
        """Nodes on one radius of the support disk of f_{zeta0,alpha} and weights w:
        w @ g(nodes) = int g over the disk for g radial about `center`, exact for
        the polynomial bump's observable (the rule of the norms, scaled)."""
        r, w = _radial_rule(self.kind)
        s = self.support_radius(n)
        return self.center + s * r, s ** 2 * w

    # norms of Delta f (of the base f; both scale simply under the
    # mesoscopic rescaling: ||Delta f_{z0,alpha}||_1 = n^{2 alpha} ||Delta f||_1)

    def _profile_norm(self, p: float) -> float:
        r, w = _radial_rule(self.kind)
        return float(w @ np.abs(_PROFILES[self.kind][1](r)) ** p) ** (1.0 / p)

    @property
    def norm_delta_l1(self) -> float:
        """||Delta f||_{L^1}; scale-invariant in the support radius."""
        return self._profile_norm(1.0)

    @property
    def norm_delta_l2a(self) -> float:
        """||Delta f||_{L^{2+a}} of the base f."""
        p = 2.0 + self.a
        return self._profile_norm(p) * self.radius ** (2.0 / p - 2.0)

    def validate(self, n: int) -> None:
        """Reject functions violating ||Delta f||_{L^{2+a}} <= n^D ||Delta f||_{L^1}, D = 1."""
        if self.norm_delta_l2a > float(n) * self.norm_delta_l1:
            raise ValueError(
                "test function violates ||Delta f||_{L^{2+a}} <= n ||Delta f||_{L^1}")
