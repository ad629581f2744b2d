"""Hermitization of X and resolvent functionals of G = (H_zeta - i eta)^{-1}.

H_zeta = [[0, X - zeta], [(X - zeta)*, 0]] has spectrum {+/- sigma_i(X - zeta)},
so the decomposition is computed once per zeta from the SVD of the shifted
block and every eta-dependent functional is then O(n) or O(n^2).  Block
formulas used throughout (A = X - zeta = U S V^H, f = 1/(S^2 + eta^2)):

    G11 = U (i eta f) U^H    G12 = U (S f) V^H
    G21 = V (S f) U^H        G22 = V (i eta f) V^H
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import EllipticMatrix, EnsembleSpec

_ZERO_EIG = 1e-300   # double-precision underflow guard for log-determinants


class SingularHermitizationError(RuntimeError):
    """A singular value underflowed; log|det H_zeta| is not representable."""


def _entries(x) -> np.ndarray:
    return x.entries if isinstance(x, EllipticMatrix) else np.asarray(x, dtype=complex)


@dataclass
class Hermitization:
    """The 2n x 2n Hermitian block matrix at a fixed zeta."""

    zeta: complex
    shifted: np.ndarray          # X - zeta, n x n

    @property
    def n(self) -> int:
        return self.shifted.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        n = self.n
        h = np.zeros((2 * n, 2 * n), dtype=complex)
        h[:n, n:] = self.shifted
        h[n:, :n] = self.shifted.conj().T
        return h


def hermitize(x, zeta: complex) -> Hermitization:
    a = _entries(x)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("X must be a square matrix")
    return Hermitization(zeta=complex(zeta),
                         shifted=a - complex(zeta) * np.eye(a.shape[0]))


@dataclass
class SpectralDecomposition:
    """Spectrum of H_zeta; eta-independent, reusable across spectral scales."""

    zeta: complex
    singular_values: np.ndarray          # descending, length n
    u: np.ndarray | None = None          # left singular vectors of X - zeta
    vh: np.ndarray | None = None         # right singular vectors (V^H rows)
    _uv_diag: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.singular_values.size

    @property
    def has_vectors(self) -> bool:
        return self.u is not None

    @property
    def eigenvalues(self) -> np.ndarray:
        """All 2n eigenvalues, ascending."""
        s = self.singular_values
        return np.concatenate([-s, s[::-1]])

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary 2n x 2n eigenvector matrix matching `eigenvalues` order."""
        if not self.has_vectors:
            raise ValueError("decomposition was computed without vectors")
        n = self.n
        v = self.vh.conj().T
        w = np.zeros((2 * n, 2 * n), dtype=complex)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        w[:n, :n] = self.u * inv_sqrt2
        w[n:, :n] = -v * inv_sqrt2
        rev = slice(None, None, -1)
        w[:n, n:] = self.u[:, rev] * inv_sqrt2
        w[n:, n:] = v[:, rev] * inv_sqrt2
        return w

    def uv_diag(self) -> np.ndarray:
        """diag(V^H U), needed by the off-diagonal partial traces."""
        if self._uv_diag is None:
            if not self.has_vectors:
                raise ValueError("decomposition was computed without vectors")
            self._uv_diag = np.einsum("ij,ji->i", self.vh, self.u)
        return self._uv_diag


def decompose(h: Hermitization, compute_vectors: bool = True) -> SpectralDecomposition:
    """Full spectral data of H_zeta from the SVD of the shifted block."""
    if compute_vectors:
        u, s, vh = np.linalg.svd(h.shifted)
        return SpectralDecomposition(zeta=h.zeta, singular_values=s, u=u, vh=vh)
    s = np.linalg.svd(h.shifted, compute_uv=False)
    return SpectralDecomposition(zeta=h.zeta, singular_values=s)


def resolvent_trace(dec: SpectralDecomposition, eta: float) -> complex:
    """<G> = (1/2n) sum_i 1/(lambda_i - i eta)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    s = dec.singular_values
    return complex(1j * eta * np.mean(1.0 / (s ** 2 + eta ** 2)))


def resolvent_isotropic(dec: SpectralDecomposition, eta: float,
                        x: np.ndarray, y: np.ndarray) -> complex:
    """<x, G y> through the spectral representation."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    n = dec.n
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (2 * n,) or y.shape != (2 * n,):
        raise ValueError("probes must be vectors of length 2n")
    ax = dec.u.conj().T @ x[:n]
    bx = dec.vh @ x[n:]
    ay = dec.u.conj().T @ y[:n]
    by = dec.vh @ y[n:]
    s = dec.singular_values
    plus = np.conj(ax + bx) * (ay + by) / (s - 1j * eta)
    minus = np.conj(ax - bx) * (ay - by) / (-s - 1j * eta)
    return complex(0.5 * (plus.sum() + minus.sum()))


def partial_trace(dec: SpectralDecomposition, eta: float) -> np.ndarray:
    """The 2x2 matrix of normalized block traces of G."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    s = dec.singular_values
    f = 1.0 / (s ** 2 + eta ** 2)
    diag = 1j * eta * np.mean(f)
    uv = dec.uv_diag()
    ul12 = np.mean(s * f * uv)
    ul21 = np.mean(s * f * np.conj(uv))
    return np.array([[diag, ul12], [ul21, diag]])


def small_singular_count(dec: SpectralDecomposition, eta: float) -> int:
    """#\\{i : |lambda_i(zeta)| <= eta\\}."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return 2 * int(np.count_nonzero(dec.singular_values <= eta))


def smallest_singular_value(dec: SpectralDecomposition) -> float:
    return float(dec.singular_values[-1])


def log_det_check(dec: SpectralDecomposition, t_cut: float) -> tuple[float, float]:
    """Both sides of log|det H| = -2n int_0^T <Im G> d eta + log|det(H - iT)|.

    The left side is the exact eigenvalue sum; the right side integrates the
    spectral form of <Im G> numerically (absolute tolerance 1e-9), so
    agreement is quadrature-limited.
    """
    # imported here: loading scipy.integrate costs more than importing this package
    from scipy.integrate import quad

    if t_cut < 1.0:
        raise ValueError("T must be >= 1")
    s = dec.singular_values
    if s[-1] < _ZERO_EIG:
        raise SingularHermitizationError("singular value underflow in log-determinant")
    n = dec.n
    lhs = 2.0 * float(np.sum(np.log(s)))

    s2 = s ** 2

    def im_trace(eta):
        return eta * np.mean(1.0 / (s2 + eta ** 2))

    pts = sorted({float(np.clip(v, 1e-12, t_cut)) for v in (s[-1], np.median(s), s[0])})
    integral, _ = quad(im_trace, 0.0, t_cut, points=pts, limit=400, epsabs=1e-9)
    rhs = -2.0 * n * integral + float(np.sum(np.log(s2 + t_cut ** 2)))
    return lhs, rhs


@dataclass
class ResolventFunctional:
    """Scalar observables of G at one (zeta, eta)."""

    avg_trace: complex
    partial_traces: np.ndarray
    iso_entries: list
    log_det: float


def resolvent_functionals(dec: SpectralDecomposition, eta: float,
                          probes=None) -> ResolventFunctional:
    iso = []
    if probes:
        for label, x, y in probes:
            iso.append((label, resolvent_isotropic(dec, eta, x, y)))
    s = dec.singular_values
    log_det = float("-inf") if s[-1] < _ZERO_EIG else 2.0 * float(np.sum(np.log(s)))
    return ResolventFunctional(avg_trace=resolvent_trace(dec, eta),
                               partial_traces=partial_trace(dec, eta),
                               iso_entries=iso, log_det=log_det)


def default_probes(n2: int, seed: int = 0, k: int = 16) -> list[tuple[str, np.ndarray]]:
    """Fixed probe family: coordinate, uniform, alternating, Haar-random units."""
    if n2 % 2:
        raise ValueError("probe dimension must be even (2n)")
    n = n2 // 2
    out = []
    e1 = np.zeros(n2, dtype=complex); e1[0] = 1.0
    en1 = np.zeros(n2, dtype=complex); en1[n] = 1.0
    out.append(("e1", e1))
    out.append(("e_n+1", en1))
    out.append(("uniform", np.full(n2, 1.0 / np.sqrt(n2), dtype=complex)))
    alt = np.array([(-1.0) ** i for i in range(n2)], dtype=complex) / np.sqrt(n2)
    out.append(("alternating", alt))
    rng = np.random.default_rng(seed)
    for j in range(k):
        g = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        out.append((f"haar{j}", g / np.linalg.norm(g)))
    return out


@dataclass(frozen=True)
class SelfEnergyData:
    """Constant Hadamard-correction profile of the hatted self-energy.

    p = E x_ij conj(x_ji), q = E x_ij^2 (off-diagonal, zero on the diagonal);
    rho enters the block-trace part of the operator.
    """

    rho: float
    p: complex
    q: complex

    @classmethod
    def from_spec(cls, spec: EnsembleSpec) -> "SelfEnergyData":
        shift = 2.0 * spec.mu - 1.0
        return cls(rho=spec.rho, p=shift * spec.rho / spec.n, q=shift / spec.n)


def _g_blocks(dec: SpectralDecomposition, eta: float):
    """The n x n blocks of G; G21 = V (S f) U^H is G12^H, so it costs no product."""
    s = dec.singular_values
    f = 1.0 / (s ** 2 + eta ** 2)
    u, vh = dec.u, dec.vh
    v, uh = vh.conj().T, u.conj().T
    g11 = (u * (1j * eta * f)) @ uh
    g12 = (u * (s * f)) @ vh
    g22 = (v * (1j * eta * f)) @ vh
    return g11, g12, g12.conj().T, g22


def _hadamard(block_t: np.ndarray, coeff: complex) -> np.ndarray:
    """coeff * (B^t with zeroed diagonal), the constant-profile Hadamard term."""
    out = coeff * block_t.T
    np.fill_diagonal(out, 0.0)
    return out


def self_energy_hat(g11, g12, g21, g22, se: SelfEnergyData):
    """Blocks of hat-S[G] = S[G] + Hadamard corrections."""
    n = g11.shape[0]
    tr = lambda b: np.trace(b) / n
    k11 = tr(g22) * np.eye(n) + _hadamard(g22, se.p)
    k12 = se.rho * tr(g21) * np.eye(n) + _hadamard(g21, se.q)
    k21 = se.rho * tr(g12) * np.eye(n) + _hadamard(g12, np.conj(se.q))
    k22 = tr(g11) * np.eye(n) + _hadamard(g11, se.p)
    return k11, k12, k21, k22


def error_matrix(x, dec: SpectralDecomposition, eta: float,
                 se: SelfEnergyData) -> np.ndarray:
    """D = (H + Z + hat-S[G]) G assembled as a full 2n x 2n matrix."""
    a = _entries(x)
    n = a.shape[0]
    g11, g12, g21, g22 = _g_blocks(dec, eta)
    k11, k12, k21, k22 = self_energy_hat(g11, g12, g21, g22, se)
    # H + Z has blocks [[0, X], [X^H, 0]]
    k12 = k12 + a
    k21 = k21 + a.conj().T
    d = np.empty((2 * n, 2 * n), dtype=complex)
    d[:n, :n] = k11 @ g11 + k12 @ g21
    d[:n, n:] = k11 @ g12 + k12 @ g22
    d[n:, :n] = k21 @ g11 + k22 @ g21
    d[n:, n:] = k21 @ g12 + k22 @ g22
    return d


def _spectral_norm_estimate(b: np.ndarray) -> float:
    """40 seeded power steps on B^H B: a lower bound on ||B||_2."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(b.shape[1])
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(40):
        y = b @ x
        # B^H y, without a conjugated copy of B
        x = (y.conj() @ b).conj()
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return 0.0
        est = np.sqrt(nrm)
        x /= nrm
    return float(est)


# 2x2 block test matrices: the identity, E- = diag(1, -1) and the Pauli sx, sy
BLOCK_TESTS = {
    "I": np.eye(2, dtype=complex),
    "E-": np.diag([1.0, -1.0]).astype(complex),
    "sx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "sy": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
}


def default_test_matrices(n2: int):
    """The four random test matrices of the averaged error norm, from seed 1.

    Each is divided by a 40-step power estimate of its 2-norm (a lower bound,
    so the norms end slightly above 1) and stored Fortran-ordered, so that
    B^T, which `error_matrix_norms` dots with D, is contiguous.  The four
    block tests of `BLOCK_TESTS` need no matrix: their traces come from D's
    block traces.
    """
    rng = np.random.default_rng(1)
    mats = []
    for j in range(4):
        g = np.empty((n2, n2), dtype=complex)
        g.real = rng.standard_normal((n2, n2))
        g.imag = rng.standard_normal((n2, n2))
        g /= _spectral_norm_estimate(g) * (1.0 + 1e-9)
        mats.append((f"rand{j}", np.asfortranarray(g)))
    return mats


class ResolventSolver:
    """Applies G = (H_zeta - i eta)^{-1} at one fixed eta via n x n inverses.

    Uses the Schur-complement identity w1 = (A A^H + eta^2)^{-1} (i eta y1 + A y2),
    w2 = -i (A^H w1 - y2)/eta, which costs one Hermitian inverse instead of a
    2n x 2n factorization.  Cheaper than a full decomposition when only one
    spectral scale is needed.
    """

    def __init__(self, x, zeta: complex, eta: float):
        if eta <= 0:
            raise ValueError("eta must be positive")
        a = _entries(x) - complex(zeta) * np.eye(_entries(x).shape[0])
        self.a = a
        self.eta = float(eta)
        self.n = a.shape[0]
        gram = a @ a.conj().T
        gram[np.diag_indices(self.n)] += eta ** 2
        self.w = np.linalg.inv(gram)

    def apply(self, y: np.ndarray) -> np.ndarray:
        n, eta = self.n, self.eta
        y = np.asarray(y, dtype=complex)
        y1, y2 = y[:n], y[n:]
        w1 = self.w @ (1j * eta * y1 + self.a @ y2)
        w2 = -1j * (self.a.conj().T @ w1 - y2) / eta
        return np.concatenate([w1, w2])

    def avg_trace(self) -> complex:
        return complex(1j * self.eta * np.trace(self.w) / self.n)

    def partial_traces(self) -> np.ndarray:
        diag = 1j * self.eta * np.trace(self.w) / self.n
        ul12 = np.einsum("ij,ji->", self.w, self.a) / self.n
        return np.array([[diag, ul12], [np.conj(ul12), diag]])


def error_matrix_norms(x, dec: SpectralDecomposition, eta: float,
                       se: SelfEnergyData, probes=None,
                       test_matrices=None) -> tuple[float, float]:
    """(iso, avg) norms of the error matrix over probe pairs / test matrices.

    avg is the largest |tr(B D)| / 2n over the block tests c (x) I of
    `BLOCK_TESTS` and the random `test_matrices` (default:
    `default_test_matrices(2n)`).  A block test's trace is
    tr((c (x) I) D) = tr(c T), with T the 2x2 matrix of D's block traces,
    so no 2n x 2n test matrix is formed; a random one's is the dot product
    of vec(B^T) with vec(D), one contiguous pass over D.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    n, n2 = dec.n, 2 * dec.n
    d = error_matrix(x, dec, eta, se)
    if probes is None:
        probes = default_probes(n2, k=8)
    if test_matrices is None:
        test_matrices = default_test_matrices(n2)
    pv = np.stack([p for _, p in probes], axis=1)
    dp = d @ pv
    cross = np.abs(pv.conj().T @ dp)
    iso = float(cross.max())
    blocks = np.array([[np.trace(d[:n, :n]), np.trace(d[:n, n:])],
                       [np.trace(d[n:, :n]), np.trace(d[n:, n:])]])
    traces = [np.trace(c @ blocks) for c in BLOCK_TESTS.values()]
    d_flat = d.reshape(-1)
    traces += [b.T.reshape(-1) @ d_flat for _, b in test_matrices]
    avg = max(abs(t) for t in traces) / n2
    return iso, float(avg)
