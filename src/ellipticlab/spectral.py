"""Hermitization of X and resolvent functionals of G = (H_zeta - i eta)^{-1}.

H_zeta = [[0, A], [A^H, 0]], A = X - zeta, has spectrum {+/- sigma_i(A)}, and
G has two engines.  `decompose` takes the SVD A = U S V^H once per zeta, so
each eta then costs O(n), or O(nk) for k probe pairs; with f = 1/(S^2 + eta^2):

    G11 = U (i eta f) U^H    G12 = U (S f) V^H
    G21 = V (S f) U^H        G22 = V (i eta f) V^H

`ResolventSolver` holds G at one (zeta, eta) as W = (A A^H + eta^2)^{-1},
G12 = W A and W~ = (A^H A + eta^2)^{-1}; the SVD form is its test
reference.  Where numpy ships its own OpenBLAS, `zherk` forms each Gram
matrix, `zpotrf` + `zpotri` invert it and `zgemm` forms the error matrix's
blocks, through ctypes, which releases the GIL, so pooled trials run in
parallel; the Girko check's Hessenberg reduction (`hessenberg`) is its
`zgehrd`.  `SINGLE_THREADED_BLAS` holds it at one thread for these, the
trial pool, the Girko check and `spectrum`, which call no scipy BLAS.  This
module is the one owner of that library, and `_openblas` the one switch: it
opens the library once and binds all seven routines the module calls.  On a
numpy built against a system BLAS it returns None, and every route falls
back together: numpy's GEMM and `inv`, `scipy.linalg.hessenberg`, and no
pin.

The error matrix D = (H + Z + hat-S[G]) G is read one n x n block at a
time, from one block of K at a time, so its norms take two n x n matrices
besides G's three; the dense `error_matrix` assembles the same blocks for
the tests.  The error norm's random test matrices are a function of 2n
alone; they are drawn once per size and held read-only for the latest size.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass
from pathlib import Path

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
    a = np.array(_entries(x), dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("X must be a square matrix")
    a[np.diag_indices(a.shape[0])] -= complex(zeta)
    return Hermitization(zeta=complex(zeta), shifted=a)


@dataclass
class SpectralDecomposition:
    """Spectrum of H_zeta; eta-independent, reusable across spectral scales."""

    zeta: complex
    singular_values: np.ndarray          # descending, length n
    u: np.ndarray | None = None          # left singular vectors of X - zeta
    vh: np.ndarray | None = None         # right singular vectors (V^H rows)

    @property
    def n(self) -> int:
        return self.singular_values.size

    @property
    def eigenvalues(self) -> np.ndarray:
        """All 2n eigenvalues, ascending."""
        s = self.singular_values
        return np.concatenate([-s, s[::-1]])

    @functools.cached_property
    def uv_diag(self) -> np.ndarray:
        """diag(V^H U), needed by the off-diagonal partial traces."""
        if self.u is None:
            raise ValueError("decomposition was computed without vectors")
        return np.einsum("ij,ji->i", self.vh, self.u)


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


def isotropic_entries(dec: SpectralDecomposition, etas, xs: np.ndarray,
                      ys: np.ndarray) -> np.ndarray:
    """<x_j, G y_j> for the columns of two 2n x k arrays, one row per eta.

    The probes are projected on U and V once: with a, b the conjugates of
    U^H x1, V^H x2 and c, d = U^H y1, V^H y2, each eta costs O(nk), as
    <x, G y> = sum_i f_i (i eta (a_i c_i + b_i d_i) + s_i (a_i d_i + b_i c_i)).
    """
    etas = np.asarray(etas, dtype=float)
    if np.any(etas <= 0):
        raise ValueError("eta must be positive")
    n = dec.n
    if xs.shape != ys.shape or xs.shape[0] != 2 * n:
        raise ValueError("probes must be two 2n x k arrays")
    uh = dec.u.conj().T
    a, b = (uh @ xs[:n]).conj(), (dec.vh @ xs[n:]).conj()
    c, d = uh @ ys[:n], dec.vh @ ys[n:]
    s = dec.singular_values
    f = 1.0 / (s ** 2 + etas[:, None] ** 2)
    return 1j * etas[:, None] * (f @ (a * c + b * d)) + (f * s) @ (a * d + b * c)


def partial_trace(dec: SpectralDecomposition, eta: float) -> np.ndarray:
    """The 2x2 matrix of normalized block traces of G."""
    diag = resolvent_trace(dec, eta)
    s = dec.singular_values
    f = 1.0 / (s ** 2 + eta ** 2)
    uv = dec.uv_diag
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


def log_abs_det(dec: SpectralDecomposition) -> float:
    """log|det H_zeta| = 2 sum_i log s_i, or -inf once a singular value underflows."""
    s = dec.singular_values
    return float("-inf") if s[-1] < _ZERO_EIG else 2.0 * float(np.sum(np.log(s)))


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


def probe_family(dim: int, coordinates, prefix: str, k: int,
                 seed: int) -> list[tuple[str, np.ndarray]]:
    """Unit vectors of C^dim: a coordinate vector per (label, index), the uniform
    and alternating vectors, then k seeded Haar-random units labelled prefix + j."""
    out = [(label, np.eye(1, dim, index, dtype=complex)[0]) for label, index in coordinates]
    out += [("uniform", np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)),
            ("alternating", np.resize([1.0 + 0j, -1.0 + 0j], dim) / np.sqrt(dim))]
    rng = np.random.default_rng(seed)
    for j in range(k):
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append((f"{prefix}{j}", g / np.linalg.norm(g)))
    return out


def default_probes(n2: int, k: int, seed: int = 0) -> list[tuple[str, np.ndarray]]:
    """Fixed probe family: coordinate, uniform, alternating, Haar-random units."""
    if n2 % 2:
        raise ValueError("probe dimension must be even (2n)")
    return probe_family(n2, (("e1", 0), ("e_n+1", n2 // 2)), "haar", k, seed)


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


def self_energy_hat(g11, g12, g21, g22, se: SelfEnergyData):
    """Blocks of hat-S[G] = S[G] + Hadamard corrections, from G's four n x n blocks.

    Block (i, j), 0-based, reads G's block B = (1 - i, 1 - j): off the
    diagonal it is c B^t, with the Hadamard coefficient c = p on diagonal
    blocks, q on block (0, 1) and conj q on block (1, 0); on the diagonal,
    the normalized trace of B, times rho on the off-diagonal blocks.
    """
    g = ((g11, g12), (g21, g22))
    out = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        b = g[1 - i][1 - j]
        tr = np.trace(b) / b.shape[0]
        block = (se.p if i == j else se.q if i == 0 else np.conj(se.q)) * b.T
        np.fill_diagonal(block, tr if i == j else se.rho * tr)
        out.append(block)
    return tuple(out)


def _error_blocks(solver: ResolventSolver, se: SelfEnergyData):
    """D = (H + Z + hat-S[G]) G one n x n block at a time, as D_ij^T, from G's
    arrays W, G12, W~ (`ResolventSolver.arrays`) and X = A + zeta.

    Two `_gemm` calls accumulate D_ij^H = sum_m G_mj^H K_im^H, K = H + Z +
    hat-S[G], into one buffer, conjugated in place so that the random traces
    read D_ij^T row by row.  Every factor is a GEMM op on an array read as it
    is: G11^H = -i eta W and G21^H = G12 (W, W~ are Hermitian), and K's
    blocks are built one at a time by contiguous passes, as conj K11 =
    conj(i eta p) W~, conj K22 = conj(i eta p) W and K12 = K21^H = q conj(G12)
    + X, each with its diagonal.  In the order (1,1), (2,1), (2,2), (1,2),
    each block starts on the K block the last one ended with: five builds
    serve the eight products.  Yields (i, j, D_ij^T), 0-based, in one buffer."""
    n, eta = solver.n, solver.eta
    w, g12, wt = solver.arrays
    k, d = np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex)
    # G_mj^H as (alpha, op, array); K_im^H as an op on K's block i + m: conj K11, K12, conj K22
    gh = {(0, 0): (-1j * eta, "C", w), (0, 1): (1.0, "C", g12),
          (1, 0): (1.0, "N", g12), (1, 1): (-1j * eta, "C", wt)}
    kh = {(0, 0): "T", (0, 1): "C", (1, 0): "N", (1, 1): "T"}
    held = None
    for i, j, ms in ((0, 0, (0, 1)), (1, 0, (0, 1)), (1, 1, (1, 0)), (0, 1, (1, 0))):
        for step, m in enumerate(ms):
            if i + m != held:
                held = i + m
                if held == 1:
                    np.conjugate(g12, out=k)
                    k *= se.q
                    np.fill_diagonal(k, se.rho * np.conj(np.trace(g12)) / n + solver.zeta)
                    k += solver.a
                else:
                    src = wt if held == 0 else w
                    np.multiply(np.conj(1j * eta * se.p), src, out=k)
                    np.fill_diagonal(k, np.conj(1j * eta * np.trace(src) / n))
            alpha, op, g = gh[m, j]
            _gemm(d, alpha, g, op, k, kh[i, m], beta=step)
        np.conjugate(d, out=d)
        yield i, j, d


def error_matrix(solver: ResolventSolver, se: SelfEnergyData) -> np.ndarray:
    """D = (H + Z + hat-S[G]) G assembled as a full 2n x 2n matrix, G from `solver`.

    The tests' reference for `error_matrix_norms`, from the same block builder.
    """
    n = solver.n
    d = np.empty((2 * n, 2 * n), dtype=complex)
    for i, j, block in _error_blocks(solver, se):
        d[i * n:(i + 1) * n, j * n:(j + 1) * n] = block.T
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
    so the norms end slightly above 1).  They depend on 2n alone, so they are
    drawn once per size and held read-only, as drawn, for the latest size
    only (`_seeded_test_matrices`); a call at another size replaces them.
    The four block tests of `BLOCK_TESTS` need no matrix: their traces come
    from D's block traces.
    """
    return _seeded_test_matrices(n2)


@functools.lru_cache(maxsize=1)
def _seeded_test_matrices(n2: int) -> tuple:
    rng = np.random.default_rng(1)
    mats = []
    for j in range(4):
        g = np.empty((n2, n2), dtype=complex)
        g.real = rng.standard_normal((n2, n2))
        g.imag = rng.standard_normal((n2, n2))
        g /= _spectral_norm_estimate(g) * (1.0 + 1e-9)
        g.flags.writeable = False
        mats.append((f"rand{j}", g))
    return tuple(mats)


@functools.cache
def _openblas():
    """The OpenBLAS bundled with numpy, opened on the first call with its seven
    routines bound to their ctypes signatures: `zherk`, `zgemm`, `zpotrf`,
    `zpotri`, `zgehrd` (64-bit integers) and the thread-count getter and setter.

    None for a numpy built against a system BLAS, or a library that lacks
    any of the seven: this is the one switch, so every route falls back together.
    """
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libdir.glob("libscipy_openblas64_*.so"))
    if not paths:
        return None
    lib = ctypes.CDLL(str(paths[0]))
    # Fortran: every argument by reference, then a hidden length per character one
    char, ptr, size = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    signatures = {
        "scipy_zherk_64_": [char, char, i64, i64, f64, ptr, i64, f64, ptr, i64, size, size],
        # ALPHA and BETA are complex: two doubles each
        "scipy_zgemm_64_": [char, char, i64, i64, i64, f64, ptr, i64, ptr, i64, f64, ptr, i64,
                            size, size],
        "scipy_zpotrf_64_": [char, i64, ptr, i64, i64, size],
        "scipy_zpotri_64_": [char, i64, ptr, i64, i64, size],
        # N, ILO, IHI, A, LDA, TAU, WORK, LWORK, INFO; no character arguments
        "scipy_zgehrd_64_": [i64, i64, i64, ptr, i64, ptr, ptr, i64, i64],
        "scipy_openblas_get_num_threads64_": [],
        "scipy_openblas_set_num_threads64_": [ctypes.c_int],
    }
    for name, argtypes in signatures.items():
        routine = getattr(lib, name, None)
        if routine is None:
            return None
        routine.argtypes, routine.restype = argtypes, None
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    return lib


class _SingleThreadedBlas:
    """Holds numpy's bundled OpenBLAS at one thread while any caller is inside;
    without that library (a system BLAS) the thread count is left alone.

    The thread count is process-wide, so overlapping holders share one pin:
    the first to enter saves the count and the last to leave restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._lib = None        # the library the first holder pinned, until the last leaves
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._lib = _openblas()
                if self._lib is not None:
                    self._saved = self._lib.scipy_openblas_get_num_threads64_()
                    self._lib.scipy_openblas_set_num_threads64_(1)
            self._holders += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._lib is not None:
                self._lib.scipy_openblas_set_num_threads64_(self._saved)


SINGLE_THREADED_BLAS = _SingleThreadedBlas()


def _gram_inverse(a: np.ndarray, eta: float, adjoint: bool = False) -> np.ndarray:
    """(A A^H + eta^2)^{-1}, or (A^H A + eta^2)^{-1} with `adjoint`, for an n x n A.

    On numpy's bundled OpenBLAS: `zherk` forms one triangle of the Gram,
    `zpotrf` + `zpotri` invert it in place on one thread, and the other
    triangle is filled by conjugation, so the result is exactly Hermitian.
    A non-positive `zpotrf` pivot raises LinAlgError.  Without that library:
    a GEMM and `inv`.
    """
    n = a.shape[0]
    lib = _openblas()
    if lib is None:
        gram = a.conj().T @ a if adjoint else a @ a.conj().T
        gram[np.diag_indices(n)] += eta ** 2
        return np.linalg.inv(gram)
    a = np.ascontiguousarray(a, dtype=complex)
    if a.shape != (n, n):
        raise ValueError(f"A must be square, got shape {a.shape}")
    # herk with beta = 0 ignores C's contents; zeros leave nothing stale in either triangle
    out = np.zeros((n, n), dtype=complex)
    dim, info, one = ctypes.c_int64(n), ctypes.c_int64(0), ctypes.c_size_t(1)
    ref = ctypes.byref
    # LAPACK reads a C-ordered matrix as its transpose: trans "C" forms
    # conj(A A^H) = (A A^H)^T, i.e. A A^H in C order, and its "L" triangle is
    # our upper one
    with SINGLE_THREADED_BLAS:
        lib.scipy_zherk_64_(b"L", b"N" if adjoint else b"C", ref(dim), ref(dim),
                            ref(ctypes.c_double(1.0)), a.ctypes.data, ref(dim),
                            ref(ctypes.c_double(0.0)), out.ctypes.data, ref(dim), one, one)
        out[np.diag_indices(n)] += eta ** 2
        for routine in (lib.scipy_zpotrf_64_, lib.scipy_zpotri_64_):
            routine(b"L", ref(dim), out.ctypes.data, ref(dim), ref(info), one)
            if info.value:
                raise np.linalg.LinAlgError(
                    f"Gram matrix of X - zeta not positive definite at eta={eta} "
                    f"(LAPACK info {info.value})")
    np.copyto(out, out.T.conj(), where=np.tri(n, k=-1, dtype=bool))
    return out


def _gemm(out: np.ndarray, alpha: complex, a: np.ndarray, op_a: str, b: np.ndarray,
          op_b: str, beta: float = 0.0) -> np.ndarray:
    """out = alpha op_a(a) op_b(b) + beta out for C-ordered n x n complex arrays,
    op "N", "T" or "C" (the adjoint); beta = 0 ignores out's contents.  On numpy's
    bundled OpenBLAS one `zgemm` on one thread, with no temporary; a C-ordered
    array is its Fortran transpose, so zgemm forms out^T = op_b(b)^T op_a(a)^T
    with the operands swapped.  Without that library: numpy's GEMM."""
    lib = _openblas()
    if lib is None:
        ops = {"N": lambda m: m, "T": np.transpose, "C": lambda m: m.conj().T}
        out[...] = alpha * (ops[op_a](a) @ ops[op_b](b)) + (beta * out if beta else 0)
        return out
    n = out.shape[0]
    if any(m.shape != (n, n) or m.dtype != complex or not m.flags.c_contiguous
           for m in (out, a, b)):
        raise ValueError("zgemm takes C-ordered n x n complex128 arrays")
    dim, ref, one = ctypes.c_int64(n), ctypes.byref, ctypes.c_size_t(1)
    scalars = [(ctypes.c_double * 2)(z.real, z.imag) for z in (complex(alpha), complex(beta))]
    with SINGLE_THREADED_BLAS:
        lib.scipy_zgemm_64_(op_b.encode(), op_a.encode(), ref(dim), ref(dim), ref(dim),
                            scalars[0], b.ctypes.data, ref(dim), a.ctypes.data, ref(dim),
                            scalars[1], out.ctypes.data, ref(dim), one, one)
    return out


def hessenberg(a) -> np.ndarray:
    """The upper Hessenberg form H of a square a: a = Q H Q^H with Q unitary.

    On numpy's bundled OpenBLAS: `zgehrd` on a Fortran-ordered complex copy,
    held at one thread, after the same workspace query scipy makes, so that
    both take LAPACK's same blocked or unblocked path and H is bit for bit
    `scipy.linalg.hessenberg`'s on one thread (at any thread count for n up
    to LAPACK's crossover, 128, below which the reduction calls no level-3
    BLAS).  For n <= 2, a is already Hessenberg and is returned unchanged.
    Without that library: `scipy.linalg.hessenberg`.  The caller checks
    that a is finite.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n <= 2:
        return a
    lib = _openblas()
    if lib is None:
        # imported here: loading scipy.linalg costs more than importing this package
        from scipy.linalg import hessenberg as scipy_hessenberg
        return scipy_hessenberg(a.astype(complex, copy=False), check_finite=False)
    h = np.array(a, dtype=complex, order="F")
    tau = np.empty(n - 1, dtype=complex)
    dim, first, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    ref = ctypes.byref

    def reduce(work: np.ndarray, lwork: int):
        lib.scipy_zgehrd_64_(ref(dim), ref(first), ref(dim), h.ctypes.data, ref(dim),
                             tau.ctypes.data, work.ctypes.data, ref(ctypes.c_int64(lwork)),
                             ref(info))
        if info.value:
            raise ValueError(f"zgehrd rejected argument {-info.value}")

    with SINGLE_THREADED_BLAS:
        query = np.empty(1, dtype=complex)
        reduce(query, -1)          # LWORK = -1: the optimal workspace size, in query[0]
        lwork = int(query[0].real)
        reduce(np.empty(lwork, dtype=complex), lwork)
    return np.triu(h, -1)


class ResolventSolver:
    """G = (H_zeta - i eta)^{-1} at one fixed eta from n x n inverses.

    With A = X - zeta, W = (A A^H + eta^2)^{-1} and W~ = (A^H A + eta^2)^{-1}:
    G11 = i eta W, G12 = W A, G21 = G12^H, G22 = i eta W~, and G y for
    y = (y1, y2) is w1 = W (i eta y1 + A y2), w2 = -i (A^H w1 - y2)/eta.
    `arrays` inverts A^H A + eta^2 for G22 instead of forming (i/eta)(I -
    A^H W A), which cancels as w2 does.  Each inverse is of an n x n
    Hermitian positive definite Gram matrix (`_gram_inverse`: Cholesky on
    numpy's bundled OpenBLAS outside the GIL, else a GEMM and `inv`), so one
    eta costs less than a 2n x 2n factorization or a full decomposition.  It
    holds 2 n x n complex matrices, and 4 once `arrays` is formed.
    """

    def __init__(self, x, zeta: complex, eta: float):
        if eta <= 0:
            raise ValueError("eta must be positive")
        a = hermitize(x, zeta).shifted
        self.a = a
        self.zeta = complex(zeta)
        self.eta = float(eta)
        self.n = a.shape[0]
        self.w = _gram_inverse(a, self.eta)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """G y for a 2n vector y, or G Y for a 2n x k block Y, column by column.

        w2 cancels as eta / sigma_min(A) -> 0 (at n = 64, zeta = 0.3+0.2i, entries
        are off by 1e-6 relative at eta = 1e-6, 0.2 at 1e-12); `arrays` is accurate there."""
        n, eta = self.n, self.eta
        y = np.asarray(y, dtype=complex)
        y1, y2 = y[:n], y[n:]
        w1 = self.w @ (1j * eta * y1 + self.a @ y2)
        w2 = -1j * (self.a.conj().T @ w1 - y2) / eta
        return np.concatenate([w1, w2])

    @functools.cached_property
    def arrays(self) -> tuple:
        """G as (W, G12, W~), formed on first use, W~ before G12 to lower the peak."""
        wt = _gram_inverse(self.a, self.eta, adjoint=True)
        return self.w, self.w @ self.a, wt

    def avg_trace(self) -> complex:
        # tr W is real: dropping its rounding-level imaginary part keeps <G> imaginary
        return complex(0.0, self.eta * float(np.trace(self.w).real) / self.n)

    def partial_traces(self) -> np.ndarray:
        diag = self.avg_trace()
        ul12 = np.einsum("ij,ji->", self.w, self.a) / self.n
        return np.array([[diag, ul12], [np.conj(ul12), diag]])


def error_matrix_norms(solver: ResolventSolver, se: SelfEnergyData, probes,
                       test_matrices) -> tuple[float, float]:
    """(iso, avg) norms of the error matrix over probe pairs / test matrices.

    iso is the largest |<x, D y>| over the (label, vector) `probes`; avg is
    the largest |tr(B D)| / 2n over the block tests c (x) I of `BLOCK_TESTS`
    and the (label, matrix) `test_matrices`.  D is read one n x n block at a
    time, transposed (`_error_blocks`), and each block gives its trace, its
    share of D P for the probe matrix P and its share of every random
    tr(B D) before the next is built, so besides G's arrays the working
    memory is two n x n matrices.  A block test's trace is tr((c (x) I) D) =
    tr(c T), with T the 2x2 matrix of D's block traces; a random one's
    collects sum_rs B_ji[s, r] D_ij^T[s, r] over the blocks (i, j).
    """
    n = solver.n
    pv = np.stack([p for _, p in probes], axis=1)
    dp = np.zeros_like(pv)
    blocks = np.empty((2, 2), dtype=complex)
    rand = np.zeros(len(test_matrices), dtype=complex)
    for i, j, dt in _error_blocks(solver, se):
        rows, cols = slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n)
        blocks[i, j] = np.trace(dt)
        dp[rows] += dt.T @ pv[cols]
        for k, (_, b) in enumerate(test_matrices):
            rand[k] += np.einsum("ij,ij->", dt, b[cols, rows])
    iso = float(np.abs(pv.conj().T @ dp).max())
    traces = [np.trace(c @ blocks) for c in BLOCK_TESTS.values()] + list(rand)
    avg = max(abs(t) for t in traces) / (2 * n)
    return iso, float(avg)
