"""Seedable samplers for the elliptic random matrix ensemble.

Entry pairs (x_ij, x_ji), i < j, are i.i.d. copies of (xi1, xi2)/sqrt(n)
and the diagonal holds i.i.d. copies of xi0/sqrt(n), with the moment table

    E xi = 0,  E|xi0|^2 = 1,  E (Re xi_k)^2 = mu,  E (Im xi_k)^2 = 1 - mu,
    E[Re xi1 Re xi2] = mu rho,  E[Im xi1 Im xi2] = -(1-mu) rho,
    E[Re xi_k Im xi_l] = 0.

Consequently E[xi1 xi2] = rho, E[xi1^2] = 2 mu - 1 and
E[xi1 conj(xi2)] = (2 mu - 1) rho.  Streams are counter-based (Philox), so
matrices are bitwise reproducible for a given (seed, trial) regardless of
evaluation order or thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

BASES = ("gaussian", "rademacher-mixture")
RADEMACHER_MUS = (0.0, 0.5, 1.0)
N_CAP = 8192

_MAGIC = b"ELXM"
_FLAG_COMPLEX = 1
_KEY_SALT = 0x656C6C6970746963  # fixed second key word for the Philox streams
_MOMENT_SIGMAS = 5.0             # a moment fails beyond this many standard errors


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters (n, rho, mu, base distribution, seed) of the matrix law."""

    n: int
    rho: float
    mu: float = 1.0
    base: str = "gaussian"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and 0 < self.n <= N_CAP):
            raise ValueError(f"n must be a positive integer <= {N_CAP}")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if self.base not in BASES:
            raise ValueError(f"base must be one of {BASES}")
        if self.base == "rademacher-mixture" and self.mu not in RADEMACHER_MUS:
            raise ValueError(
                f"rademacher-mixture requires mu in {RADEMACHER_MUS}, got {self.mu}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class EllipticMatrix:
    """Sampled matrix with its generating spec as provenance."""

    entries: np.ndarray
    spec: EnsembleSpec
    trial: int = 0

    @property
    def n(self) -> int:
        return self.spec.n


@dataclass
class MomentReport:
    """Empirical second-moment summary of one or more sampled matrices."""

    mean_offdiag: complex
    var_offdiag: float
    cov_pair: complex
    pseudo_cov: complex
    conj_cov: complex
    targets: dict
    stderrs: dict
    flags: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.flags.values())


def rng_policy(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Counter-based substream for (seed, trial).

    The trial index is placed in the high word of the Philox counter, so
    each substream has 2^192 counter steps of headroom and identical output
    no matter in which order the substreams are consumed.  The index must be
    non-negative.
    """
    if trial_index < 0:
        raise ValueError(f"trial index must be >= 0, got {trial_index}")
    bitgen = np.random.Philox(key=[int(seed), _KEY_SALT],
                              counter=[0, 0, 0, int(trial_index)])
    return np.random.Generator(bitgen)


def _correlated_signs(rng: np.random.Generator, count: int, corr: float):
    s1 = rng.integers(0, 2, count) * 2.0 - 1.0
    keep = rng.uniform(0.0, 1.0, count) < (1.0 + corr) / 2.0
    s2 = np.where(keep, s1, -s1)
    return s1, s2


def sample(spec: EnsembleSpec, trial: int = 0) -> EllipticMatrix:
    """Draw one elliptic matrix; a pure function of (spec, trial)."""
    n, rho, mu = spec.n, spec.rho, spec.mu
    rng = rng_policy(spec.seed, trial)
    npairs = n * (n - 1) // 2

    if spec.base == "gaussian":
        g = rng.standard_normal((4, npairs))
        re1 = np.sqrt(mu) * g[0]
        re2 = np.sqrt(mu) * (rho * g[0] + np.sqrt(1.0 - rho ** 2) * g[1])
        im1 = np.sqrt(1.0 - mu) * g[2]
        im2 = np.sqrt(1.0 - mu) * (-rho * g[2] + np.sqrt(1.0 - rho ** 2) * g[3])
        gd = rng.standard_normal((2, n))
        diag = np.sqrt(mu) * gd[0] + 1j * np.sqrt(1.0 - mu) * gd[1]
    else:
        r1, r2 = _correlated_signs(rng, npairs, rho)
        s1, s2 = _correlated_signs(rng, npairs, -rho)
        if mu == 1.0:
            re1, re2, im1, im2 = r1, r2, np.zeros(npairs), np.zeros(npairs)
            diag = rng.integers(0, 2, n) * 2.0 - 1.0 + 0.0j
        elif mu == 0.0:
            re1, re2, im1, im2 = np.zeros(npairs), np.zeros(npairs), s1, s2
            diag = 1j * (rng.integers(0, 2, n) * 2.0 - 1.0)
        else:
            h = np.sqrt(0.5)
            re1, re2, im1, im2 = h * r1, h * r2, h * s1, h * s2
            diag = h * ((rng.integers(0, 2, n) * 2.0 - 1.0)
                        + 1j * (rng.integers(0, 2, n) * 2.0 - 1.0))

    scale = 1.0 / np.sqrt(n)
    x = np.zeros((n, n), dtype=complex)
    # pair k is the k-th strict-upper entry in row-major order, as in np.triu_indices;
    # the boolean mask fills x in that order and x.T its mirror
    upper = ~np.tri(n, dtype=bool)
    x[upper] = (re1 + 1j * im1) * scale
    x.T[upper] = (re2 + 1j * im2) * scale
    x[np.diag_indices(n)] = diag * scale
    return EllipticMatrix(entries=x, spec=spec, trial=trial)


def _moment_sums(matrix: EllipticMatrix) -> dict:
    """Raw sums of the moment statistics, mergeable across matrices."""
    x = matrix.entries
    n = matrix.n
    flat = x.reshape(-1)
    # the off-diagonal entries as an (n - 1) x n view: row k runs from just
    # after diagonal entry k to just before diagonal entry k + 1
    xo = flat[1:].reshape(n - 1, n + 1)[:, :n]
    abs2 = xo.real ** 2 + xo.imag ** 2
    abs4 = np.sum(abs2 ** 2)
    iu, ju = np.triu_indices(n, k=1)
    upper, lower = flat.take(iu * n + ju), flat.take(ju * n + iu)
    pair = upper * lower
    conj = upper * np.conj(lower)
    pair_abs2 = np.sum(np.abs(pair) ** 2)     # = sum |conj|^2
    return {
        "mean": (xo.sum(), np.sum(abs2), xo.size),
        "var": (np.sum(abs2), abs4, xo.size),
        "cov_pair": (pair.sum(), pair_abs2, pair.size),
        "pseudo_cov": (np.sum(xo ** 2), abs4, xo.size),
        "conj_cov": (conj.sum(), pair_abs2, conj.size),
    }


def _report_from_sums(sums: dict, spec: EnsembleSpec) -> MomentReport:
    n, rho, mu = spec.n, spec.rho, spec.mu
    targets = {
        "mean": 0.0 + 0.0j,
        "var": 1.0 / n,
        "cov_pair": rho / n,
        "pseudo_cov": (2.0 * mu - 1.0) / n,
        "conj_cov": (2.0 * mu - 1.0) * rho / n,
    }
    est, se, flags = {}, {}, {}
    for key, (s1, s2, cnt) in sums.items():
        mean = s1 / cnt
        var = max(float(s2 / cnt - abs(mean) ** 2), 0.0)
        stderr = np.sqrt(var / cnt)
        est[key] = mean
        se[key] = float(stderr)
        # degenerate atoms (e.g. unit-modulus entries) have zero sampling
        # variance; allow rounding noise relative to the target scale
        slack = 1e-9 * abs(targets[key]) + 1e-18
        flags[key] = bool(abs(mean - targets[key]) > _MOMENT_SIGMAS * stderr + slack)
    return MomentReport(
        mean_offdiag=complex(est["mean"]),
        var_offdiag=float(est["var"].real),
        cov_pair=complex(est["cov_pair"]),
        pseudo_cov=complex(est["pseudo_cov"]),
        conj_cov=complex(est["conj_cov"]),
        targets=targets, stderrs=se, flags=flags)


def moment_self_test(matrix: EllipticMatrix) -> MomentReport:
    """Empirical pair moments of one matrix against their population targets."""
    if matrix.n < 100:
        raise ValueError("moment self-test needs n >= 100 for statistical power")
    return _report_from_sums(_moment_sums(matrix), matrix.spec)


def aggregate_moment_test(matrices: list[EllipticMatrix]) -> MomentReport:
    """Pooled moment report over matrices sampled from the same spec shape."""
    if not matrices:
        raise ValueError("no matrices to aggregate")
    total: dict = {}
    for mat in matrices:
        for key, (s1, s2, cnt) in _moment_sums(mat).items():
            if key in total:
                t1, t2, tc = total[key]
                total[key] = (t1 + s1, t2 + s2, tc + cnt)
            else:
                total[key] = (s1, s2, cnt)
    return _report_from_sums(total, matrices[0].spec)


def save_matrix(matrix: EllipticMatrix, path) -> None:
    """Binary dump: 16-byte header (magic, flags, n) + interleaved re/im doubles."""
    header = struct.pack("<4sIQ", _MAGIC, _FLAG_COMPLEX, matrix.n)
    data = np.ascontiguousarray(matrix.entries, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def load_matrix(path) -> np.ndarray:
    """Read a dump written by save_matrix; returns the raw n x n array."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        magic, flags, n = struct.unpack("<4sIQ", header)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r} in matrix dump")
        if not flags & _FLAG_COMPLEX:
            raise ValueError("unsupported dump flags")
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != n * n:
        raise ValueError("matrix dump truncated")
    return data.reshape(int(n), int(n)).astype(complex)
