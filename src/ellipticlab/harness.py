"""Desk-scale experiments probing the local-law predictions.

Each experiment samples matrices from a seeded ensemble, measures an
observable against its theoretical envelope, and returns an
ExperimentReport whose records are reproducible functions of
(grid, seed, indices).  The `threads` argument sets how many trials run at
once; while they run, the OpenBLAS libraries bundled with numpy and scipy
are held at one thread each, so there is one level of parallelism and
every trial does the same arithmetic whatever `threads` is.  Records are
merged in (n, zeta, eta, trial) lexicographic order, so thread counts never
change the output.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import hessenberg

from .bumps import TestFunction
from .dyson import EllipseRegion, solve_dyson_grid
from .ensemble import EllipticMatrix, EnsembleSpec, sample
from .quad2d import adaptive_quad2d
from .spectral import (
    ResolventSolver,
    SelfEnergyData,
    decompose,
    default_probes,
    default_test_matrices,
    error_matrix_norms,
    hermitize,
)

EPSILON_EXPONENT = 0.1     # fixed stand-in for the paper's arbitrary epsilon
MEDIAN_CONSTANT = 10.0     # empirical constant cap for median-vs-envelope gates
EIGVEC_RESIDUAL_GATE = 1e-6


@dataclass(frozen=True)
class EtaRule:
    """Spectral scale eta = coefficient * n^{-beta}, beta in (0, 1)."""

    beta: float
    coefficient: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.coefficient <= 0:
            raise ValueError("coefficient must be positive")

    def eta(self, n: int) -> float:
        return self.coefficient * float(n) ** (-self.beta)


@dataclass(frozen=True)
class ExperimentGrid:
    """Bulk experiment grid: dimensions, spectral point(s), scale rule, trials."""

    n_values: tuple
    zeta: complex
    eta_rule: EtaRule
    trials: int
    delta: float
    seed: int
    rho: float
    mu: float = 1.0
    base: str = "gaussian"

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        region = EllipseRegion(self.rho, self.delta)
        if not bool(region.contains(self.zeta)):
            raise ValueError(
                f"zeta={self.zeta} is outside the bulk region E_(rho={self.rho}, delta={self.delta})")

    def ensemble_spec(self, n: int) -> EnsembleSpec:
        return EnsembleSpec(n=int(n), rho=self.rho, mu=self.mu,
                            base=self.base, seed=self.seed)


@dataclass
class ExperimentRecord:
    experiment: str
    n: int
    trial: int
    zeta: complex
    eta: float
    observed: float
    envelope: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def sort_key(self):
        return (self.n, self.zeta.real, self.zeta.imag, self.eta, self.trial,
                str(self.extras.get("probe", "")))

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "n": self.n,
            "trial": self.trial,
            "zeta_re": self.zeta.real,
            "zeta_im": self.zeta.imag,
            "eta": self.eta,
            "observed": self.observed,
            "envelope": self.envelope,
            "passed": bool(self.passed),
        }
        out.update(self.extras)
        return out


@dataclass
class ExperimentReport:
    name: str
    params: dict
    records: list
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("passed", False))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_dict()) + "\n")

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.name, "params": self.params,
                       "summary": self.summary}, fh, indent=2, default=str)
            fh.write("\n")


@functools.cache
def _bundled_openblas() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy and scipy.

    Empty when neither package ships its own OpenBLAS (a build against a
    system BLAS), in which case the thread count is left alone.
    """
    controls = []
    for pkg, suffix in (("numpy", "64_"), ("scipy", "")):
        libdir = Path(importlib.import_module(pkg).__file__).resolve().parent.parent
        for path in sorted((libdir / f"{pkg}.libs").glob("libscipy_openblas*.so")):
            lib = ctypes.CDLL(str(path))
            try:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


class _SingleThreadedBlas:
    """Holds the bundled OpenBLAS libraries at one thread while any caller is inside.

    The thread count is process-wide, so overlapping holders share one pin:
    the first to enter saves the counts and the last to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._saved = [(set_, get()) for get, set_ in _bundled_openblas()]
                for set_, _ in self._saved:
                    set_(1)
            self._holders += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                for set_, count in self._saved:
                    set_(count)


_SINGLE_THREADED_BLAS = _SingleThreadedBlas()


def _run_tasks(fn, keys, threads: int):
    # threads == 1 is pinned too: a multithreaded BLAS may round differently,
    # and records must not depend on `threads`
    with _SINGLE_THREADED_BLAS:
        if threads <= 1:
            return [fn(k) for k in keys]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, keys))


def _loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _median_by_n(records, n_values):
    return {n: float(np.median([r.observed for r in records if r.n == n]))
            for n in n_values}


def averaged_local_law(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """|<G> - i v| against n^eps/(n eta) across the (n, trial) grid."""
    tasks = [(n, t) for n in grid.n_values for t in range(grid.trials)]
    v_by_n = {}
    for n in grid.n_values:
        v, _, _, _ = solve_dyson_grid(grid.zeta, grid.eta_rule.eta(n), grid.rho)
        v_by_n[n] = float(v)

    def run(key):
        n, trial = key
        eta = grid.eta_rule.eta(n)
        x = sample(grid.ensemble_spec(n), trial)
        s = np.linalg.svd(x.entries - grid.zeta * np.eye(n), compute_uv=False)
        avg_g = 1j * eta * np.mean(1.0 / (s ** 2 + eta ** 2))
        observed = abs(avg_g - 1j * v_by_n[n])
        envelope = n ** EPSILON_EXPONENT / (n * eta)
        return ExperimentRecord(
            experiment="averaged_local_law", n=n, trial=trial, zeta=grid.zeta,
            eta=eta, observed=observed, envelope=envelope,
            passed=observed <= MEDIAN_CONSTANT * envelope,
            extras={"avg_g_re": avg_g.real, "avg_g_im": avg_g.imag, "v": v_by_n[n]})

    records = sorted(_run_tasks(run, tasks, threads), key=ExperimentRecord.sort_key)
    medians = _median_by_n(records, grid.n_values)
    neta = {n: n * grid.eta_rule.eta(n) for n in grid.n_values}
    median_gate = all(medians[n] <= MEDIAN_CONSTANT / neta[n] for n in grid.n_values)
    slope_vs_neta = (_loglog_slope([neta[n] for n in grid.n_values],
                                   [medians[n] for n in grid.n_values])
                     if len(grid.n_values) > 1 else float("nan"))
    slope_vs_n = (_loglog_slope(list(grid.n_values),
                                [medians[n] for n in grid.n_values])
                  if len(grid.n_values) > 1 else float("nan"))
    empirical_constant = max(medians[n] * neta[n] for n in grid.n_values)
    summary = {
        "median_by_n": {str(n): medians[n] for n in grid.n_values},
        "median_gate": median_gate,
        "slope_vs_neta": slope_vs_neta,
        "slope_vs_n": slope_vs_n,
        "empirical_constant": empirical_constant,
        "record_pass_fraction": float(np.mean([r.passed for r in records])),
        "passed": median_gate,
    }
    return ExperimentReport("averaged_local_law", _grid_params(grid), records, summary)


def _grid_params(grid: ExperimentGrid) -> dict:
    return {
        "n_values": list(grid.n_values), "zeta": str(grid.zeta),
        "beta": grid.eta_rule.beta, "eta_coefficient": grid.eta_rule.coefficient,
        "trials": grid.trials, "delta": grid.delta, "seed": grid.seed,
        "rho": grid.rho, "mu": grid.mu, "base": grid.base,
    }


_BLOCK_TESTS = {
    "I": np.eye(2, dtype=complex),
    "E-": np.diag([1.0, -1.0]).astype(complex),
    "sx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "sy": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
}


def isotropic_local_law(grid: ExperimentGrid, n_pairs: int = 20,
                        threads: int = 1) -> ExperimentReport:
    """max over probe pairs of |<x, (G - M) y>| against n^eps/sqrt(n eta)."""
    tasks = [(n, t) for n in grid.n_values for t in range(grid.trials)]
    mb_by_n = {}
    for n in grid.n_values:
        v, b, _, _ = solve_dyson_grid(grid.zeta, grid.eta_rule.eta(n), grid.rho)
        mb_by_n[n] = (float(v), complex(b))

    def run(key):
        n, trial = key
        eta = grid.eta_rule.eta(n)
        v, b = mb_by_n[n]
        m2 = np.array([[1j * v, np.conj(b)], [b, 1j * v]])
        x = sample(grid.ensemble_spec(n), trial)
        solver = ResolventSolver(x.entries, grid.zeta, eta)
        probes = [p for _, p in default_probes(2 * n, seed=grid.seed, k=2)]
        pairs = [(i, j) for i in range(len(probes)) for j in range(len(probes))
                 if i <= j][:n_pairs]
        gy = {}
        worst = 0.0
        for i, j in pairs:
            xp, yp = probes[i], probes[j]
            if j not in gy:
                gy[j] = solver.apply(probes[j])
            gxy = np.vdot(xp, gy[j])
            x1, x2 = xp[:n], xp[n:]
            y1, y2 = yp[:n], yp[n:]
            mxy = (1j * v * np.vdot(xp, yp) + np.conj(b) * np.vdot(x1, y2)
                   + b * np.vdot(x2, y1))
            worst = max(worst, abs(gxy - mxy))
        envelope = n ** EPSILON_EXPONENT / np.sqrt(n * eta)
        ul = solver.partial_traces()
        avg_err = abs(solver.avg_trace() - 1j * v)
        avg_op_err = max(abs(np.trace(c @ (ul - m2))) / 2.0
                         for c in _BLOCK_TESTS.values())
        env_avg = n ** EPSILON_EXPONENT / (n * eta)
        consistent = avg_err <= 2.0 * worst + env_avg
        return ExperimentRecord(
            experiment="isotropic_local_law", n=n, trial=trial, zeta=grid.zeta,
            eta=eta, observed=float(worst), envelope=float(envelope),
            passed=worst <= MEDIAN_CONSTANT * envelope,
            extras={"avg_err": float(avg_err), "avg_op_err": float(avg_op_err),
                    "env_avg": float(env_avg), "trace_consistent": bool(consistent)})

    records = sorted(_run_tasks(run, tasks, threads), key=ExperimentRecord.sort_key)
    frac = float(np.mean([r.passed for r in records]))
    summary = {
        "record_pass_fraction": frac,
        "trace_consistency_fraction": float(np.mean(
            [r.extras["trace_consistent"] for r in records])),
        "max_observed": max(r.observed for r in records),
        "passed": frac >= 0.95,
    }
    return ExperimentReport("isotropic_local_law", _grid_params(grid), records, summary)


def deloc_probes(n: int, seed: int, k_random: int = 4):
    e1 = np.zeros(n, dtype=complex); e1[0] = 1.0
    uni = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    alt = np.array([(-1.0) ** i for i in range(n)], dtype=complex) / np.sqrt(n)
    probes = [("e1", e1), ("uniform", uni), ("alternating", alt)]
    rng = np.random.default_rng(seed)
    for j in range(k_random):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        probes.append((f"rand{j}", g / np.linalg.norm(g)))
    return probes


def delocalisation_test(spec: EnsembleSpec, delta: float = 0.2, w_probes=None,
                        trials: int = 10, threads: int = 1) -> ExperimentReport:
    """sqrt(n) * max bulk eigenvector overlap per probe, against 10 sqrt(log n)."""
    region = EllipseRegion(spec.rho, delta)
    if w_probes is None:
        w_probes = deloc_probes(spec.n, seed=spec.seed)
    envelope = float(np.sqrt(np.log(spec.n)))

    def run(trial):
        x = sample(spec, trial)
        vals, vecs = np.linalg.eig(x.entries)
        resid = np.linalg.norm(x.entries @ vecs - vecs * vals, axis=0)
        defective = resid > EIGVEC_RESIDUAL_GATE
        bulk = np.asarray(region.contains(vals)) & ~defective
        out = []
        overlaps = np.abs(np.stack([w for _, w in w_probes]).conj() @ vecs[:, bulk])
        norms = np.array([np.linalg.norm(w) for _, w in w_probes])
        for idx, (label, _) in enumerate(w_probes):
            stat = float(np.sqrt(spec.n) * overlaps[idx].max() / norms[idx]) \
                if bulk.any() else 0.0
            out.append(ExperimentRecord(
                experiment="delocalisation", n=spec.n, trial=trial, zeta=0.0,
                eta=0.0, observed=stat, envelope=envelope,
                passed=stat <= MEDIAN_CONSTANT * envelope,
                extras={"probe": label, "bulk_count": int(bulk.sum()),
                        "defective_count": int(defective.sum())}))
        return out

    nested = _run_tasks(run, list(range(trials)), threads)
    records = sorted([r for batch in nested for r in batch],
                     key=ExperimentRecord.sort_key)
    summary = {
        "max_stat": max(r.observed for r in records),
        "envelope": envelope,
        "delta": delta,
        "passed": all(r.passed for r in records),
    }
    params = {"n": spec.n, "rho": spec.rho, "mu": spec.mu, "base": spec.base,
              "seed": spec.seed, "delta": delta, "trials": trials}
    return ExperimentReport("delocalisation", params, records, summary)


def density_integral(tf: TestFunction, rho: float, n: int,
                     tol: float = 1e-8) -> float:
    """int f_{zeta0,alpha} sigma_rho by adaptive quadrature over the support."""
    region = EllipseRegion(rho)
    sigma = 1.0 / (np.pi * (1.0 - rho ** 2))
    r = tf.support_radius(n)
    c = tf.center
    box = (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def integrand(pts):
        vals = tf.observable(pts, n)
        return np.real(vals) * np.where(region.contains(pts), sigma, 0.0)

    val, _ = adaptive_quad2d(integrand, box, tol=tol)
    return float(val)


def linear_statistics(grid: ExperimentGrid, tf: TestFunction,
                      threads: int = 1) -> ExperimentReport:
    """Mesoscopic linear eigenvalue statistics against n^{-1+2a+eps} ||Delta f||_1."""
    region = EllipseRegion(grid.rho, grid.delta)
    for n in grid.n_values:
        tf.validate(n)
        rim = tf.center + tf.support_radius(n) * np.exp(
            1j * np.linspace(0, 2 * np.pi, 181))
        if not np.all(region.contains(rim)):
            raise ValueError("test function support leaves the bulk region")

    l1 = tf.norm_delta_l1
    integrals = {n: density_integral(tf, grid.rho, n) for n in grid.n_values}
    tasks = [(n, t) for n in grid.n_values for t in range(grid.trials)]

    def run(key):
        n, trial = key
        x = sample(grid.ensemble_spec(n), trial)
        eigs = np.linalg.eigvals(x.entries)
        observed = abs(float(np.mean(np.real(tf.observable(eigs, n))))
                       - integrals[n])
        envelope = float(n) ** (-1.0 + 2.0 * tf.alpha + EPSILON_EXPONENT) * l1
        return ExperimentRecord(
            experiment="linear_statistics", n=n, trial=trial, zeta=tf.center,
            eta=0.0, observed=observed, envelope=envelope,
            passed=observed <= MEDIAN_CONSTANT * envelope,
            extras={"integral": integrals[n], "alpha": tf.alpha, "l1_delta": l1})

    records = sorted(_run_tasks(run, tasks, threads), key=ExperimentRecord.sort_key)
    medians = _median_by_n(records, grid.n_values)
    slope = (_loglog_slope(list(grid.n_values), [medians[n] for n in grid.n_values])
             if len(grid.n_values) > 1 else float("nan"))
    slope_gate = (-1.0 + 2.0 * tf.alpha) + 0.2
    env_gate = all(
        medians[n] <= MEDIAN_CONSTANT * float(n) ** (-1.0 + 2.0 * tf.alpha) * l1
        for n in grid.n_values)
    summary = {
        "median_by_n": {str(n): medians[n] for n in grid.n_values},
        "slope_vs_n": slope,
        "slope_gate": slope_gate,
        "envelope_gate": env_gate,
        "passed": env_gate and (len(grid.n_values) < 2 or slope <= slope_gate),
    }
    params = _grid_params(grid)
    params.update({"kind": tf.kind, "alpha": tf.alpha, "center": str(tf.center)})
    return ExperimentReport("linear_statistics", params, records, summary)


# complex entries of the Hyman working array (1 MB): nodes go through the
# recurrence in blocks of _HYMAN_ENTRIES // n, whatever n is
_HYMAN_ENTRIES = 65536


def _hessenberg_blocks(a) -> list:
    """Irreducible diagonal blocks of the upper Hessenberg form of a.

    X = Q H Q^H with Q unitary, so det(X - zeta) = det(H - zeta), and H is
    block upper triangular wherever a subdiagonal entry is exactly zero:
    the determinant is the product of those of its diagonal blocks.
    """
    h = hessenberg(a)
    cuts = [0, *(np.flatnonzero(np.diagonal(h, -1) == 0) + 1), h.shape[0]]
    return [h[lo:hi, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def _hyman_log_abs_det(hb, zeta, work) -> np.ndarray:
    """log|det(hb - zeta)| at each node zeta for an irreducible Hessenberg block.

    Hyman's method: with x_k = 1, the rows k, ..., 2 of (hb - zeta) x = c e_1
    give x_{k-1}, ..., x_1 by back-substitution up the subdiagonal, and
    |det(hb - zeta)| = |c| prod_i |h_{i+1,i}|.  O(k^2) per node, nodes on
    the last axis.  Each step rescales x so that its largest entry is 1
    and adds the log of the scale, so nothing overflows or underflows.
    Where c is exactly 0 (hb - zeta singular) the value is -inf.  `work`
    is a complex buffer of at least k * zeta.size entries.
    """
    k, m = hb.shape[0], zeta.size
    x = work[:k * m].reshape(k, m)
    x[k - 1] = 1.0
    log_scale = np.zeros(m)
    for i in range(k - 1, 0, -1):
        s = hb[i, i:] @ x[i:]
        s -= zeta * x[i]
        h = hb[i, i - 1]
        # x_{i-1} = -s/h; scaling x by |h|/d keeps every entry <= 1
        d = np.maximum(np.abs(s), abs(h))
        x[i:] *= abs(h) / d
        x[i - 1] = s * (-abs(h) / h) / d
        log_scale += np.log(d)
    c = hb[0] @ x - zeta * x[0]
    with np.errstate(divide="ignore"):
        return np.log(np.abs(c)) + log_scale


def girko_consistency(x, tf: TestFunction, quad_tol: float = 1e-4,
                      exclusion_radius: float = 1e-4) -> float:
    """|linear statistic - Girko log-determinant integral| for n <= 256.

    The left side sums f over spec X; the right side integrates
    Delta f * log|det H_zeta| / (4 pi n), with log|det(X - zeta)| at each
    node from one Hessenberg reduction X = Q H Q^H, done once, and Hyman's
    method on each irreducible block of H in O(n^2) per node.  So the right
    side shares its first step, the Hessenberg reduction, with LAPACK's
    `eigvals` on the left; the tests keep `slogdet` (LU) as an independent
    oracle for the determinants.  A log-singularity exclusion of the given
    radius around each eigenvalue is patched analytically.
    Where a block's residual is exactly 0 at a node (X - zeta singular),
    the node's value is the sum of the logs of the singular values of
    X - zeta, the zero ones floored at 1e-300.
    """
    a = x.entries if isinstance(x, EllipticMatrix) else np.asarray(x, dtype=complex)
    n = a.shape[0]
    if n > 256:
        raise ValueError("girko_consistency is a dense-quadrature check; need n <= 256")
    eigs = np.linalg.eigvals(a)
    lhs = float(np.mean(np.real(tf.f(eigs))))

    r0 = exclusion_radius
    diag = np.arange(n)
    blocks = _hessenberg_blocks(a)
    chunk = max(1, _HYMAN_ENTRIES // n)
    work = np.empty(n * chunk, dtype=complex)

    def integrand(pts):
        out = np.empty(pts.size)
        for start in range(0, pts.size, chunk):
            nodes = pts[start:start + chunk]
            logdet = sum(_hyman_log_abs_det(hb, nodes, work) for hb in blocks)
            singular = np.isneginf(logdet)
            if singular.any():
                # A - zeta exactly singular at a node: floor the zero singular
                # values only, as the log pole is patched below
                shifted = np.repeat(a[None], int(singular.sum()), axis=0)
                shifted[:, diag, diag] -= nodes[singular, None]
                svals = np.linalg.svd(shifted, compute_uv=False)
                logdet[singular] = np.sum(np.log(np.maximum(svals, 1e-300)), axis=1)
            # flatten the log pole inside the exclusion disks
            dist = np.abs(nodes[:, None] - eigs[None, :])
            close = dist < r0
            if close.any():
                patch = np.where(close, np.log(r0 / np.maximum(dist, 1e-300)), 0.0)
                logdet = logdet + patch.sum(axis=1)
            out[start:start + chunk] = logdet
        return np.real(tf.laplacian(pts)) * out / (2.0 * np.pi * n)

    c, r = tf.center, tf.radius
    box = (c.real - r, c.real + r, c.imag - r, c.imag + r)
    # the per-node matvecs are small: multithreaded BLAS only adds overhead
    with _SINGLE_THREADED_BLAS:
        val, _ = adaptive_quad2d(integrand, box, tol=quad_tol, max_depth=14)
    # analytic value of the excluded log-singular disks
    inside = np.abs(eigs - c) <= r + r0
    correction = -(r0 ** 2 / (4.0 * n)) * float(
        np.sum(np.real(tf.laplacian(eigs[inside]))))
    rhs = val + correction
    return abs(lhs - rhs)


def monte_carlo_estimate(f, region: EllipseRegion, m: int, delta: float,
                         rng: np.random.Generator):
    """Sample mean of f on the region and its Chebyshev deviation bound.

    The bound is (1/sqrt(m delta)) times the empirical standard deviation,
    so the true mean lies within it with probability >= 1 - delta.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    pts = region.sample_uniform(rng, m)
    vals = np.asarray(f(pts))
    est = complex(np.mean(vals))
    if m > 1:
        var = float(np.sum(np.abs(vals - est) ** 2) / (m - 1))
    else:
        var = 0.0
    bound = float(np.sqrt(var / (m * delta)))
    return est, bound


def small_singular_scan(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """Dyadic eta scan of #\\{|lambda_i| <= eta\\}/(n eta), plus sigma_min records."""
    tasks = [(n, t) for n in grid.n_values for t in range(grid.trials)]

    def run(key):
        n, trial = key
        x = sample(grid.ensemble_spec(n), trial)
        s = np.linalg.svd(x.entries - grid.zeta * np.eye(n), compute_uv=False)
        etas = []
        eta = float(n) ** (-0.9)
        while eta <= 1.0:
            etas.append(eta)
            eta *= 2.0
        ratios = [2.0 * float(np.count_nonzero(s <= e)) / (n * e) for e in etas]
        worst = max(ratios)
        return ExperimentRecord(
            experiment="small_singular_scan", n=n, trial=trial, zeta=grid.zeta,
            eta=etas[0], observed=worst, envelope=20.0, passed=worst <= 20.0,
            extras={"sigma_min": float(s[-1]),
                    "ratios": [float(r) for r in ratios],
                    "etas": [float(e) for e in etas]})

    records = sorted(_run_tasks(run, tasks, threads), key=ExperimentRecord.sort_key)
    summary = {
        "max_ratio": max(r.observed for r in records),
        "min_sigma_min": min(r.extras["sigma_min"] for r in records),
        "passed": all(r.passed for r in records),
    }
    return ExperimentReport("small_singular_scan", _grid_params(grid), records, summary)


@dataclass
class DensityMap:
    """2-D eigenvalue histogram next to the limiting density on one grid."""

    x_centers: np.ndarray
    y_centers: np.ndarray
    histogram: np.ndarray      # probability density per unit area
    sigma: np.ndarray
    mass_inside: float
    n: int

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,empirical_density,sigma\n")
            for i, xc in enumerate(self.x_centers):
                for j, yc in enumerate(self.y_centers):
                    fh.write(f"{float(xc)!r},{float(yc)!r},{float(self.histogram[i, j])!r},"
                             f"{float(self.sigma[i, j])!r}\n")


def density_map(spec: EnsembleSpec, grid_resolution: int = 101,
                trial: int = 0, margin: float = 0.3) -> DensityMap:
    """Eigenvalue histogram of one sample against the ellipse density."""
    x = sample(spec, trial)
    eigs = np.linalg.eigvals(x.entries)
    region = EllipseRegion(spec.rho)
    ax, ay = region.semi_axes
    xs = np.linspace(-ax - margin, ax + margin, grid_resolution + 1)
    ys = np.linspace(-ay - margin, ay + margin, grid_resolution + 1)
    hist, _, _ = np.histogram2d(eigs.real, eigs.imag, bins=[xs, ys])
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    hist = hist / (spec.n * cell)
    xc = 0.5 * (xs[:-1] + xs[1:])
    yc = 0.5 * (ys[:-1] + ys[1:])
    grid_pts = xc[:, None] + 1j * yc[None, :]
    sigma = np.where(region.contains(grid_pts),
                     1.0 / (np.pi * (1.0 - spec.rho ** 2)), 0.0)
    mass_inside = float(np.mean(region.contains(eigs)))
    return DensityMap(x_centers=xc, y_centers=yc, histogram=hist, sigma=sigma,
                      mass_inside=mass_inside, n=spec.n)


def dump_eigenvalues(path, dec_list) -> None:
    """CSV dump (trial, zeta_re, zeta_im, index, lambda) for decompositions."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,zeta_re,zeta_im,index,lambda\n")
        for trial, dec in dec_list:
            for idx, lam in enumerate(dec.eigenvalues):
                fh.write(f"{trial},{float(dec.zeta.real)!r},{float(dec.zeta.imag)!r},"
                         f"{idx},{float(lam)!r}\n")


def dump_functionals(path, rows) -> None:
    """JSONL dump of resolvent functionals, one record per (trial, zeta, eta)."""
    with open(path, "w", encoding="utf-8") as fh:
        for trial, zeta, eta, func in rows:
            rec = {
                "trial": trial,
                "zeta_re": zeta.real, "zeta_im": zeta.imag, "eta": eta,
                "avg_trace_re": func.avg_trace.real,
                "avg_trace_im": func.avg_trace.imag,
                "partial_traces": [[func.partial_traces[i, j].real,
                                    func.partial_traces[i, j].imag]
                                   for i in range(2) for j in range(2)],
                "iso_probes": [[label, val.real, val.imag]
                               for label, val in func.iso_entries],
                "log_det": func.log_det,
            }
            fh.write(json.dumps(rec) + "\n")


def error_matrix_experiment(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """Isotropic/averaged error-matrix norms against their predicted scalings."""
    tasks = [(n, t) for n in grid.n_values for t in range(grid.trials)]
    # the probes and test matrices are seeded, so every trial at one n shares them
    probes_by_n = {n: default_probes(2 * n, k=8) for n in grid.n_values}
    tests_by_n = {n: default_test_matrices(2 * n) for n in grid.n_values}

    def run(key):
        n, trial = key
        eta = grid.eta_rule.eta(n)
        spec = grid.ensemble_spec(n)
        x = sample(spec, trial)
        dec = decompose(hermitize(x, grid.zeta))
        se = SelfEnergyData.from_spec(spec)
        iso, avg = error_matrix_norms(x, dec, eta, se, probes=probes_by_n[n],
                                      test_matrices=tests_by_n[n])
        im_g = float(np.imag(1j * eta * np.mean(
            1.0 / (dec.singular_values ** 2 + eta ** 2))))
        scale_avg = n ** EPSILON_EXPONENT * im_g / (n * eta)
        scale_iso = n ** EPSILON_EXPONENT * np.sqrt(im_g / (n * eta))
        ok = (avg <= MEDIAN_CONSTANT * scale_avg) and (iso <= MEDIAN_CONSTANT * scale_iso)
        return ExperimentRecord(
            experiment="error_matrix", n=n, trial=trial, zeta=grid.zeta, eta=eta,
            observed=float(avg), envelope=float(scale_avg), passed=bool(ok),
            extras={"iso": float(iso), "iso_envelope": float(scale_iso),
                    "im_g": im_g})

    records = sorted(_run_tasks(run, tasks, threads), key=ExperimentRecord.sort_key)
    frac = float(np.mean([r.passed for r in records]))
    summary = {
        "record_pass_fraction": frac,
        "passed": frac >= 0.95,
    }
    return ExperimentReport("error_matrix", _grid_params(grid), records, summary)
