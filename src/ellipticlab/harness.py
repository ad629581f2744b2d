"""Desk-scale experiments probing the local-law predictions.

Each experiment samples matrices from a seeded ensemble, measures an
observable against its theoretical envelope, and returns an
ExperimentReport whose records are reproducible functions of
(grid, seed, indices).

The sample-based experiments are the entries of one registry,
`EXPERIMENTS`.  An entry declares up front which factorizations of a
sampled X it reads (`eig`, `eigvals`, the SVD of X - zeta with or without
vectors), builds what the trials at one n share (the Dyson solution, probes,
test matrices, density integrals) once per n, turns one `TrialContext` into
records, and summarizes its records.  `run_experiments` runs any set of
entries over one pool of (n, trial) tasks.  Each task samples X once and
factors it once for the union of the needs (`eig` covers `eigvals`, the SVD
with vectors covers the one without), every entry reads that context, and
the context is dropped when the task ends.  Sampling and factoring read no
per-n state, so with a pool the calling thread builds that state while the
workers sample and factor.  The public experiment functions are
single-entry calls of `run_experiments`.

A sampled X whose entries are all real (the default mu = 1) is
eigendecomposed by LAPACK's real driver, and deloc's residual X V is a real
product; the eigenvalues and eigenvectors are complex128 either way.  The
error-matrix experiment forms no 2n x 2n test matrix: its block tests are
traced from D's four n x n block traces.

The `threads` argument sets how many tasks run at once; while they and the
per-n setups run, the OpenBLAS libraries bundled with numpy and scipy are
held at one thread each, so there is one level of parallelism and every
task does the same arithmetic whatever `threads` is.  Records are merged in
(n, zeta, eta, trial) lexicographic order, so thread counts never change
the output.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .bumps import TestFunction
from .dyson import EllipseRegion, EllipticParam, elliptic_density, solve_dyson_grid
from .ensemble import EllipticMatrix, EnsembleSpec, sample
from .quad2d import adaptive_quad2d
from .spectral import (
    BLOCK_TESTS,
    ResolventSolver,
    SelfEnergyData,
    SpectralDecomposition,
    decompose,
    default_probes,
    default_test_matrices,
    error_matrix_norms,
    hermitize,
    resolvent_trace,
    small_singular_count,
    smallest_singular_value,
)

EPSILON_EXPONENT = 0.1     # fixed stand-in for the paper's arbitrary epsilon
MEDIAN_CONSTANT = 10.0     # empirical constant cap for median-vs-envelope gates
EIGVEC_RESIDUAL_GATE = 1e-6
GIRKO_MAX_N = 256          # largest n the dense Girko quadrature accepts


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
    """An experiment's records, in ExperimentRecord.sort_key order, and summary."""

    name: str
    params: dict
    records: list
    summary: dict

    def __post_init__(self) -> None:
        self.records = sorted(self.records, key=ExperimentRecord.sort_key)

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


def _loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _median_by_n(records, n_values):
    return {n: float(np.median([r.observed for r in records if r.n == n]))
            for n in n_values}


def _median_slope(xs, medians, n_values) -> float:
    """Log-log slope of the per-n medians against xs, one x per n; nan for one n."""
    if len(n_values) < 2:
        return float("nan")
    return _loglog_slope(xs, [medians[n] for n in n_values])


def _grid_params(grid: ExperimentGrid) -> dict:
    return {
        "n_values": list(grid.n_values), "zeta": str(grid.zeta),
        "beta": grid.eta_rule.beta, "eta_coefficient": grid.eta_rule.coefficient,
        "trials": grid.trials, "delta": grid.delta, "seed": grid.seed,
        "rho": grid.rho, "mu": grid.mu, "base": grid.base,
    }


# -- trial contexts and the experiment registry ---------------------------------

def _real_if_real(a: np.ndarray) -> np.ndarray:
    """a as a contiguous float64 array when no entry has an imaginary part, else a."""
    return a if a.imag.any() else np.ascontiguousarray(a.real)


def _eig(a: np.ndarray, vectors: bool = True):
    """Eigenvalues of a sampled X, with its right eigenvectors when `vectors`.

    A real X goes through LAPACK's real driver, which costs less than half
    of the complex one.  Realness is judged by the entries, not the spec's
    mu, so a matrix loaded from a dump qualifies too.  The results are
    complex128 either way, the eigenvectors C-contiguous.
    """
    a = _real_if_real(a)
    if not vectors:
        return np.linalg.eigvals(a).astype(complex, copy=False)
    vals, vecs = np.linalg.eig(a)
    return vals.astype(complex, copy=False), np.ascontiguousarray(vecs, dtype=complex)


@dataclass
class TrialContext:
    """One sampled X at (n, trial) and its factorizations, each computed once.

    `eigenvalues` are X's, from `eig` (with `eigenvectors`) when an
    experiment needs the vectors and from `eigvals` otherwise; `dec` is the
    SVD of X - zeta, with vectors when an experiment needs them.  What no
    experiment needs stays None.
    """

    n: int
    trial: int
    zeta: complex
    eta: float
    x: EllipticMatrix
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    dec: SpectralDecomposition | None = None

    @classmethod
    def build(cls, grid: ExperimentGrid, n: int, trial: int, needs) -> "TrialContext":
        x = sample(grid.ensemble_spec(n), trial)
        ctx = cls(n=n, trial=trial, zeta=grid.zeta, eta=grid.eta_rule.eta(n), x=x)
        if "eig" in needs:
            ctx.eigenvalues, ctx.eigenvectors = _eig(x.entries)
        elif "eigvals" in needs:
            ctx.eigenvalues = _eig(x.entries, vectors=False)
        if needs & {"svd", "svdvals"}:
            ctx.dec = decompose(hermitize(x, grid.zeta), compute_vectors="svd" in needs)
        return ctx


class _Setting:
    """What the trials at one n share; the Dyson solution is solved on first use."""

    def __init__(self, grid: ExperimentGrid, n: int):
        self.grid, self.n = grid, n
        self.eta = grid.eta_rule.eta(n)
        self.spec = grid.ensemble_spec(n)

    @functools.cached_property
    def dyson(self) -> tuple:
        """(v, b) of the Dyson solution at (zeta, eta)."""
        v, b, _, _ = solve_dyson_grid(self.grid.zeta, self.eta, self.grid.rho)
        return float(v), complex(b)


@dataclass(frozen=True)
class Experiment:
    """A registry entry: one sample-based experiment in four parts.

    needs      what `observe` reads from a TrialContext: "eig", "eigvals",
               "svd" (of X - zeta, with vectors) or "svdvals";
    setup      (setting, **options) -> the state every trial at one n shares;
    observe    (ctx, state) -> the records of one trial;
    summarize  (records, grid, state) -> the experiment's result, with the
               state of the grid's first n.

    A `single_n` experiment runs on grids with one n only; a
    `first_trial_only` one observes trial 0 only.
    """

    needs: frozenset
    setup: Callable
    observe: Callable
    summarize: Callable
    single_n: bool = False
    first_trial_only: bool = False


def _local_law_observe(ctx, v):
    avg_g = resolvent_trace(ctx.dec, ctx.eta)
    observed = abs(avg_g - 1j * v)
    envelope = ctx.n ** EPSILON_EXPONENT / (ctx.n * ctx.eta)
    return [ExperimentRecord(
        experiment="averaged_local_law", n=ctx.n, trial=ctx.trial, zeta=ctx.zeta,
        eta=ctx.eta, observed=observed, envelope=envelope,
        passed=observed <= MEDIAN_CONSTANT * envelope,
        extras={"avg_g_re": avg_g.real, "avg_g_im": avg_g.imag, "v": v})]


def _local_law_summary(records, grid, _state):
    medians = _median_by_n(records, grid.n_values)
    neta = {n: n * grid.eta_rule.eta(n) for n in grid.n_values}
    median_gate = all(medians[n] <= MEDIAN_CONSTANT / neta[n] for n in grid.n_values)
    summary = {
        "median_by_n": {str(n): medians[n] for n in grid.n_values},
        "median_gate": median_gate,
        "slope_vs_neta": _median_slope([neta[n] for n in grid.n_values], medians,
                                       grid.n_values),
        "slope_vs_n": _median_slope(grid.n_values, medians, grid.n_values),
        "empirical_constant": max(medians[n] * neta[n] for n in grid.n_values),
        "record_pass_fraction": float(np.mean([r.passed for r in records])),
        "passed": median_gate,
    }
    return ExperimentReport("averaged_local_law", _grid_params(grid), records, summary)


def _iso_law_setup(setting, n_pairs=20):
    probes = [p for _, p in default_probes(2 * setting.n, seed=setting.grid.seed, k=2)]
    pairs = [(i, j) for i in range(len(probes)) for j in range(len(probes))
             if i <= j][:n_pairs]
    return setting.dyson, probes, pairs


def _iso_law_observe(ctx, state):
    (v, b), probes, pairs = state
    n, eta = ctx.n, ctx.eta
    m2 = np.array([[1j * v, np.conj(b)], [b, 1j * v]])
    solver = ResolventSolver(ctx.x.entries, ctx.zeta, eta)
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
    avg_op_err = max(abs(np.trace(c @ (ul - m2))) / 2.0 for c in BLOCK_TESTS.values())
    env_avg = n ** EPSILON_EXPONENT / (n * eta)
    consistent = avg_err <= 2.0 * worst + env_avg
    return [ExperimentRecord(
        experiment="isotropic_local_law", n=n, trial=ctx.trial, zeta=ctx.zeta,
        eta=eta, observed=float(worst), envelope=float(envelope),
        passed=worst <= MEDIAN_CONSTANT * envelope,
        extras={"avg_err": float(avg_err), "avg_op_err": float(avg_op_err),
                "env_avg": float(env_avg), "trace_consistent": bool(consistent)})]


def _iso_law_summary(records, grid, _state):
    frac = float(np.mean([r.passed for r in records]))
    summary = {
        "record_pass_fraction": frac,
        "trace_consistency_fraction": float(np.mean(
            [r.extras["trace_consistent"] for r in records])),
        "max_observed": max(r.observed for r in records),
        "passed": frac >= 0.95,
    }
    return ExperimentReport("isotropic_local_law", _grid_params(grid), records, summary)


def deloc_probes(n: int, seed: int):
    """e1, the uniform and alternating unit vectors, and four seeded random units."""
    e1 = np.zeros(n, dtype=complex); e1[0] = 1.0
    uni = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    alt = np.array([(-1.0) ** i for i in range(n)], dtype=complex) / np.sqrt(n)
    probes = [("e1", e1), ("uniform", uni), ("alternating", alt)]
    rng = np.random.default_rng(seed)
    for j in range(4):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        probes.append((f"rand{j}", g / np.linalg.norm(g)))
    return probes


def _deloc_setup(setting, w_probes=None):
    if w_probes is None:
        w_probes = deloc_probes(setting.n, seed=setting.spec.seed)
    norms = np.array([np.linalg.norm(w) for _, w in w_probes])
    return EllipseRegion(setting.grid.rho, setting.grid.delta), w_probes, norms


def _deloc_observe(ctx, state):
    region, w_probes, norms = state
    n, a = ctx.n, _real_if_real(ctx.x.entries)
    vals, vecs = ctx.eigenvalues, ctx.eigenvectors
    if np.isrealobj(a):
        # X vecs in real arithmetic: one real GEMM on the (re, im) interleaved columns
        xv = (a @ vecs.view(np.float64)).view(complex)
    else:
        xv = a @ vecs
    resid = np.linalg.norm(xv - vecs * vals, axis=0)
    defective = resid > EIGVEC_RESIDUAL_GATE
    bulk = np.asarray(region.contains(vals)) & ~defective
    overlaps = np.abs(np.stack([w for _, w in w_probes]).conj() @ vecs[:, bulk])
    envelope = float(np.sqrt(np.log(n)))
    out = []
    for idx, (label, _) in enumerate(w_probes):
        stat = float(np.sqrt(n) * overlaps[idx].max() / norms[idx]) if bulk.any() else 0.0
        out.append(ExperimentRecord(
            experiment="delocalisation", n=n, trial=ctx.trial, zeta=0.0,
            eta=0.0, observed=stat, envelope=envelope,
            passed=stat <= MEDIAN_CONSTANT * envelope,
            extras={"probe": label, "bulk_count": int(bulk.sum()),
                    "defective_count": int(defective.sum())}))
    return out


def _deloc_summary(records, grid, _state):
    n, delta = grid.n_values[0], grid.delta
    summary = {
        "max_stat": max(r.observed for r in records),
        "envelope": float(np.sqrt(np.log(n))),
        "delta": delta,
        "passed": all(r.passed for r in records),
    }
    params = {"n": n, "rho": grid.rho, "mu": grid.mu, "base": grid.base,
              "seed": grid.seed, "delta": delta, "trials": grid.trials}
    return ExperimentReport("delocalisation", params, records, summary)


def _linstats_setup(setting, tf):
    n, grid = setting.n, setting.grid
    tf.validate(n)
    rim = tf.center + tf.support_radius(n) * np.exp(1j * np.linspace(0, 2 * np.pi, 181))
    if not np.all(EllipseRegion(grid.rho, grid.delta).contains(rim)):
        raise ValueError("test function support leaves the bulk region")
    return tf, density_integral(tf, grid.rho, n)


def _linstats_observe(ctx, state):
    tf, integral = state
    n, l1 = ctx.n, tf.norm_delta_l1
    observed = abs(float(np.mean(np.real(tf.observable(ctx.eigenvalues, n)))) - integral)
    envelope = float(n) ** (-1.0 + 2.0 * tf.alpha + EPSILON_EXPONENT) * l1
    return [ExperimentRecord(
        experiment="linear_statistics", n=n, trial=ctx.trial, zeta=tf.center,
        eta=0.0, observed=observed, envelope=envelope,
        passed=observed <= MEDIAN_CONSTANT * envelope,
        extras={"integral": integral, "alpha": tf.alpha, "l1_delta": l1})]


def _linstats_summary(records, grid, state):
    tf = state[0]
    l1 = tf.norm_delta_l1
    medians = _median_by_n(records, grid.n_values)
    slope = _median_slope(grid.n_values, medians, grid.n_values)
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


def _ssv_setup(setting):
    """The dyadic scan n^{-0.9} * 2^k <= 1."""
    etas = []
    eta = float(setting.n) ** (-0.9)
    while eta <= 1.0:
        etas.append(eta)
        eta *= 2.0
    return etas


def _ssv_observe(ctx, etas):
    ratios = [small_singular_count(ctx.dec, e) / (ctx.n * e) for e in etas]
    worst = max(ratios)
    return [ExperimentRecord(
        experiment="small_singular_scan", n=ctx.n, trial=ctx.trial, zeta=ctx.zeta,
        eta=etas[0], observed=worst, envelope=20.0, passed=worst <= 20.0,
        extras={"sigma_min": smallest_singular_value(ctx.dec),
                "ratios": [float(r) for r in ratios],
                "etas": [float(e) for e in etas]})]


def _ssv_summary(records, grid, _state):
    summary = {
        "max_ratio": max(r.observed for r in records),
        "min_sigma_min": min(r.extras["sigma_min"] for r in records),
        "passed": all(r.passed for r in records),
    }
    return ExperimentReport("small_singular_scan", _grid_params(grid), records, summary)


def _error_matrix_setup(setting):
    # the probes and test matrices are seeded, so every trial at one n shares them
    n2 = 2 * setting.n
    return (SelfEnergyData.from_spec(setting.spec), default_probes(n2, k=8),
            default_test_matrices(n2))


def _error_matrix_observe(ctx, state):
    se, probes, tests = state
    n, eta, dec = ctx.n, ctx.eta, ctx.dec
    iso, avg = error_matrix_norms(ctx.x, dec, eta, se, probes=probes, test_matrices=tests)
    im_g = float(np.imag(resolvent_trace(dec, eta)))
    scale_avg = n ** EPSILON_EXPONENT * im_g / (n * eta)
    scale_iso = n ** EPSILON_EXPONENT * np.sqrt(im_g / (n * eta))
    ok = (avg <= MEDIAN_CONSTANT * scale_avg) and (iso <= MEDIAN_CONSTANT * scale_iso)
    return [ExperimentRecord(
        experiment="error_matrix", n=n, trial=ctx.trial, zeta=ctx.zeta, eta=eta,
        observed=float(avg), envelope=float(scale_avg), passed=bool(ok),
        extras={"iso": float(iso), "iso_envelope": float(scale_iso), "im_g": im_g})]


def _error_matrix_summary(records, grid, _state):
    frac = float(np.mean([r.passed for r in records]))
    summary = {
        "record_pass_fraction": frac,
        "passed": frac >= 0.95,
    }
    return ExperimentReport("error_matrix", _grid_params(grid), records, summary)


EXPERIMENTS = {
    "local-law": Experiment(frozenset({"svdvals"}), lambda setting: setting.dyson[0],
                            _local_law_observe, _local_law_summary),
    "iso-law": Experiment(frozenset(), _iso_law_setup, _iso_law_observe, _iso_law_summary),
    "ssv-scan": Experiment(frozenset({"svdvals"}), _ssv_setup, _ssv_observe, _ssv_summary),
    "deloc": Experiment(frozenset({"eig"}), _deloc_setup, _deloc_observe, _deloc_summary,
                        single_n=True),
    "linstats": Experiment(frozenset({"eigvals"}), _linstats_setup, _linstats_observe,
                           _linstats_summary),
    "error-matrix": Experiment(frozenset({"svd"}), _error_matrix_setup,
                               _error_matrix_observe, _error_matrix_summary),
    # one DensityMap of trial 0, which is its own summary
    "density": Experiment(frozenset({"eigvals"}), lambda setting: setting.spec,
                          lambda ctx, spec: [_density_from_eigenvalues(ctx.eigenvalues, spec)],
                          lambda maps, grid, spec: maps[0],
                          single_n=True, first_trial_only=True),
}


def run_experiments(grid: ExperimentGrid, requests: dict, threads: int = 1) -> dict:
    """Run registry experiments on shared trial contexts in one pool.

    `requests` maps `EXPERIMENTS` names to the options of each one's
    setup.  Each (n, trial) task samples X once, factors it once for the
    union of the needs of the experiments observing that trial, and passes
    the context to each of them.  With `threads` >= 2 the tasks go to the
    pool first, and the calling thread runs the per-n setups while the
    workers sample and factor; a task waits for its n's setup only before
    its first `observe`.  With `threads` = 1 every setup runs before any
    trial.  A setup that raises raises from this call once the tasks not
    yet started are cancelled and those waiting for a setup released, so
    no trial starts after the failure.  Everything, setups and summaries
    included, runs on single-threaded BLAS.  Returns each experiment's
    result (a report; a DensityMap for "density") by name.
    """
    chosen = {name: EXPERIMENTS[name] for name in requests}
    single = [name for name, exp in chosen.items() if exp.single_n]
    if single and len(grid.n_values) > 1:
        raise ValueError(f"{', '.join(single)}: takes one n value, got "
                         f"{len(grid.n_values)} in grid.n_values")
    settings = {n: _Setting(grid, n) for n in grid.n_values}
    # each n's setup result, {name: state}, which tasks wait for after sampling
    states = {n: Future() for n in settings}

    def setup_all():
        for n, setting in settings.items():
            states[n].set_result({name: exp.setup(setting, **requests[name])
                                  for name, exp in chosen.items()})

    def observers(trial):
        return [name for name, exp in chosen.items()
                if trial == 0 or not exp.first_trial_only]

    def run(key):
        n, trial = key
        names = observers(trial)
        needs = frozenset().union(*(chosen[name].needs for name in names))
        ctx = TrialContext.build(grid, n, trial, needs)
        state = states[n].result()
        return [(name, rec) for name in names
                for rec in chosen[name].observe(ctx, state[name])]

    tasks = [(n, t) for n in grid.n_values for t in range(grid.trials) if observers(t)]
    # threads == 1 is pinned too: a multithreaded BLAS may round differently,
    # and records must not depend on `threads`
    with _SINGLE_THREADED_BLAS:
        if threads <= 1:
            setup_all()
            batches = [run(key) for key in tasks]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                pending = [pool.submit(run, key) for key in tasks]
                try:
                    setup_all()
                    batches = [task.result() for task in pending]
                finally:
                    # after a failure: first drop the tasks not started, then
                    # release those waiting for a setup, so none starts anew
                    for f in [*pending, *states.values()]:
                        f.cancel()
        observed = [pair for batch in batches for pair in batch]
        first = states[grid.n_values[0]].result()
        return {name: exp.summarize([rec for key, rec in observed if key == name], grid,
                                    first[name])
                for name, exp in chosen.items()}


def averaged_local_law(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """|<G> - i v| against n^eps/(n eta) across the (n, trial) grid."""
    return run_experiments(grid, {"local-law": {}}, threads)["local-law"]


def isotropic_local_law(grid: ExperimentGrid, n_pairs: int = 20,
                        threads: int = 1) -> ExperimentReport:
    """max over probe pairs of |<x, (G - M) y>| against n^eps/sqrt(n eta)."""
    return run_experiments(grid, {"iso-law": {"n_pairs": n_pairs}}, threads)["iso-law"]


def delocalisation_test(spec: EnsembleSpec, delta: float = 0.2, w_probes=None,
                        trials: int = 10, threads: int = 1) -> ExperimentReport:
    """sqrt(n) * max bulk eigenvector overlap per probe, against 10 sqrt(log n)."""
    # deloc reads neither zeta nor eta; zeta = 0 lies in every bulk region
    grid = ExperimentGrid(n_values=(spec.n,), zeta=0j, eta_rule=EtaRule(0.5),
                          trials=trials, delta=delta, seed=spec.seed, rho=spec.rho,
                          mu=spec.mu, base=spec.base)
    return run_experiments(grid, {"deloc": {"w_probes": w_probes}}, threads)["deloc"]


def density_integral(tf: TestFunction, rho: float, n: int) -> float:
    """int f_{zeta0,alpha} sigma_rho by adaptive quadrature over the support, to 1e-8."""
    param = EllipticParam(rho)
    r = tf.support_radius(n)
    c = tf.center
    box = (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def integrand(pts):
        vals = tf.observable(pts, n)
        return np.real(vals) * elliptic_density(pts, param)

    val, _ = adaptive_quad2d(integrand, box, tol=1e-8)
    return float(val)


def linear_statistics(grid: ExperimentGrid, tf: TestFunction,
                      threads: int = 1) -> ExperimentReport:
    """Mesoscopic linear eigenvalue statistics against n^{-1+2a+eps} ||Delta f||_1."""
    return run_experiments(grid, {"linstats": {"tf": tf}}, threads)["linstats"]


def small_singular_scan(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """Dyadic eta scan of #\\{|lambda_i| <= eta\\}/(n eta), plus sigma_min records."""
    return run_experiments(grid, {"ssv-scan": {}}, threads)["ssv-scan"]


def error_matrix_experiment(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """Isotropic/averaged error-matrix norms against their predicted scalings."""
    return run_experiments(grid, {"error-matrix": {}}, threads)["error-matrix"]


# radius of the disk around each eigenvalue where Girko's log pole is patched
_EXCLUSION_RADIUS = 1e-4

# complex entries of the Hyman working array (1 MB): nodes go through the
# recurrence in blocks of _HYMAN_ENTRIES // n, whatever n is
_HYMAN_ENTRIES = 65536


def _hessenberg_blocks(a) -> list:
    """Irreducible diagonal blocks of the upper Hessenberg form of a.

    X = Q H Q^H with Q unitary, so det(X - zeta) = det(H - zeta), and H is
    block upper triangular wherever a subdiagonal entry is exactly zero:
    the determinant is the product of those of its diagonal blocks.
    """
    # imported here: the Girko check is the only user of scipy.linalg
    from scipy.linalg import hessenberg

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


def girko_consistency(x, tf: TestFunction, quad_tol: float = 1e-4) -> float:
    """|linear statistic - Girko log-determinant integral| for n <= 256.

    The left side sums f over spec X; the right side integrates
    Delta f * log|det H_zeta| / (4 pi n), with log|det(X - zeta)| at each
    node from one Hessenberg reduction X = Q H Q^H, done once, and Hyman's
    method on each irreducible block of H in O(n^2) per node.  So the right
    side shares its first step, the Hessenberg reduction, with LAPACK's
    `eigvals` on the left; the tests keep `slogdet` (LU) as an independent
    oracle for the determinants.  A log-singularity exclusion of radius
    1e-4 around each eigenvalue is patched analytically.
    Where a block's residual is exactly 0 at a node (X - zeta singular),
    the node's value is the sum of the logs of the singular values of
    X - zeta, the zero ones floored at 1e-300.
    """
    a = x.entries if isinstance(x, EllipticMatrix) else np.asarray(x, dtype=complex)
    n = a.shape[0]
    if n > GIRKO_MAX_N:
        raise ValueError(
            f"girko_consistency is a dense-quadrature check; need n <= {GIRKO_MAX_N}")
    eigs = np.linalg.eigvals(a)
    lhs = float(np.mean(np.real(tf.f(eigs))))

    r0 = _EXCLUSION_RADIUS
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


def _density_from_eigenvalues(eigs, spec: EnsembleSpec,
                              grid_resolution: int = 101) -> DensityMap:
    """The histogram grid spans the ellipse's bounding box plus a 0.3 margin."""
    region = EllipseRegion(spec.rho)
    ax, ay = region.semi_axes
    xs = np.linspace(-ax - 0.3, ax + 0.3, grid_resolution + 1)
    ys = np.linspace(-ay - 0.3, ay + 0.3, grid_resolution + 1)
    hist, _, _ = np.histogram2d(eigs.real, eigs.imag, bins=[xs, ys])
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    hist = hist / (spec.n * cell)
    xc = 0.5 * (xs[:-1] + xs[1:])
    yc = 0.5 * (ys[:-1] + ys[1:])
    grid_pts = xc[:, None] + 1j * yc[None, :]
    sigma = elliptic_density(grid_pts, EllipticParam(spec.rho))
    mass_inside = float(np.mean(region.contains(eigs)))
    return DensityMap(x_centers=xc, y_centers=yc, histogram=hist, sigma=sigma,
                      mass_inside=mass_inside, n=spec.n)


def density_map(spec: EnsembleSpec, grid_resolution: int = 101) -> DensityMap:
    """Eigenvalue histogram of trial 0 against the ellipse density."""
    eigs = _eig(sample(spec, 0).entries, vectors=False)
    return _density_from_eigenvalues(eigs, spec, grid_resolution)


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
