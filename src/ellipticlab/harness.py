"""Desk-scale experiments probing the local-law predictions.

Each experiment samples matrices from a seeded ensemble, measures an
observable against its theoretical envelope, and returns an
ExperimentReport whose records are reproducible functions of
(grid, seed, indices).

The sample-based experiments are the entries of one registry,
`EXPERIMENTS`.  An entry declares up front what it reads of a sampled X
(X itself, `eig`, `eigvals`, the singular values of X - zeta, the one-eta
resolvent G), builds what the trials at one n share (the Dyson solution, probes, test
matrices, density integrals) once per n as a function of (grid, n,
options), turns one `TrialContext` into records, and summarizes its
records.  The spectral scale is eta = n^{-beta}, and iso-law reads 20 fixed
probe pairs; neither is configurable.  `run_experiments` runs any set of
entries over one pool of (n, trial) tasks; each samples X and factors it
once, in `TrialContext.build`, for the union of the needs (`eig` covers
`eigvals`), every entry reads that context, and each n x n array is dropped
after its last reader.  G at the trial's (zeta, eta) has one engine, the
context's `ResolventSolver`, which the local laws and the error matrix
read; no task computes singular vectors.  Sampling and factoring read no
per-n state, so the calling thread builds that state while the workers
sample and factor.  Every public experiment function, `density_map`
included, is a single-entry call of `run_experiments`.

A sampled X whose entries are all real (the default mu = 1) is
eigendecomposed by LAPACK's real driver, and deloc's residual X V is a real
product; the eigenvalues and eigenvectors are complex128 either way.  The
error-matrix experiment forms no 2n x 2n matrix in a trial: it reads D one
n x n block at a time, traces its block tests from D's four block traces,
and shares the seeded random test matrices, drawn once per size, across
the trials.

The `threads` argument (at least 1) is the size of the one pool the tasks
run in; while they and the per-n setups run, the OpenBLAS bundled with
numpy, the only BLAS they call, is held at one thread
(`spectral.SINGLE_THREADED_BLAS`), so there is one level of parallelism
and every task does the same arithmetic whatever `threads` is.  Records
are merged in (n, zeta, eta, trial) lexicographic order, so thread counts
never change the output.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bumps import TestFunction
from .dyson import EllipseRegion, EllipticParam, elliptic_density, solve_dyson_grid
from .ensemble import EllipticMatrix, EnsembleSpec, sample
from .quad2d import adaptive_quad2d
from .spectral import (
    BLOCK_TESTS,
    SINGLE_THREADED_BLAS,
    ResolventSolver,
    SelfEnergyData,
    SpectralDecomposition,
    decompose,
    default_probes,
    default_test_matrices,
    error_matrix_norms,
    hermitize,
    hessenberg,
    probe_family,
    small_singular_count,
    smallest_singular_value,
)

EPSILON_EXPONENT = 0.1     # fixed stand-in for the paper's arbitrary epsilon
MEDIAN_CONSTANT = 10.0     # empirical constant cap for median-vs-envelope gates
EIGVEC_RESIDUAL_GATE = 1e-6
GIRKO_MAX_N = 256          # largest n the dense Girko quadrature accepts


@dataclass(frozen=True)
class ExperimentGrid:
    """Bulk experiment grid: dimensions, spectral point, scale eta = n^{-beta}, trials."""

    n_values: tuple
    zeta: complex
    beta: float
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
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        # EnsembleSpec checks each n and the law's parameters
        if len({self.ensemble_spec(n) for n in self.n_values}) < len(self.n_values):
            raise ValueError(f"n_values must not repeat, got {list(self.n_values)}")
        if not EllipseRegion(self.rho, self.delta).contains(self.zeta):
            raise ValueError(
                f"zeta={self.zeta} is outside the bulk region E_(rho={self.rho}, delta={self.delta})")

    def eta(self, n: int) -> float:
        return float(n) ** (-self.beta)

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


def _median_by_n(records, n_values):
    return {n: float(np.median([r.observed for r in records if r.n == n]))
            for n in n_values}


def _median_slope(xs, medians, n_values) -> float:
    """Log-log slope of the per-n medians against xs, one x per n; nan for one n."""
    if len(n_values) < 2:
        return float("nan")
    ys = [medians[n] for n in n_values]
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(ys), 1)[0])


def _grid_params(grid: ExperimentGrid) -> dict:
    return {
        "n_values": list(grid.n_values), "zeta": str(grid.zeta), "beta": grid.beta,
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
    experiment needs the vectors and from `eigvals` otherwise; `dec` holds
    the singular values of X - zeta; `solver` applies and traces G at
    (zeta, eta) from A = X - zeta and one n x n inverse, and forms G's
    other two arrays on their first read.  What no experiment needs stays
    None, and `release` drops each n x n array after its last reader: a trial
    of the six pooled experiments peaks at about 7 n x n complex matrices."""

    n: int
    trial: int
    zeta: complex
    eta: float
    x: EllipticMatrix | None
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    dec: SpectralDecomposition | None = None
    solver: ResolventSolver | None = None

    @classmethod
    def build(cls, grid: ExperimentGrid, n: int, trial: int, needs) -> "TrialContext":
        x = sample(grid.ensemble_spec(n), trial)
        ctx = cls(n=n, trial=trial, zeta=grid.zeta, eta=grid.eta(n), x=x)
        if "eig" in needs:
            ctx.eigenvalues, ctx.eigenvectors = _eig(x.entries)
        elif "eigvals" in needs:
            ctx.eigenvalues = _eig(x.entries, vectors=False)
        if "svdvals" in needs:
            ctx.dec = decompose(hermitize(x, grid.zeta), compute_vectors=False)
        if "resolvent" in needs:
            ctx.solver = ResolventSolver(x.entries, grid.zeta, ctx.eta)
        return ctx

    def release(self, needs) -> None:
        """Drop the n x n arrays that no experiment in `needs` reads."""
        for need, name in (("x", "x"), ("eig", "eigenvectors"), ("resolvent", "solver")):
            if need not in needs:
                setattr(self, name, None)


@dataclass(frozen=True)
class Experiment:
    """A registry entry: one sample-based experiment in four parts.

    needs      what `observe` reads from a TrialContext besides n, trial,
               zeta and eta: "x" (the sample), "eig", "eigvals", "svdvals"
               (of X - zeta), "resolvent" (the solver at the trial's zeta
               and eta) or "arrays" (the solver's three arrays for G);
    setup      (grid, n, **options) -> the state every trial at n shares;
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


def _dyson(grid: ExperimentGrid, n: int) -> tuple:
    """(v, b) of the Dyson solution at the grid's zeta and eta at n."""
    v, b, _, _ = solve_dyson_grid(grid.zeta, grid.eta(n), grid.rho)
    return float(v), complex(b)


def _local_law_observe(ctx, v):
    avg_g = ctx.solver.avg_trace()
    observed = abs(avg_g - 1j * v)
    envelope = ctx.n ** EPSILON_EXPONENT / (ctx.n * ctx.eta)
    return [ExperimentRecord(
        experiment="averaged_local_law", n=ctx.n, trial=ctx.trial, zeta=ctx.zeta,
        eta=ctx.eta, observed=observed, envelope=envelope,
        passed=observed <= MEDIAN_CONSTANT * envelope,
        extras={"avg_g_re": avg_g.real, "avg_g_im": avg_g.imag, "v": v})]


def _local_law_summary(records, grid, _state):
    medians = _median_by_n(records, grid.n_values)
    neta = {n: n * grid.eta(n) for n in grid.n_values}
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


# iso-law's probe pairs: the first 20 of the 21 pairs (i <= j) of its six
# probes, in row-major order
_ISO_PAIRS = tuple(index[:20] for index in np.triu_indices(6))


def _iso_law_setup(grid, n):
    # the probes are the columns of one 2n x 6 block
    probes = np.stack([p for _, p in default_probes(2 * n, seed=grid.seed, k=2)], axis=1)
    return _dyson(grid, n), probes


def _iso_law_observe(ctx, state):
    (v, b), probes = state
    n, eta, solver = ctx.n, ctx.eta, ctx.solver
    m2 = np.array([[1j * v, np.conj(b)], [b, 1j * v]])
    ph = probes.conj().T        # <x, G y> and <x, (m2 (x) I) y> for all probes x, y
    cross = ph[:, :n] @ probes[n:]
    pgp = ph @ solver.apply(probes)
    pmp = 1j * v * (ph @ probes) + np.conj(b) * cross + b * cross.conj().T
    worst = float(np.abs(pgp - pmp)[_ISO_PAIRS].max())
    envelope = n ** EPSILON_EXPONENT / np.sqrt(n * eta)
    ul = solver.partial_traces()
    avg_err = abs(solver.avg_trace() - 1j * v)
    avg_op_err = max(abs(np.trace(c @ (ul - m2))) / 2.0 for c in BLOCK_TESTS.values())
    env_avg = n ** EPSILON_EXPONENT / (n * eta)
    consistent = avg_err <= 2.0 * worst + env_avg
    return [ExperimentRecord(
        experiment="isotropic_local_law", n=n, trial=ctx.trial, zeta=ctx.zeta,
        eta=eta, observed=worst, envelope=float(envelope),
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


def _deloc_setup(grid, n):
    # e1, the uniform and alternating unit vectors, and four seeded random
    # units, as the rows of one conjugated matrix
    labels, probes = zip(*probe_family(n, (("e1", 0),), "rand", 4, grid.seed))
    return EllipseRegion(grid.rho, grid.delta), labels, np.stack(probes).conj()


def _deloc_observe(ctx, state):
    region, labels, probes_conj = state
    n, a = ctx.n, _real_if_real(ctx.x.entries)
    vals, vecs = ctx.eigenvalues, ctx.eigenvectors
    if np.isrealobj(a):
        # X vecs in real arithmetic: one real GEMM on the (re, im) interleaved columns
        xv = (a @ vecs.view(np.float64)).view(complex)
    else:
        xv = a @ vecs
    xv -= vecs * vals
    resid = np.linalg.norm(xv, axis=0)
    defective = resid > EIGVEC_RESIDUAL_GATE
    bulk = np.asarray(region.contains(vals)) & ~defective
    overlaps = np.abs(probes_conj @ vecs[:, bulk])
    envelope = float(np.sqrt(np.log(n)))
    out = []
    for label, row in zip(labels, overlaps):
        stat = float(np.sqrt(n) * row.max()) if bulk.any() else 0.0
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


def _linstats_setup(grid, n, tf):
    tf.validate(n)
    if not EllipseRegion(grid.rho, grid.delta).contains_disk(tf.center, tf.support_radius(n)):
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


def _ssv_setup(grid, n):
    """The dyadic scan n^{-0.9} * 2^k <= 1."""
    etas = []
    eta = float(n) ** (-0.9)
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


def _error_matrix_setup(grid, n):
    # the probes and test matrices are seeded, so every trial at one n shares them
    return (SelfEnergyData.from_spec(grid.ensemble_spec(n)), default_probes(2 * n, k=8),
            default_test_matrices(2 * n))


def _error_matrix_observe(ctx, state):
    se, probes, tests = state
    n, eta = ctx.n, ctx.eta
    iso, avg = error_matrix_norms(ctx.solver, se, probes, tests)
    im_g = ctx.solver.avg_trace().imag
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
    "local-law": Experiment(frozenset({"resolvent"}), lambda grid, n: _dyson(grid, n)[0],
                            _local_law_observe, _local_law_summary),
    "iso-law": Experiment(frozenset({"resolvent"}), _iso_law_setup, _iso_law_observe,
                          _iso_law_summary),
    "ssv-scan": Experiment(frozenset({"svdvals"}), _ssv_setup, _ssv_observe, _ssv_summary),
    "deloc": Experiment(frozenset({"x", "eig"}), _deloc_setup, _deloc_observe, _deloc_summary,
                        single_n=True),
    "linstats": Experiment(frozenset({"eigvals"}), _linstats_setup, _linstats_observe,
                           _linstats_summary),
    "error-matrix": Experiment(frozenset({"resolvent", "arrays"}), _error_matrix_setup,
                               _error_matrix_observe, _error_matrix_summary),
    # one DensityMap of trial 0, which is its own summary
    "density": Experiment(frozenset({"x", "eigvals"}),
                          lambda grid, n, grid_resolution=101: grid_resolution,
                          lambda ctx, resolution: [_density_from_eigenvalues(
                              ctx.eigenvalues, ctx.x.spec, resolution)],
                          lambda maps, grid, state: maps[0],
                          single_n=True, first_trial_only=True),
}


def run_experiments(grid: ExperimentGrid, requests: dict, threads: int = 1) -> dict:
    """Run registry experiments on shared trial contexts in one pool.

    `requests` maps `EXPERIMENTS` names to the options of each one's
    setup.  Each (n, trial) task samples X once, factors it once for the
    union of the needs of the experiments observing that trial, and passes
    the context to each of them.  The tasks go to a pool of `threads` >= 1
    workers first, and the calling thread runs the per-n setups while the
    workers sample and factor; a task waits for its n's setup only before
    its first `observe`.  A setup that raises raises from this call once
    the tasks not yet started are cancelled and those waiting for a setup
    released, so no trial starts after the failure.  Everything, setups and
    summaries included, runs on single-threaded BLAS.  Returns each
    experiment's result (a report; a DensityMap for "density") by name.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    chosen = {name: EXPERIMENTS[name] for name in requests}
    single = [name for name, exp in chosen.items() if exp.single_n]
    if single and len(grid.n_values) > 1:
        raise ValueError(f"{', '.join(single)}: takes one n value, got "
                         f"{len(grid.n_values)} in grid.n_values")
    # each n's setup result, {name: state}, which tasks wait for after sampling
    states = {n: Future() for n in grid.n_values}

    def observers(trial):
        return [name for name, exp in chosen.items()
                if trial == 0 or not exp.first_trial_only]

    def run(key):
        n, trial = key
        names = observers(trial)
        needs = frozenset().union(*(chosen[name].needs for name in names))
        ctx = TrialContext.build(grid, n, trial, needs)
        if "arrays" in chosen[names[0]].needs:
            # read first thing: formed before the wait for the setup, off the critical path
            ctx.solver.arrays
        state = states[n].result()
        out = []
        for k, name in enumerate(names):
            out += [(name, rec) for rec in chosen[name].observe(ctx, state[name])]
            ctx.release(frozenset().union(*(chosen[later].needs for later in names[k + 1:])))
        return out

    tasks = [(n, t) for n in grid.n_values for t in range(grid.trials) if observers(t)]
    # a multithreaded BLAS may round differently, and records must not depend
    # on `threads`
    with SINGLE_THREADED_BLAS, ThreadPoolExecutor(max_workers=threads) as pool:
        pending = [pool.submit(run, key) for key in tasks]
        try:
            for n, future in states.items():
                future.set_result({name: exp.setup(grid, n, **requests[name])
                                   for name, exp in chosen.items()})
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


def _spec_grid(spec: EnsembleSpec, trials: int = 1, delta: float = 0.0) -> ExperimentGrid:
    # deloc and density read neither zeta nor eta; zeta = 0 lies in every bulk region
    return ExperimentGrid(n_values=(spec.n,), zeta=0j, beta=0.5,
                          trials=trials, delta=delta, seed=spec.seed, rho=spec.rho,
                          mu=spec.mu, base=spec.base)


def averaged_local_law(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """|<G> - i v| against n^eps/(n eta) across the (n, trial) grid."""
    return run_experiments(grid, {"local-law": {}}, threads)["local-law"]


def isotropic_local_law(grid: ExperimentGrid, threads: int = 1) -> ExperimentReport:
    """max over 20 probe pairs of |<x, (G - M) y>| against n^eps/sqrt(n eta)."""
    return run_experiments(grid, {"iso-law": {}}, threads)["iso-law"]


def delocalisation_test(spec: EnsembleSpec, delta: float = 0.2, trials: int = 10,
                        threads: int = 1) -> ExperimentReport:
    """sqrt(n) * max bulk eigenvector overlap per probe, against 10 sqrt(log n)."""
    grid = _spec_grid(spec, trials, delta)
    return run_experiments(grid, {"deloc": {}}, threads)["deloc"]


def density_integral(tf: TestFunction, rho: float, n: int) -> float:
    """int f_{zeta0,alpha} sigma_rho = sigma_rho int f_{zeta0,alpha} by `tf.support_rule`,
    exact for the polynomial bump; ValueError if the support leaves the ellipse."""
    if not EllipseRegion(rho).contains_disk(tf.center, tf.support_radius(n)):
        raise ValueError("test function support leaves the ellipse")
    nodes, weights = tf.support_rule(n)
    sigma = elliptic_density(tf.center, EllipticParam(rho))
    return sigma * float(weights @ np.real(tf.observable(nodes, n)))


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

# bound on the growth of the Hyman iterate between two rescalings: far below
# the float64 overflow (1.8e308), so no row's matvec can overflow
_HYMAN_GROWTH = 1e150


class _HymanBlock:
    """An irreducible upper Hessenberg block h with the per-row scalars of
    Hyman's recurrence on it, computed once per block."""

    def __init__(self, h):
        k = h.shape[0]
        sub = np.diagonal(h, -1)                    # h_{i,i-1}, i = 1..k-1
        self.h = h
        # x_{i-1} = rows[i-1] @ x[i:] + (zeta / h_{i,i-1}) x_i
        self.rows = [(-h[i, i:] / sub[i - 1]).astype(complex) for i in range(1, k)]
        self.inv_sub = 1.0 / sub
        self.abs_sub = np.abs(sub)
        self.log_sub = np.log(self.abs_sub).tolist()
        # ||h_{i,i:}||_1, and the whole first row for the residual
        self.norm1 = np.array([np.abs(h[0]).sum()]
                              + [np.abs(h[i, i:]).sum() for i in range(1, k)])

    def __len__(self) -> int:
        return self.h.shape[0]


def _hessenberg_blocks(a) -> list:
    """Irreducible diagonal blocks of the upper Hessenberg form of a.

    X = Q H Q^H with Q unitary, so det(X - zeta) = det(H - zeta), and H is
    block upper triangular wherever a subdiagonal entry is exactly zero:
    the determinant is the product of those of its diagonal blocks.  H is
    `spectral.hessenberg`'s: LAPACK `zgehrd` on numpy's bundled OpenBLAS,
    so the Girko check loads no scipy.
    """
    h = hessenberg(a)
    cuts = [0, *(np.flatnonzero(np.diagonal(h, -1) == 0) + 1), h.shape[0]]
    return [_HymanBlock(h[lo:hi, lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _rescale(x, log_scale):
    """Divide each node's column of x by its largest |entry|; return the new log scale."""
    top = np.abs(x).max(axis=0)
    x /= top
    return log_scale + np.log(top)


def _hyman_log_abs_det(block: _HymanBlock, zeta, work) -> np.ndarray:
    """log|det(h - zeta)| at each node zeta for an irreducible Hessenberg block.

    Hyman's method: with x_k = 1, the rows k, ..., 2 of (h - zeta) x = c e_1
    give x_{k-1}, ..., x_1 by back-substitution up the subdiagonal, and
    |det(h - zeta)| = |c| prod_i |h_{i+1,i}|.  O(k^2) per node, nodes on
    the last axis.  Row i multiplies max|x| by at most its growth bound
    g_i = (||h_{i,i:}||_1 + max|zeta|) / |h_{i,i-1}| (at least 1), so x is
    rescaled, each node's column to a largest entry of 1 with the log of
    the scale kept, only when the running product of the g_i since the last
    rescaling would pass 1e150, and again before the residual if it would.
    A row whose own g_i passes 1e150 takes a guarded step instead: x is
    scaled by |h_{i,i-1}| / d, d = max(|s|, |h_{i,i-1}|), so that every
    entry stays <= 1, and log d replaces log|h_{i,i-1}| in the sum.
    Where c is exactly 0 (h - zeta singular) the value is -inf.  `work` is
    a complex buffer of at least k * zeta.size entries.
    """
    k, m = len(block), zeta.size
    x = work[:k * m].reshape(k, m)
    x[k - 1] = 1.0
    zmax = float(np.abs(zeta).max(initial=0.0))
    growth = np.maximum((block.norm1[1:] + zmax) / block.abs_sub, 1.0).tolist()
    zeta_sub = np.multiply.outer(block.inv_sub, zeta)   # zeta / h_{i,i-1}
    log_scale = 0.0        # per node: rescalings and guarded steps
    log_sub = 0.0          # log|h_{i,i-1}| of the unguarded rows
    bound = 1.0            # bound on max|x| since the last rescaling
    for i in range(k - 1, 0, -1):
        g = growth[i - 1]
        if bound * g > _HYMAN_GROWTH and bound > 1.0:
            log_scale = _rescale(x[i:], log_scale)
            bound = 1.0
        if g > _HYMAN_GROWTH:
            s = block.h[i, i:] @ x[i:]
            s -= zeta * x[i]
            h = block.h[i, i - 1]
            d = np.maximum(np.abs(s), abs(h))
            x[i:] *= abs(h) / d
            x[i - 1] = s * (-abs(h) / h) / d
            log_scale = log_scale + np.log(d)
        else:
            np.matmul(block.rows[i - 1], x[i:], out=x[i - 1])
            term = zeta_sub[i - 1]
            term *= x[i]
            x[i - 1] += term
            log_sub += block.log_sub[i - 1]
            bound *= g
    if bound * (block.norm1[0] + zmax) > _HYMAN_GROWTH and bound > 1.0:
        log_scale = _rescale(x, log_scale)
    c = block.h[0] @ x
    c -= zeta * x[0]
    with np.errstate(divide="ignore"):
        return np.log(np.abs(c)) + log_scale + log_sub


def girko_consistency(x, tf: TestFunction, quad_tol: float = 1e-4) -> float:
    """|linear statistic - Girko log-determinant integral| for n <= 256.

    The left side sums f over spec X; the right side integrates
    Delta f * log|det H_zeta| / (4 pi n), with log|det(X - zeta)| at each
    node from one Hessenberg reduction X = Q H Q^H, done once (LAPACK
    `zgehrd` on numpy's bundled OpenBLAS, so no scipy is loaded), and
    Hyman's method on each irreducible block of H in O(n^2) per node.  So
    the right side shares its first step, the Hessenberg reduction, with
    LAPACK's `eigvals` on the left, read through `_eig` as for every sampled
    X (`dgeev` for a real X); the tests keep `slogdet` (LU) as an
    independent oracle for the determinants.  Only the nodes where Delta f
    is nonzero go to the determinant: elsewhere (off the bump's support,
    such as the box's corners) the value is exactly 0, as 0 times any
    finite log|det|.  A log-singularity exclusion of radius 1e-4 around
    each eigenvalue is patched analytically.
    Where a block's residual is exactly 0 at a node (X - zeta singular),
    the node's value is the sum of the logs of the singular values of
    X - zeta, the zero ones floored at 1e-300.  A non-finite entry of X
    raises ValueError before any eigenvalue or quadrature call.  One
    `SINGLE_THREADED_BLAS` pin holds from the eigenvalues through the
    reduction and the quadrature: above n = 128 LAPACK's blocked paths
    round differently on more threads, so the discrepancy would otherwise
    depend on the OpenBLAS thread count.
    """
    a = x.entries if isinstance(x, EllipticMatrix) else np.asarray(x, dtype=complex)
    n = a.shape[0]
    if n > GIRKO_MAX_N:
        raise ValueError(
            f"girko_consistency is a dense-quadrature check; need n <= {GIRKO_MAX_N}")
    if not np.isfinite(a).all():
        raise ValueError("girko_consistency needs a finite X")
    # one pin for the whole check (see above); the per-node matvecs are small,
    # so multithreaded BLAS would only add overhead there anyway
    with SINGLE_THREADED_BLAS:
        eigs = _eig(a, vectors=False)
        lhs = float(np.mean(np.real(tf.f(eigs))))

        r0 = _EXCLUSION_RADIUS
        diag = np.arange(n)
        blocks = _hessenberg_blocks(a)
        chunk = max(1, _HYMAN_ENTRIES // n)
        work = np.empty(n * chunk, dtype=complex)

        def integrand(pts):
            lap = np.real(tf.laplacian(pts))
            # off the bump's support Delta f is exactly 0, and so is the value
            support = np.flatnonzero(lap)
            out = np.zeros(pts.size)
            for start in range(0, support.size, chunk):
                at = support[start:start + chunk]
                nodes = pts[at]
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
                out[at] = logdet
            return lap * out / (2.0 * np.pi * n)

        c, r = tf.center, tf.radius
        box = (c.real - r, c.real + r, c.imag - r, c.imag + r)
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
    so the true mean lies within it with probability >= 1 - delta; it takes
    m >= 2 points.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2 for a sample deviation, got {m}")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    pts = region.sample_uniform(rng, m)
    vals = np.asarray(f(pts))
    est = complex(np.mean(vals))
    var = float(np.sum(np.abs(vals - est) ** 2) / (m - 1))
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


def _density_from_eigenvalues(eigs, spec: EnsembleSpec, grid_resolution: int) -> DensityMap:
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
    request = {"density": {"grid_resolution": grid_resolution}}
    return run_experiments(_spec_grid(spec), request)["density"]


def dump_eigenvalues(fh, decompositions) -> None:
    """CSV rows (trial, zeta_re, zeta_im, index, lambda) of (trial, decomposition)
    pairs, written to the open text file fh after the header if fh is at its start."""
    if fh.tell() == 0:
        fh.write("trial,zeta_re,zeta_im,index,lambda\n")
    for trial, dec in decompositions:
        for idx, lam in enumerate(dec.eigenvalues):
            fh.write(f"{trial},{float(dec.zeta.real)!r},{float(dec.zeta.imag)!r},"
                     f"{idx},{float(lam)!r}\n")


def dump_functionals(fh, rows) -> None:
    """JSONL lines of rows (trial, zeta, eta, block traces, [(label, <x, G y>)],
    log|det H|), written to the open text file fh."""
    for trial, zeta, eta, traces, iso, log_det in rows:
        rec = {
            "trial": trial,
            "zeta_re": zeta.real, "zeta_im": zeta.imag, "eta": eta,
            "avg_trace_re": traces[0, 0].real,
            "avg_trace_im": traces[0, 0].imag,
            "partial_traces": [[t.real, t.imag] for t in traces.ravel()],
            "iso_probes": [[label, val.real, val.imag] for label, val in iso],
            "log_det": log_det,
        }
        fh.write(json.dumps(rec) + "\n")
