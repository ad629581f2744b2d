"""Experiment harness: determinism, envelopes, Girko identity, Monte Carlo."""

import contextlib
import ctypes
import dataclasses
import json
import threading
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.stats

from ellipticlab import (
    EllipseRegion,
    EllipticMatrix,
    EnsembleSpec,
    ExperimentGrid,
    averaged_local_law,
    delocalisation_test,
    density_map,
    error_matrix_experiment,
    girko_consistency,
    isotropic_local_law,
    linear_statistics,
    monte_carlo_estimate,
    sample,
    small_singular_scan,
    solve_dyson_grid,
)
from ellipticlab import TestFunction as Bump
from ellipticlab import harness, spectral
from ellipticlab.harness import dump_eigenvalues, dump_functionals
from ellipticlab.spectral import (
    BLOCK_TESTS,
    decompose,
    default_probes,
    default_test_matrices,
    error_matrix_norms,
    hermitize,
    log_abs_det,
    partial_trace,
)
from ellipticlab.quad2d import adaptive_quad2d
from ellipticlab import elliptic_density, EllipticParam


def small_grid(n_values=(64, 128), trials=3, seed=1, beta=0.75):
    return ExperimentGrid(n_values=n_values, zeta=0.3 + 0.2j,
                          beta=beta, trials=trials,
                          delta=0.1, seed=seed, rho=0.5)


def dense_resolvent(grid, n, trial):
    """G = (H - i eta)^{-1} of trial's X from the explicit 2n x 2n Hermitization."""
    a = sample(grid.ensemble_spec(n), trial).entries - grid.zeta * np.eye(n)
    zero = np.zeros((n, n))
    h = np.block([[zero, a], [a.conj().T, zero]])
    return np.linalg.inv(h - 1j * grid.eta(n) * np.eye(2 * n))


class TestGridValidation:
    def test_bulk_membership_enforced(self):
        with pytest.raises(ValueError):
            ExperimentGrid(n_values=(64,), zeta=1.6 + 0.0j, beta=0.75,
                           trials=1, delta=0.1, seed=0, rho=0.5)

    def test_beta_range(self):
        for beta in (1.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match="beta must lie in"):
                small_grid(beta=beta)
        assert small_grid(beta=0.75).eta(256) == pytest.approx(256 ** -0.75)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_grid(trials=0)

    @pytest.mark.parametrize("n_values", [(0,), (16, 0), (-4,), (16, 10 ** 6)])
    def test_n_values_within_the_ensemble_bounds(self, n_values):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            small_grid(n_values=n_values)

    @pytest.mark.parametrize("n_values", [(16, 16), (16, 32, 16)])
    def test_n_values_do_not_repeat(self, n_values):
        with pytest.raises(ValueError, match="n_values must not repeat"):
            small_grid(n_values=n_values)


# the experiments that run their trials through the pool, called as the CLI calls them
POOLED_EXPERIMENTS = {
    "local-law": lambda grid, threads: averaged_local_law(grid, threads=threads),
    "iso-law": lambda grid, threads: isotropic_local_law(grid, threads=threads),
    "ssv-scan": lambda grid, threads: small_singular_scan(grid, threads=threads),
    "deloc": lambda grid, threads: delocalisation_test(
        grid.ensemble_spec(grid.n_values[0]), delta=grid.delta, trials=grid.trials,
        threads=threads),
    "linstats": lambda grid, threads: linear_statistics(
        grid, Bump(center=grid.zeta, alpha=0.25), threads=threads),
    "error-matrix": lambda grid, threads: error_matrix_experiment(grid, threads=threads),
}


class TestThreads:
    @pytest.mark.parametrize("experiment", sorted(POOLED_EXPERIMENTS))
    def test_thread_count_does_not_change_records(self, experiment):
        run = POOLED_EXPERIMENTS[experiment]
        grid = small_grid(n_values=(256,), trials=2)
        a = run(grid, 1)
        b = run(grid, 2)
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]

    def test_thread_count_does_not_change_shared_contexts(self):
        # all six pooled experiments in one run_experiments call share each trial
        grid = small_grid(n_values=(256,), trials=2)
        requests = {"local-law": {}, "iso-law": {}, "ssv-scan": {},
                    "deloc": {},
                    "linstats": {"tf": Bump(center=grid.zeta, alpha=0.25)},
                    "error-matrix": {}}
        a = harness.run_experiments(grid, requests, threads=1)
        b = harness.run_experiments(grid, requests, threads=2)
        assert sorted(a) == sorted(b) == sorted(requests)
        for name in requests:
            assert [r.to_dict() for r in a[name].records] == \
                [r.to_dict() for r in b[name].records]

    @staticmethod
    def _wrap_setup(monkeypatch, name, wrap):
        """Replace registry entry `name`'s setup by wrap(its setup)."""
        exp = harness.EXPERIMENTS[name]
        monkeypatch.setitem(harness.EXPERIMENTS, name,
                            dataclasses.replace(exp, setup=wrap(exp.setup)))

    @staticmethod
    def _wrap_build(monkeypatch, before):
        """Call before(n, trial) ahead of every TrialContext.build."""
        build = harness.TrialContext.build

        def wrapped(grid, n, trial, needs):
            before(n, trial)
            return build(grid, n, trial, needs)
        monkeypatch.setattr(harness.TrialContext, "build", wrapped)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tasks_run_on_single_threaded_blas(self, blas, threads, monkeypatch):
        before = blas()
        seen = []
        self._wrap_build(monkeypatch, lambda n, trial: seen.append(blas()))
        harness.run_experiments(small_grid(n_values=(32,), trials=4), {"local-law": {}},
                                threads)
        assert seen == [1] * 4
        assert blas() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_threads_restored_after_a_task_raises(self, blas, threads, monkeypatch):
        before = blas()

        def fail(n, trial):
            raise RuntimeError("trial failed")

        self._wrap_build(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="trial failed"):
            harness.run_experiments(small_grid(n_values=(32,), trials=4), {"local-law": {}},
                                    threads)
        assert blas() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_setups_run_on_single_threaded_blas(self, blas, threads, monkeypatch):
        before = blas()
        seen = []

        def recording(setup):
            def wrapped(grid, n):
                seen.append(blas())
                return setup(grid, n)
            return wrapped

        self._wrap_setup(monkeypatch, "error-matrix", recording)
        harness.run_experiments(small_grid(n_values=(32, 48), trials=2),
                                {"error-matrix": {}}, threads)
        assert seen == [1] * 2
        assert blas() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failing_setup_stops_the_pool(self, blas, threads, monkeypatch):
        before_blas = blas()
        before_threads = threading.active_count()
        error = RuntimeError("setup failed")
        builds, waited = [], []
        building = threading.Event()

        def counting(n, trial):
            builds.append(trial)
            if len(builds) >= threads:
                building.set()

        def failing(setup):
            def wrapped(grid, n):
                # fail once every worker has a context, so that the rest must be cancelled
                waited.append(building.wait(timeout=60))
                raise error
            return wrapped

        self._wrap_build(monkeypatch, counting)
        self._wrap_setup(monkeypatch, "local-law", failing)
        with pytest.raises(RuntimeError) as info:
            harness.run_experiments(small_grid(n_values=(64,), trials=6), {"local-law": {}},
                                    threads)
        assert info.value is error
        assert waited == [True]
        assert len(builds) <= threads
        assert threading.active_count() == before_threads
        assert blas() == before_blas

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_raise_before_any_sample(self, threads, monkeypatch):
        sampled = []
        monkeypatch.setattr(harness, "sample", lambda spec, trial=0: sampled.append(trial))
        with pytest.raises(ValueError, match="threads"):
            harness.run_experiments(small_grid(n_values=(32,), trials=2),
                                    {"local-law": {}}, threads)
        assert sampled == []

    def test_overlapped_setups_do_not_change_records(self, monkeypatch):
        grid = small_grid(n_values=(64,), trials=4)
        # alpha = 0.4 keeps the bump's support inside the bulk at n = 64
        requests = {"local-law": {}, "iso-law": {}, "ssv-scan": {}, "deloc": {},
                    "linstats": {"tf": Bump(center=grid.zeta, alpha=0.4)},
                    "error-matrix": {}}
        runs = [harness.run_experiments(grid, requests, threads) for threads in (1, 2)]
        # once more at threads = 2, with every setup done before any task starts
        setups_left = [len(requests)]
        setups_done = threading.Event()

        def counted(setup):
            def wrapped(grid, n, **options):
                state = setup(grid, n, **options)
                setups_left[0] -= 1
                if setups_left[0] == 0:
                    setups_done.set()
                return state
            return wrapped

        def wait_for_setups(n, trial):
            assert setups_done.wait(timeout=60)

        for name in requests:
            self._wrap_setup(monkeypatch, name, counted)
        self._wrap_build(monkeypatch, wait_for_setups)
        runs.append(harness.run_experiments(grid, requests, threads=2))
        for name in requests:
            reports = [run[name] for run in runs]
            # as JSON text: a one-n summary holds NaN slopes
            outputs = [json.dumps([rep.summary, [r.to_dict() for r in rep.records]])
                       for rep in reports]
            assert outputs[0] == outputs[1] == outputs[2]


class TestTrialMemory:
    def test_a_pooled_trial_peaks_under_eight_matrices(self):
        # one trial of the six pooled experiments at n = 128, in units of one
        # n x n complex matrix as tracemalloc counts numpy's buffers: each n x n
        # array is dropped after its last reader, and the error matrix holds A,
        # W, G12, W~ and two buffers; the setups' shared state adds about 0.4
        n = 128
        grid = small_grid(n_values=(n,), trials=1)
        requests = {"local-law": {}, "iso-law": {}, "ssv-scan": {}, "deloc": {},
                    "linstats": {"tf": Bump(center=grid.zeta, alpha=0.4)},
                    "error-matrix": {}}
        # a first run loads what the experiments import and draws the test
        # matrices, which every trial at n shares
        harness.run_experiments(grid, requests)
        tracemalloc.start()
        try:
            harness.run_experiments(grid, requests, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.0 * 16 * n ** 2


class TestAveragedLaw:
    def test_small_run(self):
        rep = averaged_local_law(small_grid())
        assert len(rep.records) == 6
        assert rep.summary["median_gate"]
        assert all(r.observed >= 0 for r in rep.records)
        assert rep.passed

    def test_bit_identical_reruns(self):
        a = averaged_local_law(small_grid())
        b = averaged_local_law(small_grid())
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]

    def test_eta_sweep_envelope_monotone(self):
        # at fixed n both the envelope and the observed median decrease in eta
        medians, envs = [], []
        for beta in (0.85, 0.6, 0.35):
            grid = small_grid(n_values=(256,), trials=6, beta=beta)
            rep = averaged_local_law(grid)
            medians.append(rep.summary["median_by_n"]["256"])
            envs.append(rep.records[0].envelope)
        assert envs[0] > envs[1] > envs[2]
        # observed medians within factor 4 of monotone along increasing eta
        running_min = np.minimum.accumulate(medians)
        assert np.all(np.array(medians) <= 4.0 * running_min + 1e-12)

    def test_optimal_rate_on_every_mesoscopic_scale(self):
        # the paper's rate 1/(n eta) on all scales eta = n^-beta, beta < 1:
        # n eta times the median error is flat in beta (about 0.14 here,
        # while n eta runs from 84 down to 1.06), each beta within three of
        # its own trials' standard errors of the median over beta
        n, trials = 256, 10
        scaled, errors = [], []
        for beta in (0.2, 0.4, 0.6, 0.75, 0.9, 0.99):
            grid = ExperimentGrid(n_values=(n,), zeta=0.3 + 0.2j, beta=beta,
                                  trials=trials, delta=0.1, seed=1, rho=0.5)
            x = n * grid.eta(n) * np.array(
                [r.observed for r in averaged_local_law(grid, threads=2).records])
            scaled.append(np.median(x))
            # the standard error of a median, sqrt(pi / 2) sd / sqrt(trials)
            errors.append(1.2533 * x.std(ddof=1) / np.sqrt(trials))
        centre = np.median(scaled)
        assert np.all(np.abs(np.array(scaled) - centre) <= 3.0 * np.array(errors)), \
            (scaled, errors)

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_observed_matches_dense_inverse(self, n):
        # |<G> - i v|, with <G> from a dense inverse of the 2n x 2n
        # Hermitization and v from the Dyson solver
        grid = small_grid(n_values=(n,), trials=2, seed=5)
        v = float(solve_dyson_grid(grid.zeta, grid.eta(n), grid.rho)[0])
        report = averaged_local_law(grid)
        assert [r.trial for r in report.records] == [0, 1]
        for rec in report.records:
            want = abs(np.trace(dense_resolvent(grid, n, rec.trial)) / (2 * n) - 1j * v)
            assert rec.observed == pytest.approx(want, rel=1e-10, abs=1e-14)
            assert rec.extras["v"] == v

    def test_rho_zero_circular_case(self):
        grid = ExperimentGrid(n_values=(128,), zeta=0.2 + 0.1j,
                              beta=0.75, trials=3, delta=0.1,
                              seed=2, rho=0.0)
        assert averaged_local_law(grid).passed


class TestIsotropicLaw:
    def test_small_run(self):
        rep = isotropic_local_law(small_grid())
        assert rep.passed
        assert rep.summary["record_pass_fraction"] == 1.0
        assert rep.summary["trace_consistency_fraction"] == 1.0

    def test_n_pairs_is_not_an_option(self):
        # iso-law reads 20 fixed probe pairs; a request for another count fails
        # loudly instead of being ignored
        with pytest.raises(TypeError, match="n_pairs"):
            harness.run_experiments(small_grid(n_values=(16,), trials=1),
                                    {"iso-law": {"n_pairs": 20}})

    def test_records_have_avg_norm_extras(self):
        rep = isotropic_local_law(small_grid(n_values=(64,), trials=2))
        for r in rep.records:
            assert "avg_op_err" in r.extras
            assert r.extras["avg_op_err"] <= 10 * r.extras["env_avg"]

    def test_deterministic(self):
        a = isotropic_local_law(small_grid(n_values=(64,), trials=2))
        b = isotropic_local_law(small_grid(n_values=(64,), trials=2), threads=2)
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_values_match_dense_inverse(self, n):
        # <x, (G - M) y> over the same 20 probe pairs, <G> and the block
        # traces, from a dense inverse of the 2n x 2n Hermitization
        grid = small_grid(n_values=(n,), trials=2, seed=5)
        eta = grid.eta(n)
        v, b, _, _ = solve_dyson_grid(grid.zeta, eta, grid.rho)
        v, b = float(v), complex(b)
        m2 = np.array([[1j * v, np.conj(b)], [b, 1j * v]])
        probes = np.stack([p for _, p in default_probes(2 * n, seed=grid.seed, k=2)], axis=1)
        pairs = [(i, j) for i in range(6) for j in range(6) if i <= j][:20]
        report = isotropic_local_law(grid)
        assert [r.trial for r in report.records] == [0, 1]
        for rec in report.records:
            g = dense_resolvent(grid, n, rec.trial)
            d = probes.conj().T @ (g - np.kron(m2, np.eye(n))) @ probes
            blocks = np.array([[np.trace(g[:n, :n]), np.trace(g[:n, n:])],
                               [np.trace(g[n:, :n]), np.trace(g[n:, n:])]]) / n
            want = {
                "observed": max(abs(d[i, j]) for i, j in pairs),
                "avg_err": abs(np.trace(g) / (2 * n) - 1j * v),
                "avg_op_err": max(abs(np.trace(c @ (blocks - m2))) / 2.0
                                  for c in BLOCK_TESTS.values()),
            }
            got = {"observed": rec.observed, "avg_err": rec.extras["avg_err"],
                   "avg_op_err": rec.extras["avg_op_err"]}
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-10, abs=0), (n, key)

    def test_isotropic_rate_on_every_mesoscopic_scale(self):
        # the isotropic rate 1/sqrt(n eta) on all scales eta = n^-beta, beta < 1:
        # sqrt(n eta) times the median of iso-law's worst probe pair (about
        # 1.1 to 1.4 here) and of the error matrix's iso norm (about 1.5) is
        # flat in beta, while sqrt(n eta) runs from 9.2 down to 1.03; each beta
        # within three of its own trials' standard errors of the median over
        # beta.  D's averaged norm is left out: n eta times it rises at beta = 0.2
        n, trials = 256, 10
        reads = {"iso-law": lambda r: r.observed, "error-matrix": lambda r: r.extras["iso"]}
        scaled, errors = {name: [] for name in reads}, {name: [] for name in reads}
        for beta in (0.2, 0.4, 0.6, 0.75, 0.9, 0.99):
            grid = ExperimentGrid(n_values=(n,), zeta=0.3 + 0.2j, beta=beta,
                                  trials=trials, delta=0.1, seed=1, rho=0.5)
            reports = harness.run_experiments(grid, {name: {} for name in reads}, threads=2)
            for name, read in reads.items():
                x = np.sqrt(n * grid.eta(n)) * np.array([read(r) for r in reports[name].records])
                scaled[name].append(np.median(x))
                # the standard error of a median, sqrt(pi / 2) sd / sqrt(trials)
                errors[name].append(1.2533 * x.std(ddof=1) / np.sqrt(trials))
        for name in reads:
            centre = np.median(scaled[name])
            assert np.all(np.abs(np.array(scaled[name]) - centre)
                          <= 3.0 * np.array(errors[name])), (name, scaled[name], errors[name])


class TestDelocalisation:
    def test_small_run(self):
        spec = EnsembleSpec(n=128, rho=0.5, seed=3)
        rep = delocalisation_test(spec, delta=0.2, trials=2)
        assert rep.passed
        labels = {r.extras["probe"] for r in rep.records}
        assert {"e1", "uniform", "alternating"} <= labels
        assert all(r.extras["bulk_count"] > 0 for r in rep.records)

    def test_observed_from_known_eigenvectors(self, monkeypatch):
        # a real diagonal X with distinct entries has the coordinate vectors as
        # eigenvectors, with x_00 = 0.05 in the bulk: the e1 statistic is
        # sqrt(n), the uniform and alternating ones 1, a random probe's sqrt(n)
        # times its largest entry over the bulk coordinates
        n, rho, delta = 32, 0.5, 0.2
        diag = np.concatenate([[0.05], np.linspace(-2.0, 2.0, n - 1)])
        spec = EnsembleSpec(n=n, rho=rho, seed=4)
        monkeypatch.setattr(harness, "sample", lambda spec, trial: EllipticMatrix(
            entries=np.diag(diag).astype(complex), spec=spec))
        inside = np.asarray(EllipseRegion(rho, delta).contains(diag))
        assert inside[0] and 0 < inside.sum() < n
        rep = delocalisation_test(spec, delta=delta, trials=1)
        got = {r.extras["probe"]: r for r in rep.records}
        want = {"e1": np.sqrt(n), "uniform": 1.0, "alternating": 1.0}
        _, labels, probes_conj = harness._deloc_setup(harness._spec_grid(spec), n)
        for label, w in zip(labels, probes_conj.conj()):
            if label.startswith("rand"):
                want[label] = np.sqrt(n) * np.abs(w[inside]).max()
        assert got.keys() == want.keys()
        for label, stat in want.items():
            assert got[label].observed == pytest.approx(stat, rel=1e-12, abs=0), label
            assert got[label].extras["defective_count"] == 0
            assert got[label].extras["bulk_count"] == inside.sum()

    def test_rho_zero_same_envelope(self):
        spec = EnsembleSpec(n=128, rho=0.0, seed=5)
        assert delocalisation_test(spec, trials=2).passed


class TestRealEigensolver:
    """A real X goes through LAPACK's real driver; a complex one is left as it was."""

    @staticmethod
    def match(vals, ref):
        """Indices into ref of the eigenvalues nearest to vals, checked one-to-one."""
        dist = np.abs(vals[:, None] - ref[None, :])
        idx = np.argmin(dist, axis=1)
        assert sorted(idx) == list(range(ref.size))
        return idx, float(dist[np.arange(vals.size), idx].max())

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_real_driver_matches_complex_driver(self, n, monkeypatch):
        x = sample(EnsembleSpec(n=n, rho=0.5, seed=21)).entries
        ref_vals, ref_vecs = np.linalg.eig(x)      # complex driver: x is complex128
        ref_eigvals = np.linalg.eigvals(x)
        seen = []

        def recording(fn):
            def wrapper(a):
                seen.append(a.dtype)
                return fn(a)
            return wrapper

        monkeypatch.setattr(np.linalg, "eig", recording(np.linalg.eig))
        monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals))
        vals, vecs = harness._eig(x)
        eigvals = harness._eig(x, vectors=False)
        assert seen == [np.float64, np.float64]
        # complex128 outputs, also at n = 1 where numpy returns float arrays
        assert vals.dtype == vecs.dtype == eigvals.dtype == np.complex128
        assert vecs.flags.c_contiguous
        idx, gap = self.match(vals, ref_vals)
        assert gap <= 1e-12
        assert self.match(eigvals, ref_eigvals)[1] <= 1e-12
        # unit eigenvectors agree up to a phase per column
        assert np.abs(np.abs(vecs) - np.abs(ref_vecs[:, idx])).max() <= 1e-10

    @pytest.mark.parametrize("needs", ["eig", "eigvals"])
    def test_eigenvalue_scale(self, needs):
        # the elliptic law has mean |lambda|^2 = (1 + rho^2) / 2; one draw at
        # n = 256 reads it to about 0.005, so a 2% scale error (0.025) shows
        grid = small_grid(n_values=(256,), trials=1)
        for trial in (0, 1):
            ctx = harness.TrialContext.build(grid, 256, trial, {needs})
            assert abs(np.mean(np.abs(ctx.eigenvalues) ** 2) - 0.625) <= 0.02

    def test_complex_sample_keeps_complex_driver(self, monkeypatch):
        grid = ExperimentGrid(n_values=(128,), zeta=0.0, beta=0.75, trials=2,
                              delta=0.1, seed=22, rho=0.5, mu=0.5)
        x = sample(grid.ensemble_spec(128)).entries
        vals, vecs = harness._eig(x)
        ref_vals, ref_vecs = np.linalg.eig(x)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
        assert np.array_equal(harness._eig(x, vectors=False), np.linalg.eigvals(x))

        def run():
            return harness.run_experiments(
                grid, {"deloc": {}, "linstats": {"tf": Bump(center=0.0, alpha=0.25)}})

        got = run()
        # the eigensolver calls as they were before the real path existed
        monkeypatch.setattr(harness, "_eig", lambda a, vectors=True:
                            np.linalg.eig(a) if vectors else np.linalg.eigvals(a))
        want = run()
        for name in got:
            assert ([r.to_dict() for r in got[name].records]
                    == [r.to_dict() for r in want[name].records]), name

    def test_real_deloc_matches_complex_arithmetic(self, monkeypatch):
        spec = EnsembleSpec(n=128, rho=0.5, seed=23)
        got = delocalisation_test(spec, delta=0.1, trials=2)
        # no matrix counts as real: eig and X vecs in complex arithmetic
        monkeypatch.setattr(harness, "_real_if_real", lambda a: a)
        want = delocalisation_test(spec, delta=0.1, trials=2)
        for g, w in zip(got.records, want.records):
            assert g.extras == w.extras
            assert g.observed == pytest.approx(w.observed, rel=1e-12, abs=0)

    @pytest.mark.parametrize("mu", [1.0, 0.5])
    def test_density_map_equals_config_density(self, mu):
        grid = ExperimentGrid(n_values=(64,), zeta=0.0, beta=0.75, trials=2,
                              delta=0.1, seed=24, rho=0.5, mu=mu)
        pooled = harness.run_experiments(grid, {"density": {}})["density"]
        alone = density_map(grid.ensemble_spec(64))
        assert np.array_equal(pooled.histogram, alone.histogram)
        assert pooled.mass_inside == alone.mass_inside


class TestRealEigenvalueCount:
    """The expected number of real eigenvalues of the sampled ensemble at
    mu = 1, n = 64, over 200 draws (seed 3), held to a band of 4 standard
    errors of the sample mean around the oracle."""

    N, DRAWS = 64, 200

    def counts(self, rho) -> np.ndarray:
        """Eigenvalues with |Im| < 1e-9 through `_eig`, per draw; the real
        driver returns real eigenvalues with imaginary part exactly 0."""
        spec = EnsembleSpec(n=self.N, rho=rho, seed=3)
        out = []
        for trial in range(self.DRAWS):
            imag = harness._eig(sample(spec, trial).entries, vectors=False).imag
            out.append(np.count_nonzero(np.abs(imag) < 1e-9))
            assert out[-1] == np.count_nonzero(imag == 0)
        return np.array(out)

    @staticmethod
    def half_width(counts) -> float:
        return 4.0 * counts.std(ddof=1) / np.sqrt(counts.size)

    def test_real_ginibre_exact(self):
        # rho = 0 is real Ginibre: E N_R = 1/2 + sqrt(2) 2F1(1, -1/2; n; 1/2) / B(n, 1/2)
        # (Edelman-Kostlan-Shub, J. AMS 7 (1994)); 6.846 at n = 64
        n = self.N
        exact = float(0.5 + mp.sqrt(2) * mp.hyp2f1(1, -0.5, n, 0.5) / mp.beta(n, 0.5))
        counts = self.counts(0.0)
        assert abs(counts.mean() - exact) <= self.half_width(counts)

    def test_partly_symmetric_leading_order(self):
        # E N_R ~ sqrt(2n (1+tau) / (pi (1-tau))) + 1/2 with tau = rho
        # (Forrester-Nagao 2008); the sampler's diagonal variance is 1/n, not
        # (1+tau)/n, so only the leading order carries over: allow 0.5 at
        # n = 64 beyond the sampling band (seeds 1, 2, 3, 7 read 11.03 to
        # 11.57 against 11.56)
        tau, n = 0.5, self.N
        leading = np.sqrt(2 * n * (1 + tau) / (np.pi * (1 - tau))) + 0.5
        counts = self.counts(tau)
        band = self.half_width(counts) + 0.5
        assert abs(counts.mean() - leading) <= band
        # the sign of rho matters: rho = -0.5 has about 4.2 real eigenvalues
        assert abs(self.counts(-tau).mean() - leading) > band


class TestLinearStatistics:
    def test_small_run_and_slope(self):
        grid = ExperimentGrid(n_values=(64, 128, 256), zeta=0.0 + 0.0j,
                              beta=0.75, trials=4, delta=0.1,
                              seed=1, rho=0.5)
        tf = Bump(center=0.0, alpha=0.25)
        rep = linear_statistics(grid, tf)
        assert rep.summary["envelope_gate"]
        assert rep.summary["slope_vs_n"] < 0.0

    def test_support_leaving_bulk_rejected(self):
        grid = ExperimentGrid(n_values=(64,), zeta=0.3 + 0.2j,
                              beta=0.75, trials=1, delta=0.1,
                              seed=1, rho=0.5)
        tf = Bump(center=0.3 + 0.2j, alpha=0.25)  # radius 0.35 at n=64
        with pytest.raises(ValueError):
            linear_statistics(grid, tf)

    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_observed_from_known_eigenvalues(self, k, monkeypatch):
        # k eigenvalues at the bump's centre and the rest far off its support:
        # the statistic is k n^{2 alpha} / n, and the unit-radius polynomial
        # bump integrates against the density to (pi / 4) / (pi (1 - rho^2))
        n, center, rho = 256, 0.3 + 0.2j, 0.5
        grid = ExperimentGrid(n_values=(n,), zeta=center, beta=0.75,
                              trials=2, delta=0.1, seed=1, rho=rho)
        eigenvalues = np.full(n, 5.0 + 0.0j)
        eigenvalues[:k] = center
        monkeypatch.setattr(harness, "_eig", lambda a, vectors=True: eigenvalues.copy())
        rep = linear_statistics(grid, Bump(center=center, alpha=0.25))
        want = abs(k * n ** 0.5 / n - 1.0 / (4.0 * (1.0 - rho ** 2)))
        assert len(rep.records) == 2
        for rec in rep.records:
            assert rec.observed == pytest.approx(want, rel=0, abs=1e-7)

    @staticmethod
    def quad2d_oracle(tf, rho, n):
        """int f_{zeta0,alpha} sigma_rho by 2-D adaptive quadrature over the support box."""
        param, r, c = EllipticParam(rho), tf.support_radius(n), tf.center
        val, _ = adaptive_quad2d(
            lambda pts: np.real(tf.observable(pts, n)) * elliptic_density(pts, param),
            (c.real - r, c.real + r, c.imag - r, c.imag + r), tol=1e-8)
        return val

    @pytest.mark.parametrize("kind", ["polynomial-bump", "gaussian-bump"])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.7])
    def test_density_integral_matches_quadrature(self, kind, alpha, rho):
        for center in (0.0j, 0.05 + 0.1j, -0.03 - 0.2j):
            tf = Bump(kind=kind, center=center, radius=0.4, alpha=alpha)
            got = harness.density_integral(tf, rho, 256)
            assert got == pytest.approx(self.quad2d_oracle(tf, rho, 256), rel=0, abs=1e-8)

    @pytest.mark.parametrize("rho, alpha, center, radius", [
        *[(rho, alpha, 0.02 - 0.01j, 0.25) for rho in (0.0, 0.5, -0.7)
          for alpha in (0.0, 0.25, 0.4)],
        (0.5, 0.25, 0.3 + 0.2j, 1.0)])      # the battery's setting: 1/3
    def test_density_integral_polynomial_closed_form(self, rho, alpha, center, radius):
        # sigma_rho * pi radius^2 / 4, whatever alpha is
        tf = Bump(center=center, radius=radius, alpha=alpha)
        want = radius ** 2 / (4.0 * (1.0 - rho ** 2))
        assert harness.density_integral(tf, rho, 256) == pytest.approx(want, rel=0, abs=1e-14)

    @pytest.mark.parametrize("center, n", [(0.3 + 0.2j, 64), (1.4 + 0.0j, 256)])
    def test_density_integral_rejects_support_leaving_ellipse(self, center, n):
        # support radius 64^-1/4 = 0.35 crosses Im z = 0.5; 1.4 + 0.25 passes 1.5
        with pytest.raises(ValueError, match="leaves the ellipse"):
            harness.density_integral(Bump(center=center, alpha=0.25), 0.5, n)

    def test_setup_runs_no_2d_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("linstats reached a 2-D quadrature")
        monkeypatch.setattr(harness, "adaptive_quad2d", no_quad)
        rep = linear_statistics(small_grid(n_values=(64,), trials=1),
                                Bump(center=0.3 + 0.2j, alpha=0.4))
        assert rep.records[0].extras["integral"] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_zero_function(self):
        grid = small_grid(n_values=(64,), trials=1)
        tf = Bump(center=grid.zeta, alpha=0.4)

        class Zero(Bump):
            def observable(self, zeta, n):
                return np.zeros(np.asarray(zeta).shape)
        ztf = Zero(center=grid.zeta, alpha=0.4)
        rep = linear_statistics(grid, ztf)
        assert all(r.observed < 1e-12 for r in rep.records)
        del tf


class TestGirko:
    def test_one_by_one_analytic(self):
        tf = Bump(center=0.0, radius=0.8)
        disc = girko_consistency(np.zeros((1, 1), dtype=complex), tf,
                                 quad_tol=1e-6)
        assert disc <= 1e-4

    def test_random_sixteen(self):
        mat = sample(EnsembleSpec(n=16, rho=0.5, seed=6))
        tf = Bump(center=0.0, radius=0.6)
        assert girko_consistency(mat, tf, quad_tol=1e-5) <= 1e-3

    def test_support_away_from_spectrum(self):
        # log|det H_zeta| is harmonic there, so the integral nearly vanishes
        mat = sample(EnsembleSpec(n=8, rho=0.0, seed=7))
        tf = Bump(center=5.0 + 0.0j, radius=0.5)
        assert girko_consistency(mat, tf, quad_tol=1e-6) <= 1e-4

    def test_eigenvalues_on_quadrature_nodes(self):
        # A - zeta is exactly singular at the nodes 0, 0.3 and -0.3i; the
        # value pins the floored-singular-value log-determinant there
        mat = np.diag([0.0, 0.3, -0.3j, 0.15 + 0.15j])
        disc = girko_consistency(mat, Bump(center=0.0, radius=0.6), quad_tol=1e-4)
        assert disc == pytest.approx(2.7234700399e-05, abs=1e-10)

    def test_mesoscopic_bump_at_n_256(self):
        mat = sample(EnsembleSpec(n=256, rho=0.5, seed=6))
        disc = girko_consistency(mat, Bump(center=0.0, radius=0.3), quad_tol=1e-4)
        assert disc <= 1e-3

    @pytest.mark.parametrize("trial, expected", [
        (0, 2.2026610576611483e-05), (1, 1.4019517355211286e-04),
        (2, 1.3605304690811337e-04), (4, 1.9161024965860807e-04),
        (6, 3.651813741545329e-05), (8, 3.225444510570469e-04)])
    def test_catalogue_discrepancies_pinned(self, trial, expected):
        # criterion 13's seed 6 at quad_tol 2e-4; the values the per-node
        # LU (slogdet) route gave
        mat = sample(EnsembleSpec(n=16, rho=0.5, seed=6), trial)
        disc = girko_consistency(mat, Bump(center=0.0, radius=0.6), quad_tol=2e-4)
        assert disc == pytest.approx(expected, abs=1e-12)

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            girko_consistency(np.zeros((512, 512)), Bump(), 1e-4)

    def test_discrepancy_independent_of_blas_threads(self, blas):
        # above n = 128 LAPACK's eigenvalue and Hessenberg paths are blocked,
        # and their GEMMs round differently on 2 threads: one pin holds the
        # whole check at one thread, whatever count the caller left
        lib = spectral._openblas()
        mat = sample(EnsembleSpec(n=256, rho=0.5, seed=1))
        tf = Bump(center=0.0, radius=0.3)
        disc = {}
        for threads in (2, 1):
            lib.scipy_openblas_set_num_threads64_(threads)
            disc[threads] = girko_consistency(mat, tf, quad_tol=1e-4)
            assert blas() == threads
        assert disc[1] == disc[2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad, monkeypatch):
        # the ctypes Hessenberg reduction checks nothing, so a NaN or inf
        # entry must stop before any eigenvalue or quadrature call
        def never(*args, **kwargs):
            raise AssertionError("called on a non-finite X")
        for name in ("_eig", "hessenberg", "adaptive_quad2d"):
            monkeypatch.setattr(harness, name, never)
        mat = _random_matrix(16, 2)
        mat[3, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            girko_consistency(mat, Bump(center=0.0, radius=0.6), quad_tol=1e-4)


def _random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def _random_nodes(count, seed):
    rng = np.random.default_rng(seed)
    return 1.5 * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))


def _hyman_log_abs_det(a, nodes):
    work = np.empty(a.shape[0] * nodes.size, dtype=complex)
    return sum(harness._hyman_log_abs_det(hb, nodes, work)
               for hb in harness._hessenberg_blocks(a))


def _slogdet_log_abs_det(a, nodes):
    eye = np.eye(a.shape[0])
    return np.array([np.linalg.slogdet(a - z * eye)[1] for z in nodes])


def _assert_matches_slogdet(a, nodes):
    ref = _slogdet_log_abs_det(a, nodes)
    got = _hyman_log_abs_det(a, nodes)
    assert np.all(np.isfinite(ref))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@contextlib.contextmanager
def scipy_blas_on_one_thread():
    """Hold the OpenBLAS bundled with scipy, where it ships one, at one thread.

    Above LAPACK's crossover (n > 128) the reduction is blocked, and its
    GEMMs round differently on more threads; `spectral.hessenberg` holds
    numpy's library at one thread, so the fallback is compared on one too.
    """
    import scipy
    libdir = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    libs = sorted(libdir.glob("libscipy_openblas*.so"))
    lib = ctypes.CDLL(str(libs[0])) if libs else None
    get = getattr(lib, "scipy_openblas_get_num_threads", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads", None)
    if get is None or set_ is None:
        yield
        return
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


class TestHessenbergRoutes:
    """`spectral.hessenberg`: zgehrd on numpy's OpenBLAS, scipy without it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256])
    @pytest.mark.parametrize("kind", ["complex", "real-valued"])
    def test_routes_bit_identical(self, n, kind, blas_routes):
        a = _random_matrix(n, 20 + n)
        if kind == "real-valued":
            a = a.real.astype(complex)
        reduced = {}
        with scipy_blas_on_one_thread():
            for route in blas_routes():
                reduced[route] = spectral.hessenberg(a)
        for route, h in reduced.items():
            assert h.dtype == np.complex128, route
            assert not np.tril(h, -2).any(), route
            if n <= 2:
                assert np.array_equal(h, a), route
        assert len({h.tobytes() for h in reduced.values()}) == 1

    def test_input_left_alone(self):
        # already Fortran-ordered complex128: the reduction still works on a copy
        a = np.asfortranarray(_random_matrix(16, 31))
        before = a.copy()
        spectral.hessenberg(a)
        assert np.array_equal(a, before)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            spectral.hessenberg(np.zeros((3, 4), dtype=complex))


def _count_rescales(monkeypatch) -> list:
    """Record each call of the Hyman rescaling in the returned list."""
    calls = []
    rescale = harness._rescale

    def counted(x, log_scale):
        calls.append(x.shape)
        return rescale(x, log_scale)
    monkeypatch.setattr(harness, "_rescale", counted)
    return calls


class TestHymanLogDet:
    """Hessenberg + Hyman log|det(X - zeta)| against LU (slogdet)."""

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    def test_random_nodes(self, n, blas_routes):
        for route in blas_routes():
            _assert_matches_slogdet(_random_matrix(n, n), _random_nodes(40, n + 1))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_scaled_matrix(self, scale):
        # log|det| ~ 16 log(scale): the per-step rescaling keeps x finite
        _assert_matches_slogdet(scale * _random_matrix(16, 3),
                                scale * _random_nodes(40, 4))

    @pytest.mark.parametrize("rows", [[9], [4, 9]])
    def test_tiny_subdiagonal_entries(self, rows):
        # two entries of 1e-300 put 1e600 into x without the rescaling
        a = np.triu(_random_matrix(16, 5), -1)
        for row in rows:
            a[row, row - 1] = 1e-300
        _assert_matches_slogdet(a, _random_nodes(40, 6))

    def test_block_diagonal_splits_at_zero_subdiagonal(self, blas_routes):
        a = np.zeros((16, 16), dtype=complex)
        a[:5, :5] = _random_matrix(5, 7)
        a[5, 5] = 0.4 - 0.2j
        a[6:, 6:] = _random_matrix(10, 8)
        for route in blas_routes():
            blocks = harness._hessenberg_blocks(a)
            assert [len(hb) for hb in blocks] == [5, 1, 10], route
            _assert_matches_slogdet(a, _random_nodes(40, 9))

    def test_every_subdiagonal_entry_tiny(self, monkeypatch):
        # 15 entries of 1e-30 put 1e450 into x without a rescaling; each row's
        # growth bound (about 1e30) stays below 1e150, so rows take the plain
        # step and the running product triggers the rescalings
        rescales = _count_rescales(monkeypatch)
        a = np.triu(_random_matrix(16, 12), -1)
        rows = np.arange(1, 16)
        a[rows, rows - 1] = 1e-30
        _assert_matches_slogdet(a, _random_nodes(40, 13))
        assert rescales

    def test_far_nodes(self, monkeypatch):
        # |zeta| = 1e4 makes each row's growth bound about 1e4 / |h_{i,i-1}|
        rescales = _count_rescales(monkeypatch)
        rng = np.random.default_rng(15)
        nodes = 1e4 * np.exp(2j * np.pi * rng.uniform(size=40))
        _assert_matches_slogdet(_random_matrix(64, 14), nodes)
        assert rescales

    def test_no_nodes(self):
        got = _hyman_log_abs_det(_random_matrix(16, 16), np.empty(0, dtype=complex))
        assert got.shape == (0,)

    def test_node_on_an_eigenvalue(self):
        # triangular X keeps its diagonal through the reduction, so the
        # residual is exactly 0 where a node equals a diagonal entry
        a = np.triu(_random_matrix(8, 10))
        nodes = np.concatenate([np.diag(a)[[2, 5]], _random_nodes(20, 11)])
        sign, ref = zip(*(np.linalg.slogdet(a - z * np.eye(8)) for z in nodes))
        got = _hyman_log_abs_det(a, nodes)
        assert np.all(np.isneginf(got[:2])) and np.all(np.asarray(sign)[:2] == 0)
        ref = np.asarray(ref)[2:]
        assert np.all(np.abs(got[2:] - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _every_node_discrepancy(x, tf, quad_tol):
    """girko_consistency with log|det(X - zeta)| at every node, zero Laplacian or not."""
    a = x.entries
    n = a.shape[0]
    eigs = np.linalg.eigvals(a)
    r0 = harness._EXCLUSION_RADIUS

    def integrand(pts):
        logdet = _hyman_log_abs_det(a, pts)
        assert np.all(np.isfinite(logdet))
        dist = np.abs(pts[:, None] - eigs[None, :])
        logdet += np.where(dist < r0, np.log(r0 / np.maximum(dist, 1e-300)), 0.0).sum(axis=1)
        return np.real(tf.laplacian(pts)) * logdet / (2.0 * np.pi * n)

    c, r = tf.center, tf.radius
    val, _ = adaptive_quad2d(integrand, (c.real - r, c.real + r, c.imag - r, c.imag + r),
                             tol=quad_tol, max_depth=14)
    inside = np.abs(eigs - c) <= r + r0
    correction = -(r0 ** 2 / (4.0 * n)) * np.sum(np.real(tf.laplacian(eigs[inside])))
    return abs(np.mean(np.real(tf.f(eigs))) - (val + correction))


class TestGirkoSupport:
    """The determinant kernel gets only the nodes where Delta f is nonzero."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """run(kind) checks criterion 13's trial 0 with a bump of that kind and
        returns (tf, matrix, discrepancy, levels, integrand, seen): `seen`
        holds the nodes of every kernel call, `levels` each integrand call's
        points with the nodes of its kernel calls, and `integrand` is the
        function girko_consistency handed to adaptive_quad2d."""
        seen = []
        kernel = harness._hyman_log_abs_det

        def spy_kernel(block, zeta, work):
            seen.append(zeta.copy())
            return kernel(block, zeta, work)

        levels, captured = [], []
        quad = harness.adaptive_quad2d

        def spy_quad(func, box, **kw):
            def level(pts):
                first = len(seen)
                vals = func(pts)
                levels.append((pts.copy(), seen[first:]))
                return vals
            captured.append(level)
            return quad(level, box, **kw)

        monkeypatch.setattr(harness, "_hyman_log_abs_det", spy_kernel)
        monkeypatch.setattr(harness, "adaptive_quad2d", spy_quad)

        def run(kind):
            tf = Bump(kind=kind, center=0.0, radius=0.6)
            mat = sample(EnsembleSpec(n=16, rho=0.5, seed=6), 0)
            disc = girko_consistency(mat, tf, quad_tol=2e-4)
            return tf, mat, disc, levels, captured[0], seen
        return run

    @pytest.mark.parametrize("kind", ["polynomial-bump", "gaussian-bump"])
    def test_kernel_gets_only_support_nodes(self, spied, kind):
        tf, _, _, levels, _, seen = spied(kind)
        assert np.all(tf.laplacian(np.concatenate(seen)) != 0)
        skipped = 0
        for pts, got in levels:
            support = pts[tf.laplacian(pts) != 0]
            skipped += pts.size - support.size
            assert set(np.concatenate(got).tolist() if got else []) == set(support.tolist())
        assert skipped > 0

    @pytest.mark.parametrize("kind", ["polynomial-bump", "gaussian-bump"])
    def test_level_off_the_support_makes_no_kernel_call(self, spied, kind):
        tf, _, _, _, integrand, seen = spied(kind)
        calls = len(seen)
        # points of the box's edges outside the support disk, corners included
        off = np.array([0.6 + 0.6j, -0.6 - 0.6j, 0.59 - 0.6j, -0.6 + 0.45j])
        assert np.all(tf.laplacian(off) == 0)
        assert np.array_equal(integrand(off), np.zeros(off.size))
        assert len(seen) == calls

    @pytest.mark.parametrize("kind", ["polynomial-bump", "gaussian-bump"])
    def test_matches_every_node_integrand(self, spied, kind):
        tf, mat, disc, _, _, _ = spied(kind)
        assert disc == pytest.approx(_every_node_discrepancy(mat, tf, 2e-4), abs=1e-14)


class TestMonteCarlo:
    def test_constant_function_exact(self):
        region = EllipseRegion(0.5, 0.1)
        rng = np.random.default_rng(0)
        est, bound = monte_carlo_estimate(lambda z: np.full(z.shape, 2.5),
                                          region, 50, 0.1, rng)
        assert est == pytest.approx(2.5)
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_real_part_rate(self):
        region = EllipseRegion(0.5)
        rng = np.random.default_rng(1)
        errs = []
        for m in (100, 10_000):
            est, _ = monte_carlo_estimate(lambda z: z.real, region, m, 0.1, rng)
            errs.append(abs(est))
        assert errs[1] < errs[0]
        # empirical sd matches the known variance (1+rho)^2/4 of Re on the ellipse
        _, bound = monte_carlo_estimate(lambda z: z.real, region, 40_000, 0.1, rng)
        sd = bound * np.sqrt(40_000 * 0.1)
        assert sd == pytest.approx((1 + 0.5) / 2, rel=0.05)

    def test_coverage(self):
        region = EllipseRegion(0.3, 0.2)
        rng = np.random.default_rng(2)
        bad = 0
        for _ in range(300):
            est, bound = monte_carlo_estimate(lambda z: z.real, region, 100,
                                              0.1, rng)
            bad += abs(est) > bound
        assert bad / 300 <= 0.1

    def test_validation(self):
        region = EllipseRegion(0.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            monte_carlo_estimate(lambda z: z.real, region, 0, 0.1, rng)
        # one point has no sample deviation: its bound would be 0
        with pytest.raises(ValueError, match="m must be >= 2"):
            monte_carlo_estimate(lambda z: z.real, region, 1, 0.1, rng)
        with pytest.raises(ValueError):
            monte_carlo_estimate(lambda z: z.real, region, 10, 1.5, rng)


class TestSmallSingular:
    def test_scan(self):
        rep = small_singular_scan(small_grid(n_values=(128,), trials=3))
        assert rep.passed
        for rec in rep.records:
            ratios = rec.extras["ratios"]
            etas = rec.extras["etas"]
            assert len(ratios) == len(etas)
            assert rec.observed == max(ratios)
            counts = [r * 128 * e for r, e in zip(ratios, etas)]
            assert all(a <= b + 1e-9 for a, b in zip(counts, counts[1:]))

    def test_observed_from_known_singular_values(self):
        # a hand-made decomposition: the ratios are 2 #{s <= eta} / (n eta) on
        # the scan n^{-0.9} 2^k (0.082, 0.16, 0.33, 0.66 at n = 16)
        n, zeta = 16, 0.3 + 0.2j
        grid = small_grid(n_values=(n,), trials=1)
        s = np.array([3.0, 2.0, 1.0, 0.9, 0.5, 0.5, 0.3, 0.2, 0.15, 0.1, 0.08, 0.05,
                      0.03, 0.02, 0.01, 0.001])
        ctx = harness.TrialContext(n=n, trial=0, zeta=zeta, eta=grid.eta(n),
                                   x=sample(grid.ensemble_spec(n)),
                                   dec=spectral.SpectralDecomposition(zeta, s))
        etas = harness._ssv_setup(grid, n)
        assert etas == pytest.approx([16 ** -0.9 * 2 ** k for k in range(4)], rel=1e-15)
        ratios = [2 * count / (n * eta) for count, eta in zip((6, 8, 10, 12), etas)]
        (rec,) = harness._ssv_observe(ctx, etas)
        assert rec.extras["ratios"] == ratios
        assert rec.extras["sigma_min"] == 0.001
        assert rec.observed == max(ratios) and rec.eta == etas[0]

    def test_count_saturates(self):
        rep = small_singular_scan(small_grid(n_values=(64,), trials=1))
        rec = rep.records[0]
        # at eta >= max singular value the count is the full 2n
        assert rec.extras["ratios"][-1] * 64 * rec.extras["etas"][-1] <= 2 * 64


def elliptic_ginibre_density(lam, n, tau):
    """Exact mean eigenvalue density (mass 1) of complex elliptic Ginibre at finite n.

    In z = sqrt(n) lambda it is w(z) sum_{k<n} |h_k(z)|^2 / (pi sqrt(1 - tau^2)),
    w(z) = exp(-(|z|^2 - tau Re z^2)/(1 - tau^2)), with the normalised Hermite
    polynomials h_0 = 1, h_{k+1} = z h_k / sqrt(k+1) - tau sqrt(k/(k+1)) h_{k-1}
    (Fyodorov, Khoruzhenko and Sommers, PRL 79, 557 (1997)).
    """
    z = np.sqrt(n) * np.asarray(lam, dtype=complex)
    h_prev, h = np.zeros_like(z), np.ones_like(z)
    total = np.ones(z.shape)
    for k in range(n - 1):
        h_prev, h = h, z * h / np.sqrt(k + 1) - tau * np.sqrt(k / (k + 1)) * h_prev
        total += np.abs(h) ** 2
    weight = np.exp(-(np.abs(z) ** 2 - tau * np.real(z ** 2)) / (1 - tau ** 2))
    return weight * total / (np.pi * np.sqrt(1 - tau ** 2))


class TestDensityMap:
    def test_matches_exact_finite_n_density(self):
        # eigenvalues of 300 complex elliptic Ginibre draws, sqrt((1+tau)/2) A +
        # i sqrt((1-tau)/2) B with A, B from the GUE (E|A_ij|^2 = 1/n), binned by
        # the density map against the exact mean count of each bin; the bins
        # expecting fewer than 5 eigenvalues, edge bins and the outside of the
        # grid, are pooled into one.  Eigenvalues repel, so their counts vary
        # less than Poisson counts, and the Pearson chi^2 tail is conservative.
        n, tau, draws, resolution = 64, 0.5, 300, 12
        rng = np.random.default_rng(2024)

        def gue(m):
            g = (rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
            return (g + np.conj(np.swapaxes(g, 1, 2))) / (2 * np.sqrt(n))

        eigs = np.concatenate([
            np.linalg.eigvals(np.sqrt((1 + tau) / 2) * gue(100)
                              + 1j * np.sqrt((1 - tau) / 2) * gue(100)).ravel()
            for _ in range(draws // 100)])
        dm = harness._density_from_eigenvalues(eigs, EnsembleSpec(n=n, rho=tau), resolution)
        dx = dm.x_centers[1] - dm.x_centers[0]
        dy = dm.y_centers[1] - dm.y_centers[0]
        counts = dm.histogram * n * dx * dy
        # each bin's mass by an 8 x 8 Gauss-Legendre rule
        nodes, weights = np.polynomial.legendre.leggauss(8)
        xs = dm.x_centers[:, None] + 0.5 * dx * nodes
        ys = dm.y_centers[:, None] + 0.5 * dy * nodes
        pts = xs[:, None, :, None] + 1j * ys[None, :, None, :]
        mass = np.einsum("ijab,a,b->ij", elliptic_ginibre_density(pts, n, tau),
                         weights, weights) * dx * dy / 4
        assert mass.sum() == pytest.approx(1.0, abs=1e-6)
        expected = mass * eigs.size
        few = expected < 5
        observed = np.append(counts[~few], counts[few].sum() + eigs.size - counts.sum())
        expected = np.append(expected[~few], expected[few].sum() + eigs.size * (1 - mass.sum()))
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert observed.size > 60
        assert chi2 < scipy.stats.chi2.isf(1e-3, observed.size - 1)

    def test_normalization_and_mass(self):
        dm = density_map(EnsembleSpec(n=512, rho=0.5, seed=8), grid_resolution=61)
        cell = (dm.x_centers[1] - dm.x_centers[0]) * (dm.y_centers[1] - dm.y_centers[0])
        assert np.sum(dm.histogram) * cell == pytest.approx(1.0, abs=1e-12)
        assert dm.mass_inside >= 0.97
        inside = dm.sigma > 0
        assert abs(dm.histogram[inside].mean() - dm.sigma[inside].mean()) < 0.15

    def test_angular_symmetry_rho_zero(self):
        dm = density_map(EnsembleSpec(n=1024, rho=0.0, seed=9), grid_resolution=41)
        spec = EnsembleSpec(n=1024, rho=0.0, seed=9)
        eigs = np.linalg.eigvals(sample(spec).entries)
        eigs = eigs[np.abs(eigs) < 0.9]
        sectors, _ = np.histogram(np.angle(eigs), bins=8, range=(-np.pi, np.pi))
        expected = eigs.size / 8
        chi2 = float(np.sum((sectors - expected) ** 2 / expected))
        assert chi2 < 24.3  # chi^2_{7} at the 0.999 level
        del dm

    def test_csv_output(self, tmp_path):
        dm = density_map(EnsembleSpec(n=128, rho=0.2, seed=10), grid_resolution=11)
        path = tmp_path / "density.csv"
        dm.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,empirical_density,sigma"
        assert len(lines) == 1 + 11 * 11

    def test_density_field_integrates_to_one(self):
        param = EllipticParam(0.5)
        val, _ = adaptive_quad2d(lambda p: elliptic_density(p, param),
                                 (-1.8, 1.8, -0.8, 0.8), tol=1e-4, max_depth=12)
        assert val == pytest.approx(1.0, abs=1e-3)


class TestErrorMatrixExperiment:
    def test_small_run(self):
        rep = error_matrix_experiment(small_grid(n_values=(64, 128), trials=2))
        assert rep.passed
        for rec in rep.records:
            assert rec.extras["iso"] <= 10 * rec.extras["iso_envelope"]

    def test_test_matrices_built_once_per_n(self, monkeypatch):
        built = []

        def counting(n2, *args, **kwargs):
            built.append(n2)
            return default_test_matrices(n2, *args, **kwargs)

        monkeypatch.setattr(harness, "default_test_matrices", counting)
        grid = small_grid(n_values=(64, 128), trials=3)
        shared = error_matrix_experiment(grid, threads=2)
        assert sorted(built) == [128, 256]
        # the per-trial path: each trial builds its own probes and test matrices
        monkeypatch.setattr(harness, "error_matrix_norms", lambda solver, se, *_: (
            error_matrix_norms(solver, se, default_probes(2 * solver.n, k=8),
                               default_test_matrices(2 * solver.n))))
        per_trial = error_matrix_experiment(grid, threads=2)
        assert [r.to_dict() for r in shared.records] == [r.to_dict() for r in per_trial.records]


class TestDumps:
    def test_eigenvalue_csv(self, tmp_path):
        mat = sample(EnsembleSpec(n=8, rho=0.5, seed=11))
        dec = decompose(hermitize(mat, 0.1 + 0.2j))
        path = tmp_path / "eigs.csv"
        with open(path, "w", encoding="utf-8") as fh:
            dump_eigenvalues(fh, [(0, dec)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,zeta_re,zeta_im,index,lambda"
        assert len(lines) == 1 + 16
        lam = float(lines[1].split(",")[4])
        assert lam == pytest.approx(dec.eigenvalues[0])

    def test_functional_jsonl(self, tmp_path):
        mat = sample(EnsembleSpec(n=8, rho=0.5, seed=12))
        dec = decompose(hermitize(mat, 0.0))
        traces = partial_trace(dec, 0.5)
        path = tmp_path / "fn.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            dump_functionals(fh, [(0, 0.0 + 0.0j, 0.5, traces, [("e1|e1", 0.25 - 0.5j)],
                                   log_abs_det(dec))])
        rec = json.loads(path.read_text().strip())
        assert rec["eta"] == 0.5
        assert rec["avg_trace_im"] > 0
        assert complex(rec["avg_trace_re"], rec["avg_trace_im"]) == traces[0, 0]
        assert rec["partial_traces"] == [[traces[i, j].real, traces[i, j].imag]
                                         for i in range(2) for j in range(2)]
        assert rec["iso_probes"] == [["e1|e1", 0.25, -0.5]]
        assert rec["log_det"] == log_abs_det(dec)
