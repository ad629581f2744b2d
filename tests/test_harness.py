"""Experiment harness: determinism, envelopes, Girko identity, Monte Carlo."""

import dataclasses
import json
import threading

import numpy as np
import pytest

from ellipticlab import (
    EllipseRegion,
    EnsembleSpec,
    EtaRule,
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
)
from ellipticlab import TestFunction as Bump
from ellipticlab import harness
from ellipticlab.harness import dump_eigenvalues, dump_functionals
from ellipticlab.spectral import (
    decompose,
    default_test_matrices,
    error_matrix_norms,
    hermitize,
    resolvent_functionals,
)
from ellipticlab.quad2d import adaptive_quad2d
from ellipticlab import elliptic_density, EllipticParam


def small_grid(n_values=(64, 128), trials=3, seed=1, beta=0.75):
    return ExperimentGrid(n_values=n_values, zeta=0.3 + 0.2j,
                          eta_rule=EtaRule(beta=beta), trials=trials,
                          delta=0.1, seed=seed, rho=0.5)


class TestGridValidation:
    def test_bulk_membership_enforced(self):
        with pytest.raises(ValueError):
            ExperimentGrid(n_values=(64,), zeta=1.6 + 0.0j, eta_rule=EtaRule(0.75),
                           trials=1, delta=0.1, seed=0, rho=0.5)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            EtaRule(beta=1.0)
        with pytest.raises(ValueError):
            EtaRule(beta=0.0)
        assert EtaRule(0.75).eta(256) == pytest.approx(256 ** -0.75)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_grid(trials=0)


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

    @pytest.fixture
    def blas(self):
        controls = harness._bundled_openblas()
        if not controls:
            pytest.skip("no bundled OpenBLAS found")
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        yield controls
        for (_, set_), count in zip(controls, saved):
            set_(count)

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
        before = [get() for get, _ in blas]
        seen = []
        self._wrap_build(monkeypatch, lambda n, trial: seen.append([get() for get, _ in blas]))
        harness.run_experiments(small_grid(n_values=(32,), trials=4), {"local-law": {}},
                                threads)
        assert seen == [[1] * len(blas)] * 4
        assert [get() for get, _ in blas] == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_threads_restored_after_a_task_raises(self, blas, threads, monkeypatch):
        before = [get() for get, _ in blas]

        def fail(n, trial):
            raise RuntimeError("trial failed")

        self._wrap_build(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="trial failed"):
            harness.run_experiments(small_grid(n_values=(32,), trials=4), {"local-law": {}},
                                    threads)
        assert [get() for get, _ in blas] == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_setups_run_on_single_threaded_blas(self, blas, threads, monkeypatch):
        before = [get() for get, _ in blas]
        seen = []

        def recording(setup):
            def wrapped(setting):
                seen.append([get() for get, _ in blas])
                return setup(setting)
            return wrapped

        self._wrap_setup(monkeypatch, "error-matrix", recording)
        harness.run_experiments(small_grid(n_values=(32, 48), trials=2),
                                {"error-matrix": {}}, threads)
        assert seen == [[1] * len(blas)] * 2
        assert [get() for get, _ in blas] == before

    def test_a_failing_setup_stops_the_pool(self, blas, monkeypatch):
        threads = 2
        before_blas = [get() for get, _ in blas]
        before_threads = threading.active_count()
        error = RuntimeError("setup failed")
        builds, waited = [], []
        building = threading.Event()

        def counting(n, trial):
            builds.append(trial)
            if len(builds) >= threads:
                building.set()

        def failing(setup):
            def wrapped(setting):
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
        assert [get() for get, _ in blas] == before_blas

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
            def wrapped(setting, **options):
                state = setup(setting, **options)
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

    def test_rho_zero_circular_case(self):
        grid = ExperimentGrid(n_values=(128,), zeta=0.2 + 0.1j,
                              eta_rule=EtaRule(0.75), trials=3, delta=0.1,
                              seed=2, rho=0.0)
        assert averaged_local_law(grid).passed


class TestIsotropicLaw:
    def test_small_run(self):
        rep = isotropic_local_law(small_grid())
        assert rep.passed
        assert rep.summary["record_pass_fraction"] == 1.0
        assert rep.summary["trace_consistency_fraction"] == 1.0

    def test_records_have_avg_norm_extras(self):
        rep = isotropic_local_law(small_grid(n_values=(64,), trials=2))
        for r in rep.records:
            assert "avg_op_err" in r.extras
            assert r.extras["avg_op_err"] <= 10 * r.extras["env_avg"]

    def test_deterministic(self):
        a = isotropic_local_law(small_grid(n_values=(64,), trials=2))
        b = isotropic_local_law(small_grid(n_values=(64,), trials=2), threads=2)
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]


class TestDelocalisation:
    def test_small_run(self):
        spec = EnsembleSpec(n=128, rho=0.5, seed=3)
        rep = delocalisation_test(spec, delta=0.2, trials=2)
        assert rep.passed
        labels = {r.extras["probe"] for r in rep.records}
        assert {"e1", "uniform", "alternating"} <= labels
        assert all(r.extras["bulk_count"] > 0 for r in rep.records)

    def test_self_overlap_statistic_sane(self):
        # an eigenvector used as probe yields sqrt(n) overlap ~ sqrt(n)
        spec = EnsembleSpec(n=96, rho=0.0, seed=4)
        x = sample(spec)
        vals, vecs = np.linalg.eig(x.entries)
        bulk = np.abs(vals) < 0.8
        u0 = vecs[:, np.argmax(bulk)]
        rep = delocalisation_test(spec, delta=0.2, trials=1,
                                  w_probes=[("self", u0)])
        assert rep.records[0].observed > 0.5 * np.sqrt(96)

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

    def test_complex_sample_keeps_complex_driver(self, monkeypatch):
        grid = ExperimentGrid(n_values=(128,), zeta=0.0, eta_rule=EtaRule(0.75), trials=2,
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
        grid = ExperimentGrid(n_values=(64,), zeta=0.0, eta_rule=EtaRule(0.75), trials=2,
                              delta=0.1, seed=24, rho=0.5, mu=mu)
        pooled = harness.run_experiments(grid, {"density": {}})["density"]
        alone = density_map(grid.ensemble_spec(64))
        assert np.array_equal(pooled.histogram, alone.histogram)
        assert pooled.mass_inside == alone.mass_inside


class TestLinearStatistics:
    def test_small_run_and_slope(self):
        grid = ExperimentGrid(n_values=(64, 128, 256), zeta=0.0 + 0.0j,
                              eta_rule=EtaRule(0.75), trials=4, delta=0.1,
                              seed=1, rho=0.5)
        tf = Bump(center=0.0, alpha=0.25)
        rep = linear_statistics(grid, tf)
        assert rep.summary["envelope_gate"]
        assert rep.summary["slope_vs_n"] < 0.0

    def test_support_leaving_bulk_rejected(self):
        grid = ExperimentGrid(n_values=(64,), zeta=0.3 + 0.2j,
                              eta_rule=EtaRule(0.75), trials=1, delta=0.1,
                              seed=1, rho=0.5)
        tf = Bump(center=0.3 + 0.2j, alpha=0.25)  # radius 0.35 at n=64
        with pytest.raises(ValueError):
            linear_statistics(grid, tf)

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


class TestHymanLogDet:
    """Hessenberg + Hyman log|det(X - zeta)| against LU (slogdet)."""

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    def test_random_nodes(self, n):
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

    def test_block_diagonal_splits_at_zero_subdiagonal(self):
        a = np.zeros((16, 16), dtype=complex)
        a[:5, :5] = _random_matrix(5, 7)
        a[5, 5] = 0.4 - 0.2j
        a[6:, 6:] = _random_matrix(10, 8)
        blocks = harness._hessenberg_blocks(a)
        assert [len(hb) for hb in blocks] == [5, 1, 10]
        _assert_matches_slogdet(a, _random_nodes(40, 9))

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

    def test_count_saturates(self):
        rep = small_singular_scan(small_grid(n_values=(64,), trials=1))
        rec = rep.records[0]
        # at eta >= max singular value the count is the full 2n
        assert rec.extras["ratios"][-1] * 64 * rec.extras["etas"][-1] <= 2 * 64


class TestDensityMap:
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
        # the per-trial path: error_matrix_norms builds its own probes and test matrices
        monkeypatch.setattr(harness, "error_matrix_norms",
                            lambda x, dec, eta, se, **_: error_matrix_norms(x, dec, eta, se))
        per_trial = error_matrix_experiment(grid, threads=2)
        assert [r.to_dict() for r in shared.records] == [r.to_dict() for r in per_trial.records]


class TestDumps:
    def test_eigenvalue_csv(self, tmp_path):
        mat = sample(EnsembleSpec(n=8, rho=0.5, seed=11))
        dec = decompose(hermitize(mat, 0.1 + 0.2j))
        path = tmp_path / "eigs.csv"
        dump_eigenvalues(path, [(0, dec)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,zeta_re,zeta_im,index,lambda"
        assert len(lines) == 1 + 16
        lam = float(lines[1].split(",")[4])
        assert lam == pytest.approx(dec.eigenvalues[0])

    def test_functional_jsonl(self, tmp_path):
        mat = sample(EnsembleSpec(n=8, rho=0.5, seed=12))
        dec = decompose(hermitize(mat, 0.0))
        fn = resolvent_functionals(dec, 0.5)
        path = tmp_path / "fn.jsonl"
        dump_functionals(path, [(0, 0.0 + 0.0j, 0.5, fn)])
        rec = json.loads(path.read_text().strip())
        assert rec["eta"] == 0.5
        assert rec["avg_trace_im"] > 0
        assert len(rec["partial_traces"]) == 4
