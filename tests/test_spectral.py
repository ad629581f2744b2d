"""Spectral engine against dense-inverse, eigensolver, and hand-computed oracles."""

import ctypes
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from ellipticlab import (
    EnsembleSpec,
    ResolventSolver,
    SelfEnergyData,
    decompose,
    error_matrix_norms,
    hermitize,
    log_det_check,
    partial_trace,
    resolvent_trace,
    sample,
    small_singular_count,
    smallest_singular_value,
    solve_dyson_grid,
)
from ellipticlab import spectral
from ellipticlab.spectral import (
    BLOCK_TESTS,
    SingularHermitizationError,
    default_probes,
    default_test_matrices,
    error_matrix,
    isotropic_entries,
    log_abs_det,
    self_energy_hat,
)


def small_matrix(n=8, seed=0, rho=0.5, mu=1.0):
    return sample(EnsembleSpec(n=n, rho=rho, mu=mu, seed=seed))


def dense_resolvent(dec_input, zeta, eta):
    h = hermitize(dec_input, zeta).matrix
    return np.linalg.inv(h - 1j * eta * np.eye(h.shape[0]))


class TestHermitization:
    def test_trivial_block(self):
        h = hermitize(np.zeros((1, 1)), 1.0)
        assert np.allclose(h.matrix, [[0, -1], [-1, 0]])
        dec = decompose(h)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_hermitian_exact(self):
        h = hermitize(small_matrix(), 0.3 + 0.2j).matrix
        assert np.array_equal(h, h.conj().T)

    def test_eigenvalues_match_hermitian_eigensolver(self):
        # independent oracle: LAPACK eigvalsh on the assembled 2n x 2n matrix
        h = hermitize(small_matrix(), 0.4 - 0.1j)
        dec = decompose(h)
        oracle = np.linalg.eigvalsh(h.matrix)
        assert np.max(np.abs(dec.eigenvalues - oracle)) < 1e-10

    def test_plus_minus_symmetry(self):
        lam = decompose(hermitize(small_matrix(seed=5), 0.1)).eigenvalues
        assert np.max(np.abs(lam + lam[::-1])) < 1e-9

    def test_reconstruction(self):
        mat = small_matrix(n=12, seed=2)
        zeta = -0.2 + 0.6j
        dec = decompose(hermitize(mat, zeta))
        shifted = mat.entries - zeta * np.eye(12)
        rebuilt = (dec.u * dec.singular_values) @ dec.vh
        assert np.max(np.abs(shifted - rebuilt)) < 1e-12 * np.max(np.abs(shifted))
        for w in (dec.u, dec.vh):
            assert np.max(np.abs(w.conj().T @ w - np.eye(12))) < 1e-12

    def test_trace_identities(self):
        mat = small_matrix(n=10, seed=3)
        zeta = 0.2 + 0.1j
        dec = decompose(hermitize(mat, zeta))
        assert abs(np.sum(dec.eigenvalues)) < 1e-9 * 10
        frob = 2.0 * np.sum(np.abs(mat.entries - zeta * np.eye(10)) ** 2)
        assert abs(np.sum(dec.eigenvalues ** 2) - frob) < 1e-8 * frob


class TestResolventFunctionals:
    def test_trace_two_term_oracle(self):
        dec = decompose(hermitize(np.zeros((1, 1)), 1.0))
        val = resolvent_trace(dec, 1.0)
        expect = 0.5 * (1.0 / (-1 - 1j) + 1.0 / (1 - 1j))
        assert abs(val - expect) < 1e-15
        assert abs(val - 0.5j) < 1e-15

    def test_trace_against_dense_inverse(self):
        mat = small_matrix(n=16, seed=1)
        dec = decompose(hermitize(mat, 0.3 + 0.2j))
        for eta in (2.0, 0.3, 0.01):
            g = dense_resolvent(mat, 0.3 + 0.2j, eta)
            assert abs(resolvent_trace(dec, eta) - np.trace(g) / 32) < 1e-9

    def test_trace_positivity_and_large_eta(self):
        dec = decompose(hermitize(small_matrix(seed=2), 0.5))
        for eta in (1e-3, 0.1, 1.0):
            assert resolvent_trace(dec, eta).imag > 0
        assert abs(resolvent_trace(dec, 1e6) * (-1j * 1e6) - 1.0) < 1e-10

    def test_isotropic_against_dense(self):
        mat = small_matrix(n=8, seed=4)
        zeta, etas = -0.1 + 0.4j, (0.5, 0.05)
        dec = decompose(hermitize(mat, zeta))
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        ys = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        entries = isotropic_entries(dec, etas, xs, ys)
        assert entries.shape == (2, 5)
        for row, eta in zip(entries, etas):
            g = dense_resolvent(mat, zeta, eta)
            oracle = np.einsum("ij,ij->j", xs.conj(), g @ ys)
            scale = np.linalg.norm(xs, axis=0) * np.linalg.norm(ys, axis=0)
            assert np.all(np.abs(row - oracle) < 1e-10 * scale)

    def test_isotropic_trace_identity(self):
        dec = decompose(hermitize(small_matrix(n=6, seed=6), 0.2))
        eta = 0.7
        unit = np.eye(12, dtype=complex)
        acc = isotropic_entries(dec, [eta], unit, unit)[0].sum()
        assert abs(acc / 12 - resolvent_trace(dec, eta)) < 1e-12

    def test_isotropic_norm_bound(self):
        dec = decompose(hermitize(small_matrix(seed=7), 0.0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 1))
        y = rng.standard_normal((16, 1))
        eta = 0.2
        val = isotropic_entries(dec, [eta], x, y)[0, 0]
        assert abs(val) <= np.linalg.norm(x) * np.linalg.norm(y) / eta

    def test_ward_identity(self):
        mat = small_matrix(n=16, seed=8)
        dec = decompose(hermitize(mat, 0.3))
        eta = 0.02
        g = dense_resolvent(mat, 0.3, eta)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            lhs = eta * np.vdot(g @ x, g @ x)
            rhs = np.vdot(x, ((g - g.conj().T) / 2j) @ x)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_partial_trace_structure(self):
        mat = small_matrix(n=16, seed=9)
        zeta, eta = 0.25 + 0.15j, 0.1
        dec = decompose(hermitize(mat, zeta))
        ul = partial_trace(dec, eta)
        assert abs(ul[0, 0] - ul[1, 1]) < 1e-10
        assert abs((ul[0, 0] + ul[1, 1]) / 2 - resolvent_trace(dec, eta)) < 1e-12
        g = dense_resolvent(mat, zeta, eta)
        n = 16
        blocks = np.array([[np.trace(g[:n, :n]), np.trace(g[:n, n:])],
                           [np.trace(g[n:, :n]), np.trace(g[n:, n:])]]) / n
        assert np.max(np.abs(ul - blocks)) < 1e-10

    def test_partial_trace_offdiag_approaches_b(self):
        # local-law consequence, measured loosely at moderate n
        mat = small_matrix(n=512, seed=10)
        zeta, eta = 0.3 + 0.2j, 0.2
        dec = decompose(hermitize(mat, zeta))
        ul = partial_trace(dec, eta)
        _, b, _, _ = solve_dyson_grid(zeta, eta, 0.5)
        assert abs(ul[1, 0] - complex(b)) < 0.05
        assert abs(ul[0, 1] - np.conj(complex(b))) < 0.05

    def test_functionals_bundle(self):
        # what the spectrum dump reads from one decomposition at several etas
        dec = decompose(hermitize(small_matrix(n=8, seed=12), 0.1))
        pair = np.eye(16, dtype=complex)[:, :2]
        etas = [0.5, 0.1]
        entries = isotropic_entries(dec, etas, pair[:, :1], pair[:, 1:])
        assert entries.shape == (2, 1)
        for row, eta in zip(entries, etas):
            alone = isotropic_entries(dec, [eta], pair[:, :1], pair[:, 1:])[0, 0]
            assert abs(row[0] - alone) <= 1e-14 * abs(alone)
            # the dumped <G> is the diagonal of the block traces, bit for bit
            assert partial_trace(dec, eta)[0, 0] == resolvent_trace(dec, eta)
        assert log_abs_det(dec) == 2.0 * float(np.sum(np.log(dec.singular_values)))
        assert log_abs_det(decompose(hermitize(np.diag([0.0, 1.0]), 0.0))) == -np.inf
        with pytest.raises(ValueError):
            isotropic_entries(dec, [0.1, 0.0], pair[:, :1], pair[:, 1:])
        with pytest.raises(ValueError):
            isotropic_entries(dec, etas, pair[:, :1], pair)


class TestLogDet:
    def test_single_entry_analytic(self):
        dec = decompose(hermitize(np.zeros((1, 1)), 1.0))
        lhs, rhs = log_det_check(dec, 1e3)
        assert abs(lhs) < 1e-12
        assert abs(rhs) < 1e-6

    def test_random_instances(self):
        for n, seed in ((16, 0), (48, 1)):
            dec = decompose(hermitize(small_matrix(n=n, seed=seed), 0.2 + 0.3j))
            lhs, rhs = log_det_check(dec, 1e3)
            assert abs(lhs - rhs) <= 1e-6 * n

    def test_larger_cutoff_tightens(self):
        dec = decompose(hermitize(small_matrix(n=8, seed=3), 0.4))
        err = [abs(np.subtract(*log_det_check(dec, t))) for t in (1e2, 1e4)]
        assert err[1] <= err[0] + 1e-9

    def test_singular_flagged(self):
        dec = decompose(hermitize(np.diag([0.0, 1.0]), 0.0))
        with pytest.raises(SingularHermitizationError):
            log_det_check(dec, 1e2)


class TestCounts:
    def test_small_count_examples(self):
        dec = decompose(hermitize(np.zeros((1, 1)), 1.0))
        assert small_singular_count(dec, 0.5) == 0
        assert small_singular_count(dec, 2.0) == 2
        assert smallest_singular_value(dec) == 1.0

    def test_monotone_in_eta(self):
        dec = decompose(hermitize(small_matrix(n=32, seed=4), 0.1))
        counts = [small_singular_count(dec, e) for e in np.geomspace(1e-3, 3, 12)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 64

    def test_sigma_min_svd_oracle(self):
        mat = small_matrix(n=8, seed=5)
        zeta = 0.2 - 0.4j
        dec = decompose(hermitize(mat, zeta))
        oracle = np.linalg.svd(mat.entries - zeta * np.eye(8), compute_uv=False)[-1]
        assert abs(smallest_singular_value(dec) - oracle) < 1e-12


class TestResolventSolver:
    def test_apply_matches_dense(self):
        mat = small_matrix(n=12, seed=6)
        zeta, eta = 0.3 + 0.2j, 0.05
        solver = ResolventSolver(mat.entries, zeta, eta)
        g = dense_resolvent(mat, zeta, eta)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        assert np.max(np.abs(solver.apply(y) - g @ y)) < 1e-10

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_apply_on_a_block_matches_columns(self, n):
        mat = small_matrix(n=n, seed=11)
        solver = ResolventSolver(mat.entries, 0.3 + 0.2j, 0.05)
        rng = np.random.default_rng(4)
        y = rng.standard_normal((2 * n, 5)) + 1j * rng.standard_normal((2 * n, 5))
        block = solver.apply(y)
        columns = np.stack([solver.apply(y[:, j]) for j in range(5)], axis=1)
        assert block.shape == (2 * n, 5)
        assert np.max(np.abs(block - columns)) <= 1e-12 * np.max(np.abs(columns))

    def test_traces_match_decomposition(self):
        mat = small_matrix(n=20, seed=7)
        zeta, eta = -0.2 + 0.1j, 0.08
        solver = ResolventSolver(mat.entries, zeta, eta)
        dec = decompose(hermitize(mat, zeta))
        assert abs(solver.avg_trace() - resolvent_trace(dec, eta)) < 1e-11
        assert np.max(np.abs(solver.partial_traces() - partial_trace(dec, eta))) < 1e-11
        # <G> and the diagonal block traces are read from the real trace of W
        ul = solver.partial_traces()
        assert solver.avg_trace().real == 0.0
        assert ul[0, 0] == ul[1, 1] == solver.avg_trace()

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("eta", [0.3, 1e-3, 1e-12])
    @pytest.mark.parametrize("zeta", [0.2 + 0.1j, 0.0, 1e3])
    def test_blocks_match_the_svd_formula(self, n, eta, zeta, blas_routes):
        # G22 from its own inverse: (i/eta)(I - A^H W A) cancels at small eta
        mat = small_matrix(n=n, seed=9, rho=0.4, mu=0.7)
        u, s, vh = np.linalg.svd(mat.entries - zeta * np.eye(n))
        v, f = vh.conj().T, 1.0 / (s ** 2 + eta ** 2)
        oracle = [(u * f) @ u.conj().T, (u * (1j * eta * f)) @ u.conj().T,
                  (u * (s * f)) @ vh, (v * (s * f)) @ u.conj().T, (v * (1j * eta * f)) @ vh]
        for route in blas_routes():
            solver = ResolventSolver(mat.entries, zeta, eta)
            for label, block, want in zip(("W", "G11", "G12", "G21", "G22"),
                                          (solver.w, *solver.blocks), oracle):
                assert np.max(np.abs(block - want)) <= 1e-10 * np.max(np.abs(want)), \
                    (route, label)

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("eta", [0.3, 1e-3, 1e-12])
    @pytest.mark.parametrize("zeta", [0.2 + 0.1j, 0.0, 1e3])
    def test_factor_matches_the_dense_inverse(self, n, eta, zeta, blas_routes):
        # errors in units of the dense inverse's own: eps cond(H - i eta) max|G|
        mat = small_matrix(n=n, seed=9, rho=0.4, mu=0.7)
        g = dense_resolvent(mat, zeta, eta)
        s = np.linalg.svd(mat.entries - zeta * np.eye(n), compute_uv=False)
        g_max = 1.0 / np.hypot(s[-1], eta)
        unit = np.finfo(float).eps * np.hypot(s[0], eta) * g_max ** 2
        dense = [g[:n, :n] / (1j * eta), g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]]
        y = np.random.default_rng(2).standard_normal((2 * n, 3)) + 0j
        for route in blas_routes():
            solver = ResolventSolver(mat.entries, zeta, eta)
            for label, block, want in zip(("W", "G11", "G12", "G21", "G22"),
                                          (solver.w, *solver.blocks), dense):
                # W is G11 / (i eta), so the oracle's error grows by 1 / eta
                scale = unit / eta if label == "W" else unit
                assert np.max(np.abs(block - want)) <= 16 * scale, (route, label)
            err = np.abs(solver.apply(y) - g @ y)
            assert err[:n].max() <= 16 * unit * np.abs(y).max(), route
            # w2 = -i (A^H w1 - y2) / eta cancels as sigma_max / eta grows (the
            # `apply` docstring); `blocks` is the accurate route there
            assert err[n:].max() <= 16 * unit * np.abs(y).max() * (1 + s[0] / eta), route

    def test_routes_agree_and_the_fallback_calls_inv(self, monkeypatch):
        if spectral._openblas() is None:
            pytest.skip("numpy ships no OpenBLAS here")
        mat = small_matrix(n=48, seed=4)
        inv_calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv_calls.append(a.shape) or inv(a))
        lapack = ResolventSolver(mat.entries, 0.1, 0.05)
        lapack_blocks = lapack.blocks
        assert inv_calls == []
        monkeypatch.setattr(spectral, "_openblas", lambda: None)
        fallback = ResolventSolver(mat.entries, 0.1, 0.05)
        assert inv_calls == [(48, 48)]
        for got, want in zip((lapack.w, *lapack_blocks), (fallback.w, *fallback.blocks)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert inv_calls == [(48, 48)] * 2
        # the filled triangle makes W exactly Hermitian
        assert np.array_equal(lapack.w, lapack.w.conj().T)
        assert lapack.avg_trace().real == 0.0

    def test_singular_gram_raises(self, blas_routes):
        # eta^2 underflows to 0, so the Gram of A = 0 is exactly singular
        for _ in blas_routes():
            with pytest.raises(np.linalg.LinAlgError):
                ResolventSolver(np.zeros((3, 3)), 0.0, 1e-170)

    def test_a_failed_cholesky_raises(self, monkeypatch):
        lib = spectral._openblas()
        if lib is None:
            pytest.skip("numpy ships no OpenBLAS here")
        potrf = lib.scipy_zpotrf_64_

        def failing_potrf(*args):
            potrf(*args)
            args[4]._obj.value = 2      # info: the leading minor of order 2 is not positive
        monkeypatch.setattr(lib, "scipy_zpotrf_64_", failing_potrf)
        with pytest.raises(np.linalg.LinAlgError, match="info 2"):
            ResolventSolver(small_matrix(n=8).entries, 0.0, 0.1)


class TestOpenblasSwitch:
    """`_openblas()` is the one switch between numpy's bundled OpenBLAS and a system BLAS."""

    ROUTINES = ("scipy_zherk_64_", "scipy_zpotrf_64_", "scipy_zpotri_64_",
                "scipy_zgehrd_64_", "scipy_openblas_get_num_threads64_",
                "scipy_openblas_set_num_threads64_")

    @pytest.fixture
    def stub_library(self, tmp_path, monkeypatch):
        """load(names) puts one library file in a `numpy.libs` beside a stand-in
        numpy and makes ctypes.CDLL open a stub with the named routines."""
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_-stub.so").touch()
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))

        def load(names):
            lib = types.SimpleNamespace(**{name: types.SimpleNamespace() for name in names})
            monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
            return lib
        return load

    def test_every_routine_bound(self, stub_library):
        lib = stub_library(self.ROUTINES)
        assert spectral._openblas.__wrapped__() is lib
        assert lib.scipy_zgehrd_64_.restype is None
        assert lib.scipy_openblas_get_num_threads64_.restype is ctypes.c_int
        assert lib.scipy_openblas_set_num_threads64_.argtypes == [ctypes.c_int]

    @pytest.mark.parametrize("missing", ROUTINES)
    def test_a_missing_routine_switches_every_route(self, stub_library, missing):
        stub_library([name for name in self.ROUTINES if name != missing])
        assert spectral._openblas.__wrapped__() is None

    def test_bundled_library_is_bound(self):
        # a numpy upgrade that renames a symbol must fail here, not move every
        # Gram inverse to GEMM + inv without a word
        libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not list(libdir.glob("libscipy_openblas64_*.so")):
            pytest.skip("numpy ships no OpenBLAS here")
        assert spectral._openblas() is not None

    def test_one_switch_moves_every_route(self, blas, blas_routes, monkeypatch):
        import scipy.linalg
        calls = []
        for module, name in ((np.linalg, "inv"), (scipy.linalg, "hessenberg")):
            def recording(*args, name=name, fn=getattr(module, name), **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        a = small_matrix(n=16).entries
        seen = {}
        for route in blas_routes():
            calls.clear()
            with spectral.SINGLE_THREADED_BLAS:
                pinned = blas()
            spectral._gram_inverse(a, 0.1)
            spectral.hessenberg(a)
            seen[route] = (pinned, sorted(calls))
        want = {"openblas": (1, []), "fallback": (2, ["hessenberg", "inv"])}
        assert seen == {route: want[route] for route in seen}
        assert "fallback" in seen

    def test_pin_restored_through_the_library_that_set_it(self, blas, monkeypatch):
        with spectral.SINGLE_THREADED_BLAS:
            assert blas() == 1
            monkeypatch.setattr(spectral, "_openblas", lambda: None)
        assert blas() == 2


class TestErrorMatrix:
    def test_deterministic_zero_matrix_oracle(self):
        # X = 0, zeta = 0: G = (i/eta) I, hat-S[G] = (i/eta) I, so D = -I/eta^2
        eta = 0.5
        x = np.zeros((2, 2), dtype=complex)
        solver = ResolventSolver(x, 0.0, eta)
        se = SelfEnergyData(rho=0.5, p=0.1, q=0.2)
        d = error_matrix(x, solver, se)
        assert np.max(np.abs(d - (-1.0 / eta ** 2) * np.eye(4))) < 1e-12
        iso, avg = error_matrix_norms(x, solver, se, default_probes(4, k=8),
                                      default_test_matrices(4))
        assert iso == pytest.approx(1.0 / eta ** 2, rel=1e-12)
        assert avg == pytest.approx(1.0 / eta ** 2, rel=1e-12)

    def test_hatted_self_energy_is_expectation(self):
        # With 2 mu - 1 = rho the identity hat-S[A] = E (H+Z) A (H+Z) is exact
        # including diagonals; check empirically on a fixed A.
        n, rho, mu = 24, 0.6, 0.8
        spec = EnsembleSpec(n=n, rho=rho, mu=mu, seed=11)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        acc = np.zeros_like(a)
        acc_sq = np.zeros((2 * n, 2 * n))
        trials = 3000
        for t in range(trials):
            x = sample(spec, trial=t).entries
            w = np.zeros_like(a)
            w[:n, n:] = x
            w[n:, :n] = x.conj().T
            waw = w @ a @ w
            acc += waw
            acc_sq += np.abs(waw) ** 2
        emp = acc / trials
        stderr = np.sqrt(np.maximum(acc_sq / trials - np.abs(emp) ** 2, 0.0)
                         / trials)
        se = SelfEnergyData.from_spec(spec)
        k11, k12, k21, k22 = self_energy_hat(a[:n, :n], a[:n, n:],
                                             a[n:, :n], a[n:, n:], se)
        pred = np.block([[k11, k12], [k21, k22]])
        assert np.all(np.abs(emp - pred) <= 5.0 * stderr + 1e-9)

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_g_blocks_match_the_dense_resolvent(self, n):
        mat = small_matrix(n=n, seed=5, rho=0.4, mu=0.7)
        zeta, eta = 0.2 + 0.1j, 0.3
        blocks = ResolventSolver(mat.entries, zeta, eta).blocks
        g = dense_resolvent(mat, zeta, eta)
        dense = [g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]]
        for block, oracle in zip(blocks, dense):
            assert np.max(np.abs(block - oracle)) < 1e-12
        _, g12, g21, _ = blocks
        assert np.array_equal(g21, g12.conj().T)

    def test_perturbed_equation_consistency(self):
        # D = (H + Z + hat-S[G])G equals 1 + (i eta + Z + hat-S[G])G exactly
        mat = small_matrix(n=10, seed=8, rho=0.4, mu=0.7)
        zeta, eta = 0.2 + 0.1j, 0.3
        solver = ResolventSolver(mat.entries, zeta, eta)
        se = SelfEnergyData.from_spec(mat.spec)
        d = error_matrix(mat.entries, solver, se)
        n = 10
        g = dense_resolvent(mat, zeta, eta)
        zmat = np.zeros((2 * n, 2 * n), dtype=complex)
        zmat[:n, n:] = zeta * np.eye(n)
        zmat[n:, :n] = np.conj(zeta) * np.eye(n)
        k11, k12, k21, k22 = self_energy_hat(*solver.blocks, se)
        shat = np.block([[k11, k12], [k21, k22]])
        alt = np.eye(2 * n) + (1j * eta * np.eye(2 * n) + zmat + shat) @ g
        assert np.max(np.abs(d - alt)) < 1e-10

    def test_norms_scale_with_dimension(self):
        # smoke check at two n values that the averaged norm decays
        vals = {}
        for n in (64, 256):
            spec = EnsembleSpec(n=n, rho=0.5, seed=3)
            mat = sample(spec)
            solver = ResolventSolver(mat.entries, 0.3 + 0.2j, n ** -0.5)
            se = SelfEnergyData.from_spec(spec)
            _, avg = error_matrix_norms(mat.entries, solver, se, default_probes(2 * n, k=8),
                                        default_test_matrices(2 * n))
            vals[n] = avg
        assert vals[256] < vals[64]

    def test_default_probes_shapes(self):
        probes = default_probes(32, seed=0, k=3)
        assert len(probes) == 7
        for _, p in probes:
            assert p.shape == (32,)
            assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def _traced_peak(fn) -> int:
    """Peak bytes allocated by fn(), as tracemalloc counts numpy's buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """Peak allocations at n = 128 in units of one n x n complex matrix, 16 n^2 bytes."""

    n = 128

    def inputs(self):
        spec = EnsembleSpec(n=self.n, rho=0.5, seed=3)
        return sample(spec).entries, SelfEnergyData.from_spec(spec)

    def test_error_matrix_norms_never_forms_the_2n_matrix(self):
        # the dense D alone is 4 n^2; its four n x n blocks take four buffers
        x, se = self.inputs()
        solver = ResolventSolver(x, 0.3 + 0.2j, self.n ** -0.75)
        solver.blocks
        probes, tests = default_probes(2 * self.n, k=8), default_test_matrices(2 * self.n)
        peak = _traced_peak(lambda: error_matrix_norms(x, solver, se, probes, tests))
        assert peak <= 5.0 * 16 * self.n ** 2

    def test_resolvent_blocks_hold_a_w_and_the_four_blocks(self, blas_routes):
        # A, W and G's four blocks are 6 n^2; G22 is scaled in place
        x, _ = self.inputs()
        for _ in blas_routes():
            peak = _traced_peak(lambda: ResolventSolver(x, 0.3 + 0.2j, self.n ** -0.75).blocks)
            assert peak <= 6.1 * 16 * self.n ** 2


def _power_estimate(b, iters=40, seed=3):
    """The 2-norm estimate the random test matrices were scaled by, with an explicit B^H."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(b.shape[1])
    x /= np.linalg.norm(x)
    bh = b.conj().T
    est = 0.0
    for _ in range(iters):
        x = bh @ (b @ x)
        nrm = np.linalg.norm(x)
        est = np.sqrt(nrm)
        x /= nrm
    return float(est)


def _seeded_reference(n2):
    """The four seeded test matrices, each divided by its 40-step power estimate."""
    rng = np.random.default_rng(1)
    want = []
    for _ in range(4):
        g = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
        g /= _power_estimate(g) * (1.0 + 1e-9)
        want.append(g)
    return want


class TestAveragedErrorNorm:
    """The averaged norm from block traces and dot products, against dense test matrices."""

    @pytest.mark.parametrize("n2", [2, 64, 512])
    def test_default_test_matrices_are_the_seeded_random_ones(self, n2):
        got = default_test_matrices(n2)
        assert [label for label, _ in got] == ["rand0", "rand1", "rand2", "rand3"]
        for (_, b), w in zip(got, _seeded_reference(n2)):
            assert np.array_equal(b, w)

    @pytest.mark.parametrize("n2", [2, 64])
    def test_test_matrices_held_for_one_size(self, n2, monkeypatch):
        want = _seeded_reference(n2)
        spectral._seeded_test_matrices.cache_clear()
        draws = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, size=None):
                if np.ndim(size) == 1 and len(size) == 2:
                    draws.append(size)
                return self.rng.standard_normal(size)
        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        first = default_test_matrices(n2)
        # a cold call draws each normal matrix once
        assert draws == [(n2, n2)] * 8
        # a warm call at one size draws nothing and returns the same read-only arrays
        second = default_test_matrices(n2)
        assert len(draws) == 8
        for (_, a), (_, b) in zip(first, second):
            assert a is b and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        # a call at another size replaces them, so the first size is drawn again
        default_test_matrices(n2 + 2)
        assert draws[8:] == [(n2 + 2, n2 + 2)] * 8
        again = default_test_matrices(n2)
        assert len(draws) == 24
        for (_, a), (_, b), w in zip(first, again, want):
            assert a is not b
            assert a.tobytes() == b.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_matches_dense_kronecker_oracle(self, n, monkeypatch):
        spec = EnsembleSpec(n=n, rho=0.5, mu=0.7, seed=13)
        x = sample(spec)
        solver = ResolventSolver(x, 0.2 + 0.1j, n ** -0.5)
        se = SelfEnergyData.from_spec(spec)
        d = error_matrix(x, solver, se)

        def oracle(mats):
            return max(abs(np.einsum("ij,ji->", b, d)) for b in mats) / (2 * n)

        blocks = [np.kron(c, np.eye(n)) for c in BLOCK_TESTS.values()]
        probes, tests = default_probes(2 * n, k=8), default_test_matrices(2 * n)
        iso, avg = error_matrix_norms(x, solver, se, probes, [])
        assert avg == pytest.approx(oracle(blocks), rel=1e-13)
        # iso against every probe pair of the dense D, one matrix-vector product each
        assert iso == pytest.approx(max(abs(np.vdot(p, d @ q)) for _, p in probes
                                        for _, q in probes), rel=1e-13)
        for label, b in tests:
            _, avg = error_matrix_norms(x, solver, se, probes, [(label, b)])
            assert avg == pytest.approx(oracle(blocks + [b]), rel=1e-13), label
        _, avg = error_matrix_norms(x, solver, se, probes, tests)
        assert avg == pytest.approx(oracle(blocks + [b for _, b in tests]), rel=1e-13)
        # each block test on its own, not just the largest
        for label, c in BLOCK_TESTS.items():
            monkeypatch.setattr(spectral, "BLOCK_TESTS", {label: c})
            _, avg = error_matrix_norms(x, solver, se, probes, [])
            assert avg == pytest.approx(oracle([np.kron(c, np.eye(n))]), rel=1e-13), label
