"""Spectral engine against dense-inverse, eigensolver, and hand-computed oracles."""

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
    resolvent_isotropic,
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
    resolvent_functionals,
    self_energy_hat,
    _g_blocks,
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
        h = hermitize(small_matrix(n=12, seed=2), -0.2 + 0.6j)
        dec = decompose(h)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        scale = np.max(np.abs(h.matrix))
        assert np.max(np.abs(h.matrix - rebuilt)) < 1e-10 * scale
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(2 * h.n))) < 1e-12

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
        zeta, eta = -0.1 + 0.4j, 0.05
        dec = decompose(hermitize(mat, zeta))
        g = dense_resolvent(mat, zeta, eta)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            assert abs(resolvent_isotropic(dec, eta, x, y)
                       - np.vdot(x, g @ y)) < 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_isotropic_trace_identity(self):
        dec = decompose(hermitize(small_matrix(n=6, seed=6), 0.2))
        eta = 0.7
        acc = 0.0
        for i in range(12):
            e = np.zeros(12, dtype=complex)
            e[i] = 1.0
            acc += resolvent_isotropic(dec, eta, e, e)
        assert abs(acc / 12 - resolvent_trace(dec, eta)) < 1e-12

    def test_isotropic_norm_bound(self):
        dec = decompose(hermitize(small_matrix(seed=7), 0.0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16)
        y = rng.standard_normal(16)
        eta = 0.2
        val = resolvent_isotropic(dec, eta, x, y)
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
        dec = decompose(hermitize(small_matrix(n=8, seed=12), 0.1))
        probes = [("p0", *np.eye(16, dtype=complex)[:2])]
        fn = resolvent_functionals(dec, 0.5, probes)
        assert fn.avg_trace.imag > 0
        assert len(fn.iso_entries) == 1
        assert np.isfinite(fn.log_det)


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

    def test_traces_match_decomposition(self):
        mat = small_matrix(n=20, seed=7)
        zeta, eta = -0.2 + 0.1j, 0.08
        solver = ResolventSolver(mat.entries, zeta, eta)
        dec = decompose(hermitize(mat, zeta))
        assert abs(solver.avg_trace() - resolvent_trace(dec, eta)) < 1e-11
        assert np.max(np.abs(solver.partial_traces() - partial_trace(dec, eta))) < 1e-11


class TestErrorMatrix:
    def test_deterministic_zero_matrix_oracle(self):
        # X = 0, zeta = 0: G = (i/eta) I, hat-S[G] = (i/eta) I, so D = -I/eta^2
        eta = 0.5
        x = np.zeros((2, 2), dtype=complex)
        dec = decompose(hermitize(x, 0.0))
        se = SelfEnergyData(rho=0.5, p=0.1, q=0.2)
        d = error_matrix(x, dec, eta, se)
        assert np.max(np.abs(d - (-1.0 / eta ** 2) * np.eye(4))) < 1e-12
        iso, avg = error_matrix_norms(x, dec, eta, se)
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
        dec = decompose(hermitize(mat, zeta))
        g = dense_resolvent(mat, zeta, eta)
        dense = [g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]]
        for block, oracle in zip(_g_blocks(dec, eta), dense):
            assert np.max(np.abs(block - oracle)) < 1e-12
        _, g12, g21, _ = _g_blocks(dec, eta)
        assert np.array_equal(g21, g12.conj().T)

    def test_perturbed_equation_consistency(self):
        # D = (H + Z + hat-S[G])G equals 1 + (i eta + Z + hat-S[G])G exactly
        mat = small_matrix(n=10, seed=8, rho=0.4, mu=0.7)
        zeta, eta = 0.2 + 0.1j, 0.3
        dec = decompose(hermitize(mat, zeta))
        se = SelfEnergyData.from_spec(mat.spec)
        d = error_matrix(mat.entries, dec, eta, se)
        n = 10
        g = dense_resolvent(mat, zeta, eta)
        zmat = np.zeros((2 * n, 2 * n), dtype=complex)
        zmat[:n, n:] = zeta * np.eye(n)
        zmat[n:, :n] = np.conj(zeta) * np.eye(n)
        g11, g12, g21, g22 = _g_blocks(dec, eta)
        k11, k12, k21, k22 = self_energy_hat(g11, g12, g21, g22, se)
        shat = np.block([[k11, k12], [k21, k22]])
        alt = np.eye(2 * n) + (1j * eta * np.eye(2 * n) + zmat + shat) @ g
        assert np.max(np.abs(d - alt)) < 1e-10

    def test_norms_scale_with_dimension(self):
        # smoke check at two n values that the averaged norm decays
        vals = {}
        for n in (64, 256):
            spec = EnsembleSpec(n=n, rho=0.5, seed=3)
            mat = sample(spec)
            dec = decompose(hermitize(mat, 0.3 + 0.2j))
            eta = n ** -0.5
            se = SelfEnergyData.from_spec(spec)
            _, avg = error_matrix_norms(mat.entries, dec, eta, se)
            vals[n] = avg
        assert vals[256] < vals[64]

    def test_default_probes_shapes(self):
        probes = default_probes(32, seed=0, k=3)
        assert len(probes) == 7
        for _, p in probes:
            assert p.shape == (32,)
            assert abs(np.linalg.norm(p) - 1.0) < 1e-12


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


class TestAveragedErrorNorm:
    """The averaged norm from block traces and dot products, against dense test matrices."""

    @pytest.mark.parametrize("n2", [2, 64, 512])
    def test_default_test_matrices_are_the_seeded_random_ones(self, n2):
        rng = np.random.default_rng(1)
        want = []
        for _ in range(4):
            g = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
            g /= _power_estimate(g) * (1.0 + 1e-9)
            want.append(g)
        got = default_test_matrices(n2)
        assert [label for label, _ in got] == ["rand0", "rand1", "rand2", "rand3"]
        for (_, b), w in zip(got, want):
            assert np.array_equal(b, w)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_matches_dense_kronecker_oracle(self, n, monkeypatch):
        spec = EnsembleSpec(n=n, rho=0.5, mu=0.7, seed=13)
        x = sample(spec)
        eta = n ** -0.5
        dec = decompose(hermitize(x, 0.2 + 0.1j))
        se = SelfEnergyData.from_spec(spec)
        d = error_matrix(x, dec, eta, se)

        def oracle(mats):
            return max(abs(np.einsum("ij,ji->", b, d)) for b in mats) / (2 * n)

        blocks = [np.kron(c, np.eye(n)) for c in BLOCK_TESTS.values()]
        tests = default_test_matrices(2 * n)
        _, avg = error_matrix_norms(x, dec, eta, se, test_matrices=[])
        assert avg == pytest.approx(oracle(blocks), rel=1e-13)
        for label, b in tests:
            _, avg = error_matrix_norms(x, dec, eta, se, test_matrices=[(label, b)])
            assert avg == pytest.approx(oracle(blocks + [b]), rel=1e-13), label
        _, avg = error_matrix_norms(x, dec, eta, se)
        assert avg == pytest.approx(oracle(blocks + [b for _, b in tests]), rel=1e-13)
        # each block test on its own, not just the largest
        for label, c in BLOCK_TESTS.items():
            monkeypatch.setattr(spectral, "BLOCK_TESTS", {label: c})
            _, avg = error_matrix_norms(x, dec, eta, se, test_matrices=[])
            assert avg == pytest.approx(oracle([np.kron(c, np.eye(n))]), rel=1e-13), label
