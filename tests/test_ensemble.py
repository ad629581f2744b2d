"""Sampler moments, counter-based reproducibility, and the binary dump."""

import numpy as np
import pytest

from ellipticlab import (
    EnsembleSpec,
    aggregate_moment_test,
    load_matrix,
    moment_self_test,
    rng_policy,
    sample,
    save_matrix,
)
from ellipticlab.ensemble import _correlated_signs, _moment_sums


def gaussian_spec(n=1000, rho=0.5, mu=1.0, seed=7):
    return EnsembleSpec(n=n, rho=rho, mu=mu, base="gaussian", seed=seed)


class TestReproducibility:
    def test_bitwise_identical_resample(self):
        spec = gaussian_spec(n=200)
        a = sample(spec, trial=3).entries
        b = sample(spec, trial=3).entries
        assert np.array_equal(a, b)

    def test_trials_differ(self):
        spec = gaussian_spec(n=200)
        assert not np.array_equal(sample(spec, 0).entries, sample(spec, 1).entries)

    def test_trial_order_permutation_invariant(self):
        spec = gaussian_spec(n=150)
        forward = [sample(spec, t).entries for t in range(4)]
        backward = [sample(spec, t).entries for t in reversed(range(4))]
        for t in range(4):
            assert np.array_equal(forward[t], backward[3 - t])

    def test_substreams_independent_smoke(self):
        g0 = rng_policy(9, 0).standard_normal(50_000)
        g1 = rng_policy(9, 1).standard_normal(50_000)
        corr = np.corrcoef(g0, g1)[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(50_000)

    def test_negative_index_rejected(self):
        # a negative index would wrap in the uint64 Philox counter
        with pytest.raises(ValueError, match="must be >= 0"):
            rng_policy(9, -1)
        with pytest.raises(ValueError, match="must be >= 0"):
            sample(gaussian_spec(n=4), -1)


def _index_scatter_sample(spec, trial):
    """The sampler's draws and values, scattered with np.triu_indices fancy
    indexing: the scatter `sample` used before its boolean mask."""
    n, rho, mu = spec.n, spec.rho, spec.mu
    rng = rng_policy(spec.seed, trial)
    iu, ju = np.triu_indices(n, k=1)
    npairs = iu.size
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
    x[iu, ju] = (re1 + 1j * im1) * scale
    x[ju, iu] = (re2 + 1j * im2) * scale
    x[np.diag_indices(n)] = diag * scale
    return x


class TestScatter:
    @pytest.mark.parametrize("base,mu", [("gaussian", 0.0), ("gaussian", 0.3),
                                         ("gaussian", 1.0), ("rademacher-mixture", 0.0),
                                         ("rademacher-mixture", 0.5),
                                         ("rademacher-mixture", 1.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 257])
    def test_mask_scatter_matches_index_scatter(self, base, mu, n):
        spec = EnsembleSpec(n=n, rho=0.4, mu=mu, base=base, seed=5)
        got = sample(spec, trial=2).entries
        assert got.tobytes() == _index_scatter_sample(spec, 2).tobytes()


class TestGaussianMoments:
    @pytest.mark.parametrize("rho,mu", [(0.5, 1.0), (0.5, 0.5), (-0.7, 1.0),
                                        (0.3, 0.25)])
    def test_single_matrix_self_test(self, rho, mu):
        rep = moment_self_test(sample(gaussian_spec(rho=rho, mu=mu)))
        assert rep.ok, rep.flags

    def test_targets(self):
        n, rho, mu = 1000, 0.5, 0.25
        rep = moment_self_test(sample(gaussian_spec(rho=rho, mu=mu)))
        assert rep.targets["cov_pair"] == pytest.approx(rho / n)
        assert rep.targets["pseudo_cov"] == pytest.approx((2 * mu - 1) / n)
        assert rep.targets["conj_cov"] == pytest.approx((2 * mu - 1) * rho / n)
        assert rep.targets["var"] == pytest.approx(1.0 / n)

    def test_mu_one_is_real(self):
        x = sample(gaussian_spec(n=150, mu=1.0)).entries
        assert np.max(np.abs(x.imag)) == 0.0

    def test_mu_half_kills_pseudo_covariance(self):
        rep = aggregate_moment_test(
            [sample(gaussian_spec(n=600, mu=0.5, seed=s)) for s in range(8)])
        assert abs(rep.pseudo_cov) < 5 * rep.stderrs["pseudo_cov"]
        assert abs(rep.conj_cov) < 5 * rep.stderrs["conj_cov"]

    def test_aggregated_moments(self):
        mats = [sample(gaussian_spec(n=500, seed=s)) for s in range(10)]
        rep = aggregate_moment_test(mats)
        assert rep.ok, rep.flags
        assert abs(rep.cov_pair - 0.5 / 500) < 5 * rep.stderrs["cov_pair"]

    def test_pair_covariance_sign_flip(self):
        # rho -> -rho flips the sign of cov_pair; transposition leaves the
        # pair product (hence cov_pair) invariant
        n = 800
        neg = sample(EnsembleSpec(n=n, rho=-0.5, seed=4))
        iu, ju = np.triu_indices(n, k=1)
        x = neg.entries
        pair = x[iu, ju] * x[ju, iu]
        se = np.sqrt(np.var(pair.real) + np.var(pair.imag)) / np.sqrt(pair.size)
        assert abs(pair.mean() - (-0.5 / n)) < 5 * se
        xt = x.T
        pair_t = xt[iu, ju] * xt[ju, iu]
        assert pair_t.mean() == pair.mean()

    def test_atom_moments_up_to_order_eight(self):
        # scaled off-diagonal entries are standard normals when mu = 1
        x = sample(gaussian_spec(n=1000, rho=0.0, mu=1.0)).entries
        off = ~np.eye(1000, dtype=bool)
        xi = (x[off] * np.sqrt(1000)).real
        for k, target in ((2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)):
            m_k = np.mean(xi ** k)
            se = np.std(xi ** k) / np.sqrt(xi.size)
            assert abs(m_k - target) < 5 * se


def _masked_moment_sums(matrix):
    """The moment sums by boolean masks and index pairs, as a reference."""
    x, n = matrix.entries, matrix.n
    xo = x[~np.eye(n, dtype=bool)]
    iu, ju = np.triu_indices(n, k=1)
    pair = x[iu, ju] * x[ju, iu]
    conj = x[iu, ju] * np.conj(x[ju, iu])
    sq = xo ** 2
    return {
        "mean": (xo.sum(), np.sum(np.abs(xo) ** 2), xo.size),
        "var": (np.sum(np.abs(xo) ** 2), np.sum(np.abs(xo) ** 4), xo.size),
        "cov_pair": (pair.sum(), np.sum(np.abs(pair) ** 2), pair.size),
        "pseudo_cov": (sq.sum(), np.sum(np.abs(sq) ** 2), sq.size),
        "conj_cov": (conj.sum(), np.sum(np.abs(conj) ** 2), conj.size),
    }


class TestMomentSums:
    @pytest.mark.parametrize("n", [2, 3, 64])
    @pytest.mark.parametrize("mu", [1.0, 0.7])
    def test_match_masked_sums(self, n, mu):
        matrix = sample(gaussian_spec(n=n, mu=mu, seed=5))
        got, want = _moment_sums(matrix), _masked_moment_sums(matrix)
        assert got.keys() == want.keys()
        for key in want:
            for g, w in zip(got[key], want[key]):
                assert abs(g - w) <= 1e-14 * abs(w), (key, g, w)

    def test_one_by_one_unchanged(self):
        matrix = sample(gaussian_spec(n=1, mu=0.7))
        got, want = _moment_sums(matrix), _masked_moment_sums(matrix)
        for key in want:
            assert [(type(v), v) for v in got[key]] == [(type(v), v) for v in want[key]]


class TestRademacher:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_moments(self, mu):
        spec = EnsembleSpec(n=1000, rho=0.4, mu=mu, base="rademacher-mixture", seed=2)
        rep = moment_self_test(sample(spec))
        assert rep.ok, rep.flags

    def test_unit_modulus_entries(self):
        spec = EnsembleSpec(n=300, rho=0.4, mu=1.0, base="rademacher-mixture", seed=2)
        x = sample(spec).entries
        assert np.allclose(np.abs(x) * np.sqrt(300), 1.0)

    def test_invalid_mu_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=100, rho=0.4, mu=0.3, base="rademacher-mixture")


class TestValidation:
    def test_bad_specs(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=0, rho=0.5)
        with pytest.raises(ValueError):
            EnsembleSpec(n=100, rho=1.0)
        with pytest.raises(ValueError):
            EnsembleSpec(n=100, rho=0.5, mu=1.5)
        with pytest.raises(ValueError):
            EnsembleSpec(n=100, rho=0.5, base="cauchy")
        with pytest.raises(ValueError):
            EnsembleSpec(n=9000, rho=0.5)

    def test_moment_test_needs_size(self):
        with pytest.raises(ValueError):
            moment_self_test(sample(gaussian_spec(n=50)))


class TestDump:
    def test_round_trip_bitwise(self, tmp_path):
        mat = sample(gaussian_spec(n=64, mu=0.3))
        path = tmp_path / "m.bin"
        save_matrix(mat, path)
        back = load_matrix(path)
        assert np.array_equal(back, mat.entries)
        assert path.stat().st_size == 16 + 2 * 64 * 64 * 8

    def test_header_layout(self, tmp_path):
        mat = sample(gaussian_spec(n=3))
        path = tmp_path / "m.bin"
        save_matrix(mat, path)
        raw = path.read_bytes()
        assert raw[:4] == b"ELXM"
        # little-endian interleaved doubles follow the 16-byte header
        first = np.frombuffer(raw[16:32], dtype="<f8")
        assert first[0] == mat.entries[0, 0].real
        assert first[1] == mat.entries[0, 0].imag

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"oops" + b"\0" * 28)
        with pytest.raises(ValueError):
            load_matrix(path)
