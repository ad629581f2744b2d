"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Thresholds are pinned
here; seeds are fixed so every run is bit-reproducible.
"""

import time

import numpy as np
import pytest

from ellipticlab import (
    EllipseRegion,
    EllipticParam,
    EnsembleSpec,
    ExperimentGrid,
    ResolventSolver,
    SelfEnergyData,
    SpectralPoint,
    aggregate_moment_test,
    b_from_v,
    decompose,
    delocalisation_test,
    distributional_check,
    error_matrix_experiment,
    girko_consistency,
    hermitize,
    linear_statistics,
    log_det_check,
    log_potential,
    m_matrix,
    monte_carlo_estimate,
    partial_trace,
    resolvent_trace,
    run_experiments,
    sample,
    small_singular_scan,
    solve_dyson,
    solve_dyson_grid,
    stability_analysis,
    v_equation_residual,
    v_limit_bulk,
)
from ellipticlab import TestFunction as Bump

BULK_ZETA = 0.3 + 0.2j


def report(criterion: str, detail: str) -> None:
    print(f"\nPASS {criterion}: {detail}")


def test_criterion_01_dyson_identity_suite():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = {"mde": 0.0, "abs_m": 0.0, "b_eq": 0.0, "v_eq": 0.0, "bound": 0.0}
    count = 0
    while count < 100:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z) >= 10:
            continue
        eta = 10 ** rng.uniform(-6, 0)
        rho = rng.uniform(-0.9, 0.9)
        count += 1
        sol = solve_dyson(SpectralPoint(z, eta), EllipticParam(rho))
        m = m_matrix(sol)
        z2 = np.array([[1j * eta, z], [np.conj(z), 1j * eta]])
        s_m = np.array([[m[1, 1], rho * m[1, 0]], [rho * m[0, 1], m[0, 0]]])
        worst["mde"] = max(worst["mde"],
                           float(np.max(np.abs(np.linalg.inv(m) + z2 + s_m))))
        nm2 = sol.v ** 2 + abs(sol.b) ** 2
        worst["abs_m"] = max(worst["abs_m"], abs(nm2 - sol.v / (eta + sol.v)))
        worst["b_eq"] = max(worst["b_eq"],
                            abs(-np.conj(sol.b) - nm2 * (z + rho * sol.b)))
        worst["v_eq"] = max(worst["v_eq"],
                            abs(v_equation_residual(sol.v, SpectralPoint(z, eta),
                                                    EllipticParam(rho))))
        worst["bound"] = max(worst["bound"], sol.v - min(1.0, 1.0 / eta))
    elapsed = time.time() - start
    assert worst["mde"] <= 1e-10
    assert worst["abs_m"] <= 1e-9
    assert worst["b_eq"] <= 1e-9
    assert worst["v_eq"] <= 1e-9
    assert worst["bound"] <= 1e-12
    assert elapsed < 5.0
    report("criterion-1", f"100 points, residuals {worst}, {elapsed:.2f}s")


def test_criterion_02_closed_form_oracle():
    worst = 0.0
    for eta in (1e-3, 0.1, 1.0, 10.0):
        oracle = (np.sqrt(eta ** 2 + 4.0) - eta) / 2.0
        sol = solve_dyson(SpectralPoint(0.0, eta), EllipticParam(0.4))
        worst = max(worst, abs(sol.v - oracle))
    assert worst <= 1e-10
    report("criterion-2", f"max |v(0,eta) - closed form| = {worst:.3e}")


def test_criterion_03_bulk_limit():
    worst = 0.0
    for rho in (0.0, 0.5, -0.7):
        region = EllipseRegion(rho, delta=0.2)
        pts = region.sample_uniform(np.random.default_rng(5), 10)
        v, _, _, _ = solve_dyson_grid(pts, 1e-6, rho)
        limits = np.array([v_limit_bulk(complex(z), EllipticParam(rho)) ** 2
                           for z in pts])
        worst = max(worst, float(np.max(np.abs(v ** 2 - limits))))
    assert worst <= 1e-3
    report("criterion-3", f"max |v(zeta,1e-6)^2 - limit^2| = {worst:.3e}")


def test_criterion_04_stability():
    spec_err = 0.0
    for rho in (0.0, 0.5, -0.7, 0.9, -0.9):
        rep = stability_analysis(SpectralPoint(0.4 + 0.3j, 0.2), EllipticParam(rho))
        expected = np.array(sorted([1.0, rho, -rho], reverse=True))
        spec_err = max(spec_err, float(np.max(np.abs(np.array(rep.s_spectrum)
                                                     - expected))))
    assert spec_err <= 1e-12

    worst_ratio = 0.0
    radii = [0.0, 2.5, 5.0, 7.5, 9.9]
    angles = [0.0, 1.3, 2.6, 3.9]
    zetas = [complex(r * np.cos(t), r * np.sin(t)) for r in radii for t in angles]
    etas = np.geomspace(1e-5, 1.0, 20)
    for rho in (0.0, 0.5, -0.7):
        param = EllipticParam(rho)
        for z in zetas:          # 20 zeta points x 20 eta points
            for eta in etas:
                rep = stability_analysis(SpectralPoint(z, eta), param)
                worst_ratio = max(worst_ratio, rep.inv_norm / rep.bound_rhs)
    assert worst_ratio <= 5.0
    report("criterion-4", f"spectrum err {spec_err:.2e}, "
                          f"worst inv_norm ratio {worst_ratio:.3f} <= 5")


def test_criterion_05_log_potential():
    # oracle: the stated integral evaluates to -1/2 (see tests/test_potential.py
    # for the independent high-precision derivation)
    val = log_potential(0.0, EllipticParam(0.0), quad_tol=1e-6)
    err = abs(val - (-0.5))
    assert err <= 1e-4

    psi = Bump(kind="polynomial-bump", center=0.1 + 0.05j, radius=0.35)
    lhs, rhs = distributional_check(psi, EllipticParam(0.5), nodes=64,
                                    quad_tol=2e-5)
    rel = abs(lhs - rhs) / abs(rhs)
    assert rel <= 1e-2
    report("criterion-5", f"|L(0)+1/2| = {err:.2e}; pairing rel err {rel:.2e}")


def test_criterion_06_sampler_moments():
    results = []
    for rho, mu in ((0.5, 1.0), (0.5, 0.5), (-0.7, 1.0)):
        mats = [sample(EnsembleSpec(n=1000, rho=rho, mu=mu, seed=s))
                for s in range(50)]
        rep = aggregate_moment_test(mats)
        for key in ("cov_pair", "pseudo_cov", "conj_cov"):
            dev = abs(getattr(rep, key) - rep.targets[key])
            assert dev <= 5.0 * rep.stderrs[key] + 1e-15, (rho, mu, key)
            results.append(f"{key}@({rho},{mu}): {dev / rep.stderrs[key]:.2f} se"
                           if rep.stderrs[key] else f"{key}: exact")
    report("criterion-6", "; ".join(results[:3]) + " ...")


def test_criterion_07_spectral_engine_exactness():
    # Ward identity and block-trace equality at n = 256
    spec = EnsembleSpec(n=256, rho=0.5, seed=3)
    x = sample(spec)
    eta = 0.05
    solver = ResolventSolver(x.entries, BULK_ZETA, eta)
    rng = np.random.default_rng(0)
    worst_ward = 0.0
    for _ in range(20):
        p = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        gp = solver.apply(p)
        lhs = eta * float(np.vdot(gp, gp).real)
        rhs = float(np.vdot(p, gp).imag)
        worst_ward = max(worst_ward, abs(lhs - rhs) / abs(rhs))
    assert worst_ward <= 1e-9

    g = np.linalg.inv(hermitize(x, BULK_ZETA).matrix - 1j * eta * np.eye(512))
    block_gap = abs(np.trace(g[:256, :256]) - np.trace(g[256:, 256:])) / 256
    assert block_gap <= 1e-9

    # resolvent trace against a dense inverse at n = 16
    x16 = sample(EnsembleSpec(n=16, rho=0.5, seed=4))
    dec16 = decompose(hermitize(x16, BULK_ZETA))
    g16 = np.linalg.inv(hermitize(x16, BULK_ZETA).matrix - 1j * 0.02 * np.eye(32))
    trace_gap = abs(resolvent_trace(dec16, 0.02) - np.trace(g16) / 32)
    assert trace_gap <= 1e-9

    # log-determinant identity at n <= 64, T = 1e3
    worst_logdet = 0.0
    for n, seed in ((16, 5), (64, 6)):
        dec = decompose(hermitize(sample(EnsembleSpec(n=n, rho=0.5, seed=seed)),
                                  BULK_ZETA))
        lhs, rhs = log_det_check(dec, 1e3)
        worst_logdet = max(worst_logdet, abs(lhs - rhs) / n)
    assert worst_logdet <= 1e-6
    report("criterion-7", f"ward {worst_ward:.2e}, blocks {block_gap:.2e}, "
                          f"trace {trace_gap:.2e}, logdet/n {worst_logdet:.2e}")


@pytest.fixture(scope="module")
def local_laws():
    # criteria 8 and 9 on one run: one sample and one resolvent per trial serve both
    grid = ExperimentGrid(n_values=(256, 512, 1024, 2048), zeta=BULK_ZETA,
                          beta=0.75, trials=20, delta=0.1,
                          seed=1, rho=0.5)
    start = time.time()
    reps = run_experiments(grid, {"local-law": {}, "iso-law": {}}, threads=2)
    reps["local-law"].summary["runtime_s"] = time.time() - start
    return reps


def test_criterion_08_averaged_local_law(local_laws):
    rep = local_laws["local-law"]
    for n in (256, 512, 1024, 2048):
        neta = n * float(n) ** -0.75
        assert rep.summary["median_by_n"][str(n)] <= 10.0 / neta
    # regression of the median error on the local-law axis n*eta; the
    # proposition's exponent there is -1 (see the decisions ledger on the
    # spec's beta scaling slip), window +-35%
    slope = rep.summary["slope_vs_neta"]
    assert -1.35 <= slope <= -0.65
    assert rep.summary["runtime_s"] <= 15 * 60
    report("criterion-8", f"medians {rep.summary['median_by_n']}, "
                          f"slope vs n*eta {slope:.3f}, "
                          f"{rep.summary['runtime_s']:.0f}s")


def test_criterion_09_isotropic_local_law(local_laws):
    rep = local_laws["iso-law"]
    frac = rep.summary["record_pass_fraction"]
    assert frac >= 0.95
    report("criterion-9", f"pass fraction {frac:.3f} (max observed "
                          f"{rep.summary['max_observed']:.3f})")


def test_criterion_10_delocalisation():
    spec = EnsembleSpec(n=1024, rho=0.5, seed=1)
    rep = delocalisation_test(spec, delta=0.2, trials=10, threads=2)
    envelope = 10.0 * np.sqrt(np.log(1024))
    worst = rep.summary["max_stat"]
    assert all(r.observed <= envelope for r in rep.records)
    report("criterion-10", f"max sqrt(n) overlap {worst:.2f} <= {envelope:.2f}")


def test_criterion_11_small_singular_values():
    grid = ExperimentGrid(n_values=(1024,), zeta=BULK_ZETA,
                          beta=0.75, trials=5, delta=0.1,
                          seed=1, rho=0.5)
    rep = small_singular_scan(grid, threads=2)
    assert rep.summary["max_ratio"] <= 20.0

    floor = 512.0 ** -3
    sigmin = []
    for t in range(50):
        x = sample(EnsembleSpec(n=512, rho=0.5, seed=2), trial=t)
        s = np.linalg.svd(x.entries - BULK_ZETA * np.eye(512), compute_uv=False)
        sigmin.append(float(s[-1]))
    assert min(sigmin) >= floor
    report("criterion-11", f"max count/(n eta) {rep.summary['max_ratio']:.2f}; "
                           f"min sigma_min {min(sigmin):.2e} >= {floor:.2e}")


def test_criterion_12_linear_statistics():
    grid = ExperimentGrid(n_values=(256, 512, 1024), zeta=BULK_ZETA,
                          beta=0.75, trials=5, delta=0.1,
                          seed=1, rho=0.5)
    tf = Bump(kind="polynomial-bump", center=BULK_ZETA, alpha=0.25)
    rep = linear_statistics(grid, tf, threads=2)
    l1 = tf.norm_delta_l1
    for n in (256, 512, 1024):
        assert rep.summary["median_by_n"][str(n)] <= 10.0 * float(n) ** -0.4 * l1
    slope = rep.summary["slope_vs_n"]
    assert slope <= -0.3
    report("criterion-12", f"medians {rep.summary['median_by_n']}, "
                           f"slope {slope:.3f} <= -0.3")


def test_criterion_13_girko_identity():
    x = sample(EnsembleSpec(n=16, rho=0.5, seed=6))
    tf = Bump(kind="polynomial-bump", center=0.0, radius=0.6)
    disc = girko_consistency(x, tf, quad_tol=1e-5)
    assert disc <= 1e-3
    report("criterion-13", f"girko discrepancy {disc:.2e} <= 1e-3 at n=16")


def test_criterion_14_monte_carlo_coverage():
    region = EllipseRegion(0.5, 0.1)
    rng = np.random.default_rng(12)
    violations = 0
    for _ in range(1000):
        est, bound = monte_carlo_estimate(lambda z: z.real, region, 100, 0.1, rng)
        if abs(est) > bound:
            violations += 1
    freq = violations / 1000.0
    assert freq <= 0.1
    report("criterion-14", f"bound violation frequency {freq:.4f} <= 0.1")


def test_criterion_15_error_matrix():
    grid = ExperimentGrid(n_values=(1024,), zeta=BULK_ZETA,
                          beta=0.7, trials=20, delta=0.1,
                          seed=1, rho=0.5)
    rep = error_matrix_experiment(grid, threads=2)
    ok_avg = ok_iso = 0
    for r in rep.records:
        if r.observed <= 10.0 * r.envelope:
            ok_avg += 1
        if r.extras["iso"] <= 10.0 * r.extras["iso_envelope"]:
            ok_iso += 1
    assert ok_avg / len(rep.records) >= 0.95
    assert ok_iso / len(rep.records) >= 0.95
    report("criterion-15", f"avg-norm pass {ok_avg}/20, iso-norm pass {ok_iso}/20")
