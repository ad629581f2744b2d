"""The three benchmark workloads: inputs from a seed, timed ops, output checks.

A workload builds a short list of input items from the benchmark seed; one
timed iteration runs the ops of one item.  An op is one public call into
ellipticlab and returns (records, units): JSON-able outputs and the number
of workload units it completed.  ``check`` validates the records of one
iteration against oracles that hold for any seed; the program itself only
ever sees the generated configs and inputs, never the benchmark seed.

Settings differ from the full-size runs (battery n=512, dyson-field
65x65x257 grids, Girko quad_tol 1e-5) so that several
iterations fit in one timed run; README.md lists each reduction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

# Functions are called through their modules, never imported by name, so
# that the tracer's wrappers see the benchmark's own calls too.
from ellipticlab import cli, dyson, ensemble, harness, potential, spectral, stability
from ellipticlab.bumps import TestFunction
from ellipticlab.dyson import EllipseRegion, EllipticParam, SpectralPoint
from ellipticlab.ensemble import EnsembleSpec

from tracer import mde_residual

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


class Check:
    """One verified property of an op's output.

    `dev` is the relative gap to an oracle or reference, or None for a
    pass/fail gate.
    """

    __slots__ = ("op", "what", "ok", "dev")

    def __init__(self, op: str, what: str, ok, dev=None):
        self.op, self.what, self.ok = op, what, bool(ok)
        self.dev = None if dev is None else float(dev)


def _rel(a, b) -> float:
    """max |a - b| / max |b|, elementwise over arrays."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return float(np.max(np.abs(a - b))) / scale if scale else float(np.max(np.abs(a - b)))


def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _dense_resolvent(x: np.ndarray, zeta: complex, eta: float) -> np.ndarray:
    """G = (H_zeta - i eta)^{-1} from the explicit 2n x 2n Hermitization."""
    n = x.shape[0]
    a = x - zeta * np.eye(n)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = a
    h[n:, :n] = a.conj().T
    return np.linalg.inv(h - 1j * eta * np.eye(2 * n))


def _block_traces(g: np.ndarray) -> np.ndarray:
    n = g.shape[0] // 2
    return np.array([[np.trace(g[:n, :n]), np.trace(g[:n, n:])],
                     [np.trace(g[n:, :n]), np.trace(g[n:, n:])]]) / n


# -- battery -------------------------------------------------------------------

class Battery:
    """`ellipticlab experiment` over six sample-based experiments."""

    name = "battery"
    unit = "(experiment, trial) pairs"
    n, trials, rho, zeta, beta = 256, 2, 0.5, 0.3 + 0.2j, 0.75
    experiments = ("local-law", "iso-law", "ssv-scan", "deloc", "linstats", "error-matrix")
    reports = ("averaged_local_law", "isotropic_local_law", "small_singular_scan",
               "delocalisation", "linear_statistics", "error_matrix")
    items_per_seed = 4
    pool_threads = NPROC

    def build(self, seed: int, workdir: Path) -> list:
        items = []
        for j in range(self.items_per_seed):
            cfg = {"schema": 1,
                   "ensemble": {"rho": self.rho, "mu": 1.0, "base": "gaussian",
                                "seed": seed * self.items_per_seed + j},
                   "grid": {"n_values": [self.n], "zeta": "0.3+0.2i", "beta": self.beta,
                            "trials": self.trials, "delta": 0.1},
                   "alpha": 0.25, "experiments": list(self.experiments)}
            path = workdir / f"battery-{j}.json"
            # an explicit output_dir: the config's value wins over --out-dir
            path.write_text(json.dumps({**cfg, "output_dir": str(workdir / f"battery-{j}")}))
            items.append({"config": cfg, "path": str(path), "out": str(workdir / f"battery-{j}")})
        return items

    def inputs(self, item) -> dict:
        return item["config"]

    def ops(self, item) -> list:
        def experiment(state):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                # --seed always overrides the config's seed (its default is 1),
                # so the config's seed is passed again on the command line
                rc = cli.main(["experiment", item["path"], "--threads", str(NPROC),
                               "--seed", str(item["config"]["ensemble"]["seed"])])
            out = Path(item["out"])
            records = {"rc": rc}
            for rep in self.reports:
                records[rep] = {
                    "records": [json.loads(line) for line in
                                (out / f"{rep}.jsonl").read_text().splitlines()],
                    "summary": json.loads((out / f"{rep}.summary.json").read_text())["summary"],
                }
            return records, len(self.experiments) * self.trials
        return [("experiment", experiment)]

    def check(self, item, outputs: dict, state: dict) -> list:
        rec = outputs["experiment"]
        checks = [Check("experiment", "cli exit code 0", rec["rc"] == 0)]
        for rep in self.reports:
            checks.append(Check("experiment", f"{rep} gate",
                                rec[rep]["summary"].get("passed") is True))
        # oracle: <G>, the block traces and the iso-law trace error of trial 0
        # from a dense inverse of the 2n x 2n Hermitization
        ens = item["config"]["ensemble"]
        spec = EnsembleSpec(n=self.n, rho=ens["rho"], mu=ens["mu"], base=ens["base"],
                            seed=ens["seed"])
        x = ensemble.sample(spec, 0).entries
        eta = float(self.n) ** (-self.beta)
        g = _dense_resolvent(x, self.zeta, eta)
        traces = _block_traces(g)
        avg = np.trace(g) / (2 * self.n)
        law = next(r for r in rec["averaged_local_law"]["records"] if r["trial"] == 0)
        iso = next(r for r in rec["isotropic_local_law"]["records"] if r["trial"] == 0)
        devs = {
            "local-law <G> vs dense inverse":
                _rel(complex(law["avg_g_re"], law["avg_g_im"]), avg),
            "iso-law trace error vs dense inverse":
                _rel(iso["avg_err"], abs(avg - 1j * law["v"])),
            "partial traces vs dense inverse":
                _rel(spectral.partial_trace(
                    spectral.decompose(spectral.hermitize(x, self.zeta)), eta), traces),
            "resolvent-solver partial traces vs dense inverse":
                _rel(spectral.ResolventSolver(x, self.zeta, eta).partial_traces(), traces),
        }
        checks += [Check("experiment", what, dev <= 1e-8, dev) for what, dev in devs.items()]
        return checks


# -- dyson-field ---------------------------------------------------------------

class DysonField:
    """Dyson grids, the log-potential pairing and stability: no matrices."""

    name = "dyson-field"
    unit = "Dyson grid points"
    grid_zeta = np.linspace(-2.0, 2.0, 33)            # contains zeta = 0
    grid_eta = np.logspace(-12.0, 8.0, 65)
    rhos = (0.5, 0.95)
    tol = 1e-12
    bump = {"kind": "polynomial-bump", "center": 0.1 + 0.05j, "radius": 0.35}
    pairing_nodes, pairing_quad_tol = 24, 2e-5
    potential_quad_tol = 1e-6
    rho_bulk = 0.5
    items_per_seed = 4
    check_state = rhos

    def build(self, seed: int, workdir: Path) -> list:
        items = []
        for j in range(self.items_per_seed):
            rng = np.random.default_rng([seed, j])
            stab = EllipseRegion(self.rho_bulk, 0.2).sample_uniform(rng, 16)
            stab_eta = 10.0 ** rng.uniform(-3.0, 0.0, 16)
            pot = EllipseRegion(self.rho_bulk, 0.05).sample_uniform(rng, 8)
            items.append({"stability": [[*_c(z), float(e)] for z, e in zip(stab, stab_eta)],
                          "potential": [_c(z) for z in pot]})
        return items

    def inputs(self, item) -> dict:
        return {**item, "grid_zeta": self.grid_zeta.tolist(), "grid_eta": self.grid_eta.tolist(),
                "rhos": list(self.rhos), "bump": {**self.bump, "center": _c(self.bump["center"])},
                "pairing": [self.pairing_nodes, self.pairing_quad_tol]}

    def zeta_grid(self) -> np.ndarray:
        return self.grid_zeta[:, None] + 1j * self.grid_zeta[None, :]

    def ops(self, item) -> list:
        def grid(rho):
            def op(state):
                v, b, _, _ = dyson.solve_dyson_grid(self.zeta_grid()[:, :, None],
                                                    self.grid_eta[None, None, :], rho,
                                                    tol=self.tol)
                state[rho] = (v, b)
                return {"v_sum": float(v.sum()), "b_abs_sum": float(np.abs(b).sum()),
                        "v_min": float(v.min())}, int(v.size)
            return op

        def pairing(state):
            lhs, rhs = potential.distributional_check(
                TestFunction(**self.bump), EllipticParam(self.rho_bulk),
                nodes=self.pairing_nodes, quad_tol=self.pairing_quad_tol)
            return {"lhs": lhs, "rhs": rhs}, 0

        def log_potential(state):
            pts = np.array([complex(*z) for z in item["potential"]])
            vals = potential.log_potential_grid(pts, EllipticParam(self.rho_bulk),
                                                quad_tol=self.potential_quad_tol)
            return {"L": [float(v) for v in vals]}, 0

        def stability_points(state):
            out = []
            for re, im, eta in item["stability"]:
                rep = stability.stability_analysis(SpectralPoint(complex(re, im), eta),
                                                   EllipticParam(self.rho_bulk))
                out.append({"s_spectrum": list(rep.s_spectrum), "inv_norm": rep.inv_norm,
                            "bound_rhs": rep.bound_rhs, "v": rep.solution.v})
            return {"points": out}, 0

        return ([(f"grid[rho={rho}]", grid(rho)) for rho in self.rhos]
                + [("pairing", pairing), ("log-potential", log_potential),
                   ("stability", stability_points)])

    def check(self, item, outputs: dict, state: dict) -> list:
        checks = []
        zeta, eta = np.broadcast_arrays(self.zeta_grid()[:, :, None],
                                        self.grid_eta[None, None, :])
        centre = int(np.flatnonzero(self.grid_zeta == 0.0)[0])
        exact = 2.0 / (self.grid_eta + np.sqrt(self.grid_eta ** 2 + 4.0))
        for rho in self.rhos:
            op = f"grid[rho={rho}]"
            v, b = state[rho]
            res = float(np.max(mde_residual(zeta, eta, v, b, rho)))
            checks.append(Check(op, "defining-relation residual <= tol", res <= self.tol, res))
            dev = _rel(v[centre, centre, :], exact)
            checks.append(Check(op, "v(0, eta) vs closed form", dev <= 1e-9, dev))
        lhs, rhs = outputs["pairing"]["lhs"], outputs["pairing"]["rhs"]
        dev = abs(lhs - rhs) / abs(rhs)
        checks.append(Check("pairing", "pairing relative error <= 1e-2", dev <= 1e-2, dev))
        rho = self.rho_bulk
        pts = np.array([complex(*z) for z in item["potential"]])
        closed = (np.abs(pts) ** 2 - rho * (pts ** 2).real) / (2.0 * (1.0 - rho ** 2)) - 0.5
        got = np.array(outputs["log-potential"]["L"])
        gap = float(np.max(np.abs(got - closed)))
        checks.append(Check("log-potential", "L inside the ellipse vs closed form",
                            gap <= 10.0 * self.potential_quad_tol, _rel(got, closed)))
        expected = np.array(sorted([1.0, rho, -rho], reverse=True))
        for p in outputs["stability"]["points"]:
            gap = float(np.max(np.abs(np.array(p["s_spectrum"]) - expected)))
            ratio = p["inv_norm"] / p["bound_rhs"]
            checks.append(Check("stability", "S spectrum = (1, rho, -rho)", gap <= 1e-12, gap))
            checks.append(Check("stability", "inverse norm <= 5 x analytic bound", ratio <= 5.0))
        return checks


# -- girko-quad ----------------------------------------------------------------

class GirkoQuad:
    """Girko's identity at n = 16 by adaptive 2-D quadrature, plus coverage checks.

    One iteration checks every matrix of a fixed catalogue, so that every
    iteration does the same work: the cost of one check follows the
    matrix's eigenvalue layout and varies by +-20% between matrices, and
    matrices drawn from the benchmark seed, or one matrix per iteration,
    would make the run-to-run spread follow the mix of matrices.  The
    catalogue holds trials of criterion 13's seed 6.  The seed draws the
    Monte Carlo streams.
    """

    name = "girko-quad"
    unit = "Girko checks"
    n, rho = 16, 0.5
    catalogue_seed, catalogue_trials = 6, (0, 1, 2, 4, 6, 8)
    bump = {"kind": "polynomial-bump", "center": 0.0j, "radius": 0.6}
    quad_tol, gate = 2e-4, 1e-3
    meso = {"center": 0.3 + 0.2j, "alpha": 0.25}
    meso_n = 256
    mc_reps, mc_m, mc_delta = 200, 100, 0.1

    def build(self, seed: int, workdir: Path) -> list:
        return [{"seed": seed}]

    def inputs(self, item) -> dict:
        return {**item, "n": self.n, "rho": self.rho, "catalogue_seed": self.catalogue_seed,
                "catalogue_trials": list(self.catalogue_trials), "quad_tol": self.quad_tol,
                "bump": {**self.bump, "center": _c(self.bump["center"])}}

    def ops(self, item) -> list:
        def girko(trial):
            def op(state):
                spec = EnsembleSpec(n=self.n, rho=self.rho, seed=self.catalogue_seed)
                x = ensemble.sample(spec, trial)
                disc = harness.girko_consistency(x, TestFunction(**self.bump),
                                                 quad_tol=self.quad_tol)
                return {"discrepancy": disc}, 1
            return op

        def density(state):
            val = harness.density_integral(TestFunction(**self.meso), self.rho, self.meso_n)
            return {"integral": val}, 0

        def coverage(state):
            rng = np.random.Generator(np.random.Philox(key=item["seed"]))
            region = EllipseRegion(self.rho, 0.1)
            bad = 0
            for _ in range(self.mc_reps):
                est, bound = harness.monte_carlo_estimate(lambda z: z.real, region,
                                                          self.mc_m, self.mc_delta, rng)
                bad += abs(est) > bound
            return {"violation_frequency": bad / self.mc_reps}, 0

        return ([(f"girko[trial={t}]", girko(t)) for t in self.catalogue_trials]
                + [("density", density), ("coverage", coverage)])

    def check(self, item, outputs: dict, state: dict) -> list:
        checks = []
        for t in self.catalogue_trials:
            op = f"girko[trial={t}]"
            disc = outputs[op]["discrepancy"]
            checks.append(Check(op, "Girko discrepancy <= 1e-3", disc <= self.gate, disc))
        # the bump sits inside the bulk, so the integral is sigma * pi/4
        exact = 1.0 / (4.0 * (1.0 - self.rho ** 2))
        gap = abs(outputs["density"]["integral"] - exact) / exact
        freq = outputs["coverage"]["violation_frequency"]
        return checks + [
            Check("density", "density integral vs closed form", gap <= 1e-6, gap),
            Check("coverage", "violation frequency <= delta", freq <= self.mc_delta)]


WORKLOADS = {w.name: w for w in (Battery(), DysonField(), GirkoQuad())}
