"""Batch command-line interface.

Every subcommand is deterministic given its flags; numeric output does not
depend on the thread count.  Each experiment, run by its subcommand or from
a config, prints one JSON line on stdout.  Exit codes: 0 pass, 1 experiment
assertion failure, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import harness
from .bumps import TestFunction
from .dyson import (
    DysonConvergenceError,
    EllipseRegion,
    EllipticParam,
    SpectralPoint,
    b_from_v,
    elliptic_density,
    m_matrix,
    solve_dyson,
    v_equation_residual,
)
from .ensemble import EnsembleSpec, moment_self_test, sample, save_matrix
from .harness import EtaRule, ExperimentGrid
from .potential import log_potential
from .quad2d import QuadratureError
from .spectral import SingularHermitizationError, decompose, default_probes, hermitize, resolvent_functionals
from .stability import self_energy_2x2, stability_analysis

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_EXPERIMENT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' (scientific notation allowed) into a complex."""
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads '-0.5+0.1i' as a value, not as an option.

    argparse takes a token that starts with '-' for an option unless it
    looks like a negative real number.  No option here starts with a digit,
    so any '-' followed by a digit (or '.' and a digit) is a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _single_n(args) -> int:
    if len(args.n) != 1:
        raise ValueError(f"{args.command} takes one --n value, got {len(args.n)}")
    return args.n[0]


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("ELLIPTICLAB_OUT", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(report, out: Path, fmt: str) -> None:
    report.write_jsonl(out / f"{report.name}.jsonl")
    report.write_summary(out / f"{report.name}.summary.json")
    if fmt == "csv":
        rows = [r.to_dict() for r in report.records]
        keys = sorted({k for row in rows for k in row})
        with open(out / f"{report.name}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for row in rows:
                fh.write(",".join(json.dumps(row.get(k, "")) for k in keys) + "\n")


def cmd_solve_dyson(args) -> int:
    point = SpectralPoint(zeta=args.zeta, eta=args.eta)
    param = EllipticParam(rho=args.rho)
    sol = solve_dyson(point, param, tol=args.tol)
    m = m_matrix(sol)
    m_inv = np.linalg.inv(m)
    s_m = self_energy_2x2(m, param.rho)
    z2 = np.array([[1j * sol.eta, sol.zeta], [np.conj(sol.zeta), 1j * sol.eta]])
    out = {
        "v": sol.v,
        "b_re": sol.b.real,
        "b_im": sol.b.imag,
        "iterations": sol.iterations,
        "residual_mde": float(np.max(np.abs(m_inv + z2 + s_m))),
        "residual_abs_m": abs(sol.norm_m_sq - sol.v / (sol.eta + sol.v)),
        "residual_b_eq": abs(-np.conj(sol.b) - sol.norm_m_sq * (sol.zeta + param.rho * sol.b)),
        "residual_v_eq": abs(v_equation_residual(sol.v, point, param)),
        "b_from_v_agrees": abs(b_from_v(sol.v, point, param) - sol.b),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_stability(args) -> int:
    report = stability_analysis(SpectralPoint(args.zeta, args.eta),
                                EllipticParam(args.rho))
    print(json.dumps({
        "s_spectrum": list(report.s_spectrum),
        "gap": report.gap,
        "inv_norm": report.inv_norm,
        "bound_rhs": report.bound_rhs,
        "v": report.solution.v,
    }, indent=2))
    return EXIT_OK


def cmd_log_potential(args) -> int:
    val = log_potential(args.zeta, EllipticParam(args.rho), quad_tol=args.quad_tol)
    print(json.dumps({"zeta": str(args.zeta), "rho": args.rho, "L": val}, indent=2))
    return EXIT_OK


def cmd_density(args) -> int:
    region = EllipseRegion(args.rho)
    ax, ay = region.semi_axes
    xs = np.linspace(-ax - 0.2, ax + 0.2, args.resolution)
    ys = np.linspace(-ay - 0.2, ay + 0.2, args.resolution)
    param = EllipticParam(args.rho)
    out = _out_dir(args) / (args.out or "density.csv")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("x,y,sigma\n")
        for x in xs:
            vals = elliptic_density(x + 1j * ys, param)
            for y, val in zip(ys, vals):
                fh.write(f"{float(x)!r},{float(y)!r},{float(val)!r}\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    spec = EnsembleSpec(n=args.n, rho=args.rho, mu=args.mu, base=args.base,
                        seed=args.seed)
    mat = sample(spec, trial=args.trial)
    out = _out_dir(args) / (args.out or "matrix.bin")
    save_matrix(mat, out)
    print(f"wrote {out}")
    if args.n >= 100:
        rep = moment_self_test(mat)
        print(json.dumps({
            "mean_offdiag": [rep.mean_offdiag.real, rep.mean_offdiag.imag],
            "var_offdiag": rep.var_offdiag,
            "cov_pair": [rep.cov_pair.real, rep.cov_pair.imag],
            "pseudo_cov": [rep.pseudo_cov.real, rep.pseudo_cov.imag],
            "conj_cov": [rep.conj_cov.real, rep.conj_cov.imag],
            "ok": rep.ok,
        }, indent=2))
        if not rep.ok:
            return EXIT_EXPERIMENT_FAILED
    return EXIT_OK


def cmd_spectrum(args) -> int:
    spec = EnsembleSpec(n=args.n, rho=args.rho, mu=args.mu, base=args.base,
                        seed=args.seed)
    out = _out_dir(args)
    decs, rows = [], []
    probes = None
    for trial in range(args.trials):
        mat = sample(spec, trial)
        for zeta in args.zeta:
            dec = decompose(hermitize(mat, zeta))
            decs.append((trial, dec))
            if probes is None:
                pr = default_probes(2 * args.n, seed=spec.seed, k=2)
                probes = [(f"{a}|{b}", pa, pb) for (a, pa), (b, pb) in
                          zip(pr[:3], pr[1:4])]
            for eta in args.eta:
                rows.append((trial, zeta, eta,
                             resolvent_functionals(dec, eta, probes)))
    harness.dump_eigenvalues(out / f"{args.prefix}.eigenvalues.csv", decs)
    harness.dump_functionals(out / f"{args.prefix}.functionals.jsonl", rows)
    print(f"wrote {out / args.prefix}.eigenvalues.csv and .functionals.jsonl")
    return EXIT_OK


def _grid_from_args(args) -> ExperimentGrid:
    return ExperimentGrid(
        n_values=tuple(args.n), zeta=args.zeta,
        eta_rule=EtaRule(beta=args.beta), trials=args.trials, delta=args.delta,
        seed=args.seed, rho=args.rho, mu=args.mu, base=args.base)


def _options(name: str, grid, cfg) -> dict:
    """A registry experiment's options, read from a config dict or from a
    subcommand's flags, vars(args); linstats is the only one that takes any."""
    if name != "linstats":
        return {}
    return {"tf": TestFunction(kind=cfg.get("kind", "polynomial-bump"), center=grid.zeta,
                               alpha=cfg.get("alpha", 0.25))}


def _emit(result, out: Path | None, fmt: str | None) -> bool:
    """Write one experiment's outputs to `out` and print its one JSON line.

    A report writes its records and summary in `fmt`, a DensityMap its CSV;
    a check (girko-check, mc-check) is already its line and writes nothing.
    Returns whether the experiment passed.
    """
    if isinstance(result, harness.DensityMap):
        result.write_csv(out / "density_map.csv")
        line = {"experiment": "density", "mass_inside": result.mass_inside}
    elif isinstance(result, harness.ExperimentReport):
        _write_report(result, out, fmt)
        line = {"experiment": result.name, "passed": result.passed,
                "summary": result.summary}
    else:
        line = result
    print(json.dumps(line, default=str))
    return line.get("passed", True)


def _exit_code(passed: bool) -> int:
    return EXIT_OK if passed else EXIT_EXPERIMENT_FAILED


def cmd_grid_experiment(args) -> int:
    """local-law, iso-law, ssv-scan, deloc or linstats over the --n grid."""
    name = args.command
    if harness.EXPERIMENTS[name].single_n:
        _single_n(args)
    grid = _grid_from_args(args)
    result = harness.run_experiments(grid, {name: _options(name, grid, vars(args))},
                                     threads=args.threads)[name]
    return _exit_code(_emit(result, _out_dir(args), args.format))


def _girko_check(spec, tf, gate: float, quad_tol: float) -> dict:
    """The girko-check line of Girko's identity on trial 0 of `spec`."""
    disc = harness.girko_consistency(sample(spec, trial=0), tf, quad_tol=quad_tol)
    return {"experiment": "girko-check", "discrepancy": disc, "passed": disc <= gate}


def cmd_girko(args) -> int:
    spec = EnsembleSpec(n=_single_n(args), rho=args.rho, mu=args.mu, base=args.base,
                        seed=args.seed)
    tf = TestFunction(kind=args.kind, center=args.zeta, radius=args.radius)
    return _exit_code(_emit(_girko_check(spec, tf, args.gate, args.quad_tol), None, None))


def _mc_check(region, rng, reps: int, m: int, mc_delta: float) -> dict:
    """The mc-check line: the share of `reps` Monte Carlo means of Re z outside
    their deviation bound, which passes when it is at most `mc_delta`."""
    violations = 0
    for _ in range(reps):
        est, bound = harness.monte_carlo_estimate(lambda z: z.real, region, m,
                                                  mc_delta, rng)
        violations += abs(est) > bound
    freq = violations / reps
    return {"experiment": "mc-check", "violation_frequency": freq,
            "passed": freq <= mc_delta}


def cmd_mc_check(args) -> int:
    rng = np.random.Generator(np.random.Philox(key=[args.seed, 7]))
    line = _mc_check(EllipseRegion(args.rho, args.delta), rng, args.reps, args.m,
                     args.mc_delta)
    return _exit_code(_emit(line, None, None))


def _config_girko(grid, cfg):
    spec = EnsembleSpec(n=cfg.get("girko_n", 16), rho=grid.rho, mu=grid.mu,
                        base=grid.base, seed=grid.seed)
    if spec.n > harness.GIRKO_MAX_N:
        raise ValueError(f"girko-check: girko_n must be <= {harness.GIRKO_MAX_N}, "
                         f"got {spec.n}")
    gate = cfg.get("girko_gate", 1e-3)
    tf = TestFunction(center=grid.zeta, radius=0.5)
    return lambda: _girko_check(spec, tf, gate, quad_tol=1e-4)


def _config_mc(grid, cfg):
    region = EllipseRegion(grid.rho, grid.delta)
    reps = cfg.get("mc_reps", 200)
    if reps < 1:
        raise ValueError(f"mc-check: mc_reps must be >= 1, got {reps}")

    def run() -> dict:
        rng = np.random.Generator(np.random.Philox(key=[grid.seed, 11]))
        return _mc_check(region, rng, reps, 100, 0.1)
    return run


# config experiments outside the registry: name -> (grid, cfg) -> run() -> line
_CONFIG_CHECKS = {"girko-check": _config_girko, "mc-check": _config_mc}


def _read_config(name: str):
    path = Path(name)
    if path.exists():
        return json.loads(path.read_text())
    bundled = resources.files("ellipticlab").joinpath("configs", path.name)
    return json.loads(bundled.read_text()) if bundled.is_file() else None


# the kind of each config value `experiment` reads, by (section, key); "" is the top level
_CONFIG_KINDS = {
    ("ensemble", "rho"): "a number", ("ensemble", "mu"): "a number",
    ("ensemble", "base"): "a string", ("ensemble", "seed"): "an integer",
    ("grid", "n_values"): "a list of integers", ("grid", "zeta"): "a string",
    ("grid", "beta"): "a number", ("grid", "trials"): "an integer",
    ("grid", "delta"): "a number",
    ("", "experiments"): "a list of strings", ("", "output_dir"): "a string",
    ("", "alpha"): "a number", ("", "kind"): "a string", ("", "girko_n"): "an integer",
    ("", "girko_gate"): "a number", ("", "mc_reps"): "an integer",
}


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_IS_KIND = {
    "an integer": _is_integer,
    "a number": lambda v: _is_integer(v) or isinstance(v, float),
    "a string": lambda v: isinstance(v, str),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_integer, v)),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
}


def _check_config_kinds(cfg: dict) -> None:
    """Raise ValueError at the first config value of the wrong JSON type."""
    for section in ("ensemble", "grid"):
        if not isinstance(cfg[section], dict):
            raise ValueError(f"{section} must be an object, got {cfg[section]!r}")
    for (section, key), kind in _CONFIG_KINDS.items():
        values = cfg[section] if section else cfg
        if key in values and not _IS_KIND[kind](values[key]):
            name = f"{section}.{key}" if section else key
            raise ValueError(f"{name} must be {kind}, got {values[key]!r}")


def cmd_experiment(args) -> int:
    cfg = _read_config(args.config)
    if cfg is None:
        print(f"config not found: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    schema = cfg.get("schema") if isinstance(cfg, dict) else None
    if not _is_integer(schema) or schema != SCHEMA_VERSION:
        print(f"unsupported config schema {schema!r}", file=sys.stderr)
        return EXIT_USAGE
    _check_config_kinds(cfg)
    ens = cfg["ensemble"]
    grid_cfg = cfg["grid"]
    grid = ExperimentGrid(
        n_values=tuple(grid_cfg["n_values"]),
        zeta=parse_complex(grid_cfg["zeta"]),
        eta_rule=EtaRule(beta=grid_cfg.get("beta", 0.75)),
        trials=grid_cfg.get("trials", 3),
        delta=grid_cfg.get("delta", 0.1),
        seed=args.seed if args.seed is not None else ens.get("seed", 0),
        rho=ens["rho"], mu=ens.get("mu", 1.0), base=ens.get("base", "gaussian"))
    names = cfg.get("experiments", [])
    unknown = [name for name in names
               if name not in harness.EXPERIMENTS and name not in _CONFIG_CHECKS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    # every option is checked before anything runs or is written
    checks = {name: _CONFIG_CHECKS[name](grid, cfg) for name in names
              if name in _CONFIG_CHECKS}
    requests = {name: _options(name, grid, cfg) for name in names
                if name in harness.EXPERIMENTS}
    results = harness.run_experiments(grid, requests, threads=args.threads)
    out = Path(args.out_dir or cfg.get("output_dir")
               or os.environ.get("ELLIPTICLAB_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    for name in names:
        result = results[name] if name in results else checks[name]()
        if not _emit(result, out, args.format):
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILED
    return EXIT_OK


def _usable_cpus() -> int:
    # in a container cpu_count can exceed the CPUs the process may run on
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_threads(p) -> None:
    """--threads, for the subcommands that run trials in a pool."""
    p.add_argument("--threads", type=_positive_int, default=_usable_cpus(),
                   help="trials run on this many workers, each with "
                        "single-threaded BLAS (default: the CPUs this process "
                        "may use)")


def _add_output(p, report: bool = True) -> None:
    """--out-dir, and with `report` the --format of the reports written there."""
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: a config's output_dir, "
                        "then $ELLIPTICLAB_OUT, then '.')")
    if report:
        p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=1)


# the spectral point and scan flags of the sampled experiments
_SCAN_FLAGS = {
    "zeta": dict(type=parse_complex, default=parse_complex("0.3+0.2i")),
    "beta": dict(type=float, default=0.75),
    "trials": dict(type=int, default=3),
    "delta": dict(type=float, default=0.1),
}


def _add_sample(p, *scan: str) -> None:
    """The ensemble of a sampled experiment, plus the `scan` flags it reads."""
    p.add_argument("--n", type=int, nargs="+", default=[256])
    for flag in scan:
        p.add_argument(f"--{flag}", **_SCAN_FLAGS[flag])
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--base", choices=("gaussian", "rademacher-mixture"),
                   default="gaussian")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellipticlab",
        description="Elliptic ensemble numerics: Dyson equation, Hermitization "
                    "resolvents, local-law experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-dyson", help="solve the 2x2 Dyson equation")
    p.add_argument("--zeta", type=parse_complex, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_solve_dyson)

    p = sub.add_parser("stability", help="stability operator analysis")
    p.add_argument("--zeta", type=parse_complex, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("log-potential", help="log-potential L(zeta)")
    p.add_argument("--zeta", type=parse_complex, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--quad-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_log_potential)

    p = sub.add_parser("density", help="CSV field of the ellipse density")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--out", default=None)
    _add_output(p, report=False)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("sample", help="sample a matrix, dump it, self-test moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--base", choices=("gaussian", "rademacher-mixture"),
                   default="gaussian")
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_output(p, report=False)
    _add_seed(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("spectrum", help="eigenvalue and functional dumps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--base", choices=("gaussian", "rademacher-mixture"),
                   default="gaussian")
    p.add_argument("--zeta", type=parse_complex, nargs="+", required=True)
    p.add_argument("--eta", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--prefix", default="spectrum")
    _add_output(p, report=False)
    _add_seed(p)
    p.set_defaults(func=cmd_spectrum)

    for name in ("local-law", "iso-law", "ssv-scan", "deloc", "linstats"):
        p = sub.add_parser(name, help=f"{name} experiment")
        _add_output(p)
        _add_seed(p)
        # deloc reads the eigenvectors of X itself: no spectral point, no eta;
        # its grid takes delocalisation_test's zeta = 0 and beta = 0.5
        scan = ("trials", "delta") if name == "deloc" else ("zeta", "beta", "trials", "delta")
        _add_sample(p, *scan)
        _add_threads(p)
        if name == "deloc":
            p.set_defaults(zeta=0j, beta=0.5)
        if name == "linstats":
            p.add_argument("--alpha", type=float, default=0.25)
            p.add_argument("--kind", choices=("polynomial-bump", "gaussian-bump"),
                           default="polynomial-bump")
        p.set_defaults(func=cmd_grid_experiment)

    # girko-check prints its result and writes nothing
    p = sub.add_parser("girko-check", help="Girko identity on one sample, n <= 256")
    _add_seed(p)
    _add_sample(p, "zeta")
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--kind", choices=("polynomial-bump", "gaussian-bump"),
                   default="polynomial-bump")
    p.add_argument("--quad-tol", type=float, default=1e-4)
    p.add_argument("--gate", type=float, default=1e-3)
    p.set_defaults(func=cmd_girko)

    # mc-check prints its result and writes nothing
    p = sub.add_parser("mc-check", help="Monte Carlo deviation-bound coverage")
    _add_seed(p)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--mc-delta", type=float, default=0.1)
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.set_defaults(func=cmd_mc_check)

    p = sub.add_parser("experiment", help="run experiments from a JSON config")
    p.add_argument("config")
    _add_output(p)
    # without --seed the config's seed applies
    p.add_argument("--seed", type=int, default=None)
    _add_threads(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DysonConvergenceError, SingularHermitizationError, QuadratureError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
