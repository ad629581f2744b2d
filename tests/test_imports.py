"""Cold start: the package and the experiment path load numpy, not scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellipticlab

HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.special", "scipy.optimize",
         "scipy.sparse")

# imports the package, then runs one command line (JSON, argv[2]) through the
# CLI, and prints which of the heavy modules were loaded after each step, and
# every scipy module loaded at the end
SCRIPT = """
import contextlib, json, sys
import ellipticlab, ellipticlab.cli

heavy = json.loads(sys.argv[1])
at_import = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(sys.stderr):
    rc = ellipticlab.cli.main(json.loads(sys.argv[2]))
print(json.dumps({"import": at_import, "rc": rc,
                  "experiment": [m for m in heavy if m in sys.modules],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_cli(argv: list) -> dict:
    """SCRIPT's report on one CLI command line, run in a fresh interpreter."""
    src = str(Path(ellipticlab.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(HEAVY), json.dumps(argv)],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    cfg = tmp / "all.json"
    cfg.write_text(json.dumps({
        "schema": 1, "alpha": 0.4,
        "ensemble": {"rho": 0.5, "seed": 1},
        "grid": {"n_values": [64], "zeta": "0.1+0.1i", "trials": 1},
        "experiments": sorted(ellipticlab.harness.EXPERIMENTS)}))
    return run_cli(["experiment", str(cfg), "--out-dir", str(tmp / "out")])


def test_import_loads_no_heavy_scipy(loaded):
    assert loaded["import"] == []


def test_experiment_path_loads_no_scipy_integrate(loaded):
    assert loaded["rc"] == 0
    # no sample-based experiment integrates, optimizes or calls a special function
    assert not {"scipy.integrate", "scipy.special", "scipy.optimize"} & set(
        loaded["experiment"])


def test_experiment_path_loads_no_scipy(loaded):
    # the pool pins numpy's bundled OpenBLAS, the only BLAS a trial calls
    assert loaded["rc"] == 0
    assert loaded["scipy"] == []


def test_girko_paths_load_no_scipy(tmp_path):
    # the Girko check's Hessenberg reduction is zgehrd on numpy's OpenBLAS
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({
        "schema": 1, "ensemble": {"rho": 0.5, "seed": 1},
        "grid": {"n_values": [64], "zeta": "0.1+0.1i", "trials": 1},
        "girko_n": 16, "mc_reps": 50, "experiments": ["girko-check", "mc-check"]}))
    for argv in (["girko-check", "--n", "16"],
                 ["experiment", str(cfg), "--out-dir", str(tmp_path / "out")]):
        got = run_cli(argv)
        assert got["rc"] == 0, argv
        assert got["scipy"] == [], argv
