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

# imports the package, then runs every registry experiment from one config,
# and prints which of the heavy modules were loaded after each step, and
# every scipy module loaded at the end
SCRIPT = """
import contextlib, json, sys
import ellipticlab, ellipticlab.cli

heavy = json.loads(sys.argv[1])
at_import = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(sys.stderr):
    rc = ellipticlab.cli.main(["experiment", sys.argv[2], "--out-dir", sys.argv[3]])
print(json.dumps({"import": at_import, "rc": rc,
                  "experiment": [m for m in heavy if m in sys.modules],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    cfg = tmp / "all.json"
    cfg.write_text(json.dumps({
        "schema": 1, "alpha": 0.4,
        "ensemble": {"rho": 0.5, "seed": 1},
        "grid": {"n_values": [64], "zeta": "0.1+0.1i", "trials": 1},
        "experiments": sorted(ellipticlab.harness.EXPERIMENTS)}))
    src = str(Path(ellipticlab.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(HEAVY), str(cfg),
                          str(tmp / "out")],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout)


def test_import_loads_no_heavy_scipy(loaded):
    assert loaded["import"] == []


def test_experiment_path_loads_no_scipy_integrate(loaded):
    assert loaded["rc"] == 0
    # scipy.linalg may come in later through the Girko check; integrate,
    # special and optimize never belong on this path
    assert not {"scipy.integrate", "scipy.special", "scipy.optimize"} & set(
        loaded["experiment"])


def test_experiment_path_loads_no_scipy(loaded):
    # the pool pins numpy's bundled OpenBLAS, the only BLAS a trial calls
    assert loaded["rc"] == 0
    assert loaded["scipy"] == []
