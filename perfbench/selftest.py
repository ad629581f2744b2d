"""Self-tests of the benchmark: tracing, checks, argument handling.

    python3 perfbench/selftest.py

Takes about 40 s on two cores.  The file is not named test_*.py, so the
repository's pytest run does not collect it.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_program(ROOT)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def snapshot_namespaces() -> dict:
    """(module, attr) -> object for every namespace the tracer may patch."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ellipticlab" or mod_name.startswith("ellipticlab.")
                               or mod_name in tracer.KERNEL_MODULES):
            continue
        for attr, obj in list(vars(mod).items()):
            snap[(mod_name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod_name:
                for meth, fn in list(vars(obj).items()):
                    snap[(f"{mod_name}.{attr}", meth)] = fn
    return snap


class Scratch:
    """A temporary directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def first_iteration(name: str, workdir: Path, traced: tracer.Tracer | None = None):
    wl = WORKLOADS[name]
    items = wl.build(worker.DEFAULT_SEED, workdir)
    if traced is not None:
        traced.install()
    try:
        it = worker.run_iteration(wl, items[0], getattr(wl, "check_state", ()))
    finally:
        if traced is not None:
            traced.uninstall()
    it["item"] = 0
    return wl, items, it


class TraceTests(unittest.TestCase):
    def test_traced_records_equal_untraced(self):
        for name, counted in (("battery", "kernel.svd_uv.calls"),
                              ("girko-quad", "kernel.batched_svd.matrices")):
            with self.subTest(workload=name), Scratch() as d:
                _, _, plain = first_iteration(name, d)
                tr = tracer.Tracer()
                _, _, traced = first_iteration(name, d, tr)
                self.assertEqual(json.dumps(plain["outputs"]), json.dumps(traced["outputs"]))
                layers = tr.layer_metrics(0)
                self.assertGreater(layers[counted], 0)
                self.assertEqual(tr.missing, {})

    def test_every_wrapper_restored(self):
        before = snapshot_namespaces()
        tr = tracer.Tracer()
        tr.install()
        try:
            import ellipticlab.harness as harness
            import numpy.linalg
            self.assertIsNot(harness.sample, before[("ellipticlab.harness", "sample")])
            self.assertIsNot(numpy.linalg.svd, before[("numpy.linalg", "svd")])
        finally:
            tr.uninstall()
        after = snapshot_namespaces()
        changed = [key for key, obj in before.items() if after.get(key) is not obj]
        self.assertEqual(changed, [])

    def test_missing_boundary_is_reported(self):
        saved = dict(tracer.EXPECTED)
        tracer.EXPECTED["spectral.gone"] = "spectral.no_such_function"
        tr = tracer.Tracer()
        try:
            tr.install()
        finally:
            tr.uninstall()
            tracer.EXPECTED.clear()
            tracer.EXPECTED.update(saved)
        self.assertIn("spectral.gone", tr.missing)


class CheckTests(unittest.TestCase):
    def assert_fails(self, wl, items, it):
        summary = worker.check_iterations(wl, items, [it], worker.DEFAULT_SEED)
        self.assertGreater(summary["failed"] / summary["attempted"], 0.0)

    def test_clean_iteration_passes(self):
        with Scratch() as d:
            wl, items, it = first_iteration("girko-quad", d)
            summary = worker.check_iterations(wl, items, [it], worker.DEFAULT_SEED)
            self.assertEqual(summary["failed"], 0, summary["failures"])

    def test_perturbed_record_fails(self):
        with Scratch() as d:
            wl, items, it = first_iteration("girko-quad", d)
            it["outputs"]["girko[trial=0]"]["discrepancy"] = 2e-3
            self.assert_fails(wl, items, it)

    def test_perturbed_residual_fails(self):
        with Scratch() as d:
            wl, items, it = first_iteration("dyson-field", d)
            v, b = it["state"][0.5]
            v[5, 7, 30] *= 1.0 + 1e-9
            self.assert_fails(wl, items, it)

    def test_perturbed_record_fails_reference(self):
        with Scratch() as d:
            wl, items, it = first_iteration("battery", d)
            rec = it["outputs"]["experiment"]["small_singular_scan"]["records"][0]
            rec["sigma_min"] *= 1.0 + 1e-6
            self.assert_fails(wl, items, it)


class CommandLineTests(unittest.TestCase):
    def run_bench(self, cwd: Path, *args):
        return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                              cwd=cwd, capture_output=True, text=True, timeout=170)

    def assert_refused(self, proc):
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_bad_arguments_exit_nonzero(self):
        common = ["--seconds", "1", "--trace", "0"]
        self.assert_refused(self.run_bench(ROOT, "--workload", "no-such", "--seed", "1", *common))
        self.assert_refused(self.run_bench(ROOT, "--workload", "battery", "--seed", "x1", *common))
        self.assert_refused(self.run_bench(ROOT, "--workload", "battery", "--seed", "-3", *common))

    def test_bare_directory_exits_nonzero(self):
        with Scratch() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, d / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            self.assert_refused(self.run_bench(d, "--workload", "girko-quad", "--seed", "1",
                                               "--seconds", "1", "--trace", "0"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
