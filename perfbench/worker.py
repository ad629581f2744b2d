"""One workload process: set up, print "ready", run timed iterations, check.

Started by run.py in a fresh temporary working directory.  Set-up is the
import of ellipticlab (numpy, scipy and both bundled OpenBLAS libraries),
building the inputs and one warm-up call (the first op of the first item);
the parent times it from process start to the "ready" line.  With
--setup-only the process stops there.  Otherwise it runs iterations over
the items in turn until the timed iterations add up to --seconds, then
checks every output and writes a JSON result file.  With --trace 1 each
item is run once untraced and once traced; the traced records must equal
the untraced ones bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout root holding src/ellipticlab")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", help="path of the JSON result file")
    p.add_argument("--spans", help="path of the span dump (trace runs)")
    return p.parse_args(argv)


def import_program(root: Path):
    """Import ellipticlab from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ellipticlab
    if Path(ellipticlab.__file__).resolve().parent != src / "ellipticlab":
        raise ImportError(f"ellipticlab imported from {ellipticlab.__file__}, not {src}")
    return ellipticlab


def run_iteration(wl, item, keep_state=()) -> dict:
    """Run the ops of one item; failures end the iteration."""
    state, outputs, units, failures = {}, {}, 0, []
    attempted = 0
    cpu0, t0 = time.process_time(), time.perf_counter()
    for name, op in wl.ops(item):
        attempted += 1
        try:
            records, n = op(state)
        except Exception:  # an op that raises is a failed op; keep measuring
            failures.append({"op": name, "error": traceback.format_exc(limit=4)})
            break
        outputs[name] = records
        units += n
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return {"wall": wall, "cpu": cpu, "units": units, "attempted": attempted,
            "failures": failures, "outputs": outputs,
            "state": {k: state[k] for k in keep_state if k in state}}


def max_rel_dev(got, ref, abs_tol: float, path: str = "") -> float:
    """Largest relative gap between two record trees; raises on a shape mismatch.

    Numbers within `abs_tol` of the reference count as equal.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            raise ValueError(f"{path}: keys differ")
        return max((max_rel_dev(got[k], ref[k], abs_tol, f"{path}.{k}") for k in ref),
                   default=0.0)
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise ValueError(f"{path}: lengths differ")
        return max((max_rel_dev(g, r, abs_tol, f"{path}[{i}]")
                    for i, (g, r) in enumerate(zip(got, ref))), default=0.0)
    if isinstance(ref, (bool, str)) or ref is None or isinstance(got, (bool, str)) or got is None:
        if got != ref:
            raise ValueError(f"{path}: {got!r} != {ref!r}")
        return 0.0
    if (math.isnan(ref) and math.isnan(got)) or abs(got - ref) <= abs_tol:
        return 0.0
    return abs(got - ref) / max(abs(ref), 1e-300)


def reference_checks(wl, seed: int, item_index: int, outputs: dict) -> list:
    """At the default seed, compare every record with the pinned reference."""
    from workloads import Check
    path = REFERENCE_DIR / f"{wl.name}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return []
    ref = json.loads(path.read_text())
    pinned = ref["items"][item_index]
    what = f"pinned reference (rel tol {ref['rel_tol']:g}, abs tol {ref['abs_tol']:g})"
    checks = []
    for op, records in outputs.items():
        try:
            dev = max_rel_dev(records, pinned[op], ref["abs_tol"])
        except (KeyError, ValueError) as exc:
            checks.append(Check(op, f"{what}: {exc}", False))
            continue
        checks.append(Check(op, what, dev <= ref["rel_tol"], dev))
    return checks


def check_iterations(wl, items, iterations, seed: int, mismatches=()) -> dict:
    """Check every iteration's records; an op fails if it raised or a check failed.

    Drops the records and kept state from `iterations` once checked.
    """
    from workloads import Check
    attempted = failed = 0
    failures, devs = [], []
    checked = {}   # item -> (records, checks): a repeat with equal records reuses the checks
    for k, it in enumerate(iterations):
        attempted += it["attempted"]
        bad_ops = {f["op"] for f in it["failures"]}
        failures += it["failures"]
        if not it["failures"]:
            records = json.dumps(it["outputs"])
            if it["item"] in checked and checked[it["item"]][0] == records:
                checks = list(checked[it["item"]][1])
            else:
                try:
                    checks = wl.check(items[it["item"]], it["outputs"], it["state"])
                except Exception:  # a check that cannot run fails the iteration's ops
                    checks = [Check(op, "check raised: " + traceback.format_exc(limit=4), False)
                              for op in it["outputs"]]
                checks += reference_checks(wl, seed, it["item"], it["outputs"])
                checked[it["item"]] = (records, list(checks))
            if k in mismatches:
                checks.append(Check(next(iter(it["outputs"])), "traced records differ", False))
            for c in checks:
                if c.dev is not None:
                    devs.append(c.dev)
                if not c.ok:
                    bad_ops.add(c.op)
                    failures.append({"op": c.op, "check": c.what, "dev": c.dev})
        failed += len(bad_ops)
        it.pop("outputs")
        it.pop("state")
    return {"attempted": attempted, "failed": failed, "failures": failures[:20],
            "check_max_rel_dev": max(devs, default=0.0), "checks_with_dev": len(devs)}


def openblas_info() -> dict:
    """Config string and thread count of the OpenBLAS bundled with numpy and scipy."""
    out = {}
    for pkg, suffix in (("numpy", "64_"), ("scipy", "")):
        mod = importlib.import_module(pkg)
        libdir = Path(mod.__file__).resolve().parent.parent / f"{pkg}.libs"
        libs = sorted(glob.glob(str(libdir / "libscipy_openblas*.so*")))
        if not libs:
            out[pkg] = {"error": f"no bundled OpenBLAS under {libdir.name}"}
            continue
        lib = ctypes.CDLL(libs[0])
        try:
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except AttributeError as exc:
            out[pkg] = {"library": Path(libs[0]).name, "error": str(exc)}
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        out[pkg] = {"library": Path(libs[0]).name, "config": get_config().decode(),
                    "threads": int(get_threads())}
    return out


def git_revision(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = root / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def manifest(root: Path, wl, items, seed: int) -> dict:
    import numpy
    import scipy
    from workloads import NPROC
    digest = hashlib.sha256(json.dumps([wl.inputs(it) for it in items],
                                       sort_keys=True).encode()).hexdigest()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas_info(), "nproc": NPROC,
            "pool_threads": getattr(wl, "pool_threads", 1), "git_revision": git_revision(root),
            "seed": seed, "inputs_sha256": digest, "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    try:
        import_program(root)
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = Path.cwd()
    items = wl.build(args.seed, workdir)
    # warm-up: the ops of the first item up to its first unit of work
    state = {}
    with contextlib.redirect_stdout(sys.stderr):
        for _, op in wl.ops(items[0]):
            if op(state)[1]:
                break
    del state
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        for layer in tracing.LAYERS:
            importlib.import_module(f"ellipticlab.{layer}")
        tracer = tracing.Tracer()
    keep = getattr(wl, "check_state", ())
    iterations, traced, mismatches = [], [], []
    timed = 0.0
    i = 0
    while timed < args.seconds or not iterations:
        idx = i % len(items)
        with contextlib.redirect_stdout(sys.stderr):
            it = run_iteration(wl, items[idx], keep)
        it["item"] = idx
        iterations.append(it)
        timed += it["wall"]
        if tracer is not None:
            tracer.run_id = i
            tracer.install()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    tr = run_iteration(wl, items[idx])
            finally:
                tracer.uninstall()
            tr["item"], tr["run"] = idx, i
            tr["layers"] = tracer.layer_metrics(i)
            if json.dumps(tr["outputs"]) != json.dumps(it["outputs"]) or tr["failures"]:
                mismatches.append(i)
            del tr["outputs"], tr["state"]
            traced.append(tr)
            timed += tr["wall"]
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = check_iterations(wl, items, iterations, args.seed, mismatches)
    result = {
        "workload": wl.name, "unit": wl.unit, "seed": args.seed, "trace": args.trace,
        "iterations": iterations, **summary, "peak_rss_mb": peak_rss_mb,
        "manifest": manifest(root, wl, items, args.seed),
    }
    if tracer is not None:
        result["traced"] = traced
        result["trace_mismatches"] = mismatches
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
