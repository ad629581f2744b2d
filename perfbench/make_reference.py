"""Write the pinned reference records of every workload at the default seed.

    python3 perfbench/make_reference.py [--workloads battery ...]

Runs each input item of each workload once and stores its records in
perfbench/reference/<workload>.json.  A benchmark run at the default seed
compares every record it produces with these files, within the relative
tolerance stored next to them.  Regenerate them only in a change that is
meant to alter records, and say by how much they changed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker

REL_TOL = 1e-7     # room for BLAS kernels that round differently on other CPUs
ABS_TOL = 1e-12


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    worker.import_program(root)
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = p.parse_args(argv)
    worker.REFERENCE_DIR.mkdir(exist_ok=True)
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    for name in args.workloads:
        wl = WORKLOADS[name]
        workdir = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=tmp_root))
        try:
            items = wl.build(worker.DEFAULT_SEED, workdir)
            pinned = []
            for item in items:
                with contextlib.redirect_stdout(sys.stderr):
                    it = worker.run_iteration(wl, item, getattr(wl, "check_state", ()))
                if it["failures"]:
                    print(f"{name}: {it['failures']}", file=sys.stderr)
                    return 1
                bad = [c.what for c in wl.check(item, it["outputs"], it["state"]) if not c.ok]
                if bad:
                    print(f"{name}: failed checks {bad}", file=sys.stderr)
                    return 1
                pinned.append(it["outputs"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ref = {"workload": name, "seed": worker.DEFAULT_SEED, "rel_tol": REL_TOL,
               "abs_tol": ABS_TOL, "items": pinned}
        (worker.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref) + "\n")
        print(f"wrote reference/{name}.json ({len(pinned)} items)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
