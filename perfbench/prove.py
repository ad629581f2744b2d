"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/prove.py --workloads battery girko-quad --seeds 1 2 3 4 5 \
        --out .perfbench_out/spread.json

Runs run.py once per (workload, seed) with BENCHMARK.json's run_seconds and
reports, per workload and metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound.  The per-workload medians
written to --out are the baseline kept in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, ok = {}, True
    for wl in args.workloads:
        values = {name: [] for name in bounds}
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            manifest = json.loads(lines[-2])["report"]["manifest"]
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f" correct={result['correct']}", flush=True)
        stats = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            stats[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                           "spread": spread, "bound": bounds[name]}
            print(f"  {name}: median {statistics.median(vals):.4g} spread {spread:.3f} "
                  f"(bound {bounds[name]}, third {bounds[name] / 3:.3f})", flush=True)
        summary[wl] = {"metrics": stats, "runs": runs, "manifest": manifest}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"run_seconds": bench["run_seconds"],
                                        "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
