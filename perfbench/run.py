"""ellipticlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Metric names, units and workloads come
from BENCHMARK.json.  Each run sets up the workload in three fresh worker
processes (setup_s is their median), and the last of them goes on to the
timed iterations.  Every worker runs in a fresh temporary directory under
.perfbench_tmp/ that is removed afterwards.

Standard output ends with two lines: a report (every metric with its unit,
wall-time quartiles, fail_ratio, the environment manifest) and the result
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEADLINE_S = 170.0


def parse_args(argv, bench):
    p = argparse.ArgumentParser(description="ellipticlab benchmark")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


class Worker:
    """A workload process in its own temporary directory."""

    def __init__(self, tmp_root: Path, args, setup_only: bool, deadline: float):
        self.dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
        self.result = self.dir / "result.json"
        self.deadline = deadline
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(self.result),
               "--spans", str(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl")]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=self.dir, stdout=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline().strip()
        self.setup_s = time.perf_counter() - t0 if ready == "ready" else None

    def finish(self):
        """Wait for the process; returns its result dict ({} after set-up only), or None."""
        try:
            self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            print("benchmark worker timed out", file=sys.stderr)
            return None
        finally:
            result = json.loads(self.result.read_text()) if self.result.is_file() else {}
            shutil.rmtree(self.dir, ignore_errors=True)
        if self.proc.returncode != 0 or self.setup_s is None:
            print(f"benchmark worker exited with {self.proc.returncode}", file=sys.stderr)
            return None
        return result


def end_to_end(res, setups) -> dict:
    walls = [it["wall"] for it in res["iterations"]]
    cpus = [it["cpu"] for it in res["iterations"]]
    units = sum(it["units"] for it in res["iterations"])
    return {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
            "units_per_s": units / sum(walls), "cpu_s": statistics.median(cpus),
            "peak_rss_mb": res["peak_rss_mb"]}


def per_layer(res) -> dict:
    traced = res["traced"]
    # counts repeat exactly for one input: take them from the first item;
    # timings are medians over every traced iteration
    from tracer import COUNT_METRICS
    out = {}
    for name in traced[0]["layers"]:
        if name in COUNT_METRICS:
            out[name] = traced[0]["layers"][name]
        else:
            out[name] = statistics.median(t["layers"][name] for t in traced)
    out["trace.overhead_s"] = (statistics.median(t["wall"] for t in traced)
                               - statistics.median(it["wall"] for it in res["iterations"]))
    out["check.max_rel_dev"] = res["check_max_rel_dev"]
    return out


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"{bench_file.name} not found at the checkout root", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    args = parse_args(argv, bench)
    if not (ROOT / "src" / "ellipticlab" / "__init__.py").is_file():
        print("src/ellipticlab not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUPS - 1 if not args.trace else 0):
        w = Worker(tmp_root, args, True, deadline)
        if w.finish() is None:
            return 3
        setups.append(w.setup_s)
    w = Worker(tmp_root, args, False, deadline)
    res = w.finish()
    if not res:
        return 3
    setups.append(w.setup_s)

    if args.trace:
        values, defs = per_layer(res), bench["per_layer"]
    else:
        values, defs = end_to_end(res, setups), bench["end_to_end"]
    missing = {d["name"]: res.get("missing", {}).get(d["name"], "not produced")
               for d in defs if d["name"] not in values}
    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]}
               for d in defs}
    walls = [it["wall"] for it in res["iterations"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit": res["unit"], "metrics": metrics,
        "wall_s_quartiles": quartiles(walls), "iterations": len(walls),
        "setup_s_samples": setups,
        "fail_ratio": {"value": res["failed"] / res["attempted"], "unit": "failed/attempted"},
        "failures": res["failures"], "missing_boundaries": res.get("missing", {}),
        "missing_metrics": missing, "manifest": res["manifest"],
    }
    if args.trace:
        report["trace_mismatches"] = res["trace_mismatches"]
    print(json.dumps({"report": report}))
    correct = res["failed"] == 0 and not res.get("trace_mismatches")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
