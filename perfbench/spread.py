#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload tower_build --seeds 1 2 3 4 5 \
        [--seconds 20] [--out FILE]

Runs run.py once per seed, one run after another, and prints for every
end-to-end metric its median, its quartiles and the spread (third minus
first quartile, as a share of the median) next to the metric's bound in
BENCHMARK.json.  With --out it also writes these figures as JSON, with
the machine (CPUs, CPU model, Python), alk's kernel and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _machine(kernel) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    except OSError:
        sha = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "alk_kernel": kernel, "alk_precision_bits": [53, 128], "git_sha": sha}


def main() -> int:
    spec_path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    kernel = None
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        kernel = next((ln.split("kernel ")[1].split(",")[0] for ln in lines
                       if ln.startswith("# workload")), kernel)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": vals}
        print(f"{name:14s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
              f"spread {spread:6.3f}  bound {bounds.get(name)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": args.seconds, "machine": _machine(kernel),
                       "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
