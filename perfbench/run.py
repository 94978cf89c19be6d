#!/usr/bin/env python3
"""End-to-end benchmark of alk.  Run from the root of a checkout:

    python3 perfbench/run.py --workload torus_invariants --seed 1 \
        --seconds 20 --trace 0

Workloads: torus_invariants, adelic_counts, tower_build (see README.md).
Each run starts fresh single-threaded worker processes (worker.py): with
--trace 0, SETUP_RUNS processes that only set up, then one that sets up
and runs the closed loop for --seconds; with --trace 1, one process that
runs a fixed list of rounds plain and then under the per-layer tracer.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("torus_invariants", "adelic_counts", "tower_build")
SETUP_RUNS = 4  # set-up-only processes; with the measured one, 5 samples
DEADLINE_S = 170  # the whole run ends within this


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ALK_", "PYTHON"))}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(args, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its JSON report and its set-up time (process
    start to the first timed operation), scaled to the reference speed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(),
                          timeout=max(1.0, deadline - started), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, (report["ready"] - started) / report["setup_speed_factor"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timing_metrics(latencies: list, round_sizes: list) -> dict:
    """Throughput (median over rounds, each a fixed mix) and latency."""
    per_round, i = [], 0
    for n in round_sizes:
        per_round.append(n / sum(latencies[i:i + n]))
        i += n
    return {
        "ops_per_s": _metric(statistics.median(per_round), "1/s"),
        "op_p50_ms": _metric(1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": _metric(1000 * statistics.quantiles(latencies, n=10)[8], "ms"),
    }


def _report_failures(report: dict) -> None:
    for f in report.get("warmup_failures", []) + report.get("failures", []):
        print(f"FAILED {f['kind']} ({f['verdict']}): {f['input']}: {f['why']}",
              file=sys.stderr)


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        report, _ = _spawn(args, "measure", deadline)
        _report_failures(report)
        for p in report["probe"]:
            if p["verdict"] != "ok":
                print(f"known defect, count_box at a skewed ideal ({p['verdict']}): "
                      f"{p['input']}: {p['why']}", file=sys.stderr)
        verdicts = report["verdicts"]
        attempted = report["ops"]
        metrics = report["metrics"]
    else:
        # set-up-only processes before and after the measured one, so that
        # a slow spell of the machine does not hit all of them
        setups = [_spawn(args, "setup", deadline)[1] for _ in range(SETUP_RUNS // 2)]
        report, setup = _spawn(args, "measure", deadline)
        setups.append(setup)
        setups += [_spawn(args, "setup", deadline)[1]
                   for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        _report_failures(report)
        verdicts = report["verdicts"]
        attempted = len(report["latencies"])
        metrics = _timing_metrics(report["latencies"], report["round_sizes"])
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
        metrics["peak_rss_mb"] = _metric(report["rss_mb"], "MB")
        metrics["correct_share"] = _metric(verdicts.get("ok", 0) / attempted, "ratio")
        raw = _timing_metrics(report["raw_latencies"], report["round_sizes"])
        print("# unscaled wall clock: " + ", ".join(
            f"{k} = {m['value']:.6g} {m['unit']}" for k, m in raw.items())
            + f"; machine slower than nominal by {report['speed_factor']:.3f}x")
    failed = sum(n for v, n in verdicts.items() if v != "ok")
    failed += len(report["warmup_failures"])
    print(f"# workload {args.workload}, seed {args.seed}, kernel {report['kernel']}, "
          f"{attempted} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "alk", "__init__.py")):
        print("run.py: no src/alk here; run from the root of an alk checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
