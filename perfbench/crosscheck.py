#!/usr/bin/env python3
"""Cross-check the tracer's per-layer self-time split against cProfile.

    python3 perfbench/crosscheck.py --workload adelic_counts --seed 1

Runs the workload's traced list of rounds twice in one process: once
under cProfile (enabled only around the operations) and once under the
tracer.  cProfile's own time of a function in alk/<module>.py counts for
that module's layer; the own time of any other function (fractions,
sympy, builtins) is shared out among its callers in proportion to the
time it spent for each, up to the nearest alk function.  Prints both
splits in percent and the largest gap in percentage points.  Both tools
add cost per call, so some gap remains even for a perfect tracer.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import random
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYER_OF, LAYERS, OTHER, Tracer  # noqa: E402
from worker import clear_caches  # noqa: E402


def profile_split(ops) -> dict:
    prof = cProfile.Profile()
    for op in ops:
        prof.enable()
        try:
            op.call()
        except Exception:  # the verdicts are the worker's business
            pass
        prof.disable()
    stats = pstats.Stats(prof).stats
    alk_dir = os.path.dirname(workloads.alk.__file__) + os.sep

    def own_layer(func):
        path = func[0]
        if path.startswith(alk_dir):
            return LAYER_OF.get(os.path.basename(path)[:-3], OTHER)
        if path.startswith(HERE + os.sep):
            return OTHER
        return None

    memo: dict = {}

    def share(func, visiting) -> dict:
        if func in memo:
            return memo[func]
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        callers = stats[func][4] if func in stats else {}
        out: dict = defaultdict(float)
        total = sum(v[2] for c, v in callers.items() if c not in visiting)
        visiting.add(func)
        for caller, v in callers.items():
            if caller in visiting or total <= 0:
                continue
            for k, x in share(caller, visiting).items():
                out[k] += v[2] / total * x
        visiting.discard(func)
        memo[func] = dict(out) or {OTHER: 1.0}
        return memo[func]

    split: dict = defaultdict(float)
    for func, (_, _, tt, _, _) in stats.items():
        for layer, x in share(func, set()).items():
            split[layer] += tt * x
    return split


def tracer_split(ops) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            try:
                tracer.run_op(op.kind, op.route, op.call)
            except Exception:
                pass
    finally:
        tracer.uninstall()
    return {layer: tracer.self_s[layer] for layer in LAYERS + (OTHER,)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.setrecursionlimit(20_000)  # caller chains through sympy run deep
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()
    for op in wl.warmup_ops():
        op.call()
    rng = random.Random(args.seed)
    ops = [op for _ in range(wl.trace_rounds) for op in wl.round(rng)]

    clear_caches()
    prof = profile_split(ops)
    clear_caches()
    traced = tracer_split(ops)

    def pct(split):
        total = sum(split.values())
        return {k: 100.0 * split.get(k, 0.0) / total for k in LAYERS + (OTHER,)}

    p, t = pct(prof), pct(traced)
    gaps = {k: t[k] - p[k] for k in p}
    print(f"{'layer':12s} {'tracer %':>9s} {'cProfile %':>11s} {'gap pp':>7s}")
    for k in LAYERS + (OTHER,):
        print(f"{k:12s} {t[k]:9.2f} {p[k]:11.2f} {gaps[k]:7.2f}")
    worst = max(gaps, key=lambda k: abs(gaps[k]))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "tracer_pct": t,
                      "cprofile_pct": p, "max_gap_pp": abs(gaps[worst]),
                      "max_gap_layer": worst}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
