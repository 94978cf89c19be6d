"""One workload process: set-up, warm-up, then the closed loop.

Started by run.py in a fresh interpreter from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|measure

It imports alk from the checkout's `src/`, never from an installed copy,
and prints one JSON object on its last line of standard output.

The machine this runs on is shared, and its speed drifts by tens of
percent within seconds.  So between operations (at most every
REF_EVERY_S) the worker times a fixed reference computation in plain
Python `fractions`, the arithmetic alk spends most of its time in, and
scales every latency by the reference's speed around it: a scaled time
is what the operation would take where the reference takes
REF_NOMINAL_S.  Raw wall-clock times are reported next to the scaled
ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from time import perf_counter

import workloads
from tracer import LAYERS, Tracer

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
MAX_FAILURE_REPORTS = 20
REF_EVERY_S = 0.05
REF_REPEATS = 3  # one sample is the median of this many timings
REF_NOMINAL_S = 0.001


def _reference_work():
    x, s = Fraction(1, 3), Fraction(0)
    for i in range(1, 200):
        s += x * Fraction(i, i + 1)
    return s


class MachineSpeed:
    """Timings of the reference computation, taken between operations."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> int:
        """Times the reference; returns the index of the sample."""
        enabled = gc.isenabled()
        gc.disable()  # the reference must not pay for collecting alk's heap
        times = []
        for _ in range(REF_REPEATS):
            start = perf_counter()
            _reference_work()
            times.append(perf_counter() - start)
        if enabled:
            gc.enable()
        self.ends.append(perf_counter())
        self.durations.append(statistics.median(times))
        return len(self.ends) - 1

    def sample_if_due(self) -> int:
        if not self.ends or perf_counter() - self.ends[-1] >= REF_EVERY_S:
            return self.sample()
        return len(self.ends) - 1

    def factor(self, i: int) -> float:
        """Slowness around samples i and i+1, relative to nominal."""
        return (self.durations[i] + self.durations[i + 1]) / (2 * REF_NOMINAL_S)

    def median_factor(self) -> float:
        return statistics.median(self.durations) / REF_NOMINAL_S


def _fail(msg: str) -> None:
    print(f"worker: {msg}", file=sys.stderr)
    sys.exit(2)


def _run(op):
    start = perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:
        result, error = None, exc
    return perf_counter() - start, result, error


def _record(op, result, error, tally: Counter, failures: list):
    """Counts the verdict per (kind, verdict) and keeps the first failures."""
    verdict, why = workloads.judge(op, result, error)
    tally[op.kind, verdict] += 1
    if verdict != "ok" and len(failures) < MAX_FAILURE_REPORTS:
        failures.append({"kind": op.kind, "verdict": verdict, "input": op.label,
                         "why": why})


def _totals(tally: Counter) -> dict:
    out = Counter()
    for (_, verdict), n in tally.items():
        out[verdict] += n
    return dict(out)


def clear_caches():
    """Start a pass without the memo tables an earlier pass filled."""
    sys.modules["alk.numfield"]._hensel_root.cache_clear()
    if "sympy" in sys.modules:
        from sympy.core.cache import clear_cache
        clear_cache()


def measure(wl, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    raw: list[float] = []
    ref_index: list[int] = []  # the reference sample taken before each op
    round_sizes: list[int] = []
    tally: Counter = Counter()
    failures: list = []
    speed = MachineSpeed()
    start = time.monotonic()
    while True:
        ops = wl.round(rng)
        for op in ops:
            ref_index.append(speed.sample_if_due())
            dt, result, error = _run(op)
            raw.append(dt)
            _record(op, result, error, tally, failures)
        round_sizes.append(len(ops))
        if time.monotonic() - start >= seconds and len(raw) >= MIN_OPS:
            break
    speed.sample()
    scaled = [dt / speed.factor(i) for dt, i in zip(raw, ref_index)]
    return {"latencies": scaled, "raw_latencies": raw, "round_sizes": round_sizes,
            "verdicts": _totals(tally), "failures": failures,
            "speed_factor": speed.median_factor()}


def _timed_pass(ops, run_one):
    """Runs every op with run_one; returns the outputs, the raw time the
    ops took and that time scaled to the reference speed."""
    speed = MachineSpeed()
    outputs, spans = [], []
    for op in ops:
        i = speed.sample_if_due()
        start = perf_counter()
        outputs.append(run_one(op))
        spans.append((i, perf_counter() - start))
    speed.sample()
    raw = sum(dt for _, dt in spans)
    return outputs, raw, sum(dt / speed.factor(i) for i, dt in spans)


def trace(wl, seed: int, out_dir: str, tag: str) -> dict:
    """The same fixed list of rounds, once plain and once under the tracer."""
    rng = random.Random(seed)
    ops = [op for _ in range(wl.trace_rounds) for op in wl.round(rng)]
    tally: Counter = Counter()
    failures: list = []

    clear_caches()
    plain, _, plain_scaled = _timed_pass(ops, lambda op: _run(op)[1:])
    for op, (result, error) in zip(ops, plain):
        _record(op, result, error, tally, failures)
    plain_digest = [repr(r) if e is None else repr(e) for r, e in plain]
    del plain

    tracer = Tracer()

    def run_traced(op):
        try:
            return tracer.run_op(op.kind, op.route, op.call), None
        except Exception as exc:
            return None, exc

    tracer.install()
    clear_caches()
    try:
        traced, traced_raw, traced_scaled = _timed_pass(ops, run_traced)
    finally:
        tracer.uninstall()
    # a traced result that differs from the plain one is a failure too
    for op, (result, error), want in zip(ops, traced, plain_digest):
        if (repr(result) if error is None else repr(error)) != want:
            tally[op.kind, "traced_differs"] += 1
            if len(failures) < MAX_FAILURE_REPORTS:
                failures.append({"kind": op.kind, "verdict": "traced_differs",
                                 "input": op.label, "why": "output under the tracer differs"})

    probe_tally: Counter = Counter()
    probe = []
    for op in getattr(wl, "probe_ops", list)():
        _, result, error = _run(op)
        verdict, why = workloads.judge(op, result, error)
        probe_tally[verdict] += 1
        probe.append({"input": op.label, "verdict": verdict, "why": why})

    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{tag}.jsonl"))
    # self times are scaled to the reference speed like the latencies
    metrics = layer_metrics(tracer, traced_scaled / traced_raw)
    metrics["boxcount.raised"] = (tally["box", "raised"] + probe_tally["raised"], "count")
    metrics["boxcount.wrong"] = (tally["box", "wrong"] + probe_tally["wrong"], "count")
    metrics["trace.overhead"] = (traced_scaled / plain_scaled, "ratio")
    return {"ops": len(ops), "verdicts": _totals(tally), "failures": failures,
            "probe": probe,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(t: Tracer, scale: float) -> dict:
    """Per-layer counts and self times (times `scale`) from a traced pass."""
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (t.counts[f"{layer}.calls"], "count")
        m[f"{layer}.self_s"] = (t.self_s[layer], "s")
    m["other.self_s"] = (t.self_s["other"], "s")
    m["nfpoly.mul_calls"] = (t.counts["nfpoly.mul_calls"], "count")
    m["nfpoly.mul_s"] = (t.incl_s["nfpoly.mul_s"], "s")
    m["nfpoly.conj_calls"] = (t.counts["nfpoly.conj_calls"], "count")
    m["nfpoly.conj_s"] = (t.incl_s["nfpoly.conj_s"], "s")
    for kind in ("nf", "q", "qf", "c"):
        m[f"ratlinalg.{kind}_s"] = (t.self_s[f"ratlinalg.{kind}"], "s")
    m["enumeration.points"] = (t.counts["enumeration.points"], "count")
    m["enumeration.budget_exceeded"] = (t.counts["enumeration.budget_exceeded"], "count")
    cand, acc = t.counts["boxcount.candidates"], t.counts["boxcount.accepted"]
    m["boxcount.candidates"] = (cand, "count")
    m["boxcount.accepted"] = (acc, "count")
    m["boxcount.accept_ratio"] = (acc / cand if cand else 0.0, "ratio")
    m["numfield.qf_mul_calls"] = (t.counts["numfield.qf_mul_calls"], "count")
    m["numfield.ideal_calls"] = (t.counts["numfield.ideal_calls"], "count")
    m["numfield.make_tower_s"] = (t.incl_s["numfield.make_tower_s"], "s")
    m["git4.exact_s"] = (t.self_s["git4.exact"], "s")
    m["git4.float53_s"] = (t.self_s["git4.float53"], "s")
    m["git4.float128_s"] = (t.self_s["git4.float128"], "s")
    m["git4.float_s"] = (m["git4.float53_s"][0] + m["git4.float128_s"][0], "s")
    return {k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in m.items()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()
    alk_file = os.path.realpath(workloads.alk.__file__)
    if not alk_file.startswith(os.path.realpath(src) + os.sep):
        _fail(f"imported alk from {alk_file}, not from {src}")
    warm_failures: list = []
    for op in wl.warmup_ops():
        _, result, error = _run(op)
        _record(op, result, error, Counter(), warm_failures)
    ready = time.monotonic()
    speed = MachineSpeed()
    speed.sample()

    out = {"ready": ready, "setup_speed_factor": speed.median_factor(),
           "warmup_failures": warm_failures, "kernel": workloads.alk.KERNEL_NAME}
    if args.mode == "measure":
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            out.update(trace(wl, args.seed, os.path.join(root, ".bench_out"), tag))
        else:
            out.update(measure(wl, args.seed, args.seconds))
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
