"""qdist benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload surface7_depol --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qdist is imported from its `src`
directory, never from an installed copy.  Workloads and metrics are listed,
with units and bounds, in BENCHMARK.json next to this directory.

The run prints one line per sweep with the SHA-256 of its report body, the
machine facts, a summary with units, and as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A traced run decodes
the same inputs twice, untraced then traced, and fails unless both give the
same report bytes.
"""

import os

# One thread: pin the BLAS pool before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict
    consistent: bool = True  # the trace's own invariants held


def print_sweeps(h, wl, code, calls, label) -> int:
    """One line per sweep; returns how many failed the witness check."""
    bad = 0
    for c in calls:
        ok = h.witness_ok(code, c.report, wl.noise)
        bad += not ok
        print(f"{label} master_seed={c.master_seed} trials={wl.trials_per_call} seconds={c.seconds:.4f} "
              f"upper_bound={c.report.upper_bound} witness={'ok' if ok else 'FAILED'} sha256={c.sha256}")
    return bad


def corrected(inter, calls_s, starts):
    return inter.corrected(calls_s, [t + d / 2 for t, d in zip(starts, calls_s)])


def timing_metrics(calls_s, when, trials_per_call, inter):
    """Speed-corrected throughput and latency, with the raw figures printed."""
    corr = corrected(inter, calls_s, when)
    print(f"raw trials_per_s {len(calls_s) * trials_per_call / sum(calls_s)} 1/s; raw latency_p50_ms "
          f"{1e3 * np.median(calls_s)} ms; host slowdown median {np.median(inter.slowdown(when))} "
          f"over {len(inter.calibrations)} calibrations")
    return {
        "trials_per_s": len(calls_s) * trials_per_call / float(corr.sum()),
        "latency_p50_ms": 1e3 * float(np.percentile(corr, 50)),
        "latency_p99_ms": 1e3 * float(np.percentile(corr, 99)),
    }


def sweep_untraced(h, wl, code, seed, seconds, inter):
    fixed = h.fixed_calls(wl, seconds)
    calls = h.run_sweeps(wl, code, seed, fixed, deadline=perf_counter() + seconds, between=inter.tick)
    inter.tick()
    bad = print_sweeps(h, wl, code, calls, "sweep")
    bound = min(c.report.upper_bound for c in calls[:fixed])
    print(f"bound_gap {bound - wl.published_d} (witnessed bound {bound} over the first {fixed} sweeps, "
          f"published d = {wl.published_d})")
    print(f"latency samples: {len(calls)} sweep calls of {wl.trials_per_call} trials")
    metrics = timing_metrics([c.seconds for c in calls], [c.started for c in calls], wl.trials_per_call, inter)
    metrics["logical_frac"] = h.sweep_logical_frac(calls[:fixed])
    return Outcome(len(calls), bad, metrics)


def sweep_traced(h, tracing, wl, code, seed, seconds, inter):
    fixed = h.fixed_calls(wl, seconds / 2)
    plain = h.run_sweeps(wl, code, seed, fixed, between=inter.tick)
    tracer = tracing.Tracer()
    with tracer.patched(tracing.sweep_targets()):
        traced = h.run_sweeps(wl, code, seed, fixed, between=inter.tick)
    inter.tick()
    bad = print_sweeps(h, wl, code, plain, "untraced") + print_sweeps(h, wl, code, traced, "traced")
    mismatched = sum(a.sha256 != b.sha256 for a, b in zip(plain, traced))
    print(f"traced report hashes equal untraced: {mismatched == 0} ({fixed} sweeps)")
    traced_s = sum(c.seconds for c in traced)
    metrics = tracing.layer_metrics(tracer.totals, traced_s)
    metrics["trace.rate_ratio"] = (corrected(inter, [c.seconds for c in plain], [c.started for c in plain]).sum()
                                   / corrected(inter, [c.seconds for c in traced], [c.started for c in traced]).sum())
    return Outcome(2 * fixed, bad + mismatched, metrics)


def decode_untraced(h, wl, code, seed, seconds, inter):
    fixed = h.fixed_calls(wl, seconds)
    run = h.run_decodes(wl, code, seed, fixed, deadline=perf_counter() + seconds, between=inter.tick)
    inter.tick()
    bound = h.decode_bound(run, fixed)
    print(f"decode_one digest of the first {fixed} estimates sha256={run.digest(fixed)}")
    print(f"bound_gap {None if bound is None else bound - wl.published_d} (lowest logical-residual weight "
          f"{bound} over the first {fixed} decodes, published d = {wl.published_d}; informational)")
    print(f"latency samples: {len(run.latencies)} decode calls")
    metrics = timing_metrics(run.latencies, run.starts, 1, inter)
    metrics["logical_frac"] = float(run.logical[:fixed].mean())
    return Outcome(len(run.errors), run.failures(code), metrics)


def decode_traced(h, tracing, wl, code, seed, seconds, inter):
    fixed = h.fixed_calls(wl, seconds / 2)
    plain = h.run_decodes(wl, code, seed, fixed, between=inter.tick)
    tracer = tracing.Tracer()
    with tracer.patched(tracing.decode_targets()):
        traced = h.run_decodes(wl, code, seed, fixed, between=inter.tick)
    inter.tick()
    mismatched = plain.digest(fixed) != traced.digest(fixed)
    print(f"untraced estimates sha256={plain.digest(fixed)}")
    print(f"traced estimates sha256={traced.digest(fixed)}")
    print(f"traced estimates equal untraced: {not mismatched} ({fixed} decodes)")
    metrics = tracing.layer_metrics(tracer.totals, traced.seconds)
    metrics["trace.rate_ratio"] = (corrected(inter, plain.latencies, plain.starts).sum()
                                   / corrected(inter, traced.latencies, traced.starts).sum())
    failed = plain.failures(code) + traced.failures(code) + (fixed if mismatched else 0)
    return Outcome(2 * fixed, failed, metrics)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdist" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: run from a qdist checkout; {SRC}/qdist or {SPEC.name} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import tracing

    spec = json.loads(SPEC.read_text())
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choices: {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    sweep = isinstance(wl, harness.Sweep)
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(harness.machine_facts(), sort_keys=True))

    inter = harness.Interludes(wl)
    code = inter.start(reps=9)
    harness.warm_up(wl, code, args.seed)
    if args.trace:
        run = sweep_traced if sweep else decode_traced
        out = run(harness, tracing, wl, code, args.seed, args.seconds, inter)
        out.metrics.update(inter.setup_parts())
        m = out.metrics
        layer_sum = sum(m[f"{layer}.busy_s"] for layer in tracing.TOP_LAYERS) + m["estimator.self_s"]
        print(f"layer sum {layer_sum:.6f} s of traced run time {m['run.busy_s']:.6f} s; "
              f"self time {m['estimator.self_s']:.6f} s")
        out.consistent = m["estimator.self_s"] >= 0.0
        declared = spec["per_layer"]
    else:
        run = sweep_untraced if sweep else decode_untraced
        out = run(harness, wl, code, args.seed, args.seconds, inter)
        out.metrics["setup_s"] = inter.setup_s()
        out.metrics["peak_rss_mb"] = harness.peak_rss_mb()
        declared = spec["end_to_end"]

    units = {d["name"]: d["unit"] for d in declared}
    if set(out.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(out.metrics)} do not match BENCHMARK.json {sorted(units)}")
    for name, unit in units.items():
        print(f"{name} {out.metrics[name]} {unit}")
    print(f"failed_frac {out.failed / out.attempted} ({out.failed} of {out.attempted})")
    print(json.dumps({
        "correct": out.failed == 0 and out.consistent,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(out.metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
