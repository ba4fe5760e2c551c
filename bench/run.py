"""greenvar benchmark: one workload, one process, one caller in a closed loop.

Usage (from the root of a checkout):

    python3 bench/run.py --workload volume_ladder --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
After set-up, passes of the workload's fixed operation set run back to back
until ``--seconds`` have passed (at least ``MIN_PASSES``).  The reference
kernel (``kernel.py``) is timed before the first operation and after every
``SEGMENT_MS`` of operations, and each segment's time is rescaled to the
kernel's nominal time, which removes most of the host's speed drift.
Every operation's output is checked against the oracle (``oracle.py``) or
against properties the method must have.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics ``setup_s``, ``pass_ms`` and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced passes alternate, the traced ones give
the per-layer self times and counts (see ``tracer.py``), the spans go to
``bench/out/``, and the last line carries the per-layer metrics.
"""

import time

_T0 = time.perf_counter()

# First, before numpy loads: it pins BLAS and OpenMP to one thread.
import kernel as kernel_mod

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
# Set-up is measured in this process and again in this many fresh ones.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
# Each kernel sample is the median of this many kernel runs.
KERNEL_REPS = 3
# A kernel sample is taken after each run of operations at least this long;
# each segment's time is rescaled by the kernel samples at its two ends.
# Samples only around each pass (2.5 to 3.3 s on volume_ladder and
# cli_suite) raised the run-to-run spread of pass_ms there from 4.0% and
# 2.5% to 8.4% and 11.2% (README.md, "Spread and bounds").
SEGMENT_MS = 250.0

# Per-layer metrics: (metric, span, what); what is "ms" (self time),
# "calls" or "points".
LAYER_METRICS = [
    ("conformal.inverse_calls", "conformal.inverse", "calls"),
    ("conformal.inverse_points", "conformal.inverse", "points"),
    ("conformal.inverse_ms", "conformal.inverse", "ms"),
    ("conformal.gate_calls", "conformal.gate", "calls"),
    ("conformal.gate_ms", "conformal.gate", "ms"),
    ("conformal.boundary_grid_ms", "conformal.boundary_grid", "ms"),
    ("conformal.velocity_ms", "conformal.velocity", "ms"),
    ("greens.gradient_ms", "greens.gradient", "ms"),
    ("greens.gradient_points", "greens.gradient", "points"),
    ("greens.normal_derivative_ms", "greens.normal_derivative", "ms"),
    ("energy_momentum.emt_ms", "energy_momentum.emt", "ms"),
    ("energy_momentum.divergence_ms", "energy_momentum.divergence", "ms"),
    ("tensors.metric_inverse_calls", "tensors.metric_inverse", "calls"),
    ("tensors.metric_inverse_ms", "tensors.metric_inverse", "ms"),
    ("tensors.strain_ms", "tensors.strain", "ms"),
    ("tensors.christoffel_ms", "tensors.christoffel", "ms"),
    ("tensors.volume_density_ms", "tensors.volume_density", "ms"),
    ("quadrature.rule_builds", "quadrature.rule_build", "calls"),
    ("quadrature.rule_build_ms", "quadrature.rule_build", "ms"),
    ("quadrature.nodes", "quadrature.sum", "points"),
    ("quadrature.sum_ms", "quadrature.sum", "ms"),
    ("quadrature.boundary_sum_ms", "quadrature.boundary_sum", "ms"),
    ("variation.boundary_ms", "variation.boundary", "ms"),
    ("variation.flux_ms", "variation.flux", "ms"),
    ("variation.fd_ms", "variation.fd", "ms"),
    ("variation.triple_ms", "variation.triple", "ms"),
    ("variation.volume_ms", "variation.volume", "ms"),
    ("variation.report_ms", "variation.report", "ms"),
    ("cli.load_ms", "cli.load", "ms"),
    ("cli.render_ms", "cli.render", "ms"),
]


def import_greenvar():
    """Import greenvar from this checkout's ``src/`` and nowhere else."""
    init = os.path.join(SRC, "greenvar", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: no greenvar sources at {init}")
    sys.path.insert(0, SRC)
    import greenvar
    import greenvar.cli  # noqa: F401 - not imported by the package itself
    if os.path.dirname(os.path.abspath(greenvar.__file__)) != os.path.dirname(init):
        sys.exit(f"bench: imported greenvar from {greenvar.__file__}, not {init}")
    return greenvar


def parse_args(argv):
    parser = argparse.ArgumentParser(description="greenvar benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time in seconds, exit")
    return parser.parse_args(argv)


def build(gv, workloads, args):
    os.makedirs(OUT, exist_ok=True)
    return workloads.WORKLOADS[args.workload](gv, args.seed, OUT)


def kernel_sample(kernel):
    return statistics.median(kernel() for _ in range(KERNEL_REPS))


def probe_setup(args, kernel):
    """Set-up times of fresh processes, and kernel samples taken between them."""
    setups, kernels = [], [kernel_sample(kernel)]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        setups.append(float(proc.stdout.split()[-1]))
        kernels.append(kernel_sample(kernel))
    return setups, kernels


def run_pass(workload, call, sample, k_prev):
    """One pass; returns (results, raw ms, rescaled ms, last kernel sample).

    ``sample()`` times the kernel; it runs between segments of at least
    ``SEGMENT_MS`` of operations, outside the timed intervals.
    """
    results = []
    raw = scaled = segment = 0.0
    ops = workload.ops
    for i, (label, fn) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            results.append((label, call(label, fn), None))
        except workload.gv.errors.GreenvarError as exc:
            results.append((label, None, exc))
        segment += (time.perf_counter() - t0) * 1e3
        if segment >= SEGMENT_MS or i == len(ops) - 1:
            k_next = sample()
            raw += segment
            scaled += segment / ((k_prev + k_next) / 2.0)
            segment, k_prev = 0.0, k_next
    return results, raw, scaled, k_prev


def main(argv=None) -> int:
    args = parse_args(argv)
    gv = import_greenvar()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(gv)
        with tracer.recording("setup"):
            workload = build(gv, workloads, args)
    else:
        workload = build(gv, workloads, args)
    setup_own = time.perf_counter() - _T0
    if args.setup_probe:
        workload.close()
        print(repr(setup_own))
        return 0

    try:
        return measure(workload, tracer, setup_own, args)
    finally:
        workload.close()


def measure(workload, tracer, setup_own, args):
    kernel = kernel_mod.Kernel()
    nominal = kernel_mod.NOMINAL_MS
    k_setup = kernel_sample(kernel)
    setups, kernels = [setup_own], [k_setup]
    if tracer is None:
        more_setups, more_kernels = probe_setup(args, kernel)
        setups += more_setups
        kernels += more_kernels
    setup_trace = tracer.take() if tracer is not None else None
    workload.references()

    passes, failed, errors, attempted = [], [], [], 0
    plain = lambda label, fn: fn()
    sample = lambda: kernel_sample(kernel)
    k_prev = sample()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with tracer.recording(f"pass{len(passes)}"):
                results, raw_ms, scaled_ms, k_prev = run_pass(
                    workload, lambda label, fn: tracer.call("op." + label, fn), sample, k_prev)
        else:
            results, raw_ms, scaled_ms, k_prev = run_pass(workload, plain, sample, k_prev)
        passes.append(dict(raw_ms=raw_ms, scaled_ms=scaled_ms * nominal, traced=traced,
                           layers=tracer.take() if traced else None))
        attempted += len(results)
        pass_failed, pass_errors = workload.judge(results)
        failed += pass_failed
        errors += pass_errors
        if len(passes) >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    raw = statistics.median(p["raw_ms"] for p in untraced)
    scaled = statistics.median(p["scaled_ms"] for p in untraced)
    print(f"workload {workload.name}, seed {args.seed}: {len(passes)} passes of "
          f"{len(workload.ops)} operations, {attempted} attempted, {len(failed)} failed")
    kernel_ms = statistics.median(nominal * p["raw_ms"] / p["scaled_ms"] for p in passes)
    print(f"  pass: median {raw:.2f} ms raw, {scaled:.2f} ms rescaled "
          f"(kernel median {kernel_ms:.3f} ms, nominal {nominal} ms)")
    for msg in sorted(set(failed)):
        print(f"  failed: {msg}")
    for msg in errors[:20]:
        print(f"  CHECK FAILED: {msg}")

    if tracer is None:
        setup_raw = statistics.median(setups)
        setup = setup_raw * nominal / statistics.median(kernels)
        print(f"  set-up: median {setup_raw:.4f} s raw, {setup:.4f} s rescaled, "
              f"{len(setups)} samples")
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "pass_ms": {"value": scaled, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = layer_metrics(workload, tracer, setup_trace, nominal / k_setup,
                                passes, scaled, args)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def layer_metrics(workload, tracer, setup_trace, setup_scale, passes, untraced_ms, args):
    """One set-up plus the mean traced pass, per layer; times rescaled."""
    traced = [p for p in passes if p["traced"]]
    totals = {"ms": Counter(), "calls": Counter(), "points": Counter()}
    for (self_ns, calls, points), scale, weight in (
            [(setup_trace, setup_scale, 1.0)]
            + [(p["layers"], p["scaled_ms"] / p["raw_ms"], 1.0 / len(traced)) for p in traced]):
        totals["ms"].update({k: v * 1e-6 * scale * weight for k, v in self_ns.items()})
        totals["calls"].update({k: v * weight for k, v in calls.items()})
        totals["points"].update({k: v * weight for k, v in points.items()})
    metrics = {}
    for metric, span, what in LAYER_METRICS:
        value = totals[what][span]
        metrics[metric] = ({"value": value, "unit": "ms"} if what == "ms"
                           else {"value": int(round(value)), "unit": "count"})
    traced_ms = statistics.median(p["scaled_ms"] for p in traced)
    overhead = traced_ms - untraced_ms
    spans_path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    print(f"  trace: {len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}; "
          f"traced pass {traced_ms:.2f} ms vs untraced {untraced_ms:.2f} ms "
          f"(overhead {overhead:+.2f} ms, {100.0 * overhead / untraced_ms:+.1f}%)")
    print("  per layer, one set-up plus one pass (self ms rescaled):")
    for metric, _, _ in LAYER_METRICS:
        print(f"    {metric:32s} {metrics[metric]['value']:14.6g}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
