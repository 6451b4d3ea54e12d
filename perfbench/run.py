#!/usr/bin/env python3
"""padpkit benchmark: Monte Carlo trial throughput, CLI pipeline latency, per-layer self time.

Run from the repository root:

    python3 perfbench/run.py --workload mc-snr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --smoke --trace 1

Workloads (see ``workloads.py``): ``mc-snr``, ``mc-pair-plus``,
``cli-pipeline``; ``all`` runs each in its own process and exits non-zero
if any fails.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs a traced copy of the same work next to an untraced
one and reports per-layer self times and counts (``spans.py``).  Every
result checks padpkit's outputs; a failed check counts as a failed
operation and makes the exit code non-zero.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Full results, the environment block and (traced runs) the
spans are written under ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: OpenBLAS would otherwise start its own threads on top of
# run_sweep's pool.  This sets the process environment only, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (loads numpy, so after the thread cap)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "pipeline_ms_p50": "ms",
    "pipeline_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("mc-snr", "mc-pair-plus", "cli-pipeline")
SETUP_RUNS = 5
KERNEL_MAPS = 32


def _import_padpkit():
    """Import padpkit from this checkout's source tree and nowhere else."""
    if not (SRC / "padpkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'padpkit'} not found; run from a padpkit checkout")
    sys.path.insert(0, str(SRC))
    import padpkit

    if Path(padpkit.__file__).resolve().parent != (SRC / "padpkit").resolve():
        sys.exit(f"perfbench: imported padpkit from {padpkit.__file__}, not {SRC}")
    return padpkit


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, workload):
    import numpy as np
    from padpkit import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "kernel_backend": kernels.backend_name(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "padpkit_threads": os.environ.get("PADPKIT_THREADS"),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def setup_times(args, runs):
    """Seconds from a fresh interpreter to the first warm operation done: (raw, scale factors)."""
    times, factors = [], []
    hostspeed.reference_s()  # first calls run cold
    for _ in range(runs):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--probe", "--seed", str(args.seed)]
        factors.append(hostspeed.factor())
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}):\n{proc.stderr}")
    return times, factors


class Tally:
    """Attempted and failed operations with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, batch):
        self.attempted += batch.attempted
        self.failed += batch.failed
        self.failures += batch.failures
        return batch

    def fail(self, message, ops=1):
        self.failed += ops
        self.failures.append(message)


def _timing_metrics(batches, factors, setup):
    ops = [ms * f for b, f in zip(batches, factors) for ms in b.op_ms]
    tail_ms, tail_pct, n = tail(ops)
    metrics = {
        "trials_per_s": statistics.median(b.trials / (b.wall_s * f) for b, f in zip(batches, factors)),
        "pipeline_ms_p50": statistics.median(ops),
        "pipeline_ms_tail": tail_ms,
        "setup_s": statistics.median(setup),
    }
    return metrics, tail_pct, n


def measure(args, wl, tally, details):
    """Untraced closed loop for --seconds; the end-to-end metrics at reference host speed."""
    setup, setup_factors = setup_times(args, 1 if args.smoke else SETUP_RUNS)
    wl.setup()
    tally.add(wl.run(args.seed, 0))  # warm-up, untimed
    batches, factors = [], []
    deadline = time.perf_counter() + args.seconds
    while not batches or time.perf_counter() < deadline:
        factors.append(hostspeed.factor())
        batches.append(tally.add(wl.run(args.seed, len(batches) + 1)))
    metrics, tail_pct, n = _timing_metrics(
        batches, factors, [s * f for s, f in zip(setup, setup_factors)])
    raw, _, _ = _timing_metrics(batches, [1.0] * len(batches), setup)
    details.update(
        batches=len(batches), operations=n, tail_percentile=tail_pct,
        measured_s=sum(b.wall_s for b in batches), setup_runs_s=setup,
        raw_wall_clock=raw, reference_ms=[hostspeed.REF_NOMINAL_S * 1e3 / f for f in factors],
        reference_nominal_ms=hostspeed.REF_NOMINAL_S * 1e3,
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def measure_traced(args, wl, tally, details):
    """Untraced and traced copies of the same batches; the per-layer metrics."""
    import spans
    import workloads

    wl.setup()
    tally.add(wl.run(args.seed, 0))  # warm-up, untimed
    kernel_ms = workloads.kernel_only_ms(workloads.kernel_maps(wl.scenario, args.seed, KERNEL_MAPS))
    tracer = spans.Tracer()
    # a pair count fixed by --seconds, not by the clock, so the counts repeat exactly
    pairs = max(1, int(args.seconds / (4.0 * wl.batch_s)))
    plain, traced = [], []
    for i in range(1, pairs + 1):
        plain.append(tally.add(wl.run(args.seed, i, keep=True)))
        wl.on_op = lambda op, _i=i: setattr(tracer, "op", (_i, op))
        with tracer:
            traced.append(tally.add(wl.run(args.seed, i, keep=True)))
        wl.on_op = None
        if plain[-1].outputs != traced[-1].outputs:
            tally.fail(f"batch {i}: traced outputs differ from untraced outputs", traced[-1].attempted)
        plain[-1].outputs = traced[-1].outputs = None

    units = sum(wl.units(b) for b in traced)
    metrics = spans.layer_metrics(tracer.spans, units, wl.threads)
    wall = sum(b.wall_s for b in traced)
    plain_wall = sum(b.wall_s for b in plain)
    metrics["trace.wall_ms"] = wall * 1e3 / units
    metrics["trace.untraced_ms"] = plain_wall * 1e3 / units
    metrics["trace.overhead_frac"] = wall / plain_wall - 1.0
    metrics["kernels.local_maxima_2d.isolated_ms"] = kernel_ms
    metrics["io.bytes_written"] = plain[-1].bytes_written
    for cmd in ("simulate", "estimate", "crlb", "offset-study"):
        times = [b.cmd_ms[cmd] for b in plain if cmd in b.cmd_ms]
        metrics[f"cli.{cmd}.ms_p50"] = statistics.median(times) if times else 0.0
    if metrics["trace.self_sum_ms"] > wl.threads * metrics["trace.wall_ms"]:
        tally.fail("per-layer self times sum to more than threads x traced wall time",
                   sum(b.attempted for b in traced))

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl", "w") as fh:
        for sid, name, t0, t1, parent, op, thread, counts in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                                 "op": op, "thread": thread, "counts": counts}) + "\n")
    details.update(traced_batches=pairs, units=units, unit=wl.unit, spans=len(tracer.spans),
                   computed=sorted(spans.COMPUTED))
    return metrics


def run_one(args):
    import spans
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, ROOT, workdir, smoke=args.smoke)
    tally, details = Tally(), {}
    try:
        if args.probe:
            batch = wl.probe(args.seed)
            return 0 if batch.failed == 0 else 1
        metrics = (measure_traced if args.trace else measure)(args, wl, tally, details)
        fails = wl.check()
        if fails:
            tally.fail("; ".join(f"{v:g}: {msg}" for v, msg in fails), wl.failed_ops(fails))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, wl)
    units = END_TO_END_UNITS if not args.trace else {m: spans.unit(m) for m in sorted(metrics)}
    report = {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}
    details["failed_frac"] = tally.failed / tally.attempted
    OUT.mkdir(exist_ok=True)
    result = {"environment": env, "details": details, "failures": tally.failures, "metrics": report}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2))

    print(f"environment {json.dumps(env)}")
    for msg in tally.failures:
        print(f"FAILED {msg}")
    print(f"{wl.name}: {tally.attempted} operations, {tally.failed} failed "
          f"(failed_frac {details['failed_frac']:.4g})")
    if "tail_percentile" in details:
        ref = statistics.median(details["reference_ms"])
        print(f"tail is p{details['tail_percentile']:.1f} of {details['operations']} operations; "
              f"times at reference host speed (reference kernel {ref:.3f} ms, "
              f"nominal {details['reference_nominal_ms']:g} ms); raw wall clock:")
        for name, value in details["raw_wall_clock"].items():
            print(f"  raw {name:<38} {value:>14.6g} {END_TO_END_UNITS[name]}")
    for name, m in report.items():
        label = " (computed)" if name in details.get("computed", ()) else ""
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}{label}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report}))
    return 0 if tally.failed == 0 else 1


def run_all(args):
    """Each workload in its own process; one summary; non-zero if any failed."""
    combined, ok = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(f"== {name}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            ok = False
            print(proc.stderr.strip())
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = val
    print(json.dumps(combined))
    return 0 if ok and combined["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest run that still checks every output (about a second of work)")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    _import_padpkit()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
