"""The benchmark's three workloads and their correctness checks.

Each workload drives padpkit's public API from outside, one caller in a
closed loop, and runs in batches:

* ``mc-snr``: ``experiments.run_sweep`` on ``scenarios/default.json``,
  output-SNR sweep 15-40 dB, random arrival angle, o1/o2/haed, serial.
  The paper's headline RMSEE-vs-bound experiment; synthesis, the noise
  threshold and the 2-D peak kernel do most of its work.  It bypasses
  haed+, the full Fisher matrix and the thread pool.
* ``mc-pair-plus``: ``run_sweep`` on ``scenarios/corridor_pair.json``,
  separation sweep 30-180 degrees (at least 3 beamwidths), off-grid delays,
  haed/haed+, ``PADPKIT_THREADS=2``.  The only workload with haed+
  interpolation, a two-arrival Fisher-matrix overlay, association with
  false alarms, and the thread pool.
* ``cli-pipeline``: in-process ``padpkit.cli.main`` on
  ``scenarios/default.json``: simulate with spectra, estimate with all four
  methods, a single-arrival true-angle crlb sweep and a small offset study.
  Mostly noise-free synthesis, full Fisher inversions per point, and the
  only workload with file io.

A batch is one ``run_sweep`` call at one sweep point, cycling through the
grid (the point is its one operation), or one CLI pass (its operations are
the four commands).
Functions are looked up on their modules at call time, so a tracer that
rebinds them sees every call.
"""

import contextlib
import io as _stdio
import os
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from padpkit import cli, estimation, experiments, io, kernels, synthesis
from padpkit.estimation import Method, PeakConfig

# correctness bounds, each with the range observed on 36 x 1001 sweeps
HAED_PHI_OVER_BOUND = 2.0   # haed angle RMSEE / sqrt(CRLB), observed 1.0-1.4
QUANTIZED_PHI_TOL = 0.15    # o1/o2 angle RMSEE vs step/sqrt(12), observed within 5%
HAED_PLUS_TAU_OVER_BOUND = 2.0  # haed+ delay RMSEE / sqrt(CRLB), observed 1.0-1.3
HAED_PLUS_TAU_VS_HAED = 0.5  # haed+ delay RMSEE / haed delay RMSEE, observed 0.014-0.017
OFFSET_HAED_PHI_MAX_DEG = 1e-9  # noise-free haed angle RMSEE, observed 2e-14


@dataclass
class Batch:
    """One batch: wall time, per-operation times and outcome counts."""

    wall_s: float
    op_ms: list
    trials: int
    attempted: int
    failed: int = 0
    failures: list = field(default_factory=list)
    cmd_ms: dict = field(default_factory=dict)
    outputs: object = None
    bytes_written: int = 0


def _seed_for(seed, batch):
    """Per-batch base seed; every input derives from the run's --seed."""
    return seed * 1_000_003 + batch


class McWorkload:
    """Monte Carlo sweeps through ``experiments.run_sweep``."""

    unit = "trial"
    batch_s = 0.3  # nominal seconds per batch, sizes the traced run

    def __init__(self, root, name, scenario, sweep_variable, values, methods, checks,
                 threads, trials, randomize_angle=False, off_grid_delay=False):
        self.name = name
        self.checks = checks
        self.scenario_path = Path(root) / scenario
        self.sweep_variable = sweep_variable
        self.values = tuple(float(v) for v in values)
        self.methods = tuple(methods)
        self.threads = threads
        self.trials = trials
        self.randomize_angle = randomize_angle
        self.off_grid_delay = off_grid_delay
        self.scenario = None
        self._pooled = defaultdict(lambda: [0.0, 0, 0, None])  # sum n*rmsee^2, n, misses, sqrt_crlb
        self._ops_at = defaultdict(int)
        self.on_op = None

    def setup(self):
        self.scenario = io.load_scenario(self.scenario_path)
        if self.threads > 1:
            os.environ["PADPKIT_THREADS"] = str(self.threads)
        else:
            os.environ.pop("PADPKIT_THREADS", None)

    def config(self, base_seed, trials=None, values=None):
        return experiments.MonteCarloConfig(
            trials=trials or self.trials,
            sweep_variable=self.sweep_variable,
            sweep_values=values or self.values,
            mpcs=self.scenario.mpcs,
            randomize_angle=self.randomize_angle,
            off_grid_delay=self.off_grid_delay,
            methods=self.methods,
            base_seed=base_seed,
        )

    def run(self, seed, batch, keep=False, trials=None):
        """One run_sweep call at the batch's sweep point; ``keep`` returns its rows' fingerprint."""
        value = self.values[batch % len(self.values)]
        mc = self.config(_seed_for(seed, batch), trials, (value,))
        sc = self.scenario
        if self.on_op is not None:
            self.on_op(0)
        t0 = time.perf_counter()
        try:
            rows = experiments.run_sweep(mc, sc.sounding, sc.array, sc.pattern)
        except Exception:
            return Batch(time.perf_counter() - t0, [], 0, 1, 1,
                         [f"batch {batch}: run_sweep raised\n{traceback.format_exc()}"])
        wall = time.perf_counter() - t0
        self._ops_at[value] += 1
        for r in rows:
            acc = self._pooled[(r.sweep_value, r.method, r.param)]
            if r.stats.n:
                acc[0] += r.stats.n * r.stats.rmsee**2
                acc[1] += r.stats.n
            acc[2] += r.stats.misses
            acc[3] = r.sqrt_crlb
        return Batch(wall, [wall * 1e3], mc.trials, 1, outputs=fingerprint(rows) if keep else None)

    def probe(self, seed):
        """First warm operation of a fresh process: one trial at the first sweep point."""
        self.setup()
        return self.run(seed, 0, trials=1)

    def units(self, batch):
        return batch.trials

    def pooled(self, value, method, param):
        """(RMSEE over every trial of the run, misses, sqrt_crlb) at one sweep point."""
        s, n, misses, bound = self._pooled[(value, method, param)]
        return (np.sqrt(s / n) if n else np.nan), misses, bound

    def check(self):
        """Failed checks as (sweep value, message); statistics pool all batches of the run."""
        fails = []
        n_truth = len(self.scenario.mpcs)
        for value in sorted(self._ops_at):
            for method in self.methods:
                for ti in range(n_truth):
                    param = "phi_deg" if n_truth == 1 else f"phi_deg:{ti}"
                    if self.pooled(value, method, param)[1]:
                        fails.append((value, f"{method.value} missed arrival {ti}"))
            fails += [(value, msg) for msg in self.checks(self, value)]
        return fails

    def failed_ops(self, fails):
        return sum(self._ops_at[v] for v in {v for v, _ in fails})


def _snr_checks(wl, value):
    rms, _, bound = wl.pooled(value, Method.HAED, "phi_deg")
    if not rms <= HAED_PHI_OVER_BOUND * bound:
        yield f"haed phi RMSEE {rms:.4g} deg > {HAED_PHI_OVER_BOUND} x sqrt_crlb {bound:.4g}"
    expect = 360.0 / wl.scenario.array.m / np.sqrt(12.0)
    for method in (Method.O1, Method.O2):
        rms, _, _ = wl.pooled(value, method, "phi_deg")
        if not abs(rms / expect - 1.0) <= QUANTIZED_PHI_TOL:
            yield f"{method.value} phi RMSEE {rms:.4g} deg not within 15% of step/sqrt(12) {expect:.4g}"


def _pair_checks(wl, value):
    for ti in range(len(wl.scenario.mpcs)):
        rms, _, bound = wl.pooled(value, Method.HAED_PLUS, f"tau_ns:{ti}")
        base, _, _ = wl.pooled(value, Method.HAED, f"tau_ns:{ti}")
        if not rms <= HAED_PLUS_TAU_OVER_BOUND * bound:
            yield f"haed+ tau:{ti} RMSEE {rms:.4g} ns > 2 x sqrt_crlb {bound:.4g}"
        if not rms <= HAED_PLUS_TAU_VS_HAED * base:
            yield f"haed+ tau:{ti} RMSEE {rms:.4g} ns not below half of haed's {base:.4g}"


def kernel_maps(sc, seed, n):
    """Noisy power maps of scenario ``sc``, for the kernel-only timing."""
    return [
        synthesis.simulate_padp(sc.mpcs, sc.array, sc.pattern, sc.sounding,
                                seed=_seed_for(seed, i), keep_cfr=False).values
        for i in range(n)
    ]


def fingerprint(rows):
    """Every field of every sweep row, exactly; equal fingerprints mean equal outputs."""
    return [
        (r.sweep_value, r.method.value, r.param, r.truth_index, r.sqrt_crlb, r.stats.rmsee,
         r.stats.mean_err, r.stats.mean_abs_err, r.stats.mc_stderr, r.stats.n, r.stats.misses,
         r.stats.false_alarms, r.stats.cdf.tobytes())
        for r in rows
    ]


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


class CliWorkload:
    """One pass of four ``padpkit.cli.main`` commands writing into ``workdir``."""

    name = "cli-pipeline"
    unit = "pass"
    batch_s = 0.25
    threads = 1
    COMMANDS = ("simulate", "estimate", "crlb", "offset-study")
    METHODS = "o1,o2,haed,haed+"

    def __init__(self, root, workdir, offset_n=20):
        self.scenario_path = str(Path(root) / "scenarios/default.json")
        self.workdir = Path(workdir)
        self.offset_n = offset_n
        self.scenario = None
        self._padp_ref = None
        self.on_op = None

    def setup(self):
        self.scenario = io.load_scenario(self.scenario_path)
        self.workdir.mkdir(parents=True, exist_ok=True)
        os.environ.pop("PADPKIT_THREADS", None)

    def _argv(self, seed):
        w, sc = self.workdir, self.scenario_path
        return {
            "simulate": ["simulate", "--scenario", sc, "--out", str(w / "scan.padp"),
                         "--cfr-out", str(w / "scan.npy"), "--seed", str(seed)],
            "estimate": ["estimate", "--padp", str(w / "scan.padp"), "--cfr", str(w / "scan.npy"),
                         "--scenario", sc, "--methods", self.METHODS, "--out", str(w / "estimates.csv")],
            "crlb": ["crlb", "--scenario", sc, "--sweep", "true-angle", "--values", "0:10:21",
                     "--out", str(w / "crlb.csv")],
            "offset-study": ["offset-study", "--scenario", sc, "--n", str(self.offset_n),
                             "--seed", str(seed), "--out", str(w / "offset.csv")],
        }

    def run(self, seed, batch, keep=False):
        """One pass; ``keep`` returns the bytes of every file it wrote."""
        cmd_ms, rcs, errors = {}, {}, []
        t0 = time.perf_counter()
        for i, (cmd, argv) in enumerate(self._argv(seed).items()):
            if self.on_op is not None:
                self.on_op(i)
            sink = _stdio.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stderr(sink):
                    rcs[cmd] = cli.main(argv)
            except Exception:
                rcs[cmd] = None
                errors.append(traceback.format_exc())
            cmd_ms[cmd] = (time.perf_counter() - t) * 1e3
            if rcs[cmd] != 0:
                errors.append(f"{cmd} exited {rcs[cmd]}: {sink.getvalue().strip()}")
        wall = time.perf_counter() - t0
        failed = {cmd for cmd, rc in rcs.items() if rc != 0}
        for cmd, msg in self._check(failed):
            failed.add(cmd)
            errors.append(f"{cmd}: {msg}")
        files = sorted(p for p in self.workdir.iterdir() if p.is_file())
        return Batch(
            wall, [wall * 1e3], 1 + self.offset_n, len(self.COMMANDS), len(failed),
            [f"pass {batch}: {e}" for e in errors], cmd_ms,
            outputs={p.name: p.read_bytes() for p in files} if keep else None,
            bytes_written=sum(p.stat().st_size for p in files),
        )

    def _check(self, failed):
        w = self.workdir
        if "simulate" not in failed:
            data = (w / "scan.padp").read_bytes()
            if self._padp_ref is None:
                self._padp_ref = data
            elif data != self._padp_ref:
                yield "simulate", "PADP bytes differ from the first pass with the same seed"
        if "estimate" not in failed:
            truth = self.scenario.mpcs[0]
            tol_ns = self.scenario.sounding.delta_tau * 1e9
            tol_deg = np.degrees(self.scenario.pattern.hpbw)
            rows = _read_csv(w / "estimates.csv")
            for method in self.METHODS.split(","):
                mine = [r for r in rows if r["method"] == method]
                if not mine:
                    yield "estimate", f"{method} returned no estimate"
                for r in mine:
                    d_tau = abs(float(r["tau_ns"]) - truth.tau * 1e9)
                    d_phi = abs((float(r["phi_deg"]) - np.degrees(truth.phi) + 180.0) % 360.0 - 180.0)
                    if not (d_tau <= tol_ns and d_phi <= tol_deg):
                        yield "estimate", f"{method} estimate off by {d_tau:.3g} ns, {d_phi:.3g} deg"
        if "crlb" not in failed:
            rows = _read_csv(w / "crlb.csv")
            if len(rows) != 21 or any(r["flags"] for r in rows):
                yield "crlb", "expected 21 unflagged sweep points"
        if "offset-study" not in failed:
            rows = _read_csv(w / "offset.csv")
            haed = [r for r in rows if r["method"] == "haed" and r["param"] == "phi_deg"]
            if not haed or not float(haed[0]["rmsee"]) < OFFSET_HAED_PHI_MAX_DEG:
                yield "offset-study", "haed angle RMSEE not below 1e-9 deg"

    def probe(self, seed):
        """First warm operation of a fresh process: one full pass."""
        self.setup()
        return self.run(seed, 0)

    def units(self, batch):
        return 1

    def check(self):
        return []

    def failed_ops(self, fails):
        return 0


def make(name, root, workdir, smoke=False):
    """A workload by name.  ``smoke`` keeps two sweep points with enough trials for the checks."""
    if name == "cli-pipeline":
        return CliWorkload(root, workdir)
    if name == "mc-snr":
        wl = McWorkload(
            root, name, "scenarios/default.json", "output_snr_db", np.linspace(15.0, 40.0, 6),
            (Method.O1, Method.O2, Method.HAED), _snr_checks, threads=1, trials=50, randomize_angle=True,
        )
    elif name == "mc-pair-plus":
        wl = McWorkload(
            root, name, "scenarios/corridor_pair.json", "angular_separation_deg",
            (30.0, 60.0, 90.0, 120.0, 150.0, 180.0), (Method.HAED, Method.HAED_PLUS), _pair_checks,
            threads=2, trials=50, off_grid_delay=True,
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    if smoke:
        wl.values, wl.trials = wl.values[:2], 200
    return wl


def kernel_only_ms(maps, rounds=3):
    """Median ms of one ``kernels.local_maxima_2d`` call over the maps, untraced."""
    pk = PeakConfig()
    thresholds = [estimation.noise_threshold(v, pk) for v in maps]
    times = []
    for _ in range(rounds):
        for v, thr in zip(maps, thresholds):
            t = time.perf_counter()
            kernels.local_maxima_2d(v, thr)
            times.append(time.perf_counter() - t)
    return float(np.median(times)) * 1e3
