"""Seeded Monte Carlo studies: RMSEE sweeps and offset-error statistics.

Every trial derives its generator from (base seed, sweep index, trial
index) through a SeedSequence, so runs are bit-reproducible and trials
may execute in any order.  ``run_sweep`` runs a sweep point's trials in
chunks of 64, each in three passes: (1) on the calling thread, every
trial's generator and its arrival draws; (2) every trial's map, built
with that trial's own generator, and each method's estimates; (3) on the
calling thread, in trial order, association and errors.  Each generator
still feeds one trial in the order of draws of a one-trial loop, so the
output does not depend on the chunking.  The small Python work of
passes 1 and 3 then runs back to back, not between map-sized array
passes, which made perfbench's serial mc-snr sweep 6% faster
(``BENCH_run_sweep_phases.json``).

Set PADPKIT_THREADS to a positive integer (at most ``checks.MAX_THREADS``)
to run pass 2 on a thread pool, one per ``run_sweep`` call; reduction
collects per-trial records in trial order, so the output is identical to
the serial run.  A trial holds the interpreter lock for most of its time:
on a 2-vCPU host with BLAS capped at one thread, over sweeps like
perfbench's mc-pair-plus, 2 threads took 1.45-1.66 ms of wall time per
trial against 1.34-1.75 ms serial, burned 1.7-2.3 ms of CPU per trial
against 1.3-1.8 ms, and made 18-41 voluntary context switches per trial.
padpkit leaves BLAS threads alone: uncapped, a serial sweep burned
2.8-3.1 ms of CPU per trial at 1.5-1.6 ms of wall time, so set
OPENBLAS_NUM_THREADS=1.
Each thread synthesizes its trials into one reused ``Workspace``, so a
trial's PADP is valid only within that trial: the caller's thread keeps
its workspace from one call to the next while the map shape stays, and
pool workers keep theirs for one call.
"""

import contextlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import checks
from .angles import circular_delta
from .antenna import PatternKind
from .crlb import crlb_single_bounds, crlb_sweep
from .estimation import (
    Method,
    PeakConfig,
    estimate_haed,
    estimate_o1,
    estimate_o2,
    haed_plus_refine,
)
from .synthesis import MpcTruth, Workspace, simulate_padp


def _require_methods(methods):
    """Refuse ``methods`` unless it is a non-empty tuple of distinct ``Method`` members."""
    ok = isinstance(methods, tuple) and all(isinstance(m, Method) for m in methods)
    ok = ok and 0 < len(set(methods)) == len(methods)
    checks.require(ok, "methods", "a non-empty tuple of distinct Method members", methods)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sweep specification for ``run_sweep``.

    ``mpcs`` is the base scenario.  The sweep variable overrides, per
    point: the noise height (from the output SNR of the first arrival),
    the second of exactly two arrivals' angle, or the first arrival's
    angle.  ``randomize_angle`` redraws the azimuth uniformly on
    [0, 2*pi) every trial, which would discard a swept angle, so it is
    accepted only on one-arrival ``output_snr_db`` sweeps.
    ``off_grid_delay`` adds a uniform within-bin offset to every delay per
    trial.  Each point's ``sqrt_crlb`` overlay is (0, 0, nan) at a
    noise-free point; for one arrival under a Gaussian beam it is the
    closed forms; otherwise it is the joint Fisher bound.  With
    ``randomize_angle`` it is sqrt(bound) averaged over 181 angles across
    one scan step.
    """

    trials: int = 1000
    sweep_variable: str = "output_snr_db"
    sweep_values: tuple = ()
    mpcs: tuple = ()
    randomize_angle: bool = False
    off_grid_delay: bool = False
    methods: tuple = (Method.O1, Method.O2, Method.HAED)
    base_seed: int = 0
    peak: PeakConfig = field(default_factory=PeakConfig)

    def __post_init__(self):
        checks.integer(self.trials, "trials", 1, checks.MAX_TRIALS)
        checks.integer(self.base_seed, "base_seed", 0)
        _require_methods(self.methods)
        checks.require(isinstance(self.peak, PeakConfig), "peak", "a PeakConfig", self.peak)
        checks.grid(self.sweep_values, "sweep_values")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        checks.require(self.mpcs, "mpcs", "at least one arrival", self.mpcs)
        apply_sweep(self.mpcs, self.sweep_variable, self.sweep_values[0])
        one = self.sweep_variable == "output_snr_db" and len(self.mpcs) == 1
        rule = "False unless an output_snr_db sweep of one arrival: it redraws every angle"
        checks.require(one or not self.randomize_angle, "randomize_angle", rule, True)


@dataclass(frozen=True)
class ErrorStats:
    """Summary of one error-sample population.

    ``mc_stderr`` is std/sqrt(n) of the sample: the standard error of
    ``mean_err``, not of ``rmsee``.  ``failures`` counts trials whose
    estimator raised; they are also misses.
    """

    rmsee: float
    mean_err: float
    mean_abs_err: float
    mc_stderr: float
    cdf: np.ndarray
    n: int
    misses: int = 0
    false_alarms: int = 0
    failures: int = 0

    @classmethod
    def from_samples(cls, samples, misses=0, false_alarms=0, failures=0):
        s = np.asarray(samples, dtype=np.float64)
        if s.size == 0:
            return cls(np.nan, np.nan, np.nan, np.nan, s, 0, misses, false_alarms, failures)
        return cls(
            rmsee=rmsee(s),
            mean_err=float(np.mean(s)),
            mean_abs_err=float(np.mean(np.abs(s))),
            mc_stderr=float(np.std(s) / np.sqrt(s.size)),
            cdf=np.sort(s),
            n=int(s.size),
            misses=misses,
            false_alarms=false_alarms,
            failures=failures,
        )


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    method: Method
    param: str
    truth_index: int
    stats: ErrorStats
    sqrt_crlb: float


def rmsee(errors):
    """Root mean square of an error sample (circular wrap applied upstream)."""
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        raise ValueError("rmsee of an empty sample")
    return float(np.sqrt(np.mean(e**2)))


def associate(estimates, truths, delay_gate, angle_gate):
    """Greedy nearest-neighbour matching of estimates to ground truth.

    Candidates must fall within both gates (absolute delay difference and
    circular angle difference); the normalized Euclidean distance over the
    two axes ranks them.  Returns {truth_index: estimate} plus the count
    of unmatched estimates (false alarms).
    """
    pairs = []
    for ei, est in enumerate(estimates):
        for ti, tr in enumerate(truths):
            d_tau = abs(est.tau - tr.tau)
            d_phi = abs(float(circular_delta(est.phi, tr.phi)))
            if d_tau <= delay_gate and d_phi <= angle_gate:
                score = (d_tau / delay_gate) ** 2 + (d_phi / angle_gate) ** 2
                pairs.append((score, ei, ti))
    pairs.sort()
    matched = {}
    used = set()
    for _, ei, ti in pairs:
        if ei in used or ti in matched:
            continue
        matched[ti] = estimates[ei]
        used.add(ei)
    return matched, len(estimates) - len(used)


def run_method(method, padp, pat, pk):
    """Estimates of one method on one PADP.

    Estimators are looked up by their module-global names at call time, so
    rebinding one (a tracer, a test's monkeypatch) takes effect here.
    """
    if method is Method.O1:
        return estimate_o1(padp, pat, pk)
    if method is Method.O2:
        return estimate_o2(padp, pat, pk)
    if method is Method.HAED:
        return estimate_haed(padp, pat, pk)
    if method is Method.HAED_PLUS:
        return haed_plus_refine(padp, estimate_haed(padp, pat, pk))
    raise ValueError(f"unknown method {method!r}")


def apply_sweep(mpcs, variable, value):
    """The arrivals at one sweep point, as a new list.

    ``angular_separation_deg`` places the second of exactly two arrivals
    ``value`` degrees from the first; ``true_angle_deg`` sets the first
    arrival's angle to ``value`` degrees; ``output_snr_db`` changes only
    the noise height, so the arrivals are returned unchanged.  Any other
    variable, or a separation sweep of other than two arrivals, is refused
    naming ``sweep_variable``.
    """
    mpcs = list(mpcs)
    names = ("angular_separation_deg", "true_angle_deg", "output_snr_db")
    checks.require(variable in names, "sweep_variable", f"one of {names}", variable)
    if variable == "angular_separation_deg":
        rule = f"a separation sweep of exactly two arrivals, not {len(mpcs)}"
        checks.require(len(mpcs) == 2, "sweep_variable", rule, variable)
        mpcs[1] = replace(mpcs[1], phi=mpcs[0].phi + np.radians(value))
    elif variable == "true_angle_deg":
        mpcs[0] = replace(mpcs[0], phi=np.radians(value))
    return mpcs


def _trial_mpcs(mc, cfg, mpcs, rng):
    if mc.randomize_angle:
        mpcs = [replace(m, phi=rng.uniform(0.0, 2.0 * np.pi)) for m in mpcs]
    if mc.off_grid_delay:
        mpcs = [replace(m, tau=m.tau + rng.uniform(0.0, 1.0) * cfg.delta_tau) for m in mpcs]
    return mpcs


def _sweep_points(mc, cfg, arr, pat):
    """Each sweep point's arrivals, sounding config and bound overlay, built before any trial.

    Returns one ``(mpcs, cfg_pt, crlbs)`` per sweep value: the swept
    arrivals; the config whose noise height, on output-SNR sweeps, gives
    arrival 0 that output SNR; and sqrt(CRLB) per truth index as (angle
    deg, normalized amplitude, delay ns).  The bound is (0, 0, nan) at a
    noise-free point (the Fisher matrix is not defined there), the closed
    forms for one arrival under a Gaussian beam, and otherwise the joint
    Fisher bound, one ``crlb_sweep`` call per such point at its own noise
    height.
    With ``randomize_angle`` (one arrival) each axis is sqrt(bound)
    averaged over 181 arrival angles across one scan step.
    """
    points = [apply_sweep(mc.mpcs, mc.sweep_variable, v) for v in mc.sweep_values]
    cfgs = [cfg] * len(points)
    if mc.sweep_variable == "output_snr_db":
        heights = [_snr_noise_height(mc.mpcs[0], cfg, pat, v) for v in mc.sweep_values]
        cfgs = [replace(cfg, sigma2=s) for s in heights]
    grid = np.linspace(0.0, arr.asi, 181)
    closed_form = len(mc.mpcs) == 1 and pat.kind is PatternKind.GAUSSIAN_BEAM
    crlbs = []
    for mpcs, cfg_pt in zip(points, cfgs):
        if cfg_pt.sigma2 == 0.0:
            crlbs.append({ti: (0.0, 0.0, np.nan) for ti in range(len(mpcs))})
        elif closed_form:
            gamma = mpcs[0].alpha ** 2 * cfg_pt.pu / cfg_pt.sigma2
            phi = grid if mc.randomize_angle else mpcs[0].phi
            bound_phi, bound_alpha = crlb_single_bounds(gamma, cfg_pt, arr, pat, phi)
            sphi, salpha = np.mean(np.sqrt(bound_phi)), np.mean(np.sqrt(bound_alpha))
            crlbs.append({0: (float(np.degrees(sphi)), float(salpha), np.nan)})
        else:
            sets = [[replace(mpcs[0], phi=a)] for a in grid] if mc.randomize_angle else [mpcs]
            reports = crlb_sweep(sets, arr, pat, cfg_pt)
            means = [
                [np.mean(np.sqrt([r.value(p, ti) for r in reports]))
                 for p in ("phi", "amp_norm", "tau")]
                for ti in range(len(mpcs))
            ]
            crlbs.append({
                ti: (float(np.degrees(ang)), float(amp), float(tau * 1e9))
                for ti, (ang, amp, tau) in enumerate(means)
            })
    return list(zip(points, cfgs, crlbs))


def _snr_noise_height(truth, cfg, pat, snr_db):
    """The noise height giving ``truth`` the output SNR ``snr_db``, checked as ``sigma2`` is."""
    gamma_i = checks.gain_db(snr_db, "output_snr_db") / pat.g_max
    sigma2 = truth.alpha**2 * cfg.pu / gamma_i if gamma_i > 0.0 else math.inf
    return checks.noise_height(sigma2, f"sigma2 = alpha**2 * pu * g_max / SNR at {snr_db!r} dB")


def _amp_error(power, truth, cfg):
    ref = cfg.k * cfg.pu * cfg.g_tx**2 * truth.alpha**2
    return float(np.sqrt(max(power, 0.0) / ref)) - 1.0


def _trial_errors(methods, found, mpcs, cfg, pat):
    """Per method, (errors per matched truth index, false alarms, failed) of one trial.

    ``found`` holds each method's estimates, or None where the method
    raised ``ValueError``; a ``ValueError`` from ``associate`` also fails
    that method alone.  Errors are (angle deg, normalized amplitude, delay ns).
    """
    record = {}
    for method, ests in zip(methods, found):
        matched, extra, failed = {}, 0, ests is None
        if not failed:
            try:
                matched, extra = associate(ests, mpcs, cfg.delta_tau, pat.hpbw)
            except ValueError:
                failed = True
        errs = {}
        for ti, est in matched.items():
            truth = mpcs[ti]
            errs[ti] = (
                float(np.degrees(circular_delta(est.phi, truth.phi))),
                _amp_error(est.power, truth, cfg),
                (est.tau - truth.tau) * 1e9,
            )
        record[method] = (errs, extra, failed)
    return record


# trials per chunk of a sweep point: a chunk's draws, then its maps and estimates,
# then its associations, so the small-object passes run back to back
_CHUNK = 64


# each thread's synthesis workspace, kept while the thread lives and the map shape
# stays: consecutive serial sweeps reuse one, and map no fresh pages
_thread_workspace = threading.local()


def _workspace(m, k):
    """This thread's ``Workspace`` for (m, k) maps, built when the shape changes."""
    ws = getattr(_thread_workspace, "ws", None)
    if ws is None or ws.power.shape != (m, k):
        ws = _thread_workspace.ws = Workspace(m, k)
    return ws


def run_sweep(mc, cfg, arr, pat, progress=None):
    """Monte Carlo RMSEE sweep with lower-bound overlays.

    Returns a list of ``SweepRow``; angle errors are in degrees
    (circularly wrapped), amplitude errors are normalized (alpha ratio
    minus one), delays in nanoseconds.  A method that raises ``ValueError``
    (the estimators' failure type; ``haed_refine`` clamps a saturated
    contrast rather than raise) on a trial misses every arrival of that
    trial and is counted in ``ErrorStats.failures``; the other methods of
    the trial are unaffected.  Any other exception is a bug and propagates, and so
    does, before any trial, the ``ValueError`` of a bad ``PADPKIT_THREADS``,
    of a beam with no gain one scan step off boresight
    (``ArrayConfig.require_step_gain``), and of an arrival whose delay
    (plus one bin, with ``off_grid_delay``) reaches the delay window k/bw,
    where it aliases.  With threads, one pool runs every sweep point.
    """
    env = os.environ.get("PADPKIT_THREADS") or "1"
    threads = checks.decimal(env, "PADPKIT_THREADS", 1, checks.MAX_THREADS)
    arr.require_step_gain(pat, "pat.hpbw", pat.hpbw)
    for m in mc.mpcs:  # an off_grid_delay offset adds up to one bin
        cfg.require_in_window(m.tau, "tau", 1.0 if mc.off_grid_delay else 0.0)
    keep_h = Method.HAED_PLUS in mc.methods  # only haed+ reads the delay responses
    points = _sweep_points(mc, cfg, arr, pat)
    rows = []
    with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
        trial_map = pool.map if pool else map
        for si, (sweep_value, (mpcs_pt, cfg_pt, crlbs)) in enumerate(zip(mc.sweep_values, points)):

            def estimate(draw, _cfg=cfg_pt):
                rng, mpcs = draw
                # the Padp lives on this thread's workspace: it must not outlive the trial
                ws = _workspace(arr.m, cfg.k)
                padp = simulate_padp(mpcs, arr, pat, _cfg, seed=rng, keep_cfr=keep_h, workspace=ws)
                found = []
                for method in mc.methods:
                    try:
                        found.append(run_method(method, padp, pat, mc.peak))
                    except ValueError:
                        found.append(None)
                return found

            records = []
            for start in range(0, mc.trials, _CHUNK):
                draws = []
                for ti in range(start, min(start + _CHUNK, mc.trials)):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(entropy=mc.base_seed, spawn_key=(si, ti))
                    )
                    draws.append((rng, _trial_mpcs(mc, cfg_pt, mpcs_pt, rng)))
                for (_, mpcs), found in zip(draws, trial_map(estimate, draws)):
                    records.append(_trial_errors(mc.methods, found, mpcs, cfg_pt, pat))

            n_truth = len(mc.mpcs)
            for method in mc.methods:
                outcomes = [record[method] for record in records]
                false_alarms = sum(extra for _, extra, _ in outcomes)
                failures = sum(failed for _, _, failed in outcomes)
                for ti in range(n_truth):
                    hits = [errs[ti] for errs, _, _ in outcomes if ti in errs]
                    misses = len(outcomes) - len(hits)
                    for axis, param in enumerate(("phi_deg", "amp_norm", "tau_ns")):
                        stats = ErrorStats.from_samples(
                            [hit[axis] for hit in hits], misses, false_alarms, failures
                        )
                        rows.append(
                            SweepRow(
                                sweep_value=float(sweep_value),
                                method=method,
                                param=param if n_truth == 1 else f"{param}:{ti}",
                                truth_index=ti,
                                stats=stats,
                                sqrt_crlb=crlbs[ti][axis],
                            )
                        )
            if progress is not None:
                progress(si + 1, len(mc.sweep_values))
    return rows


def uniform_offset_study(n_mpcs, seed, cfg, arr, pat, methods=(Method.O1, Method.O2, Method.HAED)):
    """Noise-free error statistics over arrivals uniform in angle.

    Each draw places a single unit arrival at a uniform azimuth and a
    random on-grid delay, runs the requested estimators, and collects the
    angle error (degrees) and the de-embedded power error (dB).  Returns
    {method: {param: ErrorStats}} for params 'phi_deg' and 'power_db'.
    The delay responses ``h`` are kept only when haed+, which reads them,
    is requested; the other methods' statistics are the same either way.
    ``methods`` is a non-empty tuple of distinct ``Method`` members, and
    ``pat`` must keep a gain one scan step off boresight
    (``ArrayConfig.require_step_gain``).
    """
    checks.integer(n_mpcs, "n_mpcs", 1, checks.MAX_DRAWS)
    _require_methods(methods)
    arr.require_step_gain(pat, "pat.hpbw", pat.hpbw)
    cfg0 = replace(cfg, sigma2=0.0)
    p_ref = cfg0.k * cfg0.pu * cfg0.g_tx**2
    samples = {m: {"phi_deg": [], "power_db": []} for m in methods}
    misses = {m: 0 for m in methods}
    ws = Workspace(arr.m, cfg0.k)
    for i in range(n_mpcs):
        truth, found = _offset_draw(i, seed, cfg0, arr, pat, methods, ws)
        for method, est in zip(methods, found):
            if est is None:
                misses[method] += 1
                continue
            samples[method]["phi_deg"].append(
                float(np.degrees(circular_delta(est.phi, truth.phi)))
            )
            samples[method]["power_db"].append(10.0 * np.log10(est.power / p_ref))
    return {
        m: {
            p: ErrorStats.from_samples(samples[m][p], misses=misses[m])
            for p in ("phi_deg", "power_db")
        }
        for m in methods
    }


def _offset_draw(i, seed, cfg0, arr, pat, methods, ws):
    """Draw ``i`` of ``uniform_offset_study``: the truth and, per method, its match or None.

    The draw's Padp is built on the study's workspace ``ws``, so it lives
    only in this call: the next draw overwrites it.  It carries ``h`` only
    when haed+, the one method that reads it, is among ``methods``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
    truth = MpcTruth(
        alpha=1.0,
        phase=rng.uniform(0.0, 2.0 * np.pi),
        tau=int(rng.integers(cfg0.k // 4, 3 * cfg0.k // 4)) * cfg0.delta_tau,
        phi=rng.uniform(0.0, 2.0 * np.pi),
    )
    keep_h = Method.HAED_PLUS in methods
    padp = simulate_padp([truth], arr, pat, cfg0, seed=rng, keep_cfr=keep_h, workspace=ws)
    found = []
    for method in methods:
        ests = run_method(method, padp, pat, PeakConfig())
        matched, _ = associate(ests, [truth], cfg0.delta_tau, pat.hpbw)
        found.append(matched.get(0))
    return truth, found
