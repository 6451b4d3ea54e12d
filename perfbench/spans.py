"""In-memory span tracing of padpkit's public functions, from outside the package.

``Tracer.install`` rebinds every traced function in every loaded padpkit
module that holds it, by identity.  That covers calls through the defining
module (``kernels.local_maxima_2d``) and names imported into another module
(``from .synthesis import simulate_padp`` in ``experiments`` and ``cli``).
``Tracer.restore`` puts the original objects back.  No source file changes.

Each span is a tuple (id, name, start, end, parent, op, thread, counts).
Span stacks are per thread.  A span opened by a worker thread with an empty
stack takes the main thread's innermost open span as its parent, so the
trials a pool runs inside ``run_sweep`` are its children.  ``counts`` holds
the computed quantities a hook derives from the call's arguments or result
(array sizes, peaks returned, flags); everything else is read off the spans.
"""

import itertools
import sys
import threading
import time
from collections import defaultdict

from padpkit import antenna, cli, crlb, estimation, experiments, io, kernels, synthesis

_COMPLEX_BYTES = 16


def _nbytes(_args, _kw, out):
    return {"synthesis.bytes_computed": out.nbytes}


def _kernel_2d(args, _kw, out):
    return {"kernels.cells_scanned": args[0].size, "kernels.peaks_returned": len(out[0])}


def _kernel_1d(args, _kw, out):
    return {"kernels.cells_scanned": args[0].size, "kernels.peaks_returned": len(out)}


def _haed(_args, _kw, out):
    return {"haed.estimates": len(out), "haed.clamped": sum(e.clamped for e in out)}


def _haed_plus(args, kw, _out):
    upsample = args[2] if len(args) > 2 else kw.get("upsample", 16)
    return {"estimation.haed_plus_refine.delay_evals": len(args[1]) * (2 * upsample + 1)}


def _associate(args, _kw, out):
    matched, false_alarms = out
    return {"associate.estimates": len(args[0]), "associate.matched": len(matched),
            "associate.false_alarms": false_alarms}


def _fim(args, _kw, _out):
    mpcs, arr, _pat, cfg = args[:4]
    return {"crlb.jacobian_bytes": arr.m * cfg.k * 4 * len(mpcs) * _COMPLEX_BYTES}


def _crlb_report(_args, _kw, out):
    return {"crlb.reports": 1, "crlb.flagged": int(out.flagged)}


# (layer module, function name, hook deriving computed counts or None)
TARGETS = (
    (synthesis, "synth_cfr", _nbytes),
    (synthesis, "add_noise", _nbytes),
    (synthesis, "cfr_to_cir", _nbytes),
    (synthesis, "pdp", _nbytes),
    (synthesis, "assemble_padp", None),
    (synthesis, "simulate_padp", None),
    (estimation, "noise_threshold", None),
    (estimation, "synth_omni_max", None),
    (estimation, "synth_omni_sum", None),
    (estimation, "o2_deembed_constant", None),
    (estimation, "estimate_o1", None),
    (estimation, "estimate_o2", None),
    (estimation, "estimate_haed", None),
    (estimation, "coarse_peaks_2d", None),
    (estimation, "haed_refine", _haed),
    (estimation, "haed_plus_refine", _haed_plus),
    (kernels, "local_maxima_2d", _kernel_2d),
    (kernels, "local_maxima_1d", _kernel_1d),
    (antenna, "invert_chi_closed", None),
    (antenna, "invert_chi_tabulated", None),
    (antenna, "power_gain", None),
    (crlb, "fim", _fim),
    (crlb, "crlb_from_fim", _crlb_report),
    (crlb, "crlb_single_phi", None),
    (crlb, "crlb_single_alpha", None),
    (experiments, "run_sweep", None),
    (experiments, "associate", _associate),
    (experiments, "uniform_offset_study", None),
    (io, "load_scenario", None),
    (io, "read_padp", None),
    (io, "write_padp", None),
    (io, "write_estimates_csv", None),
    (io, "write_crlb_csv", None),
    (io, "write_sweep_csv", None),
    (io, "write_offset_csv", None),
    (io, "write_manifest_sidecar", None),
    (cli, "main", None),
)


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans in memory; ``op`` tags each span with the caller's operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()
        self._restore = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, hook):
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args, **kw):
            stack = self._stack()
            parent = None
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    pass
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
            counts = hook(args, kw, out) if hook is not None else None
            spans.append((sid, name, t0, t1, parent, self.op, threading.get_ident(), counts))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function wherever a padpkit module holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "padpkit" or n.startswith("padpkit.")]
        for module, fname, hook in TARGETS:
            orig = getattr(module, fname)
            wrapper = self.wrap(f"{_layer(module)}.{fname}", orig, hook)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans):
    """Per span id: duration minus the union of its children's intervals inside it."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _name, t0, t1, *_ in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


# per-layer self-time metrics: metric name -> traced function names summed
SELF_MS = {
    "synthesis.synth_cfr.self_ms": ("synthesis.synth_cfr",),
    "synthesis.add_noise.self_ms": ("synthesis.add_noise",),
    "synthesis.cfr_to_cir.self_ms": ("synthesis.cfr_to_cir",),
    "synthesis.assemble.self_ms": ("synthesis.pdp", "synthesis.assemble_padp"),
    "synthesis.other.self_ms": ("synthesis.simulate_padp",),
    "estimation.noise_threshold.self_ms": ("estimation.noise_threshold",),
    "estimation.haed_refine.self_ms": ("estimation.haed_refine",),
    "estimation.haed_plus_refine.self_ms": ("estimation.haed_plus_refine",),
    "estimation.other.self_ms": (
        "estimation.synth_omni_max", "estimation.synth_omni_sum", "estimation.o2_deembed_constant",
        "estimation.estimate_o1", "estimation.estimate_o2", "estimation.estimate_haed",
        "estimation.coarse_peaks_2d",
    ),
    "kernels.local_maxima_2d.self_ms": ("kernels.local_maxima_2d",),
    "kernels.local_maxima_1d.self_ms": ("kernels.local_maxima_1d",),
    "antenna.invert_chi.self_ms": ("antenna.invert_chi_closed", "antenna.invert_chi_tabulated"),
    "antenna.power_gain.self_ms": ("antenna.power_gain",),
    "crlb.fim.self_ms": ("crlb.fim",),
    "crlb.crlb_from_fim.self_ms": ("crlb.crlb_from_fim",),
    "crlb.closed_form.self_ms": ("crlb.crlb_single_phi", "crlb.crlb_single_alpha"),
    "experiments.associate.self_ms": ("experiments.associate",),
    "experiments.other.self_ms": ("experiments.run_sweep", "experiments.uniform_offset_study"),
    "io.read.self_ms": ("io.load_scenario", "io.read_padp"),
    "io.write.self_ms": (
        "io.write_padp", "io.write_estimates_csv", "io.write_crlb_csv", "io.write_sweep_csv",
        "io.write_offset_csv", "io.write_manifest_sidecar",
    ),
    "cli.other.self_ms": ("cli.main",),
}

# call-count metrics: metric name -> traced function names counted
CALLS = {
    "estimation.noise_threshold.calls": ("estimation.noise_threshold",),
    "estimation.estimate_haed.calls": ("estimation.estimate_haed",),
    "antenna.invert_chi.calls": ("antenna.invert_chi_closed", "antenna.invert_chi_tabulated"),
    "antenna.power_gain.calls": ("antenna.power_gain",),
    "crlb.fim.calls": ("crlb.fim",),
    "crlb.closed_form.calls": ("crlb.crlb_single_phi", "crlb.crlb_single_alpha"),
}

# hook counts reported per unit as they are; COMPUTED marks those derived from array sizes
PER_UNIT_COUNTS = (
    "synthesis.bytes_computed",
    "estimation.haed_plus_refine.delay_evals",
    "kernels.cells_scanned",
    "kernels.peaks_returned",
    "crlb.jacobian_bytes",
)

COMPUTED = {
    "synthesis.bytes_computed",
    "estimation.haed_plus_refine.delay_evals",
    "kernels.cells_scanned",
    "crlb.jacobian_bytes",
}


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_ms", "ms_p50")):
        return "ms"
    if metric.endswith(("_frac", "peak_yield")):
        return "fraction"
    if "bytes" in metric:
        return "B"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, units, threads):
    """Per-layer metrics from the spans of traced batches covering ``units`` trials or passes.

    Self times are ms per unit, counts per unit.  ``threads`` is the number
    of threads run_sweep used; it scales the wall time in ``pool_busy_frac``.
    """
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in spans:
        self_by_name[s[1]] += selfs[s[0]]
        calls[s[1]] += 1
        if s[7]:
            for key, val in s[7].items():
                counts[key] += val

    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = sum(self_by_name[n] for n in names) * 1e3 / units
    for metric, names in CALLS.items():
        out[metric] = sum(calls[n] for n in names) / units
    for key in PER_UNIT_COUNTS:
        out[key] = counts[key] / units
    out["estimation.peak_yield"] = _ratio(counts["associate.matched"], counts["associate.estimates"])
    out["estimation.clamped_frac"] = _ratio(counts["haed.clamped"], counts["haed.estimates"])
    out["crlb.flagged_frac"] = _ratio(counts["crlb.flagged"], counts["crlb.reports"])
    out["experiments.false_alarms_per_trial"] = counts["associate.false_alarms"] / units

    sweeps = {s[0]: s[3] - s[2] for s in spans if s[1] == "experiments.run_sweep"}
    busy = sum(s[3] - s[2] for s in spans if s[4] in sweeps)
    out["experiments.pool_busy_frac"] = _ratio(busy, threads * sum(sweeps.values()))
    out["trace.self_sum_ms"] = sum(selfs.values()) * 1e3 / units
    out["trace.spans"] = len(spans) / units
    return out
