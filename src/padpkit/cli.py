"""Command-line surface: simulate, estimate, crlb, montecarlo, offset-study.

Commands are pure pipelines (read inputs, write outputs, no hidden state);
progress for long runs goes to stderr only.  Powers are dB at this
boundary, angles degrees, delays nanoseconds.  ``main`` may be called
repeatedly in one process: it builds its parser once, and every call
parses into a fresh namespace.
"""

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from . import checks, io
from .antenna import load_pattern_csv
from .crlb import crlb_sweep
from .estimation import HAED_PLUS_UPSAMPLE, Method, PeakConfig
from .experiments import (
    MonteCarloConfig,
    apply_sweep,
    run_method,
    run_sweep,
    uniform_offset_study,
)
from .synthesis import simulate_padp


def _parse_values(spec):
    """Parse a sweep grid: 'start:stop:num' (inclusive linspace) or 'v1,v2,...'.

    ``num`` is written in decimal digits and every value must be finite
    (``checks.grid``); a fault is a ``ValueError`` naming ``--values``.
    """
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad grid {spec!r}, expected start:stop:num")
            start, stop = float(parts[0]), float(parts[1])
            num = checks.decimal(parts[2], "num", 1)
            with np.errstate(all="ignore"):  # an overflow is refused by the grid rule below
                values = tuple(np.linspace(start, stop, num))
        else:
            values = tuple(float(v) for v in spec.split(",")) if spec else ()
        checks.grid(values, None)
    except ValueError as exc:
        raise ValueError(f"--values: {exc}") from None
    return values


def _flag(read, rule, *args):
    """An argparse type checking a flag with a ``checks`` rule.

    ``read`` converts the text (text it cannot convert goes to the rule as
    is, which refuses it); the rule's ``ValueError`` becomes the
    ``ArgumentTypeError`` argparse reports after the flag's name, so a bad
    flag exits 2 before any command runs.
    """

    def parse(text):
        try:
            value = read(text)
        except ValueError:
            value = text
        try:
            return rule(value, None, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_SEED = _flag(str, checks.decimal, 0)
_COUNT = _flag(str, checks.decimal, 1)
_THRESHOLD_DB = _flag(float, checks.positive)


def _cmd_simulate(args):
    scenario = io.load_scenario(args.scenario)
    padp = simulate_padp(
        scenario.mpcs,
        scenario.array,
        scenario.pattern,
        scenario.sounding,
        seed=args.seed,
        keep_cfr=bool(args.cfr_out),
    )
    manifest = io.build_manifest(
        seed=args.seed, inputs={"scenario_sha256": scenario.sha256}
    )
    io.write_padp(args.out, padp, manifest=manifest)
    if args.cfr_out:
        np.save(args.cfr_out, padp.spectra())
    print(f"wrote {args.out} ({padp.values.shape[0]}x{padp.values.shape[1]})", file=sys.stderr)
    return 0


def _load_pattern_for_estimate(args):
    if args.scenario:
        return io.load_scenario(args.scenario).pattern
    if args.pattern_csv:
        return load_pattern_csv(args.pattern_csv)
    if args.gmax_db is not None and args.hpbw_deg is not None:
        return io.gaussian_pattern(args.gmax_db, args.hpbw_deg, "--gmax-db", "--hpbw-deg")
    raise ValueError("give --scenario, --pattern-csv, or both --gmax-db and --hpbw-deg")


def _with_spectra(padp, path):
    """``padp`` carrying the delay responses of the .npy spectra at ``path``.

    The responses are ``ifft(cfr, norm="ortho")``, referenced to band start
    0.  The spectra must be finite and their power must reproduce the PADP
    values (within 1e-9 of the map maximum).
    """
    cfr = np.load(path)
    if not isinstance(cfr, np.ndarray) or cfr.dtype.kind not in "biufc":
        raise ValueError("--cfr: expected a .npy array of complex spectra")
    cfr = cfr.astype(np.complex128)
    if cfr.shape != padp.values.shape:
        raise ValueError(
            f"--cfr: spectra of shape {cfr.shape} do not match the PADP {padp.values.shape}"
        )
    checks.finite_array(cfr, "--cfr: spectra")
    h = np.fft.ifft(cfr, axis=-1, norm="ortho")
    mismatch = float(np.max(np.abs(np.abs(h) ** 2 - padp.values)))
    if not mismatch <= 1e-9 * float(np.max(padp.values)):
        raise ValueError(
            f"--cfr: spectra do not reproduce the PADP values (largest power difference "
            f"{mismatch:.3g}, map maximum {float(np.max(padp.values)):.3g})"
        )
    return replace(padp, h=h, f_start=0.0)


def _cmd_estimate(args):
    padp, header = io.read_padp(args.padp)
    if args.cfr:
        padp = _with_spectra(padp, args.cfr)
    pattern = _load_pattern_for_estimate(args)
    methods = io.parse_methods(args.methods)
    if Method.HAED_PLUS in methods and padp.h is None:
        raise ValueError(
            "haed+ needs complex spectra: pass --cfr (power-only PADP files "
            "cannot support band-limited delay interpolation)"
        )
    pk = PeakConfig(noise_floor_db_offset=args.threshold_db)
    estimates = []
    for method in methods:
        estimates += run_method(method, padp, pattern, pk)
    io.write_estimates_csv(args.out, estimates)
    manifest = io.build_manifest(
        inputs={"padp_manifest": header.get("manifest", {})},
        config={"methods": [m.value for m in methods], "threshold_db": args.threshold_db},
    )
    io.write_manifest_sidecar(args.out, manifest)
    print(f"wrote {args.out} ({len(estimates)} estimates)", file=sys.stderr)
    return 0


_SWEEP_NAMES = {
    "output-snr": "output_snr_db",
    "separation": "angular_separation_deg",
    "true-angle": "true_angle_deg",
}


def _cmd_crlb(args):
    scenario = io.load_scenario(args.scenario)
    values = _parse_values(args.values)
    points = [apply_sweep(scenario.mpcs, _SWEEP_NAMES[args.sweep], v) for v in values]
    reports = crlb_sweep(points, scenario.array, scenario.pattern, scenario.sounding)
    entries = list(zip(values, reports))
    io.write_crlb_csv(args.out, args.sweep, entries)
    manifest = io.build_manifest(
        inputs={"scenario_sha256": scenario.sha256},
        config={"sweep": args.sweep, "values": list(values)},
    )
    io.write_manifest_sidecar(args.out, manifest)
    print(f"wrote {args.out} ({len(entries)} sweep points)", file=sys.stderr)
    return 0


def _cmd_montecarlo(args):
    scenario = io.load_scenario(args.scenario)
    values = _parse_values(args.values)
    methods = io.parse_methods(args.methods)
    mc = MonteCarloConfig(
        trials=args.trials,
        sweep_variable=_SWEEP_NAMES[args.sweep],
        sweep_values=values,
        mpcs=scenario.mpcs,
        randomize_angle=args.randomize_angle,
        off_grid_delay=args.off_grid_delay,
        methods=tuple(methods),
        base_seed=args.seed,
        peak=PeakConfig(noise_floor_db_offset=args.threshold_db),
    )

    def progress(done, total):
        print(f"sweep point {done}/{total} done", file=sys.stderr)

    rows = run_sweep(mc, scenario.sounding, scenario.array, scenario.pattern, progress=progress)
    io.write_sweep_csv(args.out, rows)
    manifest = io.build_manifest(
        seed=args.seed,
        inputs={"scenario_sha256": scenario.sha256},
        config={
            "trials": args.trials,
            "sweep": args.sweep,
            "values": list(values),
            "methods": [m.value for m in methods],
            "randomize_angle": args.randomize_angle,
            "off_grid_delay": args.off_grid_delay,
            "upsample": HAED_PLUS_UPSAMPLE,
            "threshold_db": args.threshold_db,
        },
    )
    io.write_manifest_sidecar(args.out, manifest)
    print(f"wrote {args.out} ({len(rows)} rows)", file=sys.stderr)
    return 0


def _cmd_offset_study(args):
    scenario = io.load_scenario(args.scenario)
    methods = io.parse_methods(args.methods)
    study = uniform_offset_study(
        args.n,
        args.seed,
        scenario.sounding,
        scenario.array,
        scenario.pattern,
        methods=tuple(methods),
    )
    io.write_offset_csv(args.out, study)
    manifest = io.build_manifest(
        seed=args.seed,
        inputs={"scenario_sha256": scenario.sha256},
        config={"n": args.n, "methods": [m.value for m in methods]},
    )
    io.write_manifest_sidecar(args.out, manifest)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="padpkit",
        description="Directional-scan channel simulation and multipath estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a PADP from a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cfr-out", help="also save complex spectra as .npy (enables haed+)")
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="extract multipath components from a PADP file")
    p.add_argument("--padp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", help="scenario supplying the antenna pattern")
    p.add_argument("--pattern-csv", help="tabulated pattern CSV (offset_deg,gain)")
    p.add_argument("--gmax-db", type=float, help="Gaussian pattern max power gain, dB")
    p.add_argument("--hpbw-deg", type=float, help="Gaussian pattern HPBW, degrees")
    p.add_argument("--methods", default="o1,o2,haed")
    p.add_argument("--cfr", help=".npy complex spectra for haed+")
    p.add_argument("--threshold-db", type=_THRESHOLD_DB, default=PeakConfig.noise_floor_db_offset)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("crlb", help="lower-bound sweep from a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sweep", choices=("true-angle", "separation"), required=True)
    p.add_argument("--values", required=True, help="'start:stop:num' or 'v1,v2,...'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_crlb)

    p = sub.add_parser("montecarlo", help="Monte Carlo RMSEE sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sweep", choices=tuple(_SWEEP_NAMES), required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--trials", type=_COUNT, default=1000)
    p.add_argument("--methods", default="o1,o2,haed")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--randomize-angle", action="store_true")
    p.add_argument("--off-grid-delay", action="store_true")
    p.add_argument("--threshold-db", type=_THRESHOLD_DB, default=PeakConfig.noise_floor_db_offset)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("offset-study", help="noise-free uniform-angle error statistics")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=_COUNT, default=1000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--methods", default="o1,o2,haed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_offset_study)
    return parser


@functools.cache
def _parser():
    """The parser ``main`` shares across calls; ``build_parser`` stays fresh per call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"padpkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
