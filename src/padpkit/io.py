"""File formats: scenario JSON, binary PADP exchange, CSV results, manifests.

Angles and delays carry explicit units in key names (``_deg``, ``_ns``,
``_hz``, ``_db``); everything is converted to radians/seconds/linear at the
boundary.  Output files are byte-deterministic for a given input + seed:
manifests carry input hashes, seeds and the package version, never
timestamps.
"""

import contextlib
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import checks
from ._version import __version__
from .antenna import AntennaPattern, load_pattern_csv
from .estimation import Method
from .synthesis import ArrayConfig, MpcTruth, Padp, SoundingConfig

PADP_MAGIC = "padpkit-padp"
MAX_MAP_CELLS = 2**24  # scenario cap on the array.m x sounding.k scan map


class ScenarioError(ValueError):
    """Scenario file failed validation; message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    sounding: SoundingConfig
    array: ArrayConfig
    pattern: AntennaPattern
    mpcs: tuple
    experiment: dict
    sha256: str


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _json_field(obj, key, field, kind=float, default=None):
    """``obj[key]`` of JSON type ``kind``; ``default``, when given, stands in for a missing key.

    ``float`` reads any finite JSON number, as a float (``checks.finite``);
    booleans are never numbers.  Scenario files and PADP headers both read
    their fields here, and a fault is a ``ValueError`` naming ``field``.
    """
    if key not in obj:
        if default is None:
            raise ValueError(f"{field}: missing required field")
        return default
    val = obj[key]
    ok = not isinstance(val, bool) and isinstance(val, (int, float) if kind is float else kind)
    checks.require(ok, field, kind.__name__, type(val).__name__)
    return checks.finite(val, field) if kind is float else val


@contextlib.contextmanager
def _section(path=None):
    """Re-raise a ``ValueError`` or ``OSError`` as a ScenarioError, after ``path`` when given.

    ``path`` goes before a constructor's errors, which name only the field (``k``).
    """
    try:
        yield
    except ScenarioError:
        raise
    except (ValueError, OSError) as exc:
        raise ScenarioError(f"{path}: {exc}" if path else str(exc)) from exc


def parse_scenario(text, base_dir=None):
    """Parse and validate a scenario JSON document.

    Any fault in the document raises ``ScenarioError`` naming the field,
    an arrival at or past the delay window k/bw (it would alias) included.
    The ``array.m`` x ``sounding.k`` scan map may hold at most ``MAX_MAP_CELLS``
    (2**24) cells; a larger one is rejected, naming the field, before any allocation.
    The peak cell power k * pu * g_tx**2 * g_max * (sum of alpha)**2 must be finite.
    """
    sha256 = sha256_bytes(text.encode() if isinstance(text, str) else text)
    with _section():
        doc = _json_object(text, "scenario")
        snd = _json_field(doc, "sounding", "sounding", dict)
        k = _json_field(snd, "k", "sounding.k", int)
        if k > MAX_MAP_CELLS:
            raise ScenarioError(f"sounding.k: exceeds the scan map's {MAX_MAP_CELLS}-cell cap")
        fc, bw, pu, sigma2, g_tx = (
            _json_field(snd, key, f"sounding.{key}", float, default)
            for key, default in [("fc_hz", None), ("bw_hz", None), ("pu", 1.0), ("sigma2", 0.0),
                                 ("g_tx", 1.0)]
        )
        with _section("sounding"):
            cfg = SoundingConfig(fc, bw, k, pu, sigma2, g_tx)

        arr_doc = _json_field(doc, "array", "array", dict)
        m = _json_field(arr_doc, "m", "array.m", int)
        if m * k > MAX_MAP_CELLS:
            raise ScenarioError(f"array.m: m x sounding.k exceeds the {MAX_MAP_CELLS}-cell cap")
        with _section("array"):
            arr = ArrayConfig(m=m)

        pattern = _parse_pattern(_json_field(doc, "pattern", "pattern", dict), base_dir)

        mpcs_doc = _json_field(doc, "mpcs", "mpcs", list)
        checks.require(mpcs_doc, "mpcs", "at least one entry", mpcs_doc)
        mpcs = []
        for i, entry in enumerate(mpcs_doc):
            path = f"mpcs[{i}]"
            checks.require(isinstance(entry, dict), path, "an object", entry)
            alpha, phase_deg, tau_ns, phi_deg = (
                _json_field(entry, key, f"{path}.{key}")
                for key in ("alpha", "phase_deg", "tau_ns", "phi_deg")
            )
            with _section(path):
                phase, phi = float(np.radians(phase_deg)), float(np.radians(phi_deg))
                mpcs.append(MpcTruth(alpha, phase, tau_ns * 1e-9, phi))
            cfg.require_in_window(mpcs[-1].tau, f"{path}.tau_ns")
        total = sum(mpc.alpha for mpc in mpcs)
        checks.finite(
            cfg.k * cfg.pu * cfg.g_tx**2 * pattern.g_max * total * total,
            "the peak cell power sounding.k * pu * g_tx**2 * g_max * (sum of mpcs alpha)**2",
        )

        experiment = doc.get("experiment", {})
        checks.require(isinstance(experiment, dict), "experiment", "an object", experiment)
        return Scenario(cfg, arr, pattern, tuple(mpcs), experiment, sha256)


def _json_object(text, what):
    """The JSON object that ``text`` holds; a fault is a ``ValueError`` naming ``what``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ValueError(f"{what}: invalid JSON: nested too deeply") from None
    except ValueError as exc:  # undecodable bytes, an integer beyond the digit limit
        raise ValueError(f"{what}: invalid JSON: {exc}") from exc
    checks.require(isinstance(doc, dict), what, "an object", doc)
    return doc


def gaussian_pattern(g_max_db, hpbw_deg, gain_field, hpbw_field):
    """A Gaussian beam from its max power gain in dB and its HPBW in degrees.

    ``checks.gain_db`` and ``checks.hpbw_deg`` refuse a fault naming
    ``gain_field`` or ``hpbw_field``, in the caller's units: scenario files
    and ``estimate --gmax-db/--hpbw-deg`` share these rules.
    """
    return AntennaPattern.gaussian(
        checks.gain_db(g_max_db, gain_field), checks.hpbw_deg(hpbw_deg, hpbw_field)
    )


def _parse_pattern(pat_doc, base_dir):
    kind = _json_field(pat_doc, "kind", "pattern.kind", str)
    if kind == "gaussian":
        g_max_db = _json_field(pat_doc, "g_max_db", "pattern.g_max_db")
        hpbw_deg = _json_field(pat_doc, "hpbw_deg", "pattern.hpbw_deg")
        return gaussian_pattern(g_max_db, hpbw_deg, "pattern.g_max_db", "pattern.hpbw_deg")
    if kind == "tabulated":
        table_path = _json_field(pat_doc, "table_path", "pattern.table_path", str)
        if base_dir is not None:
            table_path = str(base_dir / table_path)
        hpbw = None  # missing or null: measured from the table
        if pat_doc.get("hpbw_deg") is not None:
            hpbw_deg = _json_field(pat_doc, "hpbw_deg", "pattern.hpbw_deg")
            hpbw = checks.hpbw_deg(hpbw_deg, "pattern.hpbw_deg")
        with _section("pattern"):
            return load_pattern_csv(table_path, hpbw=hpbw)
    raise ScenarioError(f"pattern.kind: expected 'gaussian' or 'tabulated', got {kind!r}")


def load_scenario(path):
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        return parse_scenario(text, base_dir=p.parent)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def build_manifest(seed=None, inputs=None, config=None):
    return {
        "tool": "padpkit",
        "version": __version__,
        "seed": seed,
        "inputs": inputs or {},
        "config": config or {},
    }


def write_manifest_sidecar(out_path, manifest):
    path = str(out_path) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def write_padp(path, padp, manifest=None):
    """Write a PADP file: one JSON header line, then row-major float64 LE.

    The payload is linear power, so it round-trips losslessly; ``read_padp``
    also decodes dB payloads (``"scale": "db"``) written elsewhere.
    """
    m, k = padp.values.shape
    header = {
        "format": PADP_MAGIC,
        "version": 1,
        "m": m,
        "k": k,
        "asi_deg": float(np.degrees(padp.asi)),
        "delay_step_ns": padp.delta_tau * 1e9,
        "scale": "linear",
        "manifest": manifest or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(padp.values, dtype="<f8").tobytes())


def read_padp(path):
    """Read a PADP file back into a (Padp, header) pair (no delay responses).

    The header is validated first; a malformed one raises ``ValueError``
    naming the file and the field.  ``asi_deg`` and ``scale`` may be missing;
    a given ``asi_deg`` must equal 360/m: the angles are ``ArrayConfig(m)``'s
    full circle.  The last delay, (k - 1) * ``delay_step_ns``, must be finite.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        return _padp_from_bytes(header_line, blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _padp_from_bytes(header_line, blob):
    header = _json_object(header_line, "PADP header")
    if header.get("format") != PADP_MAGIC:
        raise ValueError(f"not a PADP file (format={header.get('format')!r})")

    def number(key, kind, rule, *args):
        field = f"PADP header: {key}"
        return rule(_json_field(header, key, field, kind), field, *args)

    m = number("m", int, checks.integer, 3)
    k = number("k", int, checks.integer, 2)
    delay_step_ns = number("delay_step_ns", float, checks.positive)
    scale = header.get("scale", "linear")
    checks.require(scale in ("linear", "db"), "PADP header: scale", "'linear' or 'db'", scale)
    values = np.frombuffer(blob, dtype="<f8")
    if values.size != m * k:
        raise ValueError(f"payload has {values.size} values, header says {m}x{k}")
    # m and k now match the payload, so they are small: the delay grid's far end
    # and the scan grid are checked before either is built
    checks.finite(
        (k - 1) * delay_step_ns * 1e-9,
        "PADP header: delay_step_ns: the last delay (k - 1) * step, in s",
    )
    grid = ArrayConfig(m)
    if "asi_deg" in header:
        asi_deg = number("asi_deg", float, checks.finite)
        if not np.isclose(asi_deg, np.degrees(grid.asi), rtol=1e-9, atol=0.0):
            raise ValueError(
                f"PADP header: asi_deg: {asi_deg!r} disagrees with 360/m ="
                f" {np.degrees(grid.asi):.12g} (only full-circle scans are supported)"
            )
    values = values.reshape(m, k).astype(np.float64)
    if scale == "db":
        with np.errstate(over="ignore"):  # an overflow is refused by Padp, naming values
            values = 10.0 ** (values / 10.0)
    delays = np.arange(k) * delay_step_ns * 1e-9
    return Padp(values=values, angles=grid.steering_angles, delays=delays), header


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        if np.isnan(x):
            return "nan"
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_estimates_csv(path, estimates):
    """Estimates table: method, tau_ns, phi_deg, power_db, chi_hat, eps_deg, flags."""
    rows = []
    for e in sorted(estimates, key=lambda e: (e.method.value, e.tau, e.phi)):
        rows.append(
            (
                e.method.value,
                e.tau * 1e9,
                float(np.degrees(e.phi)),
                10.0 * np.log10(e.power) if e.power > 0 else -np.inf,
                e.chi_hat,
                float(np.degrees(e.eps)) if e.eps is not None else None,
                "clamped" if e.clamped else "",
            )
        )
    _write_csv(path, ["method", "tau_ns", "phi_deg", "power_db", "chi_hat", "eps_deg", "flags"], rows)


def write_crlb_csv(path, sweep_variable, entries):
    """CRLB sweep table; one row per (sweep value, arrival).

    Every row carries all eight columns, ending in ``mpc`` (the arrival
    index) and ``flags``: ``overflow`` on a point whose Fisher matrix
    overflowed the float range, ``singular`` on any other flagged point,
    else empty.
    """
    rows = []
    for value, report in entries:
        n = report.values.shape[0]
        flag = "overflow" if report.overflow else "singular" if report.flagged else ""
        for l in range(n):
            rows.append(
                (
                    sweep_variable,
                    value,
                    float(np.degrees(np.sqrt(report.values[l, 2]))),
                    float(np.sqrt(report.values[l, 0])),
                    float(np.sqrt(report.values[l, 3]) * 1e9),
                    report.cond,
                    l,
                    flag,
                )
            )
    _write_csv(
        path,
        [
            "sweep_variable",
            "value",
            "sqrt_crlb_phi_deg",
            "sqrt_crlb_alpha",
            "sqrt_crlb_tau_ns",
            "cond_fim",
            "mpc",
            "flags",
        ],
        rows,
    )


def write_sweep_csv(path, sweep_rows):
    """Monte Carlo sweep table matching the run_sweep output.

    ``false_alarms`` and ``failures`` count per method and sweep point.
    """
    rows = [
        (
            r.sweep_value,
            r.method.value,
            r.param,
            r.stats.rmsee,
            r.stats.mean_err,
            r.stats.mc_stderr,
            r.sqrt_crlb,
            r.stats.misses,
            r.stats.false_alarms,
            r.stats.failures,
        )
        for r in sweep_rows
    ]
    header = ["sweep_value", "method", "param", "rmsee", "mean_err", "mc_stderr", "sqrt_crlb"]
    _write_csv(path, header + ["misses", "false_alarms", "failures"], rows)


def write_offset_csv(path, study):
    """Offset-study table: per (method, param) summary statistics."""
    rows = []
    for method, params in study.items():
        for param, stats in params.items():
            rows.append(
                (
                    method.value,
                    param,
                    stats.n,
                    stats.rmsee,
                    stats.mean_err,
                    stats.mean_abs_err,
                    stats.misses,
                )
            )
    _write_csv(
        path,
        ["method", "param", "n", "rmsee", "mean_err", "mean_abs_err", "misses"],
        rows,
    )


def parse_methods(spec):
    """Parse a comma-separated method list ('o1,o2,haed,haed+').

    A method given twice is refused: it would write every estimate twice.
    """
    out = []
    for name in spec.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            method = Method(name)
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise ValueError(f"unknown method {name!r} (valid: {valid})")
        if method in out:
            raise ValueError(f"method {name!r} given twice")
        out.append(method)
    if not out:
        raise ValueError("no methods given")
    return out
