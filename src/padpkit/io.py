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
import sys
from dataclasses import dataclass

import numpy as np

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


def _need(obj, key, kind, path, default=None):
    """``obj[key]`` checked against ``kind``; ``default`` when given stands in for a missing key.

    ``float`` accepts JSON integers within the float range; booleans are
    never numbers.
    """
    if key not in obj:
        if default is not None:
            return default
        raise ScenarioError(f"{path}.{key}: missing required field")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind):
        raise ScenarioError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    if kind is float:
        try:
            return float(val)
        except OverflowError:
            raise ScenarioError(f"{path}.{key}: integer beyond the float range") from None
    return val


@contextlib.contextmanager
def _section(path):
    """Re-raise a constructor's ``ValueError`` or ``OSError`` as a ScenarioError naming ``path``."""
    try:
        yield
    except ScenarioError:
        raise
    except (ValueError, OSError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(text, base_dir=None):
    """Parse and validate a scenario JSON document.

    Any fault in the document raises ``ScenarioError`` naming the field,
    an arrival at or past the delay window k/bw (it would alias) included.
    The ``array.m`` x ``sounding.k`` scan map may hold at most ``MAX_MAP_CELLS``
    (2**24) cells; a larger one is rejected, naming the field, before any allocation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # undecodable bytes, an integer beyond the digit limit
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")

    snd = _need(doc, "sounding", dict, "$")
    fc = _need(snd, "fc_hz", float, "sounding")
    bw = _need(snd, "bw_hz", float, "sounding")
    k = _need(snd, "k", int, "sounding")
    if k > MAX_MAP_CELLS:
        raise ScenarioError(f"sounding.k: exceeds the scan map's {MAX_MAP_CELLS}-cell cap")
    with _section("sounding"):
        cfg = SoundingConfig(
            fc=fc,
            bw=bw,
            k=k,
            pu=_need(snd, "pu", float, "sounding", 1.0),
            sigma2=_need(snd, "sigma2", float, "sounding", 0.0),
            g_tx=_need(snd, "g_tx", float, "sounding", 1.0),
        )

    arr_doc = _need(doc, "array", dict, "$")
    m = _need(arr_doc, "m", int, "array")
    if m * k > MAX_MAP_CELLS:
        raise ScenarioError(f"array.m: array.m x sounding.k exceeds the {MAX_MAP_CELLS}-cell cap")
    with _section("array"):
        arr = ArrayConfig(m=m)

    pat_doc = _need(doc, "pattern", dict, "$")
    with _section("pattern"):
        pattern = _parse_pattern(pat_doc, base_dir)

    mpcs_doc = _need(doc, "mpcs", list, "$")
    if not mpcs_doc:
        raise ScenarioError("mpcs: must contain at least one entry")
    mpcs = []
    for i, entry in enumerate(mpcs_doc):
        if not isinstance(entry, dict):
            raise ScenarioError(f"mpcs[{i}]: expected an object")
        path = f"mpcs[{i}]"
        with _section(path):
            mpcs.append(
                MpcTruth(
                    alpha=_need(entry, "alpha", float, path),
                    phase=np.radians(_need(entry, "phase_deg", float, path)),
                    tau=_need(entry, "tau_ns", float, path) * 1e-9,
                    phi=np.radians(_need(entry, "phi_deg", float, path)),
                )
            )
        if cfg.past_window(mpcs[-1].tau):
            raise ScenarioError(
                f"{path}.tau_ns: {mpcs[-1].tau * 1e9:.6g} ns is at or past the delay window "
                f"k/bw = {cfg.k / cfg.bw * 1e9:.6g} ns, where the arrival aliases"
            )

    experiment = doc.get("experiment", {})
    if not isinstance(experiment, dict):
        raise ScenarioError("experiment: expected an object")
    return Scenario(
        sounding=cfg,
        array=arr,
        pattern=pattern,
        mpcs=tuple(mpcs),
        experiment=experiment,
        sha256=sha256_bytes(text.encode() if isinstance(text, str) else text),
    )


def _gain_from_db(g_max_db, field):
    """The linear power gain of ``g_max_db`` dB, refused unless positive and finite.

    ``ScenarioError`` names ``field`` and quotes the value in dB.
    """
    try:
        g_max = 10.0 ** (g_max_db / 10.0)
    except OverflowError:
        raise ScenarioError(f"{field}: gain beyond the float range") from None
    if not 0.0 < g_max < np.inf:
        raise ScenarioError(f"{field}: g_max must be positive and finite, got {g_max_db!r} dB")
    return g_max


def _hpbw_from_deg(hpbw_deg, field):
    """``hpbw_deg`` in radians, refused unless in (0, 180] degrees.

    ``ScenarioError`` names ``field`` and quotes the value in degrees.
    """
    hpbw = np.radians(hpbw_deg)
    if not 0.0 < hpbw <= np.pi:
        raise ScenarioError(f"{field}: hpbw must be in (0, 180] degrees, got {hpbw_deg!r}")
    return hpbw


def gaussian_pattern(g_max_db, hpbw_deg, gain_field, hpbw_field):
    """A Gaussian beam from its max power gain in dB and its HPBW in degrees.

    A gain that is not positive and finite, or a beamwidth outside (0, 180]
    degrees, raises ``ScenarioError`` naming ``gain_field`` or
    ``hpbw_field`` in the caller's units: scenario files and ``estimate
    --gmax-db/--hpbw-deg`` share these checks.
    """
    return AntennaPattern.gaussian(
        _gain_from_db(g_max_db, gain_field), _hpbw_from_deg(hpbw_deg, hpbw_field)
    )


def _parse_pattern(pat_doc, base_dir):
    kind = _need(pat_doc, "kind", str, "pattern")
    if kind == "gaussian":
        g_max_db = _need(pat_doc, "g_max_db", float, "pattern")
        hpbw_deg = _need(pat_doc, "hpbw_deg", float, "pattern")
        return gaussian_pattern(g_max_db, hpbw_deg, "pattern.g_max_db", "pattern.hpbw_deg")
    if kind == "tabulated":
        table_path = _need(pat_doc, "table_path", str, "pattern")
        if base_dir is not None:
            table_path = str(base_dir / table_path)
        hpbw = None  # missing or null: measured from the table
        if pat_doc.get("hpbw_deg") is not None:
            hpbw_deg = _need(pat_doc, "hpbw_deg", float, "pattern")
            hpbw = _hpbw_from_deg(hpbw_deg, "pattern.hpbw_deg")
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


def _header_field(header, key, kind, path):
    """A numeric PADP header field: an int, or (``kind`` float) any number in the float64 range."""
    if key not in header:
        raise ValueError(f"{path}: PADP header: {key}: missing required field")
    val = header[key]
    ok = isinstance(val, int) or (kind is float and isinstance(val, float))
    # a Python int/float comparison is exact for ints of any size, and false for NaN
    ok = ok and (kind is int or abs(val) <= sys.float_info.max)
    if isinstance(val, bool) or not ok:
        raise ValueError(f"{path}: PADP header: {key}: expected a finite {kind.__name__}, got {val!r}")
    return kind(val)


def read_padp(path):
    """Read a PADP file back into a (Padp, header) pair (no delay responses).

    The header is validated first; a malformed one raises ``ValueError``
    naming the field.  ``asi_deg`` and ``scale`` may be missing; a given
    ``asi_deg`` must equal 360/m: the angles are ``ArrayConfig(m)``'s full circle.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"{path}: bad PADP header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: bad PADP header: expected an object")
    if header.get("format") != PADP_MAGIC:
        raise ValueError(f"{path}: not a PADP file (format={header.get('format')!r})")
    m = _header_field(header, "m", int, path)
    k = _header_field(header, "k", int, path)
    delay_step_ns = _header_field(header, "delay_step_ns", float, path)
    scale = header.get("scale", "linear")
    if m < 3:
        raise ValueError(f"{path}: PADP header: m: must be >= 3, got {m}")
    if k < 2:
        raise ValueError(f"{path}: PADP header: k: must be >= 2, got {k}")
    if delay_step_ns <= 0:
        raise ValueError(f"{path}: PADP header: delay_step_ns: must be positive")
    if scale not in ("linear", "db"):
        raise ValueError(f"{path}: PADP header: scale: expected 'linear' or 'db', got {scale!r}")
    values = np.frombuffer(blob, dtype="<f8")
    if values.size != m * k:
        raise ValueError(f"{path}: payload has {values.size} values, header says {m}x{k}")
    grid = ArrayConfig(m)  # m now matches the payload, so the grid is small
    if "asi_deg" in header:
        asi_deg = _header_field(header, "asi_deg", float, path)
        if not np.isclose(asi_deg, np.degrees(grid.asi), rtol=1e-9, atol=0.0):
            raise ValueError(
                f"{path}: PADP header: asi_deg: {asi_deg!r} disagrees with 360/m ="
                f" {np.degrees(grid.asi):.12g} (only full-circle scans are supported)"
            )
    values = values.reshape(m, k).astype(np.float64)
    if scale == "db":
        with np.errstate(over="ignore"):  # an overflow is the non-finite error below
            values = 10.0 ** (values / 10.0)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: payload contains non-finite values")
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
    index) and ``flags`` (``singular`` on a flagged point, else empty).
    """
    rows = []
    for value, report in entries:
        n = report.values.shape[0]
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
                    "singular" if report.flagged else "",
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
