import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from padpkit import (
    AntennaPattern,
    ArrayConfig,
    MpcTruth,
    Padp,
    SoundingConfig,
    checks,
    simulate_padp,
)
from padpkit.antenna import PatternKind, gain
from padpkit.cli import _parser, build_parser, main
from padpkit.estimation import HAED_PLUS_UPSAMPLE, Method, PeakConfig
from padpkit.experiments import MonteCarloConfig
from padpkit.io import (
    MAX_MAP_CELLS,
    PADP_MAGIC,
    Scenario,
    ScenarioError,
    parse_methods,
    parse_scenario,
    read_padp,
    write_estimates_csv,
    write_padp,
)

SCENARIO = {
    "sounding": {"fc_hz": 37.5e9, "bw_hz": 2e9, "k": 129, "pu": 1.0, "sigma2": 0.0},
    "array": {"m": 36},
    "pattern": {"kind": "gaussian", "g_max_db": 20.0, "hpbw_deg": 10.0},
    "mpcs": [{"alpha": 1.0, "phase_deg": 60.0, "tau_ns": 16.0, "phi_deg": 13.0}],
}


def scenario_file(tmp_path, doc=None, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc or SCENARIO))
    return path


def test_parse_scenario_roundtrip():
    sc = parse_scenario(json.dumps(SCENARIO))
    assert sc.sounding.k == 129
    assert sc.array.m == 36
    assert sc.pattern.g_max == pytest.approx(100.0)
    assert np.degrees(sc.pattern.hpbw) == pytest.approx(10.0)
    assert len(sc.mpcs) == 1
    assert sc.mpcs[0].tau == pytest.approx(16e-9)
    assert np.degrees(sc.mpcs[0].phi) == pytest.approx(13.0)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["sounding"].pop("k"), "sounding.k"),
        (lambda d: d["sounding"].update(k="ten"), "sounding.k"),
        (lambda d: d["pattern"].update(kind="fancy"), "pattern.kind"),
        (lambda d: d.update(mpcs=[]), "mpcs"),
        (lambda d: d["mpcs"][0].pop("tau_ns"), "mpcs[0].tau_ns"),
        (lambda d: d["mpcs"][0].update(alpha=-1.0), "mpcs[0]"),
        (lambda d: d.update(experiment=3), "experiment"),
    ],
)
def test_scenario_validation_messages(mutate, fragment):
    doc = json.loads(json.dumps(SCENARIO))
    mutate(doc)
    with pytest.raises(ScenarioError, match=fragment.replace("[", r"\[")):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("tau_ns", [64.5, 1e6])
def test_scenario_refuses_an_arrival_past_the_delay_window(tmp_path, capsys, tau_ns):
    """k = 129 bins of 0.5 ns: an arrival at 64.5 ns or later aliases, so simulate exits 2."""
    doc = json.loads(json.dumps(SCENARIO))
    doc["mpcs"].append(dict(doc["mpcs"][0], tau_ns=tau_ns))
    with pytest.raises(ScenarioError, match=r"^mpcs\[1\]\.tau_ns: .* delay window"):
        parse_scenario(json.dumps(doc))
    sc, out = scenario_file(tmp_path, doc), tmp_path / "sim.padp"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 2
    assert "mpcs[1].tau_ns" in capsys.readouterr().err
    assert not out.exists()
    doc["mpcs"][1]["tau_ns"] = 64.0
    assert parse_scenario(json.dumps(doc)).mpcs[1].tau == pytest.approx(64e-9)


def test_scenario_bad_json():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario("{nope")


ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SCENARIO = ROOT / "scenarios" / "default.json"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("sounding", "k", 10**400),
        ("sounding", "k", MAX_MAP_CELLS + 1),
        ("array", "m", 10**400),
        ("array", "m", MAX_MAP_CELLS + 1),
        ("array", "m", MAX_MAP_CELLS // SCENARIO["sounding"]["k"] + 1),
    ],
)
def test_scenario_map_size_cap(tmp_path, capsys, section, key, value):
    """Too large a scan map is a ScenarioError naming the field; nothing is synthesized."""
    doc = json.loads(json.dumps(SCENARIO))
    doc[section][key] = value
    with pytest.raises(ScenarioError, match=rf"^{section}\.{key}: .*{MAX_MAP_CELLS}-cell cap"):
        parse_scenario(json.dumps(doc))
    sc = scenario_file(tmp_path, doc)
    out = tmp_path / "crlb.csv"
    rc = main(["crlb", "--scenario", str(sc), "--sweep", "true-angle", "--values", "0",
               "--out", str(out)])
    assert rc == 2
    assert f"{section}.{key}: " in capsys.readouterr().err
    assert not out.exists()


def test_scenario_map_at_the_cap_parses():
    doc = json.loads(json.dumps(SCENARIO))
    doc["sounding"]["k"] = MAX_MAP_CELLS // 2**12
    doc["array"]["m"] = 2**12
    sc = parse_scenario(json.dumps(doc))  # parsing allocates no map
    assert sc.array.m * sc.sounding.k == MAX_MAP_CELLS


def _parses_or_scenario_error(text):
    """``parse_scenario`` returns a Scenario or raises ScenarioError, nothing else.

    A scenario it returns has a finite delay grid and a finite positive
    boresight gain, and a Gaussian beam a finite positive ``kappa``.
    """
    try:
        sc = parse_scenario(text)
    except ScenarioError:
        return
    assert isinstance(sc, Scenario)
    assert 0.0 < sc.sounding.delays[-1] < np.inf
    boresight = gain(sc.pattern, 0.0)
    assert 0.0 <= boresight < np.inf
    if sc.pattern.kind is PatternKind.GAUSSIAN_BEAM:
        assert boresight > 0.0
        assert 0.0 < sc.pattern.kappa < np.inf


_HUGE_INTS = st.sampled_from([10**400, -(10**400), 2**64])
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | _HUGE_INTS
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["gaussian", "tabulated", ".", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_DEFAULT_DOC = json.loads(DEFAULT_SCENARIO.read_text())
# (section, key) of every field of default.json; key None is the whole section
_DEFAULT_FIELDS = [(None, key) for key in (*_DEFAULT_DOC, "experiment")] + [
    (section, key)
    for section in ("sounding", "array", "pattern")
    for key in (*_DEFAULT_DOC[section], "g_tx", "table_path")
] + [("mpcs", key) for key in _DEFAULT_DOC["mpcs"][0]]


def _dump(doc):
    return json.dumps(doc, allow_nan=True)


@settings(max_examples=200, deadline=None)
@given(doc=_JSON_VALUES)
def test_fuzzed_json_documents_raise_only_scenario_error(doc):
    _parses_or_scenario_error(_dump(doc))


@settings(max_examples=400, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(_DEFAULT_FIELDS), st.booleans(), _JSON_VALUES),
        min_size=1,
        max_size=3,
    )
)
@example(edits=[((None, "array"), False, {"m": 2})])
@example(edits=[(("array", "m"), False, 10**400)])
@example(edits=[(("sounding", "pu"), False, [1.0])])
@example(edits=[(("sounding", "fc_hz"), False, 10**400)])
@example(edits=[(("pattern", "g_max_db"), False, 1e308)])
@example(edits=[(("pattern", "g_max_db"), False, float("nan"))])
@example(edits=[(("pattern", "hpbw_deg"), False, 400.0)])
@example(edits=[(("pattern", "kind"), False, "tabulated"), (("pattern", "table_path"), False, ".")])
@example(edits=[(("mpcs", "alpha"), False, 10**400)])
def test_mutated_default_scenario_raises_only_scenario_error(edits):
    doc = json.loads(json.dumps(_DEFAULT_DOC))
    for (section, key), drop, value in edits:
        target = doc if section is None else doc.get(section)
        if section == "mpcs" and isinstance(target, list) and target:
            target = target[0]
        if not isinstance(target, dict):
            continue
        if drop:
            target.pop(key, None)
        else:
            target[key] = value
    _parses_or_scenario_error(_dump(doc))


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=80) | st.binary(max_size=80))
@example(text="[" * 100_000)
@example(text="{" * 100_000)
@example(text='{"a": ' * 100_000)
@example(text="9" * 5000)
@example(text=b"\xff\xfe{")
def test_random_text_raises_only_scenario_error(text):
    _parses_or_scenario_error(text)


def test_load_scenario_nested_too_deep_exits_2(tmp_path, capsys):
    sc = tmp_path / "deep.json"
    sc.write_text("[" * 100_000)
    rc = main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "x.padp")])
    assert rc == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_tabulated_scenario(tmp_path):
    from padpkit.antenna import gain

    deg = np.arange(-180.0, 180.0, 0.25)
    ref = parse_scenario(json.dumps(SCENARIO)).pattern
    lines = ["offset_deg,gain"] + [f"{d},{v:.17g}" for d, v in zip(deg, gain(ref, np.radians(deg)))]
    (tmp_path / "beam.csv").write_text("\n".join(lines) + "\n")
    doc = json.loads(json.dumps(SCENARIO))
    doc["pattern"] = {"kind": "tabulated", "table_path": "beam.csv", "hpbw_deg": 10.0}
    sc = parse_scenario(json.dumps(doc), base_dir=tmp_path)
    assert sc.pattern.hpbw == pytest.approx(np.radians(10.0))
    assert sc.pattern == parse_scenario(json.dumps(doc), base_dir=tmp_path).pattern
    doc["pattern"]["hpbw_deg"] = None
    measured = parse_scenario(json.dumps(doc), base_dir=tmp_path).pattern
    assert np.degrees(measured.hpbw) == pytest.approx(10.0, abs=0.01)
    for bad in ([], "", 0.0):
        doc["pattern"]["hpbw_deg"] = bad
        with pytest.raises(ScenarioError, match="pattern"):
            parse_scenario(json.dumps(doc), base_dir=tmp_path)
    doc["pattern"]["hpbw_deg"] = 10.0  # a bad beamwidth is refused before the table is read
    doc["pattern"]["table_path"] = "missing.csv"
    with pytest.raises(ScenarioError, match="pattern: .*missing.csv"):
        parse_scenario(json.dumps(doc), base_dir=tmp_path)


@pytest.mark.parametrize("key, value", [("pu", "2"), ("g_tx", True), ("sigma2", None)])
def test_scenario_optional_sounding_fields_are_numbers(key, value):
    doc = json.loads(json.dumps(SCENARIO))
    doc["sounding"][key] = value
    with pytest.raises(ScenarioError, match=f"sounding.{key}: expected float"):
        parse_scenario(json.dumps(doc))


def _tiny_padp(seed=0, sigma2=0.0, k=129, tau=16e-9):
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=k, pu=1.0, sigma2=sigma2)
    arr = ArrayConfig(m=36)
    pat = AntennaPattern.gaussian(100.0, np.radians(10.0))
    mpc = MpcTruth(alpha=1.0, phase=np.pi / 3, tau=tau, phi=np.radians(13.0))
    return simulate_padp([mpc], arr, pat, cfg, seed=seed), pat


def test_padp_file_roundtrip(tmp_path):
    padp, _ = _tiny_padp(sigma2=0.5)
    path = tmp_path / "x.padp"
    write_padp(path, padp, manifest={"seed": 3})
    back, header = read_padp(path)
    np.testing.assert_array_equal(back.values, padp.values)  # lossless in float64
    np.testing.assert_allclose(back.delays, padp.delays, rtol=1e-12)
    assert header["m"] == 36 and header["k"] == 129
    assert header["manifest"]["seed"] == 3
    assert back.h is None


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(3, 72),
    k=st.integers(2, 1001),
    bw=st.sampled_from([7e8, 2e9, 3e9]) | st.floats(1e6, 1e11),
)
@example(m=36, k=1001, bw=3e9)
@example(m=36, k=1001, bw=7e8)
def test_padp_file_keeps_the_simulated_grids(tmp_path_factory, m, k, bw):
    """Read back, a simulated map has its grids bit for bit when its step round-trips in ns."""
    cfg = SoundingConfig(fc=37.5e9, bw=bw, k=k)
    pat = AntennaPattern.gaussian(100.0, np.radians(10.0))
    mpc = MpcTruth(alpha=1.0, phase=0.0, tau=0.0, phi=0.3)
    padp = simulate_padp([mpc], ArrayConfig(m), pat, cfg, keep_cfr=False)
    path = tmp_path_factory.mktemp("padp") / "x.padp"
    write_padp(path, padp)
    back, _ = read_padp(path)
    assert back.angles.tobytes() == padp.angles.tobytes()
    d = padp.delta_tau
    if (d * 1e9) * 1e-9 == d:
        assert back.delays.tobytes() == padp.delays.tobytes()
    else:
        np.testing.assert_allclose(back.delays, padp.delays, rtol=1e-15)


def _write_db_padp(path, padp):
    """A PADP file with a dB payload, as other writers may store one (``write_padp`` is linear)."""
    m, k = padp.values.shape
    header = {"format": PADP_MAGIC, "version": 1, "m": m, "k": k,
              "asi_deg": float(np.degrees(padp.asi)), "delay_step_ns": padp.delta_tau * 1e9,
              "scale": "db", "manifest": {}}
    payload = 10.0 * np.log10(np.maximum(padp.values, np.finfo(np.float64).tiny))
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + payload.astype("<f8").tobytes())


def test_padp_db_scale_roundtrip(tmp_path):
    padp, _ = _tiny_padp(sigma2=0.5)
    path = tmp_path / "x_db.padp"
    _write_db_padp(path, padp)
    back, header = read_padp(path)
    assert header["scale"] == "db"
    np.testing.assert_allclose(back.values, padp.values, rtol=1e-12)


@st.composite
def _padps(draw, elements):
    m, k = draw(st.integers(3, 12)), draw(st.integers(2, 24))
    values = draw(hnp.arrays(np.float64, (m, k), elements=elements))
    step = draw(st.floats(1e-12, 1e-6))
    return Padp(values, step)


_FINITE_POWERS = st.floats(0.0, np.finfo(np.float64).max)
_MANIFESTS = st.dictionaries(
    st.text(max_size=8), st.integers() | st.text(max_size=8) | st.booleans(), max_size=3
)


@settings(max_examples=100, deadline=None)
@given(padp=_padps(_FINITE_POWERS), manifest=_MANIFESTS)
def test_padp_linear_roundtrip_is_bit_exact(tmp_path_factory, padp, manifest):
    path = tmp_path_factory.mktemp("padp") / "x.padp"
    write_padp(path, padp, manifest=manifest)
    back, header = read_padp(path)
    assert back.values.tobytes() == padp.values.tobytes()
    np.testing.assert_array_equal(back.angles, padp.angles)
    np.testing.assert_allclose(back.delays, padp.delays, rtol=1e-14)
    assert header["manifest"] == manifest and header["scale"] == "linear"


@settings(max_examples=100, deadline=None)
@given(padp=_padps(_FINITE_POWERS))
def test_padp_db_roundtrip_is_close(tmp_path_factory, padp):
    """dB payloads decode to 1e-12; powers below the smallest normal float come back as it."""
    path = tmp_path_factory.mktemp("padp") / "x.padp"
    _write_db_padp(path, padp)
    try:
        back, header = read_padp(path)
    except ValueError as exc:
        # only powers within rounding of the float64 maximum overflow when decoded
        assert "values: expected finite entries" in str(exc)
        assert padp.values.max() > 1.79e308
        return
    assert header["scale"] == "db"
    tiny = np.finfo(np.float64).tiny
    np.testing.assert_allclose(back.values, padp.values, rtol=1e-12, atol=2.0 * tiny)


# JSON leaves, with integers beyond the float64 range and at int64 edges
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400), 2**63, -(2**63), 2**64, 0, 3, 360])
)
_JSON_VALUES = _JSON_LEAVES | st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_HEADER_FIELDS = ("format", "version", "m", "k", "asi_deg", "delay_step_ns", "scale", "manifest")


def _estimate_exits_2_if_rejected(path):
    """``read_padp`` accepts ``path`` or raises ValueError, and then ``estimate`` exits 2.

    When ``read_padp`` accepts the file, ``estimate`` exits 0 and writes
    only finite delays, angles and powers.
    """
    try:
        read_padp(path)
    except ValueError:
        rejected = True
    else:
        rejected = False
    out = path.with_suffix(".csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(
            ["estimate", "--padp", str(path), "--gmax-db", "20", "--hpbw-deg", "10",
             "--out", str(out)]
        )
    if rejected:
        assert rc == 2
        assert err.getvalue().startswith("padpkit: error:")
        return
    assert rc == 0, err.getvalue()
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[1:4] == ["tau_ns", "phi_deg", "power_db"]
    for line in lines[1:]:
        assert all(np.isfinite(float(x)) for x in line.split(",")[1:4]), line


def _padp_file(tmp_path_factory):
    padp, _ = _tiny_padp(k=8, tau=1e-9)  # inside the 4 ns delay window of 8 bins
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.padp"
    write_padp(path, padp)
    line, payload = path.read_bytes().split(b"\n", 1)
    return path, json.loads(line), payload


@settings(max_examples=300, deadline=None)
@given(
    replace=st.dictionaries(st.sampled_from(_HEADER_FIELDS), _JSON_VALUES, min_size=1, max_size=3),
    drop=st.sets(st.sampled_from(_HEADER_FIELDS), max_size=2),
)
@example(replace={"delay_step_ns": 10**400}, drop=set())
@example(replace={"asi_deg": -(10**400)}, drop=set())
@example(replace={"m": 10**400}, drop=set())
@example(replace={"m": 10**400}, drop={"asi_deg"})
@example(replace={"k": 10**400, "m": 2**64}, drop=set())
@example(replace={"delay_step_ns": 1e308}, drop=set())
def test_fuzzed_padp_header_fields_fail_with_value_error(tmp_path_factory, replace, drop):
    path, header, payload = _padp_file(tmp_path_factory)
    header.update(replace)
    for key in drop:
        header.pop(key, None)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    _estimate_exits_2_if_rejected(path)


@settings(max_examples=100, deadline=None)
@given(line=st.binary(max_size=60).filter(lambda b: b"\n" not in b))
@example(line=b"[" * 100_000)
def test_fuzzed_padp_header_bytes_fail_with_value_error(tmp_path_factory, line):
    path, _, payload = _padp_file(tmp_path_factory)
    path.write_bytes(line + b"\n" + payload)
    _estimate_exits_2_if_rejected(path)


def test_padp_file_errors(tmp_path):
    bad = tmp_path / "bad.padp"
    bad.write_bytes(b"not json\n\x00\x00")
    with pytest.raises(ValueError):
        read_padp(bad)
    padp, _ = _tiny_padp()
    path = tmp_path / "trunc.padp"
    write_padp(path, padp)
    data = path.read_bytes()
    path.write_bytes(data[:-16])  # drop two payload floats
    with pytest.raises(ValueError, match="payload"):
        read_padp(path)


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("delay_step_ns"), "PADP header: delay_step_ns:"),
        (_drop("m"), "PADP header: m:"),
        (_drop("k"), "PADP header: k:"),
        (lambda h: [h], "PADP header: expected an object"),
        (lambda h: {**h, "scale": "dbm"}, "PADP header: scale:"),
        (lambda h: {**h, "k": 1}, "PADP header: k:"),
        (lambda h: {**h, "m": "36"}, "PADP header: m:"),
        (lambda h: {**h, "delay_step_ns": -0.5}, "PADP header: delay_step_ns:"),
        (lambda h: {**h, "delay_step_ns": float("nan")}, "PADP header: delay_step_ns:"),
        (lambda h: {**h, "asi_deg": 5.0}, "PADP header: asi_deg:"),
    ],
    ids=[
        "no-step", "no-m", "no-k", "list", "scale-dbm", "k-1", "m-str", "step-neg", "step-nan",
        "asi-5",
    ],
)
def test_padp_header_validation(tmp_path, capsys, edit, message):
    padp, _ = _tiny_padp()
    path = tmp_path / "bad.padp"
    write_padp(path, padp)
    line, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match=message):
        read_padp(path)
    rc = main(
        ["estimate", "--padp", str(path), "--gmax-db", "20", "--hpbw-deg", "10",
         "--out", str(tmp_path / "est.csv")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("padpkit: error:") and message in err


def test_estimates_csv_schema(tmp_path):
    padp, pat = _tiny_padp()
    from padpkit.estimation import estimate_haed, estimate_o1

    ests = estimate_o1(padp, pat) + estimate_haed(padp, pat)
    out = tmp_path / "est.csv"
    write_estimates_csv(out, ests)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,tau_ns,phi_deg,power_db,chi_hat,eps_deg,flags"
    rows = [l.split(",") for l in lines[1:]]
    by_method = {r[0]: r for r in rows}
    assert by_method["haed"][4] != "" and by_method["haed"][5] != ""
    assert by_method["o1"][4] == "" and by_method["o1"][5] == ""
    assert float(by_method["haed"][2]) == pytest.approx(13.0, abs=1e-6)


def test_parse_methods():
    assert parse_methods("o1,o2,haed,haed+") == [
        Method.O1,
        Method.O2,
        Method.HAED,
        Method.HAED_PLUS,
    ]
    with pytest.raises(ValueError, match="unknown method"):
        parse_methods("o1,magic")
    with pytest.raises(ValueError):
        parse_methods(",")
    with pytest.raises(ValueError, match="method 'haed' given twice"):
        parse_methods("haed, o1,HAED")


@pytest.mark.parametrize("command", ["estimate", "montecarlo", "offset-study"])
def test_cli_refuses_a_repeated_method(tmp_path, capsys, command):
    """A method given twice exits 2 naming it, and writes nothing."""
    sc = scenario_file(tmp_path, SCENARIO)
    padp_path = tmp_path / "scan.padp"
    assert main(["simulate", "--scenario", str(sc), "--out", str(padp_path)]) == 0
    out = tmp_path / "out.csv"
    argv = {
        "estimate": ["estimate", "--padp", str(padp_path), "--scenario", str(sc)],
        "montecarlo": ["montecarlo", "--scenario", str(sc), "--sweep", "output-snr",
                       "--values", "30", "--trials", "1"],
        "offset-study": ["offset-study", "--scenario", str(sc), "--n", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--methods", "haed,haed", "--out", str(out)]) == 2
    assert "method 'haed' given twice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_deterministic(tmp_path):
    sc = scenario_file(tmp_path)
    out1, out2 = tmp_path / "a.padp", tmp_path / "b.padp"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out1), "--seed", "9"]) == 0
    assert main(["simulate", "--scenario", str(sc), "--out", str(out2), "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.padp"
    assert main(["simulate", "--scenario", str(sc), "--out", str(out3), "--seed", "10"]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_cli_simulate_padp_does_not_depend_on_cfr_out(tmp_path, monkeypatch):
    """Without --cfr-out no phases are drawn, and the noisy on-grid PADP bytes are the same."""
    import padpkit.cli as cli_module

    doc = json.loads(json.dumps(SCENARIO))
    doc["sounding"]["sigma2"] = 0.1
    sc = scenario_file(tmp_path, doc)
    kept, simulate = [], cli_module.simulate_padp

    def spy(*args, **kw):
        kept.append(kw["keep_cfr"])
        return simulate(*args, **kw)

    monkeypatch.setattr(cli_module, "simulate_padp", spy)
    plain, with_cfr = tmp_path / "plain.padp", tmp_path / "with_cfr.padp"
    assert main(["simulate", "--scenario", str(sc), "--out", str(plain), "--seed", "5"]) == 0
    assert main(["simulate", "--scenario", str(sc), "--out", str(with_cfr), "--seed", "5",
                 "--cfr-out", str(tmp_path / "scan.npy")]) == 0
    assert kept == [False, True]
    assert plain.read_bytes() == with_cfr.read_bytes()


def test_cli_simulate_writes_cfr_out_at_the_path_given(tmp_path):
    """A --cfr-out path without a .npy suffix is written as given, and estimate --cfr reads it."""
    sc = scenario_file(tmp_path)
    padp_path, cfr_path, npy_path = tmp_path / "sim.padp", tmp_path / "xcfr", tmp_path / "x.npy"
    for path in (cfr_path, npy_path):
        assert main(["simulate", "--scenario", str(sc), "--out", str(padp_path), "--seed", "2",
                     "--cfr-out", str(path)]) == 0
    assert cfr_path.read_bytes() == npy_path.read_bytes()
    assert not Path(f"{cfr_path}.npy").exists()
    out = tmp_path / "est.csv"
    assert main(["estimate", "--padp", str(padp_path), "--scenario", str(sc), "--methods", "haed+",
                 "--cfr", str(cfr_path), "--out", str(out)]) == 0


def test_cli_estimate_pipeline(tmp_path):
    sc = scenario_file(tmp_path)
    padp_path = tmp_path / "sim.padp"
    cfr_path = tmp_path / "sim_cfr.npy"
    main(
        [
            "simulate", "--scenario", str(sc), "--out", str(padp_path),
            "--cfr-out", str(cfr_path), "--seed", "0",
        ]
    )
    out = tmp_path / "est.csv"
    rc = main(
        [
            "estimate", "--padp", str(padp_path), "--scenario", str(sc),
            "--methods", "o1,o2,haed", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + one row per method
    assert (tmp_path / "est.csv.manifest.json").exists()
    # haed+ works once the complex spectra are supplied
    out2 = tmp_path / "est_plus.csv"
    rc = main(
        [
            "estimate", "--padp", str(padp_path), "--scenario", str(sc),
            "--methods", "haed+", "--cfr", str(cfr_path), "--out", str(out2),
        ]
    )
    assert rc == 0
    assert "haed+" in out2.read_text()


def _nan_in_peak_row(cfr, _other):
    cfr[1, 5] = np.nan  # row 1 is the 10-degree scan holding the 13-degree arrival
    return cfr


@pytest.mark.parametrize(
    "edit, message",
    [
        (_nan_in_peak_row, "spectra: expected finite entries, got nan"),
        (lambda _cfr, other: other, "do not reproduce the PADP values"),
        (lambda cfr, _other: cfr[:, :-1], "do not match the PADP"),
        (lambda cfr, _other: np.full(cfr.shape, "x"), "expected a .npy array"),
        (lambda cfr, _other: np.zeros(cfr.shape, dtype=[("re", float)]), "expected a .npy array"),
    ],
    ids=["nan-peak-row", "other-seed", "shape", "strings", "structured"],
)
def test_cli_estimate_rejects_broken_spectra(tmp_path, capsys, edit, message):
    noisy = json.loads(json.dumps(SCENARIO))
    noisy["sounding"]["sigma2"] = 1.0
    sc = scenario_file(tmp_path, noisy)
    padp_path, cfr_path = tmp_path / "sim.padp", tmp_path / "sim_cfr.npy"
    other_padp, other_cfr = tmp_path / "other.padp", tmp_path / "other_cfr.npy"
    for out, cfr, seed in ((padp_path, cfr_path, "1"), (other_padp, other_cfr, "2")):
        rc = main(
            ["simulate", "--scenario", str(sc), "--out", str(out), "--cfr-out", str(cfr),
             "--seed", seed]
        )
        assert rc == 0
    argv = ["estimate", "--padp", str(padp_path), "--scenario", str(sc), "--methods", "haed+",
            "--cfr", str(cfr_path), "--out", str(tmp_path / "est.csv")]
    assert main(argv) == 0  # the matching spectra are accepted
    capsys.readouterr()
    np.save(cfr_path, edit(np.load(cfr_path), np.load(other_cfr)))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("padpkit: error: --cfr:") and message in err


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sigma2=st.sampled_from([0.0, 0.1, 10.0]),
    tau_frac=st.floats(0.0, 1.0),
    phi_deg=st.floats(0.0, 360.0, exclude_max=True),
    sep_deg=st.floats(30.0, 180.0),
)
def test_haed_plus_same_from_spectra_file(
    tmp_path_factory, seed, sigma2, tau_frac, phi_deg, sep_deg
):
    """haed+ on a simulated Padp equals haed+ on its map rebuilt from the --cfr-out file."""
    from padpkit.cli import _with_spectra
    from padpkit.estimation import estimate_haed, haed_plus_refine
    from padpkit.io import load_scenario

    doc = json.loads(json.dumps(SCENARIO))
    doc["sounding"]["sigma2"] = sigma2
    doc["mpcs"] = [
        {"alpha": 1.0, "phase_deg": 60.0, "tau_ns": 16.0 + 0.5 * tau_frac, "phi_deg": phi_deg},
        {"alpha": 0.6, "phase_deg": 10.0, "tau_ns": 21.3, "phi_deg": phi_deg + sep_deg},
    ]
    tmp = tmp_path_factory.mktemp("roundtrip")
    sc_path = scenario_file(tmp, doc)
    padp_path, cfr_path = tmp / "sim.padp", tmp / "sim_cfr.npy"
    argv = ["simulate", "--scenario", str(sc_path), "--out", str(padp_path),
            "--cfr-out", str(cfr_path), "--seed", str(seed)]
    assert main(argv) == 0
    sc = load_scenario(sc_path)
    direct = simulate_padp(sc.mpcs, sc.array, sc.pattern, sc.sounding, seed=seed)
    rebuilt = _with_spectra(read_padp(padp_path)[0], cfr_path)
    np.testing.assert_array_equal(rebuilt.values, direct.values)
    ests = estimate_haed(direct, sc.pattern)
    assert ests and estimate_haed(rebuilt, sc.pattern) == ests
    want = haed_plus_refine(direct, ests)
    got = haed_plus_refine(rebuilt, ests)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.phi == b.phi and a.scan_index == b.scan_index
        assert a.tau == pytest.approx(b.tau, rel=1e-12)
        assert a.power == pytest.approx(b.power, rel=1e-12)


def _unloadable_spectra(path, kind, spectra):
    """Write to ``path`` a ``kind`` of file that ``estimate --cfr`` cannot load as spectra."""
    if kind == "npz":
        np.savez(path, cfr=spectra)
    elif kind == "garbage":
        path.write_bytes(b"not a numpy file\n")
    elif kind == "object":
        np.save(path, np.array([1.0, "a", None], dtype=object))


@pytest.mark.parametrize("kind", ["npz", "garbage", "object", "missing"])
def test_cli_estimate_refuses_spectra_it_cannot_load(tmp_path, capsys, kind):
    """Each file names the flag and the path, exits 2 and writes nothing."""
    sc = scenario_file(tmp_path)
    padp_path, cfr_path = tmp_path / "sim.padp", tmp_path / "sim_cfr.npy"
    main(["simulate", "--scenario", str(sc), "--out", str(padp_path), "--cfr-out", str(cfr_path)])
    bad_path = tmp_path / f"{kind}.npy"
    _unloadable_spectra(bad_path, kind, np.load(cfr_path))
    capsys.readouterr()
    out = tmp_path / "x.csv"
    rc = main(
        ["estimate", "--padp", str(padp_path), "--scenario", str(sc), "--methods", "haed+",
         "--cfr", str(bad_path), "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"padpkit: error: --cfr: {bad_path}: ") and "pickle" not in err
    assert not out.exists()


def test_cli_estimate_haed_plus_needs_cfr(tmp_path, capsys):
    sc = scenario_file(tmp_path)
    padp_path = tmp_path / "sim.padp"
    main(["simulate", "--scenario", str(sc), "--out", str(padp_path)])
    rc = main(
        [
            "estimate", "--padp", str(padp_path), "--scenario", str(sc),
            "--methods", "haed+", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2
    assert "haed+" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "montecarlo"])
def test_cli_non_finite_threshold_exits_2(tmp_path, capsys, command):
    sc = scenario_file(tmp_path)
    padp_path, out = tmp_path / "sim.padp", tmp_path / "x.csv"
    main(["simulate", "--scenario", str(sc), "--out", str(padp_path)])
    argv = {
        "estimate": ["estimate", "--padp", str(padp_path), "--scenario", str(sc)],
        "montecarlo": ["montecarlo", "--scenario", str(sc), "--sweep", "output-snr",
                       "--values", "30", "--trials", "2"],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threshold-db", "nan", "--out", str(out)])
    assert exc.value.code == 2
    assert "--threshold-db: expected a finite number > 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_cli_estimate_pattern_flags(tmp_path):
    sc = scenario_file(tmp_path)
    padp_path = tmp_path / "sim.padp"
    main(["simulate", "--scenario", str(sc), "--out", str(padp_path)])
    out = tmp_path / "est.csv"
    rc = main(
        [
            "estimate", "--padp", str(padp_path), "--gmax-db", "20", "--hpbw-deg", "10",
            "--methods", "haed", "--out", str(out),
        ]
    )
    assert rc == 0
    rc = main(["estimate", "--padp", str(padp_path), "--methods", "haed", "--out", str(out)])
    assert rc == 2  # no pattern given


def test_cli_estimate_with_tabulated_pattern(tmp_path):
    from padpkit import AntennaPattern
    from padpkit.antenna import gain

    sc = scenario_file(tmp_path)
    padp_path = tmp_path / "sim.padp"
    main(["simulate", "--scenario", str(sc), "--out", str(padp_path)])
    ref = AntennaPattern.gaussian(100.0, np.radians(10.0))
    deg = np.arange(-180.0, 180.0, 0.05)
    table = tmp_path / "pattern.csv"
    table.write_text(
        "offset_deg,gain\n"
        + "\n".join(f"{d},{g:.17g}" for d, g in zip(deg, gain(ref, np.radians(deg))))
        + "\n"
    )
    out = tmp_path / "est_tab.csv"
    rc = main(
        [
            "estimate", "--padp", str(padp_path), "--pattern-csv", str(table),
            "--methods", "haed", "--out", str(out),
        ]
    )
    assert rc == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(13.0, abs=0.02)  # grid-search refinement


def test_cli_external_padp_ingestion(tmp_path):
    """A PADP written by an independent tool is processed identically."""
    sc = scenario_file(tmp_path)
    padp_path = tmp_path / "internal.padp"
    main(["simulate", "--scenario", str(sc), "--out", str(padp_path), "--seed", "4"])
    internal_csv = tmp_path / "internal.csv"
    main(
        [
            "estimate", "--padp", str(padp_path), "--scenario", str(sc),
            "--methods", "o1,o2,haed", "--out", str(internal_csv),
        ]
    )

    # hand-rolled writer: same header contract, bytes assembled independently
    padp, header = read_padp(padp_path)
    ext_path = tmp_path / "external.padp"
    ext_header = {
        "format": "padpkit-padp",
        "version": 1,
        "m": 36,
        "k": 129,
        "asi_deg": 10.0,
        "delay_step_ns": 0.5,
        "scale": "linear",
        "manifest": {"source": "external-instrument"},
    }
    with open(ext_path, "wb") as fh:
        fh.write(json.dumps(ext_header, sort_keys=True).encode() + b"\n")
        fh.write(padp.values.astype("<f8").tobytes())
    external_csv = tmp_path / "external.csv"
    rc = main(
        [
            "estimate", "--padp", str(ext_path), "--scenario", str(sc),
            "--methods", "o1,o2,haed", "--out", str(external_csv),
        ]
    )
    assert rc == 0
    assert external_csv.read_text() == internal_csv.read_text()


def test_cli_crlb_sweeps(tmp_path):
    noisy = json.loads(json.dumps(SCENARIO))
    noisy["sounding"]["sigma2"] = 1.0
    sc = scenario_file(tmp_path, noisy)
    out = tmp_path / "crlb.csv"
    rc = main(
        ["crlb", "--scenario", str(sc), "--sweep", "true-angle", "--values", "0:5:6", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "sweep_variable,value,sqrt_crlb_phi_deg,sqrt_crlb_alpha,"
        "sqrt_crlb_tau_ns,cond_fim,mpc,flags"
    )
    assert len(lines) == 7
    vals = [float(l.split(",")[2]) for l in lines[1:]]
    assert vals[0] == max(vals) and vals[-1] == min(vals)  # envelope shape

    # two-arrival separation sweep flags only the coincident point
    doc = json.loads(json.dumps(noisy))
    doc["mpcs"].append({"alpha": 1.0, "phase_deg": 36.0, "tau_ns": 16.0, "phi_deg": 3.0})
    sc2 = scenario_file(tmp_path, doc, name="two.json")
    out2 = tmp_path / "crlb2.csv"
    rc = main(
        ["crlb", "--scenario", str(sc2), "--sweep", "separation", "--values", "0,30,40",
         "--out", str(out2)]
    )
    assert rc == 0
    rows = [l.split(",") for l in out2.read_text().strip().split("\n")[1:]]
    flags = {float(r[1]): r[7] for r in rows}
    assert flags[0.0] == "singular" and flags[30.0] == "" and flags[40.0] == ""


def test_cli_crlb_subnormal_sigma2_exits_2_naming_sigma2(tmp_path, capsys):
    """2/sigma2 overflows: a ValueError naming sigma2, no warning and no CSV."""
    doc = json.loads(json.dumps(SCENARIO))
    doc["sounding"]["sigma2"] = 1e-310
    sc = scenario_file(tmp_path, doc)
    out = tmp_path / "crlb.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["crlb", "--scenario", str(sc), "--sweep", "true-angle", "--values", "0:10:3",
                   "--out", str(out)])
    assert rc == 2
    assert "2/sigma2 at sigma2 = 1e-310: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_montecarlo_and_repro(tmp_path):
    sc = scenario_file(tmp_path)
    out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    args = [
        "montecarlo", "--scenario", str(sc), "--sweep", "output-snr",
        "--values", "25,35", "--trials", "5", "--methods", "o1,haed",
        "--randomize-angle", "--seed", "3",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == (
        "sweep_value,method,param,rmsee,mean_err,mc_stderr,sqrt_crlb,misses,false_alarms,failures"
    )
    assert len(lines) == 1 + 2 * 2 * 3
    manifest = json.loads((tmp_path / "mc1.csv.manifest.json").read_text())
    assert manifest["seed"] == 3 and manifest["config"]["trials"] == 5


def test_cli_montecarlo_single_trial_smoke(tmp_path):
    import time

    sc = scenario_file(tmp_path)
    out = tmp_path / "smoke.csv"
    t0 = time.perf_counter()
    rc = main(
        ["montecarlo", "--scenario", str(sc), "--sweep", "output-snr", "--values", "30",
         "--trials", "1", "--out", str(out)]
    )
    assert rc == 0
    assert time.perf_counter() - t0 < 5.0
    assert out.exists()


def test_cli_offset_study(tmp_path):
    sc = scenario_file(tmp_path)
    out = tmp_path / "offset.csv"
    rc = main(
        ["offset-study", "--scenario", str(sc), "--n", "40", "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,param,n,rmsee,mean_err,mean_abs_err,misses"
    assert len(lines) == 1 + 3 * 2


def test_cli_offset_study_manifest_records_the_parsed_methods(tmp_path):
    """As for estimate and montecarlo, the manifest holds method names, not the raw flag."""
    sc = scenario_file(tmp_path)
    out = tmp_path / "offset.csv"
    rc = main(["offset-study", "--scenario", str(sc), "--n", "2", "--methods", " HAED, o1",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "offset.csv.manifest.json").read_text())
    assert manifest["config"]["methods"] == ["haed", "o1"]


@pytest.mark.parametrize(
    "section, key, field",
    [
        ("sounding", "bw_hz", "bw"),
        ("sounding", "fc_hz", "fc"),
        ("sounding", "sigma2", "sigma2"),
        ("mpcs", "alpha", "alpha"),
        ("mpcs", "tau_ns", "tau"),
        ("mpcs", "phi_deg", "phi"),
        ("pattern", "g_max_db", "g_max"),
    ],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_cli_simulate_rejects_non_finite_scenario(tmp_path, capsys, section, key, field, bad):
    """Python's json reads NaN and Infinity; the scenario boundary must not."""
    doc = json.loads(json.dumps(SCENARIO))
    (doc["mpcs"][0] if section == "mpcs" else doc[section])[key] = bad
    sc = scenario_file(tmp_path, doc)
    assert "NaN" in sc.read_text() or "Infinity" in sc.read_text()
    out = tmp_path / "sim.padp"
    rc = main(["simulate", "--scenario", str(sc), "--out", str(out)])
    assert rc == 2
    # refused as the scenario is read, so the message names the scenario's key
    assert f"{key}: expected a finite number, got {bad!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_inputs(tmp_path, capsys):
    sc = scenario_file(tmp_path)
    padp_path = tmp_path / "sim.padp"
    main(["simulate", "--scenario", str(sc), "--out", str(padp_path)])
    rc = main(
        ["estimate", "--padp", str(padp_path), "--scenario", str(sc),
         "--methods", "bogus", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2 and "unknown method" in capsys.readouterr().err
    rc = main(
        ["montecarlo", "--scenario", str(sc), "--sweep", "output-snr", "--values", " ",
         "--trials", "2", "--out", str(tmp_path / "y.csv")]
    )
    assert rc == 2
    rc = main(["simulate", "--scenario", str(tmp_path / "missing.json"), "--out", str(padp_path)])
    assert rc == 2


def _pipeline_argvs(out_dir, seed):
    """The four cli-pipeline commands and a small montecarlo run on default.json."""
    w, sc = Path(out_dir), str(DEFAULT_SCENARIO)
    return [
        ["simulate", "--scenario", sc, "--out", str(w / "scan.padp"),
         "--cfr-out", str(w / "scan.npy"), "--seed", str(seed)],
        ["estimate", "--padp", str(w / "scan.padp"), "--cfr", str(w / "scan.npy"),
         "--scenario", sc, "--methods", "o1,o2,haed,haed+", "--out", str(w / "estimates.csv")],
        ["crlb", "--scenario", sc, "--sweep", "true-angle", "--values", "0:10:21",
         "--out", str(w / "crlb.csv")],
        ["offset-study", "--scenario", sc, "--n", "5", "--seed", str(seed),
         "--out", str(w / "offset.csv")],
        ["montecarlo", "--scenario", sc, "--sweep", "output-snr", "--values", "20,30",
         "--trials", "3", "--methods", "o1,o2,haed", "--randomize-angle", "--seed", str(seed),
         "--out", str(w / "mc.csv")],
    ]


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def test_repeated_in_process_cli_matches_fresh_processes(tmp_path, capsys):
    """Files written by repeated ``main`` calls in one process equal those of fresh processes."""
    runs = []
    for i in range(2):
        out = tmp_path / f"inproc{i}"
        out.mkdir()
        for argv in _pipeline_argvs(out, seed=4):
            assert main(argv) == 0, argv
        bad = tmp_path / "bad.padp"
        bad.write_bytes(b"not a padp file\n")
        rc = main(["estimate", "--padp", str(bad), "--scenario", str(DEFAULT_SCENARIO),
                   "--out", str(tmp_path / "bad.csv")])
        assert rc == 2
        runs.append(_files(out))
    capsys.readouterr()

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PADPKIT_THREADS", None)
    for argv in _pipeline_argvs(fresh, seed=4):
        subprocess.run([sys.executable, "-m", "padpkit.cli", *argv], env=env, check=True,
                       capture_output=True)
    expected = _files(fresh)
    assert sorted(expected) == sorted(
        ["scan.padp", "scan.npy", "estimates.csv", "estimates.csv.manifest.json", "crlb.csv",
         "crlb.csv.manifest.json", "offset.csv", "offset.csv.manifest.json", "mc.csv",
         "mc.csv.manifest.json"]
    )
    assert runs[0] == expected
    assert runs[1] == expected


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "2.5", str(checks.MAX_THREADS + 1)])
def test_cli_montecarlo_rejects_bad_thread_count(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("PADPKIT_THREADS", raw)
    sc = scenario_file(tmp_path)
    out = tmp_path / "mc.csv"
    rc = main(["montecarlo", "--scenario", str(sc), "--sweep", "output-snr", "--values", "30",
               "--trials", "1", "--out", str(out)])
    assert rc == 2
    assert "PADPKIT_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep, values", [("true-angle", "0,90"), ("separation", "30")])
def test_cli_montecarlo_rejects_randomize_angle_off_snr_sweeps(tmp_path, capsys, sweep, values):
    """A redrawn angle would discard the swept one: exit 2 naming randomize_angle."""
    doc = json.loads(json.dumps(SCENARIO))
    if sweep == "separation":
        doc["mpcs"].append({**doc["mpcs"][0], "tau_ns": 32.0})
    sc = scenario_file(tmp_path, doc)
    out = tmp_path / "mc.csv"
    rc = main(["montecarlo", "--scenario", str(sc), "--sweep", sweep, "--values", values,
               "--trials", "1", "--randomize-angle", "--out", str(out)])
    assert rc == 2
    assert "randomize_angle" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", ["inf", "nan", "1e400", "0:inf:3", "30,-inf", "-1.7e308:1.7e308:3"])
@pytest.mark.parametrize("command", ["montecarlo", "crlb"])
def test_cli_sweep_grid_refuses_non_finite_values(tmp_path, capsys, command, values):
    """A non-finite grid value exits 2 naming --values, and no file is written."""
    sc = scenario_file(tmp_path)
    out = tmp_path / "out.csv"
    argv = {
        "montecarlo": ["montecarlo", "--scenario", str(sc), "--sweep", "output-snr",
                       "--trials", "1"],
        "crlb": ["crlb", "--scenario", str(sc), "--sweep", "true-angle"],
    }[command]
    rc = main(argv + [f"--values={values}", "--out", str(out)])
    assert rc == 2
    assert "--values: expected finite entries" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [sc]


@pytest.mark.parametrize("command", ["montecarlo", "crlb"])
def test_cli_sweep_grid_refuses_a_point_count_past_its_cap(tmp_path, capsys, command):
    """A grid of MAX_SWEEP_POINTS + 1 points exits 2 naming --values before it is allocated."""
    sc = scenario_file(tmp_path)
    argv = [a.format(sc=sc, out=tmp_path / "out.csv") for a in _COMMAND_ARGV[command]]
    argv[argv.index("--values") + 1] = f"0:10:{checks.MAX_SWEEP_POINTS + 1}"
    assert main(argv) == 2
    assert f"--values: num: expected at most {checks.MAX_SWEEP_POINTS}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [sc]


@pytest.mark.parametrize("arrivals", [1, 3])
@pytest.mark.parametrize("command", ["montecarlo", "crlb"])
def test_cli_separation_sweep_refuses_other_than_two_arrivals(tmp_path, capsys, command, arrivals):
    """Exit 2 naming the flag and the value typed, not the library's field, and write nothing."""
    doc = json.loads(json.dumps(SCENARIO))
    doc["mpcs"] = [{**doc["mpcs"][0], "tau_ns": 16.0 * (i + 1)} for i in range(arrivals)]
    sc = scenario_file(tmp_path, doc)
    argv = [command, "--scenario", str(sc), "--sweep", "separation", "--values", "30,90",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv + (["--trials", "1"] if command == "montecarlo" else [])) == 2
    err = capsys.readouterr().err
    assert f"--sweep: expected 'separation' only on a scenario of exactly two arrivals, " \
           f"not {arrivals}, got 'separation'" in err
    assert "sweep_variable" not in err and "angular_separation_deg" not in err
    assert list(tmp_path.iterdir()) == [sc]


def test_cli_estimate_refuses_a_gain_beyond_the_float_range(tmp_path, capsys):
    """--gmax-db gets the scenario files' guard: exit 2 naming the flag, not a traceback."""
    sc = scenario_file(tmp_path)
    padp_path = tmp_path / "sim.padp"
    assert main(["simulate", "--scenario", str(sc), "--out", str(padp_path)]) == 0
    out = tmp_path / "est.csv"
    argv = ["estimate", "--padp", str(padp_path), "--hpbw-deg", "10", "--out", str(out)]
    assert main(argv + ["--gmax-db", "1e5"]) == 2
    assert "--gmax-db: expected a gain in dB with a positive finite linear value, got 100000.0" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    assert main(argv + ["--gmax-db", "20"]) == 0


def _narrow_table(path, hpbw_deg):
    """A pattern CSV of a 20 dB Gaussian beam ``hpbw_deg`` wide, every 0.05 deg."""
    from padpkit import AntennaPattern

    beam = AntennaPattern.gaussian(100.0, np.radians(hpbw_deg))
    deg = np.arange(-180.0, 180.0, 0.05)
    rows = "".join(f"{d:.2f},{g:.17g}\n" for d, g in zip(deg, gain(beam, np.radians(deg))))
    path.write_text("offset_deg,gain\n" + rows)
    return path


@pytest.mark.parametrize("source", ["flags", "pattern_csv", "gaussian", "tabulated"])
def test_cli_estimate_checks_the_pattern_against_the_padps_scan_step(tmp_path, capsys, source):
    """A 0.45 deg beam has no gain one 10 deg step out: estimate on a 36-direction PADP exits 2.

    The scenario patterns pass the rule for their own 360-direction array,
    whose step is 1 deg, but estimate reads a 36-direction map.
    """
    padp_path = tmp_path / "sim.padp"
    base = scenario_file(tmp_path)
    assert main(["simulate", "--scenario", str(base), "--out", str(padp_path)]) == 0
    table = _narrow_table(tmp_path / "narrow.csv", 0.45)
    doc = json.loads(json.dumps(SCENARIO))
    doc["array"]["m"] = 360
    if source == "gaussian":
        doc["pattern"]["hpbw_deg"] = 0.45
    else:
        doc["pattern"] = {"kind": "tabulated", "table_path": table.name}
    sc = scenario_file(tmp_path, doc, "narrow.json")
    flags, field = {
        "flags": (["--gmax-db", "20", "--hpbw-deg", "0.45"], "--hpbw-deg: "),
        "pattern_csv": (["--pattern-csv", str(table)], "--pattern-csv: "),
        "gaussian": (["--scenario", str(sc)], f"{sc}: pattern.hpbw_deg: "),
        "tabulated": (["--scenario", str(sc)], f"{sc}: pattern.table_path: "),
    }[source]
    assert main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "fine.padp")]) == 0
    out = tmp_path / "est.csv"
    capsys.readouterr()
    assert main(["estimate", "--padp", str(padp_path), *flags, "--methods", "haed",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field + "expected a beam whose power gain one scan step (10 deg) off boresight" in err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_cli_estimate_names_a_scenario_table_as_simulate_does(tmp_path, capsys):
    """A scenario's table refused against the PADP's scan step is quoted by its table_path."""
    padp_path = tmp_path / "sim.padp"
    assert main(["simulate", "--scenario", str(scenario_file(tmp_path)), "--out",
                 str(padp_path)]) == 0
    _narrow_table(tmp_path / "narrow.csv", 0.45)
    doc = json.loads(json.dumps(SCENARIO))
    doc["pattern"] = {"kind": "tabulated", "table_path": "narrow.csv"}
    at36 = scenario_file(tmp_path, doc, "at36.json")
    doc["array"]["m"] = 360
    sc = scenario_file(tmp_path, doc, "at360.json")
    assert main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "ok.padp")]) == 0
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(at36), "--out", str(tmp_path / "no.padp")]) == 2
    refusal = capsys.readouterr().err.split(f"{at36}: ", 1)[1]
    assert refusal.startswith("pattern.table_path: ") and refusal.endswith(", got 'narrow.csv'\n")
    assert main(["estimate", "--padp", str(padp_path), "--scenario", str(sc), "--methods", "haed",
                 "--out", str(tmp_path / "est.csv")]) == 2
    assert capsys.readouterr().err.split(f"{sc}: ", 1)[1] == refusal


_HPBW_400 = "expected a beamwidth in [0.1, 180] degrees, got 400.0"
_G_MAX = "expected a gain in dB with a positive finite linear value, got"


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        ("gaussian", "hpbw_deg", 400.0, f"pattern.hpbw_deg: {_HPBW_400}"),
        ("tabulated", "hpbw_deg", 400.0, f"pattern.hpbw_deg: {_HPBW_400}"),
        ("gaussian", "g_max_db", float("nan"), "pattern.g_max_db: expected a finite number, got nan"),
        ("gaussian", "g_max_db", -1e5, f"pattern.g_max_db: {_G_MAX} -100000.0"),
        ("cli", "--hpbw-deg", "400", f"--hpbw-deg: {_HPBW_400}"),
        ("cli", "--gmax-db", "nan", f"--gmax-db: {_G_MAX} nan"),
        ("cli", "--gmax-db", "-1e5", f"--gmax-db: {_G_MAX} -100000.0"),
    ],
    ids=["hpbw", "tabulated-hpbw", "gain-nan", "gain-zero", "cli-hpbw", "cli-gain-nan",
         "cli-gain-zero"],
)
def test_pattern_fields_are_named_in_their_own_units(tmp_path, capsys, where, key, value, message):
    """A bad gain or beamwidth names the scenario field or flag and quotes it in dB or degrees."""
    from padpkit.antenna import gain

    out = tmp_path / "out"
    if where == "cli":
        padp_path = tmp_path / "sim.padp"
        sc = scenario_file(tmp_path)
        assert main(["simulate", "--scenario", str(sc), "--out", str(padp_path)]) == 0
        flags = {"--gmax-db": "20", "--hpbw-deg": "10", key: value}
        argv = ["estimate", "--padp", str(padp_path), *[f"{k}={v}" for k, v in flags.items()]]
    else:
        doc = json.loads(json.dumps(SCENARIO))
        if where == "tabulated":
            deg = np.arange(-180.0, 180.0, 0.25)
            ref = parse_scenario(json.dumps(SCENARIO)).pattern
            rows = [f"{d},{g:.17g}" for d, g in zip(deg, gain(ref, np.radians(deg)))]
            (tmp_path / "beam.csv").write_text("offset_deg,gain\n" + "\n".join(rows) + "\n")
            doc["pattern"] = {"kind": "tabulated", "table_path": "beam.csv"}
        doc["pattern"][key] = value
        argv = ["simulate", "--scenario", str(scenario_file(tmp_path, doc))]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_PARSED_FLAGS = {
    "--trials": ["montecarlo", "--sweep", "output-snr", "--values", "30"],
    "--n": ["offset-study"],
    "--threshold-db": ["estimate", "--padp", "{absent}"],
}


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "0", "expected an integer >= 1 in decimal digits, got '0'"),
        ("--trials", "2.5", "expected an integer >= 1 in decimal digits, got '2.5'"),
        ("--n", "0", "expected an integer >= 1 in decimal digits, got '0'"),
        ("--n", "-3", "expected an integer >= 1 in decimal digits, got '-3'"),
        ("--trials", str(checks.MAX_TRIALS + 1),
         f"expected at most {checks.MAX_TRIALS}, got '{checks.MAX_TRIALS + 1}'"),
        ("--n", str(checks.MAX_DRAWS + 1),
         f"expected at most {checks.MAX_DRAWS}, got '{checks.MAX_DRAWS + 1}'"),
        ("--threshold-db", "-1", "expected a finite number > 0, got -1.0"),
        ("--threshold-db", "inf", "expected a finite number > 0, got inf"),
        ("--threshold-db", "x", "expected a finite number > 0, got 'x'"),
    ],
)
def test_cli_counts_and_threshold_are_checked_when_parsed(tmp_path, capsys, flag, value, message):
    """--trials, --n and --threshold-db exit 2 naming the flag, before any input is read.

    The scenario and PADP paths do not exist: reading either would return 2
    from the command rather than exit while parsing.
    """
    absent = str(tmp_path / "absent")
    argv = [a.format(absent=absent) for a in _PARSED_FLAGS[flag]]
    argv += ["--scenario", absent, flag, value, "--out", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_defaults_are_the_library_defaults():
    """The CLI takes the detection threshold from the library."""
    est = _parser().parse_args(["estimate", "--padp", "x.padp", "--out", "x.csv"])
    mc = _parser().parse_args(["montecarlo", "--scenario", "s.json", "--sweep", "output-snr",
                               "--values", "30", "--out", "x.csv"])
    for args in (est, mc):
        assert args.threshold_db == PeakConfig().noise_floor_db_offset
    config = MonteCarloConfig(sweep_values=(30.0,), mpcs=(MpcTruth(1.0, 0.0, 0.0, 0.0),))
    assert config.peak == PeakConfig()


def test_cli_montecarlo_manifest_records_the_haed_plus_factor(tmp_path):
    sc = scenario_file(tmp_path, SCENARIO)
    out = tmp_path / "mc.csv"
    rc = main(["montecarlo", "--scenario", str(sc), "--sweep", "output-snr", "--values", "30",
               "--trials", "1", "--methods", "haed+", "--out", str(out)])
    assert rc == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["config"]["upsample"] == HAED_PLUS_UPSAMPLE == 16


@pytest.mark.parametrize("command", ["estimate", "montecarlo"])
def test_cli_has_no_upsample_flag(capsys, command):
    """The haed+ factor is a constant: ``--upsample`` is an unknown argument (exit 2)."""
    argv = {
        "estimate": ["estimate", "--padp", "x.padp", "--out", "x.csv"],
        "montecarlo": ["montecarlo", "--scenario", "s.json", "--sweep", "output-snr",
                       "--values", "30", "--out", "x.csv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--upsample", "8"])
    assert exc.value.code == 2
    assert "--upsample" in capsys.readouterr().err


_SEED_ARGV = {
    "simulate": ["simulate", "--scenario", "{sc}", "--out", "{out}"],
    "montecarlo": ["montecarlo", "--scenario", "{sc}", "--sweep", "output-snr", "--values", "30",
                   "--trials", "1", "--out", "{out}"],
    "offset-study": ["offset-study", "--scenario", "{sc}", "--n", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
@pytest.mark.parametrize("command", sorted(_SEED_ARGV))
def test_cli_seed_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    """Every --seed is checked when parsed, before a command reads or writes anything."""
    sc = scenario_file(tmp_path, SCENARIO)
    out = tmp_path / "out.csv"
    argv = [a.format(sc=sc, out=out) for a in _SEED_ARGV[command]]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected an integer >= 0 in decimal digits" in err
    assert not out.exists()
    assert main(argv + ["--seed", "0"]) == 0


def test_cli_parser_is_built_once_and_public_builder_stays_fresh():
    assert _parser() is _parser()
    assert build_parser() is not build_parser()
    build_parser().add_argument("--extra")
    assert "--extra" not in _parser().format_help()


def test_cli_arguments_do_not_leak_between_calls(tmp_path, capsys):
    sc = scenario_file(tmp_path)
    cfr = tmp_path / "scan.npy"
    padp_path = tmp_path / "scan.padp"
    assert main(["simulate", "--scenario", str(sc), "--out", str(padp_path),
                 "--cfr-out", str(cfr)]) == 0
    cfr.unlink()
    assert main(["simulate", "--scenario", str(sc), "--out", str(padp_path)]) == 0
    assert not cfr.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.padp", "scenario.json"]

    assert main(["simulate", "--scenario", str(sc), "--out", str(padp_path),
                 "--cfr-out", str(cfr)]) == 0
    est = tmp_path / "est.csv"
    assert main(["estimate", "--padp", str(padp_path), "--cfr", str(cfr), "--scenario", str(sc),
                 "--methods", "o1,o2,haed,haed+", "--out", str(est)]) == 0
    cfr.unlink()  # a leaked --cfr would now fail to load
    assert main(["estimate", "--padp", str(padp_path), "--scenario", str(sc),
                 "--out", str(est)]) == 0
    methods = {line.split(",")[0] for line in est.read_text().splitlines()[1:]}
    assert methods == {"o1", "o2", "haed"}
    manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
    assert manifest["config"]["methods"] == ["o1", "o2", "haed"]
    capsys.readouterr()


def _default_with(section, key, value):
    doc = json.loads(json.dumps(_DEFAULT_DOC))
    (doc["mpcs"][0] if section == "mpcs" else doc[section])[key] = value
    return doc


_COMMAND_ARGV = {
    "simulate": ["simulate", "--scenario", "{sc}", "--out", "{out}"],
    "crlb": ["crlb", "--scenario", "{sc}", "--sweep", "true-angle", "--values", "0,5",
             "--out", "{out}"],
    "montecarlo": ["montecarlo", "--scenario", "{sc}", "--sweep", "output-snr", "--values", "30",
                   "--trials", "2", "--out", "{out}"],
    "offset-study": ["offset-study", "--scenario", "{sc}", "--n", "3", "--out", "{out}"],
}


@pytest.mark.parametrize(
    "section, key, value, commands, message",
    [
        ("pattern", "hpbw_deg", 1e-7, ("simulate", "crlb", "montecarlo"),
         "pattern.hpbw_deg: expected a beamwidth in [0.1, 180] degrees, got 1e-07"),
        ("pattern", "hpbw_deg", 0.1, ("simulate", "crlb", "montecarlo", "offset-study"),
         "pattern.hpbw_deg: expected a beam whose power gain one scan step (10 deg) off"
         " boresight is a normal float (>= 2.22507e-308), got 0.1"),
        ("pattern", "hpbw_deg", 0.45, ("simulate", "crlb", "montecarlo", "offset-study"),
         "pattern.hpbw_deg: expected a beam whose power gain one scan step (10 deg) off"
         " boresight is a normal float (>= 2.22507e-308), got 0.45"),
        ("sounding", "g_tx", 0.0, ("simulate", "crlb", "montecarlo"),
         "sounding: g_tx: expected an amplitude > 0 with a finite square, got 0.0"),
        ("sounding", "g_tx", -1.0, ("simulate",),
         "sounding: g_tx: expected an amplitude > 0 with a finite square, got -1.0"),
        ("mpcs", "alpha", 1e300, ("simulate", "montecarlo"),
         "mpcs[0]: alpha: expected an amplitude > 0 with a finite square, got 1e+300"),
        ("mpcs", "alpha", 1e153, ("simulate",),
         "the peak cell power sounding.k * pu * g_tx**2 * g_max * (sum of mpcs alpha)**2:"
         " expected a finite number, got inf"),
        ("sounding", "sigma2", 1e300, ("simulate",),
         "sounding: sigma2: expected a noise height in [0, 1.53414e+37], got 1e+300"),
        ("sounding", "pu", 1e300, ("montecarlo",),
         "sigma2 = alpha**2 * pu * g_max / SNR at 30.0 dB: expected a noise height"),
    ],
    ids=["narrow-beam", "beam-under-step-0.1", "beam-under-step-0.45", "no-tx-gain",
         "negative-tx-gain", "huge-alpha", "peak-power", "huge-sigma2", "huge-pu"],
)
def test_cli_refuses_scenario_values_that_would_give_non_finite_output(
    tmp_path, capsys, section, key, value, commands, message
):
    """Each value exits 2 naming its field, with no traceback and no file written."""
    sc = scenario_file(tmp_path, _default_with(section, key, value))
    for command in commands:
        out = tmp_path / f"{command}.out"
        capsys.readouterr()
        argv = [a.format(sc=sc, out=out) for a in _COMMAND_ARGV[command]]
        assert main(argv) == 2, command
        assert message in capsys.readouterr().err, command
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("section, key, value", [("sounding", "pu", 1e300),
                                                 ("sounding", "sigma2", 1e-290)])
def test_cli_crlb_flags_an_overflowed_fisher_matrix_as_overflow(tmp_path, section, key, value):
    """The information overflows the float range: the flag says so, not ``singular``."""
    sc = scenario_file(tmp_path, _default_with(section, key, value))
    out = tmp_path / "crlb.csv"
    assert main(["crlb", "--scenario", str(sc), "--sweep", "true-angle", "--values", "0,5",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["overflow", "overflow"]
    out_ok = tmp_path / "crlb_ok.csv"
    assert main(["crlb", "--scenario", str(DEFAULT_SCENARIO), "--sweep", "true-angle",
                 "--values", "0,5", "--out", str(out_ok)]) == 0
    assert [line.split(",")[-1] for line in out_ok.read_text().splitlines()[1:]] == ["", ""]


def test_cli_estimate_refuses_padp_delays_that_overflow(tmp_path, capsys):
    """k = 8 bins of 1e308 ns: the last delay overflows, so estimate exits 2 naming the step."""
    padp, _ = _tiny_padp(k=8, tau=1e-9)
    path = tmp_path / "far.padp"
    write_padp(path, padp)
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["delay_step_ns"] = 1e308
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="PADP header: delay_step_ns: the last delay"):
        read_padp(path)
    out = tmp_path / "est.csv"
    assert main(["estimate", "--padp", str(path), "--gmax-db", "20", "--hpbw-deg", "10",
                 "--out", str(out)]) == 2
    assert "PADP header: delay_step_ns: the last delay" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["1_0", "+3", " 3", "٣"])
def test_cli_integers_are_ascii_decimal_text(tmp_path, capsys, text):
    """--n, --trials, --seed and a grid's num refuse what int() would read: signs, spaces,
    underscores and non-ASCII digits."""
    sc = scenario_file(tmp_path)
    out = tmp_path / "out.csv"
    for flag, argv in [
        ("--n", ["offset-study", "--scenario", str(sc)]),
        ("--trials", ["montecarlo", "--scenario", str(sc), "--sweep", "output-snr",
                      "--values", "30"]),
        ("--seed", ["simulate", "--scenario", str(sc)]),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={text}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer" in capsys.readouterr().err
    assert main(["crlb", "--scenario", str(sc), "--sweep", "true-angle",
                 f"--values=0:10:{text}", "--out", str(out)]) == 2
    assert f"--values: num: expected an integer >= 1 in decimal digits, got {text!r}" in (
        capsys.readouterr().err
    )
    assert not out.exists()
