import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padpkit.angles import wrap_pm_pi, wrap_two_pi
from padpkit.antenna import (
    CHI_CLAMP,
    DEFAULT_INVERSION_GRID_STEP,
    AntennaPattern,
    ChiSaturationError,
    Side,
    chi,
    clamp_chi,
    gain,
    invert_chi_closed,
    invert_chi_tabulated,
    kappa_from_hpbw,
    load_pattern_csv,
    power_gain,
)

# Frozen by direct evaluation of ln(sqrt(2)) / (1 - cos(hpbw/2)).
KAPPA_10DEG = 91.0765028993326
KAPPA_60DEG = 2.5868604949728358
# Frozen by direct evaluation of 10 * exp(kappa * (cos(10 deg) - 1)).
GAIN_10DEG_OFFSET = 2.506602789766509
# Frozen by direct evaluation of (1 - e) / (1 + e), e = exp(2*kappa*(cos(10 deg) - 1)).
CHI_AT_ZERO_MINUS = 0.8817674671625685


def test_kappa_values():
    np.testing.assert_allclose(kappa_from_hpbw(np.radians(10.0)), KAPPA_10DEG, rtol=1e-12)
    np.testing.assert_allclose(kappa_from_hpbw(np.radians(60.0)), KAPPA_60DEG, rtol=1e-12)
    np.testing.assert_allclose(kappa_from_hpbw(np.pi), np.log(np.sqrt(2.0)), rtol=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.1, np.pi + 1e-6, 7.0])
def test_kappa_domain(bad):
    with pytest.raises(ValueError):
        kappa_from_hpbw(bad)


@pytest.mark.parametrize("hpbw_deg", [5.0, 10.0, 30.0, 60.0, 120.0])
def test_half_power_definition(hpbw_deg):
    pat = AntennaPattern.gaussian(100.0, np.radians(hpbw_deg))
    for sign in (-1.0, 1.0):
        np.testing.assert_allclose(
            power_gain(pat, sign * pat.hpbw / 2.0), power_gain(pat, 0.0) / 2.0, rtol=1e-9
        )


def test_gain_values(pat10):
    assert gain(pat10, 0.0) == pytest.approx(10.0, rel=1e-12)
    assert gain(pat10, np.radians(5.0)) == pytest.approx(10.0 / np.sqrt(2.0), rel=1e-12)
    assert gain(pat10, np.radians(10.0)) == pytest.approx(GAIN_10DEG_OFFSET, rel=1e-12)


def test_gain_even_and_periodic(pat10):
    x = np.linspace(-np.pi, np.pi, 721)
    np.testing.assert_allclose(gain(pat10, x), gain(pat10, -x), rtol=1e-12)
    np.testing.assert_allclose(gain(pat10, x + 2 * np.pi), gain(pat10, x), rtol=1e-12)


def test_pattern_validation():
    with pytest.raises(ValueError):
        AntennaPattern.gaussian(-1.0, np.radians(10.0))
    with pytest.raises(ValueError):
        AntennaPattern.gaussian(100.0, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="g_max"):
            AntennaPattern.gaussian(bad, np.radians(10.0))
    # kappa follows from hpbw, so it is not an argument
    with pytest.raises(TypeError, match="kappa"):
        AntennaPattern(100.0, np.radians(10.0), kappa=50.0)


def _gaussian_table(g_max=100.0, hpbw_deg=10.0, step_deg=0.05):
    ref = AntennaPattern.gaussian(g_max, np.radians(hpbw_deg))
    ang = np.arange(-180.0, 180.0, step_deg)
    return np.radians(ang), gain(ref, np.radians(ang)), ref


def test_tabulated_matches_gaussian():
    ang, g, ref = _gaussian_table()
    tab = AntennaPattern.from_table(ang, g)
    x = np.linspace(-np.pi, np.pi, 1001, endpoint=False)
    np.testing.assert_allclose(gain(tab, x), gain(ref, x), rtol=2e-4, atol=1e-9)
    assert tab.g_max == pytest.approx(100.0, rel=1e-6)
    assert np.degrees(tab.hpbw) == pytest.approx(10.0, abs=0.01)


def test_tabulated_validation():
    ang, g, _ = _gaussian_table()
    with pytest.raises(ValueError):
        AntennaPattern.from_table(ang[::-1], g)
    with pytest.raises(ValueError):
        AntennaPattern.from_table(ang, -g)
    with pytest.raises(ValueError):
        AntennaPattern.from_table(ang[: len(ang) // 2], g[: len(g) // 2])
    bad = g.copy()
    bad[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        AntennaPattern.from_table(ang, bad, hpbw=np.radians(10.0))


def test_tabulated_patterns_compare_and_hash_by_value():
    ang, g, _ = _gaussian_table()
    a = AntennaPattern.from_table(ang, g)
    b = AntennaPattern.from_table(ang.copy(), g.copy())
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    g_other = g.copy()
    g_other[100] *= 1.0 + 1e-12
    c = AntennaPattern.from_table(ang, g_other, hpbw=a.hpbw)
    assert a != c
    assert a != AntennaPattern.gaussian(a.g_max, a.hpbw)
    # -0.0 and 0.0 samples are equal values, so they must hash alike
    ang_nz, g_nz = ang.copy(), g.copy()
    g_nz[0] = 0.0
    g_z = g_nz.copy()
    g_z[0] = -0.0
    assert hash(AntennaPattern.from_table(ang_nz, g_nz)) == hash(AntennaPattern.from_table(ang_nz, g_z))


def test_tabulated_hash_is_computed_once():
    ang, g, _ = _gaussian_table()
    a = AntennaPattern.from_table(ang, g)
    b = AntennaPattern.from_table(list(ang), list(g))
    assert a == b and hash(a) == hash(b)
    # the lookup reads the stored hash, not the tables
    object.__setattr__(a, "table", None)
    assert hash(a) == hash(b)


def test_tabulated_table_is_a_read_only_copy():
    ang, g, _ = _gaussian_table()
    pat = AntennaPattern.from_table(ang, g)
    before = hash(pat)
    g[:] = 0.0
    assert hash(pat) == before
    for arr in pat.table:
        assert arr.dtype == np.float64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # direct construction from plain sequences stores arrays as well
    direct = AntennaPattern(1.0, np.pi, table=(list(ang), [1.0] * len(ang)))
    assert all(isinstance(arr, np.ndarray) and not arr.flags.writeable for arr in direct.table)


def test_pattern_kind_and_kappa_follow_from_the_table():
    """``kind`` and ``kappa`` are derived, never passed, so they cannot contradict the rest."""
    from dataclasses import replace

    from padpkit.antenna import PatternKind

    ang, g, ref = _gaussian_table()
    assert (ref.kind, ref.kappa) == (PatternKind.GAUSSIAN_BEAM, kappa_from_hpbw(ref.hpbw))
    tab = AntennaPattern(ref.g_max, ref.hpbw, table=(ang, g))
    assert (tab.kind, tab.kappa) == (PatternKind.TABULATED, None)
    wider = replace(ref, hpbw=np.radians(11.0))
    assert wider == AntennaPattern.gaussian(ref.g_max, np.radians(11.0))
    assert wider.kappa == kappa_from_hpbw(np.radians(11.0))
    assert hash(wider) == hash(AntennaPattern.gaussian(ref.g_max, np.radians(11.0)))


@pytest.mark.parametrize("case", ["gaussian_list_table", "gaussian_array_table", "tabulated_kappa"])
def test_pattern_rejects_contradictory_fields(case):
    """A Gaussian beam takes no table and a tabulated pattern no kappa."""
    from dataclasses import replace

    from padpkit.antenna import PatternKind

    ang, g, ref = _gaussian_table()
    if case == "tabulated_kappa":
        name, value, table = "kappa", ref.kappa, (ang, g)
    else:
        name, value = "kind", PatternKind.GAUSSIAN_BEAM
        table = (list(ang), list(g)) if case == "gaussian_list_table" else (ang, g)
    with pytest.raises(TypeError, match=name):
        AntennaPattern(ref.g_max, ref.hpbw, table=table, **{name: value})
    tab = AntennaPattern(ref.g_max, ref.hpbw, table=table)
    assert (tab.kind, tab.kappa) == (PatternKind.TABULATED, None)
    with pytest.raises(ValueError, match=name):
        replace(tab, **{name: value})


@pytest.mark.parametrize("case", ["three_samples", "mismatched_lengths", "two_d", "g_max_not_peak"])
def test_direct_construction_checks_the_table(case):
    """The constructor checks a table as ``from_table`` does, and ties g_max to its peak."""
    ang, g, ref = _gaussian_table()
    table, g_max, match = {
        "three_samples": ((ang[:3], g[:3]), 100.0, ">= 4 points"),
        "mismatched_lengths": ((ang, g[:-1]), 100.0, "matching"),
        "two_d": ((np.stack([ang, ang]), np.stack([g, g])), 100.0, "1-D"),
        "g_max_not_peak": ((ang, g), 7.0, "peak power gain"),
    }[case]
    with pytest.raises(ValueError, match=match):
        AntennaPattern(g_max, ref.hpbw, table=table)


def test_gaussian_equality_and_hash_unchanged():
    a = AntennaPattern.gaussian(100.0, np.radians(10.0))
    b = AntennaPattern.gaussian(100.0, np.radians(10.0))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.kind, a.g_max, a.hpbw, a.kappa, None))
    assert a != AntennaPattern.gaussian(100.0, np.radians(10.5))
    assert a != AntennaPattern.gaussian(101.0, np.radians(10.0))
    assert a != "pattern"


def test_chi_symmetry_zeros(pat10):
    half = pat10.hpbw / 2.0
    assert chi(pat10, -half, Side.MINUS) == pytest.approx(0.0, abs=1e-12)
    assert chi(pat10, +half, Side.PLUS) == pytest.approx(0.0, abs=1e-12)


def test_chi_at_boresight(pat10):
    assert chi(pat10, 0.0, Side.MINUS) == pytest.approx(CHI_AT_ZERO_MINUS, rel=1e-12)
    assert chi(pat10, 0.0, Side.PLUS) == pytest.approx(CHI_AT_ZERO_MINUS, rel=1e-12)


def test_chi_strictly_increasing(pat10):
    eps = np.linspace(-pat10.hpbw / 2.0, pat10.hpbw / 2.0, 1001)
    vals = chi(pat10, eps, Side.MINUS)
    assert np.all(np.diff(vals) > 0)


def test_invert_closed_trivial(pat10):
    half = pat10.hpbw / 2.0
    assert invert_chi_closed(0.0, Side.MINUS, pat10.hpbw, pat10.kappa) == pytest.approx(-half)
    assert invert_chi_closed(0.0, Side.PLUS, pat10.hpbw, pat10.kappa) == pytest.approx(+half)


@pytest.mark.parametrize("side", [Side.MINUS, Side.PLUS])
def test_roundtrip_closed(pat10, side):
    eps = np.arange(-5.0, 5.0 + 1e-9, 0.01)
    eps = np.radians(eps)
    rec = invert_chi_closed(chi(pat10, eps, side), side, pat10.hpbw, pat10.kappa)
    assert np.max(np.abs(rec - eps)) < 1e-9


def test_roundtrip_spacing_differs_from_hpbw():
    # scan step 10 deg under a 10.67 deg beam: inversion stays exact when the
    # actual neighbour spacing is used
    pat = AntennaPattern.gaussian(10.0 ** 2.46, np.radians(10.67))
    spacing = np.radians(10.0)
    eps = np.radians(np.linspace(-5.0, 5.0, 101))
    c = chi(pat, eps, Side.MINUS, spacing=spacing)
    rec = invert_chi_closed(c, Side.MINUS, pat.hpbw, pat.kappa, spacing=spacing)
    assert np.max(np.abs(rec - eps)) < 1e-9


def test_invert_closed_rejects_bad_chi(pat10):
    with pytest.raises(ValueError):
        invert_chi_closed(1.0, Side.MINUS, pat10.hpbw, pat10.kappa)
    with pytest.raises(ValueError):
        invert_chi_closed(-1.2, Side.PLUS, pat10.hpbw, pat10.kappa)


def test_invert_closed_saturation():
    # wide beam: a clamped chi of 1 - 1e-12 still pushes arcsin out of range
    pat = AntennaPattern.gaussian(100.0, np.radians(60.0))
    with pytest.raises(ChiSaturationError):
        invert_chi_closed(1.0 - 1e-12, Side.MINUS, pat.hpbw, pat.kappa)


def test_invert_tabulated_self_consistency(pat10):
    eps_true = np.radians(2.003)
    c = chi(pat10, eps_true, Side.MINUS)
    rec = invert_chi_tabulated(c, Side.MINUS, pat10)
    assert abs(rec - eps_true) <= np.radians(0.01)


def test_invert_tabulated_zero_chi(pat10):
    assert invert_chi_tabulated(0.0, Side.MINUS, pat10) == pytest.approx(
        -pat10.hpbw / 2.0, abs=1e-12
    )


def test_invert_tabulated_matches_closed(pat10):
    for chi_hat in (0.5, 0.1, 0.85):
        closed = invert_chi_closed(chi_hat, Side.MINUS, pat10.hpbw, pat10.kappa)
        grid = invert_chi_tabulated(chi_hat, Side.MINUS, pat10)
        assert abs(closed - grid) <= np.radians(0.01)


def test_invert_tabulated_tie_breaks_toward_zero():
    # constant-gain table makes chi identically zero, so every grid point ties
    ang = np.radians(np.arange(-180.0, 180.0, 1.0))
    tab = AntennaPattern.from_table(ang, np.ones_like(ang), hpbw=np.radians(10.0))
    assert invert_chi_tabulated(0.3, Side.MINUS, tab) == pytest.approx(0.0, abs=1e-15)


def test_clamp_chi():
    assert clamp_chi(0.5) == (0.5, False)
    val, flagged = clamp_chi(1.0)
    assert flagged and val == pytest.approx(1.0 - 1e-12)
    val, flagged = clamp_chi(-5.0)
    assert flagged and val == pytest.approx(-(1.0 - 1e-12))


def test_pattern_csv_roundtrip(tmp_path, pat10):
    path = tmp_path / "pattern.csv"
    deg = np.arange(-180.0, 180.0, 0.25)
    g = gain(pat10, np.radians(deg))
    lines = ["offset_deg,gain"] + [f"{d},{v:.17g}" for d, v in zip(deg, g)]
    path.write_text("\n".join(lines) + "\n")
    tab = load_pattern_csv(path)
    x = np.radians(np.linspace(-20.0, 20.0, 161))
    np.testing.assert_allclose(gain(tab, x), gain(pat10, x), rtol=5e-3, atol=1e-12)


def test_pattern_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("angle,gain\n0,1\n")
    with pytest.raises(ValueError, match="offset_deg"):
        load_pattern_csv(path)


def test_pattern_csv_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("offset_deg,gain\n0,1\n5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_pattern_csv(path)


def _branch_draw(hpbw_deg, ratio, side, frac):
    """A Gaussian beam, a spacing, and an in-beam offset on the closed form's arcsin branch.

    The spacing is ``ratio`` beamwidths, at most the 120 deg step of a
    3-direction scan.  ``theta = eps +- spacing/2`` is the arcsin angle of
    the inversion; the draw keeps it 1e-3 rad inside (-pi/2, pi/2), the
    principal branch, and keeps the contrast below the clamp.
    """
    pat = AntennaPattern.gaussian(100.0, np.radians(hpbw_deg))
    spacing = min(ratio * pat.hpbw, 2.0 * np.pi / 3.0)
    eps = frac * 0.5 * pat.hpbw
    theta = eps + (0.5 if side is Side.MINUS else -0.5) * spacing
    assume(abs(theta) < 0.5 * np.pi - 1e-3)
    c = chi(pat, eps, side, spacing=spacing)
    assume(abs(c) < CHI_CLAMP)
    return pat, spacing, eps, theta, c


_CHI_DRAW = dict(
    hpbw_deg=st.floats(2.0, 180.0),
    ratio=st.floats(0.05, 1.0),
    side=st.sampled_from(Side),
    frac=st.floats(-1.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(**_CHI_DRAW)
def test_closed_inversion_round_trip(hpbw_deg, ratio, side, frac):
    """invert_chi_closed(chi(eps)) == eps to a rounding-error bound.

    The powers carry an exponent rounding error of order kappa * u, which
    the log-ratio inherits; dividing by 4 kappa sin(s/2) leaves
    u / sin(s/2) in the arcsin argument, and the arcsin amplifies that by
    1 / cos(theta).  The bound is 16 u / (sin(s/2) cos(theta)); the largest
    error seen over 200000 random draws was 4.1 in these units.
    """
    pat, spacing, eps, theta, c = _branch_draw(hpbw_deg, ratio, side, frac)
    rec = invert_chi_closed(c, side, pat.hpbw, pat.kappa, spacing=spacing)
    u = np.finfo(np.float64).eps
    assert abs(rec - eps) <= 16.0 * u / (np.sin(0.5 * spacing) * np.cos(theta))


@settings(max_examples=100, deadline=None)
@given(**_CHI_DRAW)
def test_tabulated_inversion_round_trip(hpbw_deg, ratio, side, frac):
    """invert_chi_tabulated on a 0.01 deg table of the beam returns eps within a derived tolerance.

    Tolerance = one step of the inversion grid + twice the first-order
    offset error from the table's interpolation error:
    * linear interpolation of the amplitude with table step h has relative
      error <= h**2/8 * |g''/g| = h**2/8 * (kappa + kappa**2 sin(x)**2),
      and the power twice that (x taken one step further out);
    * a relative power error r0 at eps and r1 at the neighbour moves chi by
      at most (1 - chi**2)/2 * (r0 + r1);
    * d chi / d eps = (1 - chi**2)/2 * 4 kappa sin(s/2) cos(theta).
    The grid search is one-to-one only if the other arcsin branch lies
    outside the searched beam, which fails for beams wider than about
    2 pi - 2 s; those draws are skipped.
    """
    pat, spacing, eps, theta, c = _branch_draw(hpbw_deg, ratio, side, frac)
    sign = 1.0 if side is Side.MINUS else -1.0
    half = 0.5 * pat.hpbw
    mirror = (np.pi if theta > 0 else -np.pi) - theta - sign * 0.5 * spacing
    assume(abs(mirror) > half)
    h = np.radians(0.01)
    angles = np.linspace(-np.pi, np.pi, 36001)
    table = AntennaPattern.from_table(angles, gain(pat, angles), hpbw=pat.hpbw)
    rec = invert_chi_tabulated(c, side, table, spacing=spacing)

    def rel_power_err(x):
        x = min(abs(x) + h, 0.5 * np.pi)
        return 2.0 * h**2 / 8.0 * (pat.kappa + pat.kappa**2 * np.sin(x) ** 2)

    d_chi = 0.5 * (1.0 - c * c) * (rel_power_err(eps) + rel_power_err(eps + sign * spacing))
    slope = 0.5 * (1.0 - c * c) * 4.0 * pat.kappa * np.sin(0.5 * spacing) * np.cos(theta)
    grid_step = half / max(int(round(half / DEFAULT_INVERSION_GRID_STEP)), 1)
    assert abs(rec - eps) <= grid_step + 2.0 * d_chi / slope


@pytest.mark.parametrize("hpbw", [1e-9, 1e-7, np.radians(0.0999)])
def test_beams_narrower_than_a_tenth_of_a_degree_are_refused(hpbw):
    """Below 0.1 deg, 1 - cos(hpbw/2) cancels: at 1e-9 rad kappa would be inf."""
    with pytest.raises(ValueError, match=r"^hpbw: expected a beamwidth in \[0.00174533, pi\]"):
        kappa_from_hpbw(hpbw)
    with pytest.raises(ValueError, match="^hpbw: expected a beamwidth"):
        AntennaPattern.gaussian(100.0, hpbw)


def test_the_narrowest_beam_keeps_kappa_accurate():
    """At 0.1 deg the cancelling form agrees with 2 sin^2(hpbw/4) to about 1e-11."""
    hpbw = np.radians(0.1)
    kappa = kappa_from_hpbw(hpbw)
    exact = np.log(np.sqrt(2.0)) / (2.0 * np.sin(hpbw / 4.0) ** 2)
    assert kappa == pytest.approx(exact, rel=1e-10)
    pat = AntennaPattern.gaussian(100.0, hpbw)
    assert gain(pat, 0.0) == pytest.approx(10.0, rel=1e-15)
    assert power_gain(pat, hpbw / 2.0) == pytest.approx(50.0, rel=1e-6)


def _same_bits(got, one_element):
    """``got`` is a Python float holding the bits of the 1-element array ``one_element``."""
    assert type(got) is float
    assert one_element.shape == (1,)
    assert np.array([got]).tobytes() == one_element.tobytes()


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=np.pi)
@example(x=-np.pi)
@example(x=2.0 * np.pi)
@example(x=-0.0)
@example(x=-1e-300)
@example(x=np.nextafter(-np.pi, 0.0))
def test_wraps_of_a_float_are_bit_for_bit_their_array_wraps(x):
    """Python's ``%`` on a float is ``np.mod``'s floored remainder, bit for bit."""
    for wrap in (wrap_pm_pi, wrap_two_pi):
        want = wrap(np.array([x]))
        _same_bits(wrap(x), want)
        _same_bits(wrap(np.float64(x)), want)


# pattern: a 10 deg Gaussian beam, tabulated every 0.05 deg
_TAB_ANGLES = np.radians(np.arange(-180.0, 180.0, 0.05))
_TAB10 = AntennaPattern.from_table(
    _TAB_ANGLES, gain(AntennaPattern.gaussian(100.0, np.radians(10.0)), _TAB_ANGLES)
)


@settings(max_examples=300, deadline=None)
@given(offset=st.floats(-10.0, 10.0), tabulated=st.booleans())
@example(offset=-0.09832976367260376, tabulated=False)  # math.exp differs from np.exp here
@example(offset=np.pi, tabulated=True)
def test_gains_of_a_float_are_bit_for_bit_their_array_gains(pat10, offset, tabulated):
    pat = _TAB10 if tabulated else pat10
    for helper in (gain, power_gain):
        want = helper(pat, np.array([offset]))
        _same_bits(helper(pat, offset), want)
        _same_bits(helper(pat, np.float64(offset)), want)


@settings(max_examples=300, deadline=None)
@given(chi_val=st.floats(-0.999999, 0.999999), side=st.sampled_from(Side), spacing_deg=st.floats(2.0, 20.0))
@example(chi_val=0.6901281715646008, side=Side.MINUS, spacing_deg=10.0)  # math.log differs here
@example(chi_val=0.6819471651927442, side=Side.MINUS, spacing_deg=10.0)  # and math.asin here
@example(chi_val=-0.3, side=Side.PLUS, spacing_deg=7.5)
@example(chi_val=0.99999, side=Side.MINUS, spacing_deg=2.0)  # arcsin argument beyond 1
def test_closed_inversion_of_a_float_is_bit_for_bit_its_array_inversion(
    pat10, chi_val, side, spacing_deg
):
    """Both sides and any spacing; a saturated contrast raises the same error on both forms."""
    spacing = np.radians(spacing_deg)
    args = (side, pat10.hpbw, pat10.kappa)
    try:
        want = invert_chi_closed(np.array([chi_val]), *args, spacing=spacing)
    except ChiSaturationError as err:
        with pytest.raises(ChiSaturationError, match=f"^{re.escape(str(err))}$"):
            invert_chi_closed(chi_val, *args, spacing=spacing)
        return
    _same_bits(invert_chi_closed(chi_val, *args, spacing=spacing), want)
    _same_bits(invert_chi_closed(np.float64(chi_val), *args, spacing=spacing), want)


def test_scalar_forms_keep_their_results_for_ints_and_0d_arrays(pat10):
    """An int or a 0-d array still gives a float where it did, a numpy scalar for a wrap."""
    assert type(gain(pat10, 0)) is float and type(power_gain(pat10, np.array(0.1))) is float
    assert type(invert_chi_closed(np.array(0.2), Side.PLUS, pat10.hpbw, pat10.kappa)) is float
    assert type(chi(pat10, np.array(0.01), Side.MINUS)) is float
    assert wrap_two_pi(np.array(7.0)) == wrap_two_pi(7.0)
    assert invert_chi_closed(np.empty(0), Side.PLUS, pat10.hpbw, pat10.kappa).shape == (0,)
