"""The input rules of every boundary, each written once.

Scenario fields, PADP headers, flags and constructors call them with their own field
names (None where argparse adds the flag's).  A rule returns the checked value or
raises ``ValueError`` reading ``<field>: expected <rule>, got <value>``.  Bools are
never numbers; arrays are checked by their min and max, so no map-sized mask is formed.
"""

import math
import numbers
import sys

import numpy as np

_MAX = sys.float_info.max
# narrower beams: 1 - cos(hpbw/2) keeps under 11 digits, the 0.01 deg inversion grid 11 points
HPBW_MIN_DEG = 0.1
HPBW_MIN = float(np.radians(HPBW_MIN_DEG))
# the float32 noise draw forms sigma2 * E with E up to 32 ln 2 (synthesis.add_noise)
NOISE_HEIGHT_MAX = float(np.finfo(np.float32).max) / (32.0 * math.log(2.0))


def require(ok, field, rule, value):
    """The primitive of every rule: refuse ``value`` unless ``ok``; one-off rules call it too."""
    if not ok:
        got = repr(value) if len(repr(value)) <= 80 else repr(value)[:72] + " [...]"
        raise ValueError(f"{field + ': ' if field else ''}expected {rule}, got {got}")


def _within(value, field, rule, lo, hi, above=False):
    """``value`` as a float in [lo, hi], or in (lo, hi] when ``above``; a non-number is NaN."""
    x = value
    if type(value) is not float:  # a float skips the ABC checks
        x = math.nan
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                x = float(value)
            except OverflowError:  # an int beyond the float range
                x = math.inf if value > 0 else -math.inf
    require((lo < x if above else lo <= x) and x <= hi, field, rule, value)
    return x


def integer(value, field, low):
    """An integer >= ``low`` (numpy integers count), as an int."""
    ok = (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool))
    ok = ok and value >= low
    require(ok, field, f"an integer >= {low}", value)
    return int(value)


def decimal(text, field, low):
    """An integer >= ``low`` written in ASCII decimal digits: no sign, space or underscore."""
    try:
        value = int(text) if text.isascii() and text.isdecimal() else low - 1
    except ValueError:  # more digits than int() converts
        value = low - 1
    require(value >= low, field, f"an integer >= {low} in decimal digits", text)
    return value


def finite(value, field, low=-_MAX, strict=False):
    """A finite number, >= ``low`` (> ``low`` when ``strict``) when given."""
    bound = "" if low == -_MAX else f" {'>' if strict else '>='} {low:g}"
    return _within(value, field, f"a finite number{bound}", low, _MAX, strict)


def positive(value, field):
    return finite(value, field, 0.0, strict=True)


def amplitude(value, field):
    """A linear amplitude: > 0, with a finite square (its power)."""
    return _within(value, field, "an amplitude > 0 with a finite square", 0.0, _MAX**0.5, True)


def noise_height(value, field):
    rule = f"a noise height in [0, {NOISE_HEIGHT_MAX:.6g}]"
    return _within(value, field, rule, 0.0, NOISE_HEIGHT_MAX)


def hpbw(value, field):
    return _within(value, field, f"a beamwidth in [{HPBW_MIN:.6g}, pi] radians", HPBW_MIN, math.pi)


def hpbw_deg(value, field):
    """A beamwidth in degrees, returned in radians: compared there, as ``hpbw`` compares."""
    rule = f"a beamwidth in [{HPBW_MIN_DEG:g}, 180] degrees"
    x = float(np.radians(_within(value, field, rule, -math.inf, math.inf)))
    require(HPBW_MIN <= x <= math.pi, field, rule, value)
    return x


def gain_db(value, field):
    """A gain in dB whose linear value 10**(value/10) is positive and finite; returns that value."""
    rule = "a gain in dB with a positive finite linear value"
    try:
        g = 10.0 ** (_within(value, field, rule, -_MAX, _MAX) / 10.0)
    except OverflowError:
        g = math.inf
    require(0.0 < g < math.inf, field, rule, value)
    return g


def grid(values, field):
    """A non-empty 1-D grid of finite numbers, as a float64 array (no copy when it is one)."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged sequence
        a = np.empty(0)
    ok = a.ndim == 1 and a.size > 0 and a.dtype.kind in "iuf"
    require(ok, field, "a non-empty 1-D grid of numbers", values)
    return finite_array(a.astype(np.float64, copy=False), field)


def finite_array(values, field, low=None):
    """Finite entries (both parts, if complex), each >= ``low`` when given; ``values`` returned."""
    a = np.asarray(values)
    if np.iscomplexobj(a):  # the real and imaginary parts, as one contiguous real array
        a = np.ascontiguousarray(a).view(a.real.dtype)
    if a.size:
        rule = "finite entries" if low is None else f"finite entries >= {low:g}"
        lo, hi = float(a.min()), float(a.max())  # a NaN reaches both
        require(math.isfinite(lo) and (low is None or lo >= low), field, rule, lo)
        require(math.isfinite(hi), field, rule, hi)
    return values
