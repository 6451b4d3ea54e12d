"""Directional antenna patterns and the adjacent-direction power contrast.

The main-lobe model is a Gaussian beam in amplitude gain,

    g(phi) = sqrt(g_max) * exp(kappa * (cos(phi) - 1)),

whose concentration ``kappa`` is fixed by the half-power beamwidth so that
``g(+-hpbw/2)**2 == g(0)**2 / 2`` exactly.  Calibrated antennas are handled
as tabulated (offset, amplitude gain) pairs with linear interpolation.

``chi`` is the normalized power difference between the boresight pattern
and one of its two neighbours on the scan grid; for the Gaussian beam it
inverts in closed form to the offset angle of the arrival inside the beam.
All angles are radians; external interfaces convert to degrees elsewhere.
"""

import csv
import enum
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .angles import float_or_array, wrap_pm_pi

CHI_CLAMP = 1.0 - 1e-12
DEFAULT_INVERSION_GRID_STEP = np.radians(0.01)


class Side(enum.Enum):
    """Which adjacent scan direction the power contrast is taken against.

    MINUS compares against the neighbour at a lower steering angle,
    PLUS against the neighbour at a higher steering angle.
    """

    MINUS = "minus"
    PLUS = "plus"


class PatternKind(enum.Enum):
    GAUSSIAN_BEAM = "gaussian"
    TABULATED = "tabulated"


class ChiSaturationError(ValueError):
    """Raised when a power contrast is too corrupted to invert (arcsin out of range)."""


def kappa_from_hpbw(hpbw):
    """Concentration parameter of the Gaussian beam for a given HPBW (radians).

    Returns ln(sqrt(2)) / (1 - cos(hpbw / 2)), for hpbw in [0.1 deg, pi]
    (``checks.hpbw``: narrower, 1 - cos cancels to under 11 digits).
    """
    hpbw = checks.hpbw(hpbw, "hpbw")
    return np.log(np.sqrt(2.0)) / (1.0 - np.cos(0.5 * hpbw))


@dataclass(frozen=True)
class AntennaPattern:
    """Azimuth radiation pattern, either closed-form Gaussian beam or tabulated.

    A pattern is built from ``(g_max, hpbw, table=None)``:

    g_max : maximum power gain, linear (20 dB <-> 100.0); for a tabulated
        pattern it must equal the table's peak power gain
    hpbw : half-power beamwidth, radians, in [0.1 deg, pi] (``checks.hpbw``)
    table : (angles, gains) arrays for a tabulated pattern, None for the
        Gaussian beam; angles strictly increasing and covering at least
        [-pi, pi), gains non-negative amplitude gains, at least 4 samples

    ``kind`` and ``kappa`` follow from these and are not arguments:
    ``TABULATED`` with ``kappa`` None when a table is given, otherwise
    ``GAUSSIAN_BEAM`` with ``kappa = kappa_from_hpbw(hpbw)``.  So
    ``dataclasses.replace(pattern, hpbw=...)`` derives a new ``kappa``.

    Patterns compare and hash by value, so equal patterns built separately
    share cache entries (see ``estimation.o2_deembed_constant``).  Tables
    compare with ``np.array_equal`` and hash by their bytes; they are
    stored as read-only float64 copies, so a caller's later in-place write
    cannot change a pattern or its hash, which is computed once.
    """

    g_max: float
    hpbw: float
    table: tuple | None = field(default=None, repr=False)
    kind: PatternKind = field(init=False)
    kappa: float | None = field(init=False)

    def __post_init__(self):
        g_max, hpbw = checks.positive(self.g_max, "g_max"), checks.hpbw(self.hpbw, "hpbw")
        if self.table is None:
            kind, kappa, table = PatternKind.GAUSSIAN_BEAM, kappa_from_hpbw(hpbw), None
        else:
            kind, kappa, table = PatternKind.TABULATED, None, _checked_table(*self.table)
            peak = float(np.max(table[1]) ** 2)
            if g_max != peak:
                raise ValueError(
                    f"g_max must equal the table's peak power gain {peak!r}, got {g_max!r}"
                )
        values = {"g_max": g_max, "hpbw": hpbw, "table": table, "kind": kind, "kappa": kappa}
        for name, value in values.items():
            object.__setattr__(self, name, value)
        table_bytes = None if table is None else tuple(a.tobytes() for a in table)
        object.__setattr__(self, "_hash", hash((kind, g_max, hpbw, kappa, table_bytes)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.g_max, self.hpbw) != (other.g_max, other.hpbw):
            return False
        if self.table is None or other.table is None:
            return self.table is other.table
        return all(np.array_equal(a, b) for a, b in zip(self.table, other.table))

    def __hash__(self):
        return self._hash

    @classmethod
    def gaussian(cls, g_max, hpbw):
        """Gaussian-beam pattern from max power gain (linear) and HPBW (radians)."""
        return cls(g_max, hpbw)

    @classmethod
    def from_table(cls, angles, gains, hpbw=None):
        """Tabulated pattern from (offset angle, amplitude gain) samples.

        ``g_max`` is the table's peak power gain; ``hpbw`` is measured from
        the interpolated half-power crossings when not given explicitly.
        """
        angles, gains = _checked_table(angles, gains)
        if hpbw is None:
            hpbw = _tabulated_hpbw(angles, gains)
        return cls(float(np.max(gains) ** 2), hpbw, table=(angles, gains))


def _checked_table(angles, gains):
    """Read-only float64 copies of a pattern table; ``ValueError`` names the first fault."""
    # + 0.0 copies and turns -0.0 into 0.0, so equal tables have equal bytes
    angles = checks.grid(angles, "table angles") + 0.0
    gains = checks.finite_array(checks.grid(gains, "table gains") + 0.0, "table gains", 0.0)
    sizes = (angles.size, gains.size)
    checks.require(sizes[0] == sizes[1] >= 4, "table", "matching arrays of >= 4 points", sizes)
    checks.require(np.all(np.diff(angles) > 0), "table angles", "a strictly increasing grid", angles)
    covers = angles[0] <= -np.pi and angles[-1] >= np.pi - (angles[1] - angles[0])
    checks.require(covers, "table angles", "a grid covering at least [-pi, pi)", angles)
    angles.flags.writeable = gains.flags.writeable = False
    return angles, gains


def _tabulated_hpbw(angles, gains):
    """Half-power beamwidth from linear interpolation of the power crossings."""
    power = gains**2
    half = np.max(power) / 2.0
    peak = int(np.argmax(power))

    def cross(idx_range):
        for i in idx_range:
            lo, hi = sorted((power[i], power[i + 1]))
            if lo <= half <= hi and power[i] != power[i + 1]:
                frac = (half - power[i]) / (power[i + 1] - power[i])
                return angles[i] + frac * (angles[i + 1] - angles[i])
        raise ValueError("no half-power crossing found in table")

    left = cross(range(peak - 1, -1, -1))
    right = cross(range(peak, len(angles) - 1))
    return right - left


def gain(pattern, offset):
    """Amplitude gain at an offset from boresight (offset wrapped to [-pi, pi)).

    A float offset gives a Python float, equal bit for bit to the
    one-element array's gain: numpy's ufuncs run every transcendental step.
    """
    offset = wrap_pm_pi(offset)
    if pattern.kind is PatternKind.GAUSSIAN_BEAM:
        out = np.sqrt(pattern.g_max) * np.exp(pattern.kappa * (np.cos(offset) - 1.0))
    else:
        angles, gains = pattern.table
        # extend one period upward so wrapped offsets near +pi interpolate
        ext_a = np.concatenate([angles, angles[:1] + 2.0 * np.pi])
        ext_g = np.concatenate([gains, gains[:1]])
        out = np.interp(offset, ext_a, ext_g)
    return _float_unless_array(out)


def _float_unless_array(out):
    """A scalar result as a Python float, an array result as it is.

    Scalar arguments give floats or numpy scalars here (ufuncs return
    those for 0-d arrays too), so ``isinstance`` tells them apart; it
    costs a tenth of ``np.ndim``.
    """
    return out if isinstance(out, np.ndarray) else float(out)


def power_gain(pattern, offset):
    """Power gain g(offset)**2; a float offset gives a float, as for ``gain``."""
    g = gain(pattern, offset)
    return g * g


def chi(pattern, eps, side, spacing=None):
    """Normalized power difference against one adjacent scan direction.

    chi = (g2(eps) - g2(eps -+ spacing)) / (g2(eps) + g2(eps -+ spacing)),
    where Side.MINUS compares against the lower neighbour (shift +spacing in
    the pattern argument) and Side.PLUS against the upper one (-spacing).
    ``spacing`` defaults to the pattern HPBW, matching a scan grid whose
    step equals the beamwidth; pass the actual angular sampling interval
    when the two differ.
    """
    if spacing is None:
        spacing = pattern.hpbw
    shift = spacing if side is Side.MINUS else -spacing
    p0 = power_gain(pattern, eps)
    p1 = power_gain(pattern, np.asarray(eps, dtype=np.float64) + shift)
    return _float_unless_array((p0 - p1) / (p0 + p1))


def invert_chi_closed(chi_val, side, hpbw, kappa, spacing=None):
    """Offset angle from a power contrast, exact for the Gaussian beam.

    Inverts ``chi`` via the product-to-sum identity underlying the Gaussian
    beam: ln((1+chi)/(1-chi)) = 4*kappa*sin(spacing/2)*sin(eps +- spacing/2).
    ``hpbw`` only names the beam; the neighbour shift is ``spacing``
    (defaulting to hpbw).

    Raises ChiSaturationError when the arcsin argument falls outside
    [-1, 1] (numerically corrupted chi); ``invert_chi`` clamps chi first
    and turns that error into the beam edge.
    """
    if spacing is None:
        spacing = hpbw
    chi_val = float_or_array(chi_val)
    if _max_abs(chi_val) >= 1.0:
        raise ValueError("chi must lie strictly inside (-1, 1); clamp before inverting")
    log_ratio = np.log((chi_val + 1.0) / (1.0 - chi_val))
    sign = 1.0 if side is Side.MINUS else -1.0
    arg = sign * log_ratio / (4.0 * kappa * np.sin(0.5 * spacing))
    if _max_abs(arg) > 1.0:
        raise ChiSaturationError(f"arcsin argument out of range (max |arg| = {_max_abs(arg):.6g})")
    eps = np.arcsin(arg) - sign * 0.5 * spacing
    return _float_unless_array(eps)


def _max_abs(x):
    """max |x| of a float or an array (0.0 for an empty one; NaN stays NaN)."""
    return abs(x) if isinstance(x, float) else np.max(np.abs(x), initial=0.0)


def invert_chi_tabulated(chi_hat, side, pattern, spacing=None):
    """Offset angle minimizing |chi_hat - chi(eps)| on a discretized grid.

    Works for any pattern kind; the search covers [-hpbw/2, hpbw/2] at
    ``DEFAULT_INVERSION_GRID_STEP`` resolution (0.01 deg) and breaks exact
    ties toward the smaller |eps|.
    """
    half = 0.5 * pattern.hpbw
    n = max(int(round(half / DEFAULT_INVERSION_GRID_STEP)), 1)
    eps_grid = np.linspace(-half, half, 2 * n + 1)
    errs = np.abs(chi_hat - chi(pattern, eps_grid, side, spacing=spacing))
    best = errs == errs.min()
    candidates = eps_grid[best]
    return float(candidates[np.argmin(np.abs(candidates))])


def invert_chi(pattern, chi_hat, side, spacing):
    """Offset and flag ``(eps, clamped)`` of a measured float contrast: haed's one inversion rule.

    A contrast at or beyond +-``CHI_CLAMP`` (an adjacent power underflowing
    to ~0) is clamped there and flagged.  A Gaussian beam inverts in closed
    form, any other pattern by grid search; a saturated arcsin (flagged)
    gives the beam edge on the stronger neighbour's side, +hpbw/2 on MINUS
    and -hpbw/2 on PLUS.  A flagged offset is clipped into [-hpbw/2, hpbw/2].
    """
    clamped = abs(chi_hat) >= CHI_CLAMP
    if clamped:
        chi_hat = CHI_CLAMP if chi_hat > 0 else -CHI_CLAMP
    half = 0.5 * pattern.hpbw
    if pattern.kind is PatternKind.GAUSSIAN_BEAM:
        try:
            eps = invert_chi_closed(chi_hat, side, pattern.hpbw, pattern.kappa, spacing=spacing)
        except ChiSaturationError:
            return (half if side is Side.MINUS else -half), True
    else:
        eps = invert_chi_tabulated(chi_hat, side, pattern, spacing=spacing)
    return (min(max(eps, -half), half) if clamped else eps), clamped


def load_pattern_csv(path, hpbw=None):
    """Load a tabulated pattern from a two-column CSV (offset_deg, gain).

    The header line must be ``offset_deg,gain``; gains are linear amplitude.
    A row without two numbers is refused naming ``path`` and its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["offset_deg", "gain"]:
            raise ValueError(f"{path}: expected header 'offset_deg,gain', got {header!r}")
        rows = []
        for r in filter(None, reader):
            try:
                rows.append((float(r[0]), float(r[1])))
            except (IndexError, ValueError):  # a short row, or a cell that is no number
                raise ValueError(f"{path}: line {reader.line_num}: expected two numbers") from None
    if not rows:
        raise ValueError(f"{path}: empty pattern table")
    deg, g = zip(*rows)
    return AntennaPattern.from_table(np.radians(deg), np.asarray(g), hpbw=hpbw)
