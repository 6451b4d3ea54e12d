"""Multipath extraction from power-angle-delay profiles.

Three estimators share the PADP input:

* o-1: per delay bin keep the strongest scan direction, find 1-D delay
  peaks, de-embed power by the boresight power gain.  Angle is quantized
  to the scan grid.
* o-2: per delay bin sum all scan directions, find 1-D delay peaks,
  de-embed by a ring constant (see ``o2_deembed_constant``).  Angle is
  quantized exactly as in o-1.
* haed: find 2-D local maxima over (scan direction, delay), then refine
  each angle inside the beam from the power contrast against the stronger
  adjacent direction.  ``antenna.invert_chi`` inverts the contrast, in
  closed form (Gaussian beam) or by grid search on a tabulated pattern;
  the refinement then corrects the power by the pattern roll-off at the
  refined offset.  ``haed_plus_refine`` additionally re-reads delay and
  power on a band-limited interpolation of the aligned row.  It reads the
  complex delay responses (``Padp.h``), which power-only PADPs cannot
  supply, through the periodic Dirichlet kernel, and inverts no row.

Powers are reported de-embedded (boresight gain removed) so the three
methods share units; for a unit-amplitude arrival the de-embedded peak is
K * pu * g_tx**2.
"""

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import checks, kernels
from .angles import wrap_two_pi
from .antenna import Side, invert_chi, power_gain
from .synthesis import _band_start_ramp, _read_only

RELATIVE_FLOOR = 1e-12
HAED_PLUS_UPSAMPLE = 16  # haed+ sub-bin interpolation factor
_LN2 = float(np.log(2.0))  # the median of Exp(1)


class Method(enum.Enum):
    O1 = "o1"
    O2 = "o2"
    HAED = "haed"
    HAED_PLUS = "haed+"


@dataclass(frozen=True)
class PeakConfig:
    """Peak detection: a peak must clear the noise floor by ``noise_floor_db_offset`` dB."""

    noise_floor_db_offset: float = 6.0

    def __post_init__(self):
        checks.positive(self.noise_floor_db_offset, "noise_floor_db_offset")


@dataclass(frozen=True)
class MpcEstimate:
    """One extracted multipath component.

    tau in seconds, phi wrapped to [0, 2*pi), power linear and
    antenna-de-embedded.  The contrast fields (chi_hat, eps, side) are
    populated by the in-beam refinement only.
    """

    tau: float
    phi: float
    power: float
    method: Method
    chi_hat: float | None = None
    eps: float | None = None
    side: Side | None = None
    clamped: bool = False
    scan_index: int | None = field(default=None, repr=False)
    delay_index: int | None = field(default=None, repr=False)


def _median(v, lo=None):
    """Median of a 1-D float64 array >= 0, bit-identical to ``np.median`` but for a zero's sign.

    ``lo`` is ``v.min()`` when the caller has taken it.  When more than half
    the input is zero (a noise-free map off its arrivals' delay bins, or a
    pattern's nulls) the median is 0, whatever the other values, and it is
    returned as +0.0 without partitioning: ``np.partition`` is about ten times
    slower on so many ties.  The ``min`` guard keeps inputs with no zero, such
    as noisy maps, off the count.  Otherwise one partition around the upper
    middle element, on the bits as int64 keys: finite floats >= 0 sort as
    their IEEE-754 bit patterns do (-0.0 just below +0.0), integers partition
    a third faster, and the elements selected are input values, so the result
    is exact at every numpy dispatch level.  For even n the lower middle
    element is the largest of the half below it; a zero there enters as
    0.5 * (+-0 + x) = 0.5 * x, and a zero in the upper middle means a zero
    majority.
    """
    n = v.size
    if (v.min() if lo is None else lo) <= 0 and 2 * np.count_nonzero(v == 0) > n:
        return 0.0
    part = np.partition(v.view(np.int64), n // 2).view(np.float64)
    if n % 2:
        return float(part[n // 2])
    return float(0.5 * (part[: n // 2].max() + part[n // 2]))


@functools.lru_cache(maxsize=32)
def _log_size(n):
    """ln(max(n, 2)), the noise-extreme factor of an n-cell map, once per size."""
    return float(np.log(max(n, 2)))


def noise_threshold(values, pk):
    """Detection threshold from a robust noise-floor estimate.

    The median of the map estimates the noise power scale (median of an
    exponential is sigma2 * ln 2); scaling by ln(n_bins) accounts for the
    expected extreme of that many noise bins, and the configured dB offset
    sits on top.  A relative floor of 1e-12 of the map maximum keeps the
    threshold meaningful on noise-free synthetic maps, whose median is 0
    when most cells are exact zeros (``_median`` then skips its partition).
    A NaN, infinite or negative entry is refused with a ``ValueError`` naming
    ``values``, read off the map's min and max, which the threshold takes
    anyway; what passes sorts as its IEEE-754 bit patterns do, so ``_median``
    partitions those.  Returns a float.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return 0.0
    lo, hi = float(v.min()), float(v.max())  # a NaN reaches both
    checks.require(lo >= 0.0 and hi < math.inf, "values", "finite entries >= 0",
                   hi if lo >= 0.0 else lo)
    if hi == 0.0:
        return 0.0
    floor = _median(v, lo) / _LN2 * _log_size(v.size)
    thr = floor * 10.0 ** (pk.noise_floor_db_offset / 10.0)
    return max(thr, hi * RELATIVE_FLOOR)


def synth_omni_max(padp):
    """Omnidirectional PDP by keeping the strongest direction per delay bin."""
    return np.max(padp.values, axis=0)


def synth_omni_sum(padp):
    """Omnidirectional PDP by summing all directions per delay bin."""
    return np.sum(padp.values, axis=0)


@functools.lru_cache(maxsize=32)
def o2_deembed_constant(pat, m):
    """De-embedding constant for the summed-PDP estimator.

    The summed profile carries the ring sum of the pattern power over the
    scan grid, which ripples with the arrival offset.  The constant is the
    angular average of that ring sum, m/(2*pi) times the pattern power
    integral, so o-2 is unbiased on average over offsets.

    Cached per (pattern value, m) in a bounded LRU (``cache_info()``;
    ``__wrapped__`` is the uncached quadrature): equal patterns loaded
    separately in one process, as by repeated CLI commands, share an entry.
    """
    x = np.linspace(-np.pi, np.pi, 36001)
    return m / (2.0 * np.pi) * float(np.trapezoid(power_gain(pat, x), x))


def _omni_estimates(padp, profile, divisor, method, pk):
    """Delay peaks of an omnidirectional profile, de-embedded by ``divisor``.

    Each peak takes the steering angle of the strongest direction in its
    delay column (ties: lowest row).
    """
    out = []
    for j in kernels.local_maxima_1d(profile, noise_threshold(profile, pk)):
        m_star = int(np.argmax(padp.values[:, j]))
        out.append(
            MpcEstimate(
                tau=float(padp.delays[j]),
                phi=float(padp.angles[m_star]),
                power=float(profile[j] / divisor),
                method=method,
                scan_index=m_star,
                delay_index=int(j),
            )
        )
    return sorted(out, key=lambda e: (e.tau, e.phi))


def estimate_o1(padp, pat, pk=PeakConfig()):
    """Strongest-direction synthesis estimator."""
    return _omni_estimates(padp, synth_omni_max(padp), power_gain(pat, 0.0), Method.O1, pk)


def estimate_o2(padp, pat, pk=PeakConfig()):
    """Summed-direction synthesis estimator, de-embedded by ``o2_deembed_constant``."""
    c_o2 = o2_deembed_constant(pat, len(padp.angles))
    return _omni_estimates(padp, synth_omni_sum(padp), c_o2, Method.O2, pk)


def coarse_peaks_2d(padp, pk=PeakConfig()):
    """2-D local maxima of the PADP above the noise threshold.

    The neighbourhood is the 4-connected cross with circular scan axis and
    clipped delay axis.  Exact plateau ties keep the lexicographically
    smallest (scan, delay) cell.  Returns a list of (scan index, delay
    index, value) triples.
    """
    thr = noise_threshold(padp.values, pk)
    rows, cols = kernels.local_maxima_2d(padp.values, thr)
    return [(int(i), int(j), float(padp.values[i, j])) for i, j in zip(rows, cols)]


def haed_refine(padp, coarse, pat):
    """Refine coarse 2-D peaks into angle/power estimates inside the beam.

    For each coarse peak the contrast chi = (P - P_adj) / (P + P_adj) is
    taken against the stronger adjacent scan direction (ties pick the
    lower one; powers whose sum overflows are compared at half their
    value) and inverted to the offset angle; the neighbour shift in
    the inversion is the actual angular sampling interval of the scan.
    The reported power is the peak corrected by the pattern roll-off at
    the refined offset and de-embedded by the boresight gain, i.e.
    P / g**2(eps).  ``antenna.invert_chi`` holds the inversion: its
    clamp, the closed form or grid search by pattern kind, the saturated
    beam edge and the clip of a flagged offset; the estimate records the
    measured contrast and that flag (``clamped``).
    """
    m_total = len(padp.angles)
    spacing = padp.asi
    tiny = float(np.finfo(np.float64).tiny)
    out = []
    # Python floats per peak, so the antenna helpers take their scalar paths
    for m, j, val in coarse:
        m, j, val = int(m), int(j), float(val)
        p_minus = float(padp.values[(m - 1) % m_total, j])
        p_plus = float(padp.values[(m + 1) % m_total, j])
        side = Side.MINUS if p_minus >= p_plus else Side.PLUS
        p_adj = max(p_minus if side is Side.MINUS else p_plus, tiny)
        # powers whose sum overflows are halved, which is exact that far up
        p, q = (val, p_adj) if val + p_adj < math.inf else (0.5 * val, 0.5 * p_adj)
        chi_meas = (p - q) / (p + q)
        eps, clamped = invert_chi(pat, chi_meas, side, spacing)
        out.append(
            MpcEstimate(
                tau=float(padp.delays[j]),
                phi=wrap_two_pi(float(padp.angles[m]) + eps),
                power=val / power_gain(pat, eps),
                method=Method.HAED,
                chi_hat=chi_meas,
                eps=eps,
                side=side,
                clamped=clamped,
                scan_index=m,
                delay_index=j,
            )
        )
    return sorted(out, key=lambda e: (e.tau, e.phi))


def estimate_haed(padp, pat, pk=PeakConfig()):
    """Coarse 2-D peak search followed by in-beam refinement."""
    return haed_refine(padp, coarse_peaks_2d(padp, pk), pat)


@functools.lru_cache(maxsize=8)
def _centred_offsets(k):
    """The k bin offsets d = -(k-1)//2 .. k//2 around a peak bin, as floats, and exp(j pi d / k).

    Read-only, as is ``_dirichlet_table``, because cached arrays are shared between threads.
    """
    d = _read_only(np.arange(-((k - 1) // 2), k // 2 + 1, dtype=np.float64))
    return d, _read_only(np.exp(1j * np.pi / k * d))


def _dirichlet_rows(k, deltas):
    """sin(pi delta) / (k sin(pi (delta - d) / k)) per offset delta (bins) over the centred d.

    The periodic Dirichlet kernel of a k-bin band, its phase factored out:
    with g_q = h_q exp(-j 2 pi f_start tau_q), a row's baseband response,
    |H(j + delta)|**2 = |sum_d g_(j+d mod k) e^(j pi d / k) row_d|**2.
    Centring keeps each sine's argument within pi/2 + pi/k of 0, so the bins
    next to delta carry their full relative precision.  An integer delta is 0/0.
    """
    deltas = np.asarray(deltas, dtype=np.float64)[..., None]
    return np.sin(np.pi * deltas) / k / np.sin(np.pi / k * (deltas - _centred_offsets(k)[0]))


@functools.lru_cache(maxsize=8)
def _dirichlet_table(k, upsample):
    """(2U+1, k) ``_dirichlet_rows`` at u/U bins, u = -U..U (U = upsample); 0 at integer u/U."""
    with np.errstate(divide="ignore", invalid="ignore"):
        table = _dirichlet_rows(k, np.arange(-upsample, upsample + 1) / upsample)
    table[::upsample] = 0.0
    return _read_only(table)


def _subbin_window(h_row, ramp, j, upsample):
    """|h|**2 of one row's band-limited delay response at u/U bins from bin j, u = -U..U.

    ``ramp`` is the band start's phase ramp ``h_row`` is referenced to.
    Returns the 2U+1 powers, one real product with ``_dirichlet_table``
    but for the integer offsets, which are |h|**2 of bins j-1, j, j+1 (mod
    k); and the centred, phased g of ``_dirichlet_rows`` as (k, 2) floats.
    """
    k = h_row.shape[0]
    start = (j - (k - 1) // 2) % k
    g = h_row * ramp.conj()
    g = np.concatenate((g[start:], g[:start])) * _centred_offsets(k)[1]
    pairs = g.view(np.float64).reshape(k, 2)
    sums = _dirichlet_table(k, upsample) @ pairs
    powers = np.einsum("ij,ij->i", sums, sums)
    powers[::upsample] = np.abs(h_row[np.array([j - 1, j, j + 1]) % k]) ** 2
    return powers, pairs


def haed_plus_refine(padp, estimates):
    """Re-read delay and power on an upsampled band-limited interpolation.

    Scans ``HAED_PLUS_UPSAMPLE`` times finer than the delay grid across
    the peak's +-1 bin window around its grid delay, then sharpens the
    maximum with a parabolic vertex step.  Both read the row's delay
    responses ``h`` through the periodic Dirichlet kernel
    (``_subbin_window``, ``_dirichlet_rows``): no row is turned back into
    spectra.  The delay is wrapped into the window [0, k * delta_tau), as
    the circular transform implies.  Angles are kept from the input
    estimates; powers are rescaled by the interpolated/on-grid peak ratio,
    preserving the de-embedding.  Requires a Padp carrying its delay
    responses (``h``).
    """
    checks.require(padp.h is not None, "padp", "a Padp carrying its delay responses (h)", None)
    indexed = all(e.scan_index is not None and e.delay_index is not None for e in estimates)
    checks.require(indexed, "estimates", "scan/delay indices (haed output)", estimates)
    k, upsample = padp.values.shape[1], HAED_PLUS_UPSAMPLE
    ramp = _band_start_ramp(padp.f_start, k, padp.delta_tau)
    out = []
    for est in estimates:
        m, j = est.scan_index, est.delay_index
        powers, pairs = _subbin_window(padp.h[m], ramp, j, upsample)
        best = int(np.argmax(powers))
        offset, p_hat = (best - upsample) / upsample, float(powers[best])
        if 0 < best < 2 * upsample:
            pl, p0, pr = (float(p) for p in powers[best - 1 : best + 2])
            denom = pl - 2.0 * p0 + pr
            if denom < 0 and pl != pr:  # a zero shift is the grid sample itself
                vertex = (best - upsample + 0.5 * (pl - pr) / denom) / upsample
                sums = _dirichlet_rows(k, vertex) @ pairs
                p_vertex = float(sums @ sums)
                if p_vertex > p_hat:
                    offset, p_hat = vertex, p_vertex
        x = j + offset
        x += k if x < 0 else -k if x >= k else 0
        power = est.power * (p_hat / float(padp.values[m, j]))
        out.append(MpcEstimate(x * padp.delta_tau, est.phi, power, Method.HAED_PLUS, est.chi_hat,
                               est.eps, est.side, est.clamped, m, j))
    return sorted(out, key=lambda e: (e.tau, e.phi))
