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
  adjacent direction.  The refinement inverts the contrast either in
  closed form (Gaussian beam) or by grid search on the tabulated pattern,
  and corrects the power by the pattern roll-off at the refined offset.
  ``haed_plus_refine`` additionally re-reads delay and power on a
  band-limited interpolation of the aligned row.  It needs the complex
  delay responses (``Padp.h``), which power-only PADPs cannot supply, and
  turns only the rows holding peaks into spectra.

Powers are reported de-embedded (boresight gain removed) so the three
methods share units; for a unit-amplitude arrival the de-embedded peak is
K * pu * g_tx**2.
"""

import enum
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import checks, kernels
from .angles import wrap_two_pi
from .antenna import (
    ChiSaturationError,
    PatternKind,
    Side,
    clamp_chi,
    invert_chi_closed,
    invert_chi_tabulated,
    power_gain,
)

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
    P / g**2(eps).  Contrasts at +-1 (an adjacent power underflowing to
    zero) are clamped and flagged, and a flagged offset is clipped into
    [-hpbw/2, hpbw/2].  Gaussian beams invert in closed form, tabulated
    patterns by grid search.
    """
    m_total = len(padp.angles)
    spacing = padp.asi
    closed = pat.kind is PatternKind.GAUSSIAN_BEAM
    tiny = float(np.finfo(np.float64).tiny)
    half = 0.5 * pat.hpbw
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
        chi_used, clamped = clamp_chi(chi_meas)
        if closed:
            try:
                eps = invert_chi_closed(chi_used, side, pat.hpbw, pat.kappa, spacing=spacing)
            except ChiSaturationError:
                eps = half if side is Side.MINUS else -half
                clamped = True
        else:
            eps = invert_chi_tabulated(chi_used, side, pat, spacing=spacing)
        if clamped:
            eps = min(max(eps, -half), half)  # np.clip, for a float that is never NaN
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
def _subbin_kernel(k, upsample):
    """(2U+1, k) phases exp(j 2 pi n u / (k U)) for offsets u = -U..U (U = upsample).

    Read-only, because the cached array is shared between threads.
    """
    n_u = np.outer(np.arange(-upsample, upsample + 1), np.arange(k))
    kernel = np.exp(2j * np.pi * n_u / (k * upsample))
    kernel.flags.writeable = False
    return kernel


@functools.lru_cache(maxsize=8)
def _bin_phases(k):
    """(k,) phases exp(j 2 pi n / k), n = 0..k-1, read-only like ``_subbin_kernel``."""
    phases = np.exp(2j * np.pi * np.arange(k) / k)
    phases.flags.writeable = False
    return phases


def _subbin_powers(cfr_row, j, upsample):
    """|h|**2 of one row's band-limited delay response at the taus (j + u/U) * dtau, u = -U..U.

    Baseband frequency indices suffice for magnitudes: the absolute band
    position only contributes a unimodular factor.  The phase of delay bin
    j, exp(j 2 pi j n / k), is factored into the row, so the kernel depends
    only on (k, U); it is read from the cached table ``_bin_phases(k)`` at
    the indices j n mod k.
    """
    k = cfr_row.shape[0]
    bin_phase = _bin_phases(k)[j * np.arange(k) % k]
    h = _subbin_kernel(k, upsample) @ (cfr_row * bin_phase) / np.sqrt(k)
    return np.abs(h) ** 2


def _offset_power(cfr_row, j, offset):
    """|h(tau)|**2 of one row's delay response at (j + offset) * dtau, ``offset`` in bins.

    Bin j's phase enters reduced modulo k, as in ``_subbin_powers``, so
    the phase arguments stay within a few pi instead of growing with j,
    and this power is as accurate as the kernel samples it is compared
    with.
    """
    k = cfr_row.shape[0]
    n = np.arange(k)
    phases = np.exp(2j * np.pi * ((j * n % k) + n * offset) / k)
    return float(np.abs(phases @ cfr_row / np.sqrt(k)) ** 2)


def haed_plus_refine(padp, estimates):
    """Re-read delay and power on an upsampled band-limited interpolation.

    Scans ``HAED_PLUS_UPSAMPLE`` times finer than the delay grid across
    the peak's +-1 bin window around its grid delay, then sharpens the
    maximum with a parabolic vertex step.  Angles are kept from the input
    estimates; powers are rescaled by the interpolated/on-grid peak ratio,
    preserving the de-embedding.  Requires a Padp carrying its delay
    responses (``h``); only the distinct rows holding peaks are turned
    into spectra.
    """
    checks.require(padp.h is not None, "padp", "a Padp carrying its delay responses (h)", None)
    indexed = all(e.scan_index is not None and e.delay_index is not None for e in estimates)
    checks.require(indexed, "estimates", "scan/delay indices (haed output)", estimates)
    rows = sorted({e.scan_index for e in estimates})
    spectra = dict(zip(rows, padp.spectra(rows)))
    step = padp.delta_tau / HAED_PLUS_UPSAMPLE
    offsets = np.arange(-HAED_PLUS_UPSAMPLE, HAED_PLUS_UPSAMPLE + 1) * step
    out = []
    for est in estimates:
        row = spectra[est.scan_index]
        on_grid = padp.values[est.scan_index, est.delay_index]
        taus = padp.delays[est.delay_index] + offsets
        powers = _subbin_powers(row, est.delay_index, HAED_PLUS_UPSAMPLE)
        best = int(np.argmax(powers))
        tau_hat, p_hat = float(taus[best]), float(powers[best])
        if 0 < best < len(taus) - 1:
            pl, p0, pr = powers[best - 1], powers[best], powers[best + 1]
            denom = pl - 2.0 * p0 + pr
            if denom < 0:
                shift = 0.5 * (pl - pr) / denom
                vertex = taus[best] + shift * step
                offset = (best - HAED_PLUS_UPSAMPLE + shift) / HAED_PLUS_UPSAMPLE
                p_vertex = _offset_power(row, est.delay_index, offset)
                if p_vertex > p_hat:
                    tau_hat, p_hat = float(vertex), p_vertex
        out.append(
            replace(
                est,
                tau=tau_hat,
                power=est.power * (p_hat / on_grid),
                method=Method.HAED_PLUS,
            )
        )
    return sorted(out, key=lambda e: (e.tau, e.phi))
