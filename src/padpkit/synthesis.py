"""Wideband directional-scan observation synthesis.

Per scan direction m the noise-free received spectrum is

    S_m(f_k) = sqrt(Pu) * g_tx * sum_l alpha_l e^{j phase_l}
               * g_rx(steer_m - phi_l) * exp(-j 2 pi f_k tau_l),

the received spectrum is Y_m = S_m + W_m with complex white Gaussian noise
W_m of spectral height sigma2 per sample, and the delay-domain response is
h_m(tau_j) = K^{-1/2} * sum_k Y_m(f_k) exp(+j 2 pi f_k tau_j) on the delay
grid tau_j = j / bw.

Grid convention: the K frequency points are laid out with step bw / K
starting at fc - bw/2 (half-open band).  That step makes the delay bins
1/bw exactly orthogonal, so the transform is unitary (Parseval to machine
precision) and an on-grid arrival occupies a single delay bin with zero
leakage.  The transform is evaluated with an FFT plus the absolute
frequency phase ramp, identical to the direct sum.

``simulate_padp`` works in the delay domain, in this order:

1. the noise-free responses are sum_l w_ml * T(r_l), where w_ml is the
   scan-direction weight of arrival l, r_l its length-K frequency ramp and
   T the delay transform: the transform is linear, so one length-K
   transform per arrival replaces one per scan direction.  An arrival on
   delay bin q (tau * bw within 1e-9 of q) needs none: T(r_l) is sqrt(K)
   on q and 0 on every other bin;
2. the noise is drawn directly in delay: T is unitary, so it maps white
   noise of height sigma2 to white noise of the same height and the same
   distribution, and drawing it after the transform is exact, not an
   approximation.  Every complex noise sample is drawn as power and
   phase, sigma2 * Exp(1) and an independent uniform phase (Box-Muller,
   ``add_noise``), from 32-bit halves of raw generator words read by
   ``_log_uniforms`` and ``_uniform_phases``.  The float32 E is at most
   32 ln 2, about 22.18: noise alone stays below the 2-D detection threshold
   (about 42 sigma2 on a 36 x 1001 map) with or without the cut tail.
   Off-grid delays leak into every bin, so their maps draw the complex
   noise of every cell (or none, noise-free).  When every arrival sits on
   a delay bin, only the arrivals' bins are formed, and the rest of the
   map is drawn as power, h's phases only when h is kept
   (``_on_grid_map``), or is +0.0 noise-free;
3. the power map is |h|^2 (on on-grid maps formed on the arrivals' bins
   only: elsewhere it is the drawn noise power, or 0), and the responses
   h ride along on the Padp (``Padp.h``): nothing rebuilds the full-map
   spectra.  Estimators that need spectra (haed+) transform only the
   rows they read (``Padp.spectra``), and all rows are transformed only
   where spectra leave the program (``simulate --cfr-out``).

Every map is written into the arrays of a ``Workspace``, which Monte Carlo
loops reuse from one trial to the next.
"""

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .angles import wrap_pm_pi, wrap_two_pi
from .antenna import gain, power_gain


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _scan_grid(m):
    """The m scan directions of a full circle, 2*pi*j/m radians: the package's one scan grid."""
    return _read_only(2.0 * np.pi * np.arange(m) / m)


@functools.lru_cache(maxsize=16)
def _delay_grid(k, delta_tau):
    """The k delay bins j * delta_tau from 0, in s: the package's one delay grid."""
    return _read_only(np.arange(k) * delta_tau)


@dataclass(frozen=True)
class SoundingConfig:
    """Sounder setup: band, grid size, transmit power and noise height.

    fc/bw in Hz, k frequency points, pu linear transmit power (the source
    spectrum is flat at sqrt(pu)), sigma2 linear noise spectral height,
    g_tx linear amplitude gain of the transmit antenna.  The band edges
    fc +- bw/2 and the last delay (k - 1)/bw must be finite.
    """

    fc: float
    bw: float
    k: int
    pu: float = 1.0
    sigma2: float = 0.0
    g_tx: float = 1.0

    def __post_init__(self):
        checks.finite(self.fc, "fc")
        checks.positive(self.bw, "bw")
        checks.integer(self.k, "k", 2)
        checks.positive(self.pu, "pu")
        checks.noise_height(self.sigma2, "sigma2")
        checks.amplitude(self.g_tx, "g_tx")
        checks.finite(abs(self.fc) + 0.5 * self.bw, "the band edge |fc| + bw/2")
        checks.finite((self.k - 1) * self.delta_tau, "the last delay (k - 1) / bw")

    @property
    def delta_f(self):
        return self.bw / self.k

    @property
    def delta_tau(self):
        return 1.0 / self.bw

    def require_in_window(self, tau, field, margin=0.0):
        """Refuse, naming ``field``, a delay ``tau`` (s) that plus ``margin`` bins reaches k/bw.

        The delay transform is circular over the k bins, so an arrival
        there would alias to an earlier delay.
        """
        if tau * self.bw + margin >= self.k:
            raise ValueError(
                f"{field}: expected a delay{f' plus {margin:g} bin' if margin else ''} before the"
                f" delay window k/bw = {self.k / self.bw * 1e9:.6g} ns, where arrivals alias,"
                f" got {tau * 1e9:.6g} ns"
            )

    @functools.cached_property
    def freqs(self):
        """The frequency grid, computed once per config and shared read-only."""
        return _read_only(self.fc - 0.5 * self.bw + np.arange(self.k) * self.delta_f)

    @property
    def delays(self):
        """The delay grid: the one every Padp of this k and delta_tau reads (``_delay_grid``)."""
        return _delay_grid(self.k, self.delta_tau)


@dataclass(frozen=True)
class ArrayConfig:
    """Scan geometry: m steering angles uniform on [0, 2*pi)."""

    m: int

    def __post_init__(self):
        checks.integer(self.m, "m", 3)

    @property
    def steering_angles(self):
        """The scan grid: the one every Padp of m scan directions reads (``_scan_grid``)."""
        return _scan_grid(self.m)

    @property
    def asi(self):
        """Angular sampling interval 2*pi/m."""
        return 2.0 * np.pi / self.m

    def require_step_gain(self, pat, field, value):
        """Refuse ``value``, naming ``field``, unless ``pat`` keeps a gain one scan step out.

        ``pat``'s power gain one step (2*pi/m) off boresight, on either
        side, must be a normal float.  Under a narrower beam an arrival
        between two scan directions has a gain that underflows to 0 in both,
        so the map holds only noise and its Fisher bound is infinite.
        """
        step_gain = float(np.min(power_gain(pat, np.array([-self.asi, self.asi]))))
        rule = (f"a beam whose power gain one scan step ({np.degrees(self.asi):.6g} deg) off"
                f" boresight is a normal float (>= {sys.float_info.min:.6g})")
        checks.require(step_gain >= sys.float_info.min, field, rule, value)


@dataclass(frozen=True)
class MpcTruth:
    """Ground-truth multipath component.

    alpha: linear amplitude (> 0, finite square); phase: radians; tau: delay
    in seconds; phi: azimuth angle of arrival, stored wrapped to [0, 2*pi).
    """

    alpha: float
    phase: float
    tau: float
    phi: float

    def __post_init__(self):
        checks.amplitude(self.alpha, "alpha")
        checks.finite(self.phase, "phase")
        checks.finite(self.tau, "tau", 0.0)
        phi = checks.finite(self.phi, "phi")
        object.__setattr__(self, "phi", wrap_two_pi(phi))


@dataclass(frozen=True)
class Padp:
    """Power-angle-delay profile: an (m, k) non-negative power map and its delay step.

    Rows are the m scan directions of a full circle, columns k >= 2 delay
    bins from 0 spaced ``delta_tau`` s (positive, with a finite last delay),
    so the read-only grids ``angles`` (2*pi*j/m radians) and ``delays``
    (j * delta_tau) are derived: the arrays ``ArrayConfig.steering_angles``
    and ``SoundingConfig.delays`` return for that m, k and delta_tau.

    ``h`` optionally carries the complex delay responses behind the map
    (``values`` is |h|**2), referenced to the band start frequency
    ``f_start`` in Hz: h_m(tau_j) = K^{-1/2} sum_n Y_m[n]
    exp(j 2 pi (f_start + n/(K dtau)) tau_j) for the row's spectrum Y_m.
    Simulated maps use fc - bw/2; responses built from stored spectra as
    ``ifft(cfr, norm="ortho")`` use 0.  Band-limited delay interpolation
    needs them (power samples alone undersample the squared response), so
    estimators that refine the delay axis require a Padp carrying them.
    """

    values: np.ndarray
    delta_tau: float
    h: np.ndarray | None = field(default=None, repr=False)
    f_start: float = 0.0
    angles: np.ndarray = field(init=False, repr=False)
    delays: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        rule = "a 2-D map of 1 or more scan directions by 2 or more delay bins"
        checks.require(v.ndim == 2 and v.shape[0] >= 1 and v.shape[1] >= 2, "values", rule, v.shape)
        m, k = v.shape
        delta_tau = checks.positive(self.delta_tau, "delta_tau")
        checks.finite((k - 1) * delta_tau, "delta_tau: the last delay (k - 1) * delta_tau")
        checks.finite_array(v, "values", 0.0)
        if self.h is not None and self.h.shape != v.shape:
            raise ValueError("h must match the value matrix shape")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "delta_tau", delta_tau)
        object.__setattr__(self, "angles", _scan_grid(m))
        object.__setattr__(self, "delays", _delay_grid(k, delta_tau))

    @property
    def asi(self):
        return 2.0 * np.pi / self.values.shape[0]

    def spectra(self, rows=slice(None)):
        """Complex spectra of the scan ``rows`` (all by default), from ``h``.

        The inverse of the delay transform, applied to those rows only.
        """
        if self.h is None:
            raise ValueError("Padp carries no delay responses (h)")
        ramp = _band_start_ramp(self.f_start, self.values.shape[1], self.delta_tau)
        return np.fft.fft(self.h[rows] * ramp.conj(), axis=-1, norm="ortho")


def _arrival_weights(alpha, phase, phi, arr, pat, cfg):
    """The (m, L) scan-direction weights of the scan signal model.

    Arrival l contributes sqrt(pu) * g_tx * alpha_l e^{j phase_l}
    * g(steer_m - phi_l) * exp(-j 2 pi (f_k - f_ref) tau_l), so ``phase``
    is the arrival's phase at the ramps' reference frequency ``f_ref``: 0
    for ``MpcTruth``, the band centre for the Fisher parameterization
    (``crlb``).  The spectra are ``weights @ ramps``; the weights carry
    transmit power, antenna gains and the complex amplitudes, the ramps
    (``_arrival_ramps``) the delays.
    """
    if np.size(alpha) == 0:
        raise ValueError("at least one multipath component required")
    coeff = alpha * np.exp(1j * phase)
    gains = gain(pat, wrap_pm_pi(arr.steering_angles[:, None] - phi))
    return np.sqrt(cfg.pu) * cfg.g_tx * (gains * coeff)


def _arrival_ramps(tau, cfg, f_ref):
    """The (L, k) delay ramps of the scan signal model (``_arrival_weights``)."""
    return np.exp(-2j * np.pi * np.outer(tau, cfg.freqs - f_ref))


def _truth_params(mpcs):
    """(alpha, phase, phi, tau) arrays of MpcTruth arrivals, for the scan signal model."""
    return np.array([(m.alpha, m.phase, m.phi, m.tau) for m in mpcs]).reshape(-1, 4).T


def synth_cfr(mpcs, arr, pat, cfg):
    """Noise-free received spectra for all scan directions, (m, k) complex."""
    alpha, phase, phi, tau = _truth_params(mpcs)
    return _arrival_weights(alpha, phase, phi, arr, pat, cfg) @ _arrival_ramps(tau, cfg, 0.0)


def add_noise(s, sigma2, seed, draw=None):
    """Add circularly symmetric white Gaussian noise of spectral height sigma2.

    Each sample is drawn as power and phase, w = sqrt(sigma2 * E) e^{j theta}
    with E ~ Exp(1) and theta uniform on [0, 2 pi]: |w|**2 is sigma2 times
    an exponential, so real and imaginary parts are independent
    N(0, sigma2/2) (Box-Muller).  Both come from 32-bit halves x of raw
    generator words, drawn one after the other from one generator: first
    E = -ln((x + 1) / 2**32) for every sample (``_log_uniforms``), then
    theta = 2 pi x / 2**32 (``_uniform_phases``), each from ceil(n/2) words.
    E, the amplitude sqrt(sigma2 * E), theta, its cos and sin, and so the
    noise components are float32 (about 1e-7 relative, phases within 5e-7
    rad), and E is at most 32 ln 2 (about 22.18: the exponential's tail
    beyond it, 2.3e-10, is cut); the sum with ``s`` is float64.  sigma2 is
    at most ``checks.NOISE_HEIGHT_MAX``, where sigma2 * E is float32's maximum.
    Deterministic for a given seed (int, SeedSequence or Generator; a
    Generator is used as is, so the caller can draw on from it).

    Without ``draw`` returns a new array and leaves ``s`` as it is.  With
    ``draw``, a C-contiguous float32 array of shape ``(3,) + s.shape`` that
    holds the amplitudes and the phases' cos and sin, adds the noise to
    ``s`` in place and returns ``s``, which must then be a writeable
    complex128 array apart from ``draw``: no map-sized temporary is
    allocated.
    """
    checks.noise_height(sigma2, "sigma2")
    if draw is None:
        s = np.array(s, dtype=np.complex128)  # the sum's buffer: a copy, so s is kept
    else:
        shape = (3, *np.shape(s))
        if draw.shape != shape or draw.dtype != np.float32 or not draw.flags.c_contiguous:
            raise ValueError(f"draw must be a C-contiguous float32 array of shape {shape}")
        writeable = isinstance(s, np.ndarray) and s.dtype == np.complex128 and s.flags.writeable
        if not writeable or np.may_share_memory(s, draw):
            raise ValueError("s must be a writeable complex128 array apart from draw")
    if sigma2 == 0:
        return s
    if draw is None:
        draw = np.empty((3, *s.shape), dtype=np.float32)
    amp, cos, sin = draw[0, ...], draw[1, ...], draw[2, ...]  # views, also of a 0-d s
    rng = np.random.default_rng(seed)
    _log_uniforms(rng, amp)
    # sigma2 * E = -sigma2 * ln u; E = 0 gives an amplitude of -0.0, which adds 0
    np.multiply(amp, np.array(-sigma2, dtype=np.float32), out=amp)
    np.sqrt(amp, out=amp)
    _uniform_phases(rng, cos, sin)
    trig = draw[1:]
    np.multiply(trig, amp, out=trig)
    s.real += cos
    s.imag += sin
    return s


# raw words per random_raw call: 96 kB, under glibc's 128 kB mmap threshold, so a
# draw maps and page-faults no fresh array; a 36 x 1001 draw takes two calls
_RAW_BLOCK = 12288
# float32 operands of the draws, as 0-d arrays: on 36-value columns a ufunc
# takes one in about 1 us where a scalar costs 1.4-1.7 us (numpy 2.4, x86-64)
_U_STEP = _read_only(np.array(2.0**-32, dtype=np.float32))
_PHASE_STEP = _read_only(np.array(2.0 * np.pi / 2.0**32, dtype=np.float32))
_ZERO = _read_only(np.zeros((), dtype=np.float32))


def _uniforms(rng, out, scale):
    """Fill the C-contiguous float32 array ``out``, in row-major order, with scale * x.

    x are 32-bit halves of ``rng``'s raw words: n values read ceil(n/2)
    words, each as two uint32 halves (the words' uint32 view: on a
    little-endian machine the low half, then the high half), dropping the
    last half when n is odd.  x is rounded to float32 and the product with
    ``scale``, a 0-d float32 array (``_U_STEP`` or ``_PHASE_STEP``), is
    float32.  ``random_raw`` is called for ``_RAW_BLOCK`` words at a time,
    so a call allocates no array of n values.
    """
    flat = out.reshape(-1)
    raw = rng.bit_generator.random_raw
    for c in range(0, flat.size, 2 * _RAW_BLOCK):
        part = flat[c : c + 2 * _RAW_BLOCK]
        x = raw((part.size + 1) // 2).view(np.uint32)[: part.size]
        np.multiply(x, scale, out=part, dtype=np.float32)


def _log_uniforms(rng, out):
    """Fill the C-contiguous float32 array ``out`` with ln u, u = (x + 1) / 2**32 in (0, 1].

    x are ``_uniforms`` halves, and u is formed and logged in float32:
    E = -ln u is Exp(1), resolved to float32 and at most 32 ln 2, about
    22.18.  ln u, not ln(x + 1) - 32 ln 2, which cancels near u = 1 (E = 0).
    """
    _uniforms(rng, out, _U_STEP)
    out += _U_STEP
    np.log(out, out=out)


def _uniform_phases(rng, cos, sin):
    """Draw phases theta = 2 pi x / 2**32 into ``cos`` and write cos and sin of them.

    x are 32-bit halves of raw words (``_uniforms``), so theta is uniform
    on [0, 2 pi] at float32 resolution.  ``cos`` and ``sin`` are
    C-contiguous float32 arrays of one shape.
    """
    _uniforms(rng, cos, _PHASE_STEP)
    np.sin(cos, out=sin)
    np.cos(cos, out=cos)


def _band_start(cfg):
    return cfg.fc - 0.5 * cfg.bw


@functools.lru_cache(maxsize=8)
def _band_start_ramp(f_start, k, delta_tau):
    """exp(j 2 pi f_start tau) on ``_delay_grid(k, delta_tau)``, read-only and cached."""
    return _read_only(np.exp(2j * np.pi * f_start * _delay_grid(k, delta_tau)))


def cfr_to_cir(y, cfg):
    """Delay-domain responses h_m(tau_j) from received spectra.

    Evaluates the sum of the module docstring as sqrt(K) * ifft times the
    band start's phase ramp (``_band_start_ramp``, which ``Padp.spectra``
    reads too); the tests hold the direct exponential sum as its reference.
    """
    y = np.asarray(y)
    k = cfg.k
    if y.shape[-1] != k:
        raise ValueError("spectrum length must equal cfg.k")
    ramp = _band_start_ramp(_band_start(cfg), k, cfg.delta_tau)
    return np.sqrt(k) * np.fft.ifft(y, axis=-1) * ramp


def pdp(h, out=None):
    """Power delay profile(s): squared magnitude of delay-domain responses.

    ``out``, when given, is a float64 array of the shape of ``h`` that
    receives the result.
    """
    p = np.abs(h, out=out)
    p **= 2  # in place: one map-sized temporary fewer per call
    return p


def assemble_padp(pdps, arr, cfg, h=None):
    """Stack per-direction PDPs into a Padp in steering-angle order.

    ``h``, when given, are the delay responses behind the PDPs, referenced
    to the band start of ``cfg``.  A map that is not ``arr.m`` x ``cfg.k``
    is refused, naming ``values``; the Padp's grids are then ``arr``'s
    steering angles and ``cfg``'s delays.
    """
    shape = np.shape(pdps)
    checks.require(shape == (arr.m, cfg.k), "values", f"a {arr.m} x {cfg.k} map", shape)
    return Padp(pdps, cfg.delta_tau, h=h, f_start=_band_start(cfg))


class Workspace:
    """Map-sized arrays that ``simulate_padp`` reuses from one call to the next.

    Each has one role: ``h``, (m, k) complex, the delay responses;
    ``power``, (m, k) float64, the power map; and ``draw``, (3, m, k)
    float32, scratch for the noise draw (``add_noise``'s amplitudes and
    phases' cos and sin; on on-grid maps the exponentials of the power
    and then the cos and sin of a kept ``h``'s phases).  About 1.30 MB at
    36 x 1001.  The raw generator words come in blocks of at most 96 kB
    (``_RAW_BLOCK``) outside the workspace.  A Padp built on a workspace
    shares ``power`` and ``h``, so the next ``simulate_padp`` call on the
    same workspace overwrites it; a workspace belongs to one thread.  A
    call given no workspace builds one of its own, whose ``power`` and
    ``h`` its Padp then keeps.
    """

    def __init__(self, m, k):
        self.h = np.empty((m, k), dtype=np.complex128)
        self.power = np.empty((m, k))
        self.draw = np.empty((3, m, k), dtype=np.float32)


# an arrival delay within this many delay bins of a bin is on the grid
_ON_GRID_TOL = 1e-9


def _on_grid_bins(tau, cfg):
    """The distinct delay bins of the arrivals when every one sits on the grid, else None.

    Tested on tau * bw, not on the response: the FFT leaks about 1e-13 of
    an on-grid peak into every other bin, so a magnitude test is fragile.
    """
    x = [t * cfg.bw for t in tau.tolist()]  # a few arrivals: Python floats beat numpy calls
    # the bound on x comes first: it also keeps round() away from inf
    if all(v < cfg.k - 0.5 and abs(v - round(v)) <= _ON_GRID_TOL for v in x):
        return np.array(sorted({round(v) for v in x}))
    return None


def _on_grid_map(signal, cols, sigma2, seed, keep_cfr, ws):
    """Write the map of arrivals on delay bins ``cols`` into ``ws``; return h or None.

    ``ws.power`` receives the power map, and with ``keep_cfr`` ``ws.h`` the
    responses.  ``signal`` is the noise-free response on those columns
    (``simulate_padp``), zero elsewhere.  Noise-free, the map and h are
    +0.0 there.  Otherwise |h|**2 is sigma2 * E there, E ~ Exp(1) drawn as
    -ln u in float32 (``_log_uniforms``: E at most 32 ln 2, about 22.18)
    into ``ws.draw[0]`` and scaled in float64, and the phase of h is
    uniform and independent of it: h = sqrt(P) e^{j theta}.  One generator
    draws, in this order, the complex noise on ``cols`` (``add_noise``),
    the power of the whole map and then, only with ``keep_cfr``, the
    phases, so the map does not depend on ``keep_cfr``.  The phases are
    resolved to float32 (under 5e-7 rad), where cos and sin are
    vectorized; their cos and sin fill ``ws.draw[1]`` and ``ws.draw[2]``.
    h is scaled in float64, so |h|**2 is the map to rounding.
    """
    if sigma2 == 0:
        ws.power.fill(0.0)
        if keep_cfr:
            ws.h.fill(0.0)
    else:
        rng = np.random.default_rng(seed)
        signal = add_noise(signal, sigma2, rng)
        e, cos, sin = ws.draw
        _log_uniforms(rng, e)
        np.subtract(_ZERO, e, out=e)  # E = 0 - ln u: +0.0 at u = 1, not -0.0
        np.multiply(e, sigma2, out=ws.power, dtype=np.float64)
        if keep_cfr:  # h off ``cols``: on them it is overwritten below
            re, im = ws.h.real, ws.h.imag
            _uniform_phases(rng, cos, sin)
            # scale = sqrt(P / (cos^2 + sin^2)), formed in re; the squares are exact in float64
            np.multiply(cos, cos, out=re, dtype=np.float64)
            np.multiply(sin, sin, out=im, dtype=np.float64)
            re += im
            np.divide(ws.power, re, out=re)
            np.sqrt(re, out=re)
            np.multiply(sin, re, out=im, dtype=np.float64)
            np.multiply(cos, re, out=re, dtype=np.float64)
    ws.power[:, cols] = pdp(signal)
    if not keep_cfr:
        return None
    ws.h[:, cols] = signal
    return ws.h


def simulate_padp(mpcs, arr, pat, cfg, seed=0, keep_cfr=True, workspace=None):
    """Full synthesis pipeline: delay responses -> noise -> Padp.

    Works in the delay domain (see the module docstring); when every
    arrival sits on a delay bin, with no transform: bin q is sqrt(k) times
    the weights w_ml of its arrivals l, summed in arrival order.  The
    noisy delay responses are attached as ``Padp.h`` (haed+ needs them).
    ``keep_cfr=False`` leaves ``h`` off, so the Padp carries the power
    map only; on a map whose arrivals all sit on delay bins it also skips
    forming h off their bins (noisy: drawing its phases), and the map is
    the same either way.  An arrival at or past the delay window k/bw
    would alias and is refused with a ``ValueError`` naming ``tau``.
    The map and ``h`` are written into ``workspace.power`` and
    ``workspace.h``, a ``Workspace`` of the map's shape, and the Padp is
    valid only until the workspace's next call.  Without one the call
    builds its own, and the Padp's map and ``h`` are its own arrays.
    """
    alpha, phase, phi, tau = _truth_params(mpcs)
    cfg.require_in_window(max(tau.tolist()), "tau")
    ws = Workspace(arr.m, cfg.k) if workspace is None else workspace
    if ws.power.shape != (arr.m, cfg.k):
        raise ValueError(f"workspace shape {ws.power.shape} != map shape {(arr.m, cfg.k)}")
    weights = _arrival_weights(alpha, phase, phi, arr, pat, cfg)
    cols = _on_grid_bins(tau, cfg)
    if cols is None:
        h = np.matmul(weights, cfr_to_cir(_arrival_ramps(tau, cfg, 0.0), cfg), out=ws.h)
        pdp(add_noise(h, cfg.sigma2, seed, draw=ws.draw), out=ws.power)
        h = h if keep_cfr else None
    else:
        signal = np.zeros((arr.m, cols.size), dtype=np.complex128)
        for w, q in zip(weights.T, np.searchsorted(cols, np.rint(tau * cfg.bw))):
            signal[:, q] += w
        signal *= math.sqrt(cfg.k)
        h = _on_grid_map(signal, cols, cfg.sigma2, seed, keep_cfr, ws)
    return assemble_padp(ws.power, arr, cfg, h=h)
