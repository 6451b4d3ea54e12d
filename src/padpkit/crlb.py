"""Fisher information and estimation-error lower bounds for the scan model.

Parameters per arrival, in order: normalized amplitude (alpha_hat/alpha),
phase, azimuth angle, delay.  The information matrix for complex white
noise of spectral height sigma2 is

    F_ij = (2 / sigma2) * Re sum_{m,k} conj(dS/dtheta_i) * dS/dtheta_j,

with analytic derivatives of the noise-free signal.  The signal model
itself lives in ``synthesis._arrival_terms``, the same forward model the
simulator draws from; this module only chooses its phase reference and
adds the derivative factors.  Two conventions keep the single-arrival
matrix interpretable:

* the delay derivative is referenced to the mean grid frequency (phase is
  the value at band centre), which decouples phase from delay exactly;
* amplitude rows are scaled by alpha so the bound is on alpha_hat/alpha.

For a single arrival the amplitude/phase/delay rows decouple from each
other; amplitude and angle still couple whenever the arrival sits
asymmetrically between scan directions, so the closed forms below bound
the reciprocal diagonal information (each parameter with the others
known), not the joint inverse.  Both views are exposed: ``crlb_from_fim``
inverts the full matrix, the ``crlb_single_*`` closed forms evaluate the
decoupled expressions, at one arrival angle or at an array of them

    var(phi_hat)        >= 1 / (2 gamma_I K kappa^2 sum_m sin^2(d_m) g^2(d_m))
    var(alpha_hat/alpha) >= 1 / (2 gamma_I K sum_m g^2(d_m)) = var(phase_hat)

with d_m the offsets of the scan directions from the arrival.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .angles import wrap_pm_pi
from .antenna import PatternKind, gain
from .synthesis import (
    _arrival_ramps,
    _arrival_terms,
    _arrival_weights,
    _read_only,
    _truth_params,
)

CONDITION_LIMIT = 1e12
PARAM_NAMES = ("amp_norm", "phase", "phi", "tau")
_TAB_DLOG_STEP = np.radians(0.05)


class SingularFimError(ValueError):
    """Raised when a Fisher matrix cannot be inverted meaningfully."""


@dataclass(frozen=True)
class CrlbReport:
    """Per-parameter variance bounds from a Fisher matrix.

    ``values`` is an (L, 4) array ordered (amp_norm, phase, phi, tau) per
    arrival; entries are NaN when ``flagged`` (condition number beyond
    1e12 or non-positive spectrum).  ``singular_subspace`` names the
    parameters dominating the weakest information direction.
    """

    values: np.ndarray
    cond: float
    flagged: bool
    labels: tuple
    singular_subspace: tuple = ()

    def value(self, param, mpc=0):
        return float(self.values[mpc, PARAM_NAMES.index(param)])


def _dlog_gain(pat, offsets):
    """d/dx ln g(x) at the given offsets."""
    if pat.kind is PatternKind.GAUSSIAN_BEAM:
        return -pat.kappa * np.sin(offsets)
    h = _TAB_DLOG_STEP
    up = np.log(np.maximum(gain(pat, offsets + h), np.finfo(float).tiny))
    dn = np.log(np.maximum(gain(pat, offsets - h), np.finfo(float).tiny))
    return (up - dn) / (2.0 * h)


def signal_model(theta, arr, pat, cfg):
    """Noise-free signal for a flat parameter vector (4L values).

    Layout per arrival: (alpha, phase_at_band_centre, phi, tau).  Returns
    the (m, k) complex matrix: the synthesis forward model
    (``synthesis._arrival_terms``) with its phase referenced to the band
    centre.  This is the function the Fisher matrix differentiates; the
    test suite checks the analytic derivatives against finite differences
    of it.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size % 4:
        raise ValueError("theta length must be a multiple of 4")
    fbar = float(np.mean(cfg.freqs))
    weights, ramps = _arrival_terms(*theta.reshape(-1, 4).T, arr, pat, cfg, fbar)
    return weights @ ramps


def _theta_from_mpcs(mpcs, cfg):
    alpha, phase, phi, tau = _truth_params(mpcs)
    phase = phase - 2.0 * np.pi * float(np.mean(cfg.freqs)) * tau
    return np.stack([alpha, phase, phi, tau], axis=1).ravel()


def _jacobian_factors(mpcs, arr, pat, cfg):
    """Rank-1 factors of the Jacobian: scan-axis ``u`` (m, 4L), frequency-axis ``v`` (k, 4L).

    Column i of the Jacobian is ``outer(u[:, i], v[:, i]).ravel()``: every
    derivative of one arrival's term is its weight column (or that times
    the log-gain's angle derivative) times its delay ramp (or the ramp's
    delay derivative).  Weights and ramps are those of ``signal_model`` at
    ``_theta_from_mpcs(mpcs, cfg)``.
    """
    theta = _theta_from_mpcs(mpcs, cfg).reshape(-1, 4)
    return _scan_factor(theta, arr, pat, cfg), _frequency_factor(theta[:, 3], cfg)


def _scan_factor(theta, arr, pat, cfg):
    """``u`` of ``_jacobian_factors`` for the (L, 4) parameter rows ``theta``."""
    alpha, phase, phi, _ = theta.T
    g = _arrival_weights(alpha, phase, phi, arr, pat, cfg)
    dlog = _dlog_gain(pat, wrap_pm_pi(arr.steering_angles[:, None] - phi))
    # per arrival: (amplitude * alpha, phase, angle, delay)
    return np.stack([g, 1j * g, -dlog * g, g], axis=2).reshape(arr.m, -1)


def _frequency_factor(tau, cfg):
    """``v`` of ``_jacobian_factors`` for the arrival delays ``tau``; reads only the band of ``cfg``."""
    fbar = float(np.mean(cfg.freqs))
    r = _arrival_ramps(tau, cfg, fbar).T
    dr = -1j * (2.0 * np.pi * (cfg.freqs - fbar))[:, None] * r
    return np.stack([r, r, r, dr], axis=2).reshape(cfg.k, -1)


@functools.lru_cache(maxsize=64)
def _frequency_gram(tau, band):
    """v^H v of ``_frequency_factor``, read-only, per (delays tuple, band).

    ``band`` is ``SoundingConfig._band``, so that configs differing in
    noise height, transmit power or gain share one entry.
    """
    v = _frequency_factor(np.array(tau), band)
    return _read_only(v.conj().T @ v)


def jacobian(mpcs, arr, pat, cfg):
    """Analytic derivatives dS/dtheta, shape (m*k, 4L) complex.

    Amplitude columns are pre-scaled by alpha (normalized-amplitude
    parameterization).  Materialized from ``_jacobian_factors``, the
    factors ``fim`` uses.
    """
    u, v = _jacobian_factors(mpcs, arr, pat, cfg)
    return (u[:, None, :] * v[None, :, :]).reshape(-1, u.shape[1])


def fim(mpcs, arr, pat, cfg):
    """Fisher information matrix, real symmetric (4L, 4L).

    With Jacobian columns outer(u_i, v_i), the sum over (m, k) factors:
    F_ij = (2 / sigma2) Re[(u_i^H u_j) (v_i^H v_j)], so the (m*k, 4L)
    Jacobian is never formed.  The frequency-axis Gram v^H v depends only
    on the delays and the band, so it is cached: a sweep over noise
    height, angles or amplitudes forms only the m x 4L scan factor.
    """
    if not mpcs:
        raise ValueError("at least one arrival required")
    if cfg.sigma2 <= 0:
        raise ValueError("sigma2 must be positive for a finite Fisher matrix")
    theta = _theta_from_mpcs(mpcs, cfg).reshape(-1, 4)
    u = _scan_factor(theta, arr, pat, cfg)
    gram = _frequency_gram(tuple(theta[:, 3].tolist()), cfg._band)
    f = (2.0 / cfg.sigma2) * np.real((u.conj().T @ u) * gram)
    return 0.5 * (f + f.T)


def crlb_from_fim(f):
    """Invert a Fisher matrix into per-parameter bounds with condition checks.

    The condition test runs on the diagonally normalized matrix (unit
    diagonal), so it measures genuine parameter coupling rather than the
    parameter units; seconds-scale delay rows would otherwise dominate the
    raw spectrum.  Near-singular matrices (normalized condition number
    above 1e12, or a non-positive eigenvalue) are flagged and reported
    with NaN values instead of being inverted blindly.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] % 4:
        raise SingularFimError("FIM must be square with 4 rows per arrival")
    if not np.allclose(f, f.T, rtol=1e-8, atol=0.0):
        raise SingularFimError("FIM must be symmetric")
    n_mpcs = f.shape[0] // 4
    labels = tuple(f"{p}:{l}" for l in range(n_mpcs) for p in PARAM_NAMES)
    d = np.diag(f).copy()
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        bad = tuple(labels[i] for i in np.nonzero(~(d > 0))[0])
        return CrlbReport(np.full((n_mpcs, 4), np.nan), np.inf, True, labels, bad)
    scale = 1.0 / np.sqrt(d)
    fn = f * np.outer(scale, scale)
    w, v = np.linalg.eigh(fn)
    wmin, wmax = float(np.min(w)), float(np.max(w))
    cond = np.inf if wmin <= 0 else wmax / wmin
    if cond > CONDITION_LIMIT:
        weak = np.abs(v[:, int(np.argmin(w))])
        subspace = tuple(labels[i] for i in np.nonzero(weak > 0.3 * weak.max())[0])
        return CrlbReport(np.full((n_mpcs, 4), np.nan), float(cond), True, labels, subspace)
    diag_inv = np.einsum("ij,j,ij->i", v, 1.0 / w, v) * scale**2
    return CrlbReport(diag_inv.reshape(n_mpcs, 4), float(cond), False, labels)


def _ring_sums(pat, arr, phi_l):
    """Scan-axis sums of g^2(d_m) and sin^2(d_m) g^2(d_m) per arrival angle.

    ``phi_l`` is a scalar or an array of angles; the sums run over the
    last (scan) axis of the offsets, so they have the shape of ``phi_l``.
    """
    offsets = wrap_pm_pi(arr.steering_angles - np.asarray(phi_l, dtype=np.float64)[..., None])
    g_sq = gain(pat, offsets) ** 2
    return np.sum(g_sq, axis=-1), np.sum(np.sin(offsets) ** 2 * g_sq, axis=-1)


def _reciprocal(scale, ring_sum, phi_l):
    """1 / (scale * ring_sum), a float for a scalar ``phi_l``."""
    bound = 1.0 / (scale * ring_sum)
    return float(bound) if np.ndim(phi_l) == 0 else bound


def crlb_single_phi(gamma_i, cfg, arr, pat, phi_l):
    """Closed-form angle bound for one arrival (Gaussian beam), rad**2.

    ``phi_l`` may be an array of arrival angles; each element is the
    scalar call's bound at that angle.
    """
    if pat.kind is not PatternKind.GAUSSIAN_BEAM:
        raise ValueError("closed form requires a Gaussian-beam pattern")
    _, r2 = _ring_sums(pat, arr, phi_l)
    return _reciprocal(2.0 * gamma_i * cfg.k * cfg.g_tx**2 * pat.kappa**2, r2, phi_l)


def crlb_single_alpha(gamma_i, cfg, arr, pat, phi_l):
    """Closed-form normalized-amplitude bound for one arrival (dimensionless).

    ``phi_l`` may be an array of arrival angles, as for
    ``crlb_single_phi``.  The phase bound is numerically identical under
    the band-centre phase convention; ``crlb_single_phase`` aliases this
    function.
    """
    if pat.kind is not PatternKind.GAUSSIAN_BEAM:
        raise ValueError("closed form requires a Gaussian-beam pattern")
    r0, _ = _ring_sums(pat, arr, phi_l)
    return _reciprocal(2.0 * gamma_i * cfg.k * cfg.g_tx**2, r0, phi_l)


crlb_single_phase = crlb_single_alpha
