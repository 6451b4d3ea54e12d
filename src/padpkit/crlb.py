"""Fisher information and estimation-error lower bounds for the scan model.

Parameters per arrival, in order: normalized amplitude (alpha_hat/alpha),
phase, azimuth angle, delay.  The information matrix for complex white
noise of spectral height sigma2 is

    F_ij = (2 / sigma2) * Re sum_{m,k} conj(dS/dtheta_i) * dS/dtheta_j,

with analytic derivatives of the noise-free signal.  The signal model is
the simulator's own forward model, ``synthesis._arrival_weights`` times
``synthesis._arrival_ramps``; this module only chooses its phase
reference and adds the derivative factors.  Two conventions keep the
single-arrival matrix interpretable:

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

A sweep at one noise height (``cfg.sigma2``) is bounded in one stacked
pass: ``fim_sweep`` forms the (P, 4L, 4L) matrices of P points with one
batched product, and the frequency-axis Gram behind them once per
distinct set of delays in the call (a sweep that keeps its delays forms
one); ``crlb_from_fims`` inverts them with one batched ``eigh``;
``crlb_sweep`` chains the two in chunks of ``SWEEP_CHUNK`` points, so
memory stays bounded on any grid.  ``fim`` and ``crlb_from_fim`` are the
one-point case of the same code, and each stacked result equals the
one-point result bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import checks
from .angles import wrap_pm_pi
from .antenna import PatternKind, gain
from .synthesis import _arrival_ramps, _arrival_weights

CONDITION_LIMIT = 1e12
SWEEP_CHUNK = 256  # sweep points per stacked pass of ``crlb_sweep``
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
    parameters dominating the weakest information direction.  ``overflow``
    flags a matrix holding a non-finite entry, whatever its conditioning.
    """

    values: np.ndarray
    cond: float
    flagged: bool
    labels: tuple
    singular_subspace: tuple = ()
    overflow: bool = False

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
    the (m, k) complex matrix: the synthesis forward model, weights times
    ramps, with its phase referenced to the band centre.  This is the
    function the Fisher matrix differentiates; the test suite checks the
    analytic derivatives against finite differences of it.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size % 4:
        raise ValueError("theta length must be a multiple of 4")
    alpha, phase, phi, tau = theta.reshape(-1, 4).T
    fbar = float(np.mean(cfg.freqs))
    return _arrival_weights(alpha, phase, phi, arr, pat, cfg) @ _arrival_ramps(tau, cfg, fbar)


def _theta_rows(points, cfg):
    """(P, L, 4) parameter rows of P arrival lists, phase at the band centre.

    Row layout per arrival as in ``signal_model``: (alpha, phase, phi,
    tau).  Every point must have the same number of arrivals.
    """
    counts = sorted({len(mpcs) for mpcs in points})
    if not counts:
        raise ValueError("at least one sweep point required")
    if counts[0] == 0:
        raise ValueError("at least one arrival required")
    if len(counts) > 1:
        raise ValueError(f"every sweep point needs the same number of arrivals, got {counts}")
    rows = np.array(
        [[(m.alpha, m.phase, m.phi, m.tau) for m in mpcs] for mpcs in points], dtype=np.float64
    )
    rows[..., 1] = rows[..., 1] - 2.0 * np.pi * float(np.mean(cfg.freqs)) * rows[..., 3]
    return rows


def _theta_from_mpcs(mpcs, cfg):
    return _theta_rows([mpcs], cfg)[0].ravel()


def _scan_factor(theta, arr, pat, cfg):
    """Scan-axis factors ``u`` of ``jacobian`` for rows ``theta`` (..., L, 4): (..., m, 4L)."""
    # each (..., 1, L), so that the weights come out (..., m, L)
    alpha, phase, phi, _ = np.moveaxis(theta[..., None, :, :], -1, 0)
    g = _arrival_weights(alpha, phase, phi, arr, pat, cfg)
    dlog = _dlog_gain(pat, wrap_pm_pi(arr.steering_angles[:, None] - phi))
    # per arrival: (amplitude * alpha, phase, angle, delay)
    return np.stack([g, 1j * g, -dlog * g, g], axis=-1).reshape(*g.shape[:-1], -1)


def _frequency_factor(tau, cfg):
    """Frequency-axis factors ``v`` (k, 4L) of ``jacobian`` for delays ``tau``; reads the band."""
    fbar = float(np.mean(cfg.freqs))
    r = _arrival_ramps(tau, cfg, fbar).T
    dr = -1j * (2.0 * np.pi * (cfg.freqs - fbar))[:, None] * r
    return np.stack([r, r, r, dr], axis=2).reshape(cfg.k, -1)


def _frequency_gram(tau, cfg):
    """v^H v of ``_frequency_factor`` for the delays ``tau`` (a tuple)."""
    v = _frequency_factor(np.array(tau), cfg)
    return v.conj().T @ v


def jacobian(mpcs, arr, pat, cfg):
    """Analytic derivatives dS/dtheta, shape (m*k, 4L) complex.

    Amplitude columns are pre-scaled by alpha (normalized-amplitude
    parameterization).  Column i is ``outer(u[:, i], v[:, i]).ravel()``
    of the rank-1 factors ``fim`` uses, scan-axis ``u`` (m, 4L) and
    frequency-axis ``v`` (k, 4L): every derivative of one arrival's term
    is its weight column (or that times the log-gain's angle derivative)
    times its delay ramp (or the ramp's delay derivative), at the weights
    and ramps of ``signal_model``.
    """
    theta = _theta_rows([mpcs], cfg)[0]
    u, v = _scan_factor(theta, arr, pat, cfg), _frequency_factor(theta[:, 3], cfg)
    return (u[:, None, :] * v[None, :, :]).reshape(-1, u.shape[1])


def fim_sweep(points, arr, pat, cfg):
    """Fisher information matrices of a sweep, real symmetric (P, 4L, 4L).

    ``points`` holds P lists of arrivals, all of the same length L, each
    bounded at the noise height ``cfg.sigma2``.  With Jacobian columns
    outer(u_i, v_i), the sum over (m, k) factors: F_ij = (2 / sigma2)
    Re[(u_i^H u_j) (v_i^H v_j)], so the (m*k, 4L) Jacobian is never
    formed.  The frequency-axis Gram v^H v depends only on the delays and
    the band, so it is formed once per distinct delay tuple of the call;
    the (P, m, 4L) scan factors are formed and multiplied as one stack.
    Each matrix is bit for bit the one ``fim`` gives for its point alone.
    Raises ``ValueError`` naming sigma2 when it is not positive or 2 /
    sigma2 overflows.  ``crlb_sweep`` runs long sweeps through here in
    chunks.
    """
    theta = _theta_rows(points, cfg)
    s = float(cfg.sigma2)
    scale = checks.finite(2.0 / checks.positive(s, "sigma2"), f"2/sigma2 at sigma2 = {s!r}")
    u = _scan_factor(theta, arr, pat, cfg)
    keys = [tuple(tau) for tau in theta[:, :, 3].tolist()]
    grams = {key: _frequency_gram(key, cfg) for key in dict.fromkeys(keys)}
    gram = grams[keys[0]] if len(grams) == 1 else np.stack([grams[key] for key in keys])
    with np.errstate(over="ignore"):  # an overflowing entry is inf: crlb_from_fims flags it
        f = scale * np.real((u.conj().transpose(0, 2, 1) @ u) * gram)
        return 0.5 * (f + f.transpose(0, 2, 1))


def fim(mpcs, arr, pat, cfg):
    """Fisher information matrix of one set of arrivals, real symmetric (4L, 4L).

    The one-point case of ``fim_sweep``.
    """
    return fim_sweep([mpcs], arr, pat, cfg)[0]


def _nonfinite_lines(finite):
    """(P, n) mask of the parameters i whose row or column i holds a non-finite entry.

    ``finite`` is ``np.isfinite`` of a (P, n, n) stack.
    """
    return ~np.all(finite, axis=2) | ~np.all(finite, axis=1)


def crlb_from_fims(stack):
    """Invert a (P, 4L, 4L) stack of Fisher matrices into P ``CrlbReport``s.

    The condition test runs on the diagonally normalized matrix (unit
    diagonal), so it measures genuine parameter coupling rather than the
    parameter units; seconds-scale delay rows would otherwise dominate the
    raw spectrum.  A matrix with a non-finite entry (``overflow``) or a
    non-positive diagonal entry is flagged, naming the parameters of those
    rows and columns, and so is one whose normalized condition number
    exceeds 1e12 (or with a non-positive eigenvalue), naming the parameters
    of its weakest direction; flagged reports hold NaN values.  The checks, one
    ``eigh`` and the diagonal inverse run on the whole stack; only flagged
    matrices are handled one by one.  Raises ``SingularFimError`` for a
    stack of the wrong shape or a finite asymmetric matrix.
    """
    f = np.asarray(stack, dtype=np.float64)
    if f.ndim != 3 or f.shape[1] != f.shape[2] or f.shape[1] == 0 or f.shape[1] % 4:
        raise SingularFimError("FIM must be square with 4 rows per arrival")
    n_mpcs = f.shape[1] // 4
    labels = tuple(f"{p}:{l}" for l in range(n_mpcs) for p in PARAM_NAMES)
    finite = np.isfinite(f)
    all_finite = np.all(finite)
    ft = f.transpose(0, 2, 1)
    with np.errstate(all="ignore"):
        # np.isclose(f, ft, rtol=1e-8, atol=0); matrices with a non-finite
        # entry are flagged below instead
        asym = ~np.all(np.abs(f - ft) <= 1e-8 * np.abs(ft), axis=(1, 2))
        if not all_finite:
            asym &= np.all(finite, axis=(1, 2))
        if np.any(asym):
            where = f" (matrix {int(np.argmax(asym))} of the stack)" if len(f) > 1 else ""
            raise SingularFimError(f"FIM must be symmetric{where}")
        d = np.diagonal(f, axis1=1, axis2=2)
        scale = 1.0 / np.sqrt(d)
        fn = f * (scale[:, :, None] * scale[:, None, :])
    # (P, 4L) parameters that spoil each matrix: a non-positive diagonal or
    # a non-finite row or column; failing those, a row whose normalization
    # overflowed
    bad = ~(d > 0)
    if not all_finite:
        bad |= _nonfinite_lines(finite)
    norm_finite = np.isfinite(fn)
    if not np.all(norm_finite):
        bad = np.where(np.any(bad, axis=1, keepdims=True), bad, _nonfinite_lines(norm_finite))
    reports = [None] * len(f)
    spoilt = np.any(bad, axis=1)
    for p in np.nonzero(spoilt)[0]:
        named = tuple(labels[i] for i in np.nonzero(bad[p])[0])
        over = not (all_finite or np.all(finite[p]))
        reports[p] = CrlbReport(np.full((n_mpcs, 4), np.nan), np.inf, True, labels, named, over)
    good = np.nonzero(~spoilt)[0]
    w, v = np.linalg.eigh(fn[good])
    wmin, wmax = w[:, 0], w[:, -1]  # eigh sorts ascending
    with np.errstate(all="ignore"):
        cond = np.where(wmin > 0, wmax / wmin, np.inf)
    ok = cond <= CONDITION_LIMIT
    diag_inv = np.einsum("pij,pj,pij->pi", v[ok], 1.0 / w[ok], v[ok]) * scale[good[ok]] ** 2
    conds = cond.tolist()
    for i, values in zip(np.nonzero(ok)[0].tolist(), diag_inv.reshape(-1, n_mpcs, 4)):
        reports[good[i]] = CrlbReport(values, conds[i], False, labels)
    for i in np.nonzero(~ok)[0].tolist():
        weak = np.abs(v[i][:, int(np.argmin(w[i]))])
        subspace = tuple(labels[j] for j in np.nonzero(weak > 0.3 * weak.max())[0])
        reports[good[i]] = CrlbReport(np.full((n_mpcs, 4), np.nan), conds[i], True, labels, subspace)
    return reports


def crlb_from_fim(f):
    """Invert one Fisher matrix into per-parameter bounds: the one-matrix case of ``crlb_from_fims``."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise SingularFimError("FIM must be square with 4 rows per arrival")
    return crlb_from_fims(f[None])[0]


def crlb_sweep(points, arr, pat, cfg):
    """``crlb_from_fims(fim_sweep(...))`` of a sweep, ``SWEEP_CHUNK`` points at a time.

    Every point is bounded at ``cfg.sigma2``; the stacked temporaries stay
    bounded on any grid, and the reports are those of the single-point calls.
    """
    points = list(points)
    reports = []
    for lo in range(0, max(len(points), 1), SWEEP_CHUNK):
        reports += crlb_from_fims(fim_sweep(points[lo:lo + SWEEP_CHUNK], arr, pat, cfg))
    return reports


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
    checks.require(pat.kind is PatternKind.GAUSSIAN_BEAM, "pat", "a Gaussian beam", pat.kind)
    _, r2 = _ring_sums(pat, arr, phi_l)
    return _reciprocal(2.0 * gamma_i * cfg.k * cfg.g_tx**2 * pat.kappa**2, r2, phi_l)


def crlb_single_alpha(gamma_i, cfg, arr, pat, phi_l):
    """Closed-form normalized-amplitude bound for one arrival (dimensionless).

    ``phi_l`` may be an array of arrival angles, as for
    ``crlb_single_phi``.  The phase bound is numerically identical under
    the band-centre phase convention.
    """
    checks.require(pat.kind is PatternKind.GAUSSIAN_BEAM, "pat", "a Gaussian beam", pat.kind)
    r0, _ = _ring_sums(pat, arr, phi_l)
    return _reciprocal(2.0 * gamma_i * cfg.k * cfg.g_tx**2, r0, phi_l)
