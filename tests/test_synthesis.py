from dataclasses import FrozenInstanceError, replace
from math import erfc

import numpy as np
import pytest

from padpkit import (
    AntennaPattern,
    ArrayConfig,
    MpcTruth,
    Padp,
    SoundingConfig,
    Workspace,
    add_noise,
    assemble_padp,
    cfr_to_cir,
    pdp,
    simulate_padp,
    synth_cfr,
)
from padpkit import synthesis
from padpkit.antenna import gain


def test_grid_conventions(cfg_full):
    assert cfg_full.delta_tau == pytest.approx(0.5e-9, rel=1e-15)
    f = cfg_full.freqs
    assert len(f) == 1001
    assert f[0] == pytest.approx(36.5e9)
    assert np.allclose(np.diff(f), cfg_full.delta_f)
    assert cfg_full.delays[50] == pytest.approx(25e-9, rel=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        SoundingConfig(fc=1e9, bw=1e8, k=1)
    with pytest.raises(ValueError):
        SoundingConfig(fc=1e9, bw=0.0, k=10)
    with pytest.raises(ValueError):
        SoundingConfig(fc=1e9, bw=1e8, k=10, sigma2=-1.0)
    with pytest.raises(ValueError):
        ArrayConfig(m=2)
    with pytest.raises(ValueError):
        MpcTruth(alpha=0.0, phase=0.0, tau=0.0, phi=0.0)
    with pytest.raises(ValueError):
        MpcTruth(alpha=1.0, phase=0.0, tau=-1e-9, phi=0.0)


@pytest.mark.parametrize("field", ["fc", "bw", "pu", "sigma2", "g_tx"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sounding_config_rejects_non_finite(field, bad):
    kw = dict(fc=37.5e9, bw=2e9, k=16, pu=1.0, sigma2=0.1, g_tx=1.0)
    kw[field] = bad
    with pytest.raises(ValueError, match=f"^{field}: expected an? (finite|noise height|amplitude)"):
        SoundingConfig(**kw)


@pytest.mark.parametrize("field", ["alpha", "phase", "tau", "phi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mpc_truth_rejects_non_finite(field, bad):
    kw = dict(alpha=1.0, phase=0.0, tau=1e-9, phi=0.0)
    kw[field] = bad
    with pytest.raises(ValueError, match=f"^{field}: expected an? (finite|amplitude)"):
        MpcTruth(**kw)


@pytest.mark.parametrize("hpbw_deg, refused", [(0.1, True), (0.45, True), (0.62, True),
                                               (0.63, False), (10.0, False)])
def test_a_beam_must_keep_a_gain_one_scan_step_off_boresight(arr36, hpbw_deg, refused):
    """At 36 directions, 10 deg apart, the power gain there underflows below about 0.623 deg."""
    pat = AntennaPattern.gaussian(100.0, np.radians(hpbw_deg))
    if refused:
        with pytest.raises(ValueError, match=r"^h: expected a beam whose power gain one scan"
                                             r" step \(10 deg\) off boresight is a normal float"):
            arr36.require_step_gain(pat, "h", hpbw_deg)
    else:
        arr36.require_step_gain(pat, "h", hpbw_deg)


def test_the_step_gain_rule_reads_both_sides_of_a_tabulated_beam(arr36, pat10):
    """A table whose gain is 0 from -9.5 deg down is refused although +10 deg keeps a gain."""
    angles = np.radians(np.arange(-180.0, 180.0, 0.5))
    gains = np.where(angles > np.radians(-9.4), gain(pat10, angles), 0.0)
    one_sided = AntennaPattern.from_table(angles, gains, hpbw=pat10.hpbw)
    with pytest.raises(ValueError, match="^table: expected a beam"):
        arr36.require_step_gain(one_sided, "table", "one-sided")
    mirrored = AntennaPattern.from_table(angles, gains[::-1], hpbw=pat10.hpbw)
    with pytest.raises(ValueError, match="^table: expected a beam"):
        arr36.require_step_gain(mirrored, "table", "one-sided")
    arr36.require_step_gain(AntennaPattern.from_table(angles, gain(pat10, angles)), "table", "ok")


def test_mpc_phi_wrapped():
    m = MpcTruth(alpha=1.0, phase=0.0, tau=0.0, phi=-np.pi / 2)
    assert m.phi == pytest.approx(1.5 * np.pi)


def test_synth_aligned_zero_delay(cfg_small, arr36, pat10):
    mpc = MpcTruth(alpha=1.0, phase=0.0, tau=0.0, phi=0.0)
    s = synth_cfr([mpc], arr36, pat10, cfg_small)
    expected = np.sqrt(cfg_small.pu) * gain(pat10, 0.0)
    np.testing.assert_allclose(s[0], expected, rtol=1e-12)
    assert np.ptp(np.abs(s[0])) < 1e-9


def test_synth_opposite_angles_symmetry(cfg_small, arr36, pat10):
    mpcs = [
        MpcTruth(alpha=1.0, phase=0.1, tau=10e-9, phi=0.0),
        MpcTruth(alpha=1.0, phase=0.7, tau=10e-9, phi=np.pi),
    ]
    s = synth_cfr(mpcs, arr36, pat10, cfg_small)
    np.testing.assert_allclose(np.abs(s[0]), np.abs(s[18]), rtol=1e-9)


def test_synth_phase_slope(cfg_small, arr36, pat10):
    tau = 25e-9
    s = synth_cfr([MpcTruth(alpha=1.0, phase=0.0, tau=tau, phi=0.0)], arr36, pat10, cfg_small)
    slopes = np.angle(s[0, 1:] / s[0, :-1])
    expected = -2.0 * np.pi * cfg_small.delta_f * tau
    expected = np.angle(np.exp(1j * expected))
    np.testing.assert_allclose(slopes, expected, rtol=1e-9)


def test_synth_requires_mpcs(cfg_small, arr36, pat10):
    with pytest.raises(ValueError):
        synth_cfr([], arr36, pat10, cfg_small)


def test_noise_zero_sigma_identity(cfg_small):
    s = np.ones((4, cfg_small.k), dtype=complex)
    out = add_noise(s, 0.0, seed=1)
    np.testing.assert_array_equal(out, s)
    out[0, 0] = 0  # returned array is a copy
    assert s[0, 0] == 1


def test_noise_determinism():
    s = np.zeros((8, 64), dtype=complex)
    a = add_noise(s, 2.0, seed=123)
    b = add_noise(s, 2.0, seed=123)
    np.testing.assert_array_equal(a, b)
    c = add_noise(s, 2.0, seed=124)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_noise_rejects_bad_sigma2(bad):
    with pytest.raises(ValueError, match="sigma2"):
        add_noise(np.zeros(4, dtype=complex), bad, seed=0)


def test_noise_moments():
    s = np.zeros((1000, 1000), dtype=complex)
    w = add_noise(s, 1.0, seed=0)
    assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(w.real)) < 0.005 and abs(np.mean(w.imag)) < 0.005
    # halves of the variance in each quadrature
    assert np.var(w.real) == pytest.approx(0.5, abs=0.005)


def _cir_direct(y, cfg):
    """The delay transform as the full exponential sum: the reference for ``cfr_to_cir``."""
    kernel = np.exp(2j * np.pi * np.outer(cfg.freqs, cfg.delays))
    return (y @ kernel) / np.sqrt(cfg.k)


def test_cir_fft_equals_direct():
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=64)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    h_fft = cfr_to_cir(y, cfg)
    h_dir = _cir_direct(y, cfg)
    assert np.max(np.abs(h_fft - h_dir)) / np.max(np.abs(h_dir)) < 1e-9


def test_cir_constant_row():
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=8)
    c = 0.7 - 0.2j
    y = np.full((1, 8), c)
    for h in (_cir_direct(y, cfg), cfr_to_cir(y, cfg)):
        assert abs(h[0, 0]) == pytest.approx(np.sqrt(8) * abs(c), rel=1e-12)


def test_parseval(cfg_full):
    rng = np.random.default_rng(11)
    y = rng.standard_normal((6, cfg_full.k)) + 1j * rng.standard_normal((6, cfg_full.k))
    h = cfr_to_cir(y, cfg_full)
    e_in = np.sum(np.abs(y) ** 2, axis=1)
    e_out = np.sum(np.abs(h) ** 2, axis=1)
    np.testing.assert_allclose(e_out, e_in, rtol=1e-9)


def test_on_grid_single_bin(cfg_full, arr36, pat10):
    mpc = MpcTruth(alpha=1.0, phase=0.4, tau=25e-9, phi=0.0)
    h = cfr_to_cir(synth_cfr([mpc], arr36, pat10, cfg_full), cfg_full)
    row = pdp(h)[0]
    assert np.argmax(row) == 50
    assert row[50] / np.sum(row) > 0.999
    expected_peak = cfg_full.k * gain(pat10, 0.0) ** 2
    assert row[50] == pytest.approx(expected_peak, rel=1e-9)


def test_pdp_basics(cfg_small, arr36, pat10):
    assert np.all(pdp(np.zeros((2, 4), dtype=complex)) == 0)
    mpc_a = MpcTruth(alpha=1.0, phase=0.0, tau=10e-9, phi=np.radians(3.0))
    mpc_b = MpcTruth(alpha=1.0, phase=2.1, tau=10e-9, phi=np.radians(3.0))
    pa = pdp(cfr_to_cir(synth_cfr([mpc_a], arr36, pat10, cfg_small), cfg_small))
    pb = pdp(cfr_to_cir(synth_cfr([mpc_b], arr36, pat10, cfg_small), cfg_small))
    np.testing.assert_allclose(pa, pb, rtol=1e-9, atol=1e-20)


def test_padp_assembly(cfg_full, arr36, pat10, mpc_13deg):
    p = simulate_padp([mpc_13deg], arr36, pat10, cfg_full, seed=0)
    assert p.values.shape == (36, 1001)
    assert np.degrees(p.asi) == pytest.approx(10.0)
    assert p.delta_tau == pytest.approx(0.5e-9)
    assert np.all(p.values >= 0)
    for bad in (p.values[:-1], p.values[:, :-1], p.values.T):
        with pytest.raises(ValueError, match="^values: expected a 36 x 1001 map"):
            assemble_padp(bad, arr36, cfg_full)


def test_padp_grids_are_the_configs_grids(cfg_small, arr36, pat10, mpc_13deg):
    """A map's grids are the configs' arrays, and a map built by hand shares them too."""
    p = simulate_padp([mpc_13deg], arr36, pat10, cfg_small)
    by_hand = Padp(p.values.copy(), cfg_small.delta_tau)
    for q in (p, by_hand):
        assert q.angles is arr36.steering_angles and q.delays is cfg_small.delays
        assert q.asi == 2.0 * np.pi / 36 and q.delta_tau == cfg_small.delta_tau
    with pytest.raises(FrozenInstanceError):
        p.delays = np.zeros(cfg_small.k)
    with pytest.raises(TypeError):
        Padp(p.values, angles=p.angles, delays=p.delays)


def test_padp_global_phase_invariance(cfg_small, arr36, pat10):
    mpcs = [
        MpcTruth(alpha=1.0, phase=0.3, tau=10e-9, phi=0.2),
        MpcTruth(alpha=0.5, phase=1.1, tau=20e-9, phi=2.2),
    ]
    rot = [MpcTruth(m.alpha, m.phase + 1.234, m.tau, m.phi) for m in mpcs]
    a = simulate_padp(mpcs, arr36, pat10, cfg_small, seed=0).values
    b = simulate_padp(rot, arr36, pat10, cfg_small, seed=0).values
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-18)


def test_output_snr_scales_with_gmax(cfg_small, arr36):
    from padpkit import AntennaPattern

    mpc = MpcTruth(alpha=1.0, phase=0.0, tau=32e-9, phi=0.0)
    ratios = []
    for g_max in (100.0, 200.0):
        pat = AntennaPattern.gaussian(g_max, np.radians(10.0))
        cfg = SoundingConfig(fc=cfg_small.fc, bw=cfg_small.bw, k=cfg_small.k, sigma2=1.0)
        p = simulate_padp([mpc], arr36, pat, cfg, seed=7)
        peak = p.values[0].max()
        floor = np.median(p.values) / np.log(2.0)
        ratios.append(peak / floor)
    assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=0.15)


def test_padp_validation():
    with pytest.raises(ValueError, match="^values: expected a 2-D map"):
        Padp(np.ones(3), 1.0)
    for shape in ((3, 1), (3, 0), (0, 4)):  # fewer than two delay bins, or no scan direction
        with pytest.raises(ValueError, match=r"^values: expected a 2-D map of 3 or more scan"):
            Padp(np.ones(shape), 1.0)
    assert Padp(np.ones((3, 2)), 1e308).delays[-1] == 1e308  # a finite last delay


@pytest.mark.parametrize(
    "shape, kw, field",
    [
        ((1, 16), {}, "values"),
        ((2, 16), {}, "values"),
        ((3, 4), {"h": [[0j] * 4] * 3}, "h"),
        ((3, 4), {"h": np.ones((3, 5), dtype=complex)}, "h"),
        ((3, 4), {"f_start": np.nan}, "f_start"),
        ((3, 4), {"f_start": np.inf}, "f_start"),
        ((3, 4), {"f_start": "x"}, "f_start"),
    ],
    ids=["1-row", "2-rows", "h-list", "h-shape", "f_start-nan", "f_start-inf", "f_start-text"],
)
def test_padp_refuses_what_haed_and_its_spectra_cannot_use(shape, kw, field):
    """Fewer than 3 scan directions, an h that is no m x k array, a non-finite f_start.

    haed compares each peak with both neighbours, so 1 and 2 rows gave
    meaningless angles; a list h and a text f_start failed later with no
    field named, and a NaN or inf f_start turned every haed+ power to NaN.
    """
    with pytest.raises(ValueError, match=f"^{field}: expected "):
        Padp(np.ones(shape), 1.0, **kw)


@pytest.mark.parametrize(
    "k, delta_tau",
    [(4, 0.0), (4, -1e-9), (4, np.nan), (4, np.inf), (4, True), (3, 1e308)],
    ids=["zero", "negative", "nan", "inf", "bool", "last-delay-overflows"],
)
def test_padp_refuses_a_delta_tau_that_is_not_positive_and_finite(k, delta_tau):
    """The delay step must be > 0 and the last delay (k - 1) * delta_tau finite."""
    with pytest.raises(ValueError, match="^delta_tau: "):
        Padp(np.ones((3, k)), delta_tau)


def _tabulated_copy(pat):
    ang = np.radians(np.arange(-180.0, 180.0, 0.02))
    return AntennaPattern.from_table(ang, gain(pat, ang))


@pytest.mark.parametrize(
    "taus_ns, tabulated",
    [((25.0,), False), ((25.37,), False), ((25.0, 31.81), False), ((25.37,), True)],
    ids=["on_grid", "off_grid", "two_arrivals", "tabulated"],
)
def test_noise_free_delay_synthesis_matches_spectral_path(
    taus_ns, tabulated, cfg_full, arr36, pat10
):
    """The delay-domain order reproduces spectra -> transform -> |h|^2."""
    phis = np.radians([13.0, 200.0])
    mpcs = [
        MpcTruth(alpha=1.0 - 0.4 * i, phase=0.4 + 1.6 * i, tau=t * 1e-9, phi=phis[i])
        for i, t in enumerate(taus_ns)
    ]
    pat = _tabulated_copy(pat10) if tabulated else pat10
    got = simulate_padp(mpcs, arr36, pat, cfg_full, seed=0).values
    ref = pdp(cfr_to_cir(synth_cfr(mpcs, arr36, pat, cfg_full), cfg_full))
    assert np.max(np.abs(got - ref)) / np.max(ref) < 1e-12


def test_kept_spectra_reproduce_the_map(cfg_small, arr36, pat10, mpc_13deg):
    cfg = SoundingConfig(fc=cfg_small.fc, bw=cfg_small.bw, k=cfg_small.k, sigma2=0.5)
    p = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=3, keep_cfr=True)
    back = pdp(cfr_to_cir(p.spectra(), cfg))
    assert np.max(np.abs(back - p.values)) / np.max(p.values) < 1e-12
    h = cfr_to_cir(p.spectra(), cfg)
    np.testing.assert_allclose(h, p.h, rtol=0, atol=1e-12 * np.abs(p.h).max())
    np.testing.assert_allclose(
        replace(p, h=h).spectra(), p.spectra(), rtol=0, atol=1e-12 * np.abs(p.spectra()).max()
    )
    # the spectra of any rows are those rows of the full spectra
    np.testing.assert_array_equal(p.spectra([4, 1]), p.spectra()[[4, 1]])


def test_spectra_reuse_one_read_only_ramp_per_grid(cfg_small, arr36, pat10, mpc_13deg):
    """Maps on one grid share the cached band-start ramp; the spectra keep their bits."""
    cfg = replace(cfg_small, sigma2=0.5)
    first = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=1, keep_cfr=True)
    second = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=2, keep_cfr=True)
    ramp = np.exp(2j * np.pi * first.f_start * first.delays)  # the uncached formula
    for p in (first, second):
        want = np.fft.fft(p.h * ramp.conj(), axis=-1, norm="ortho")
        assert p.spectra().tobytes() == want.tobytes()
    cached = synthesis._band_start_ramp(first.f_start, cfg.k, first.delta_tau)
    assert cached is synthesis._band_start_ramp(second.f_start, cfg.k, second.delta_tau)
    assert not cached.flags.writeable


def test_keep_cfr_does_not_change_values(cfg_small, arr36, pat10, mpc_13deg):
    cfg = SoundingConfig(fc=cfg_small.fc, bw=cfg_small.bw, k=cfg_small.k, sigma2=0.5)
    with_cfr = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=11, keep_cfr=True)
    without = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=11, keep_cfr=False)
    assert without.h is None and with_cfr.h is not None
    np.testing.assert_array_equal(without.values, with_cfr.values)


def _assert_white_with_height_1(w):
    """The bounds of ``test_noise_moments`` plus adjacent-bin correlation below 0.01."""
    power = np.mean(np.abs(w) ** 2)
    assert power == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(w.real)) < 0.005 and abs(np.mean(w.imag)) < 0.005
    assert np.var(w.real) == pytest.approx(0.5, abs=0.005)
    assert np.var(w.imag) == pytest.approx(0.5, abs=0.005)
    adjacent = np.mean(w[:, 1:] * np.conj(w[:, :-1]))
    assert abs(adjacent) / power < 0.01


def test_delay_domain_noise_is_white_with_height_sigma2(pat10):
    """Noise drawn in delay has the spectral-model statistics in both domains.

    Same sample count and bounds as ``test_noise_moments``; the noise is
    recovered as the noisy minus the noise-free response.
    """
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=1000, sigma2=1.0)
    arr = ArrayConfig(m=1000)
    mpcs = [MpcTruth(alpha=1.0, phase=0.4, tau=25e-9, phi=np.radians(13.0))]
    p = simulate_padp(mpcs, arr, pat10, cfg, seed=0, keep_cfr=True)
    s = synth_cfr(mpcs, arr, pat10, cfg)
    w_freq = p.spectra() - s
    w_delay = p.h - cfr_to_cir(s, cfg)
    for w in (w_delay, w_freq):
        _assert_white_with_height_1(w)


@pytest.mark.parametrize(
    "taus_ns", [(25.0, 30.5), (25.0, 25.0, 250.0)], ids=["two-bins", "shared-bin"]
)
def test_on_grid_h_is_white_in_both_domains(pat10, taus_ns):
    """The power-and-phase draw keeps h white with height sigma2, several arrivals included."""
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=1000, sigma2=1.0)
    arr = ArrayConfig(m=1000)
    mpcs = [
        MpcTruth(0.5 + i, 0.4 * i, t * 1e-9, np.radians(13.0 + 40 * i))
        for i, t in enumerate(taus_ns)
    ]
    assert synthesis._on_grid_bins(np.array(taus_ns) * 1e-9, cfg) is not None
    p = simulate_padp(mpcs, arr, pat10, cfg, seed=5, keep_cfr=True)
    s = synth_cfr(mpcs, arr, pat10, cfg)
    _assert_white_with_height_1(p.h - cfr_to_cir(s, cfg))
    _assert_white_with_height_1(p.spectra() - s)


def _on_grid_noise_map(keep_cfr, seed=3, sigma2=2.0):
    """A 1000 x 1000 noisy map of one on-grid arrival (bin 50) and its zero-response cells."""
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=1000, sigma2=sigma2)
    mpc = MpcTruth(alpha=1.0, phase=0.4, tau=25e-9, phi=np.radians(13.0))
    pat = AntennaPattern.gaussian(100.0, np.radians(10.0))
    p = simulate_padp([mpc], ArrayConfig(m=1000), pat, cfg, seed=seed, keep_cfr=keep_cfr)
    zero = np.ones(cfg.k, dtype=bool)
    zero[50] = False
    return p, zero


def test_zero_response_power_is_sigma2_times_exp1():
    """Off the arrival's bin |h|**2 follows sigma2 * Exp(1): moments and a KS bound."""
    sigma2 = 2.0
    p, zero = _on_grid_noise_map(keep_cfr=False, sigma2=sigma2)
    x = np.sort(p.values[:, zero].ravel()) / sigma2
    n = x.size
    assert np.mean(x) == pytest.approx(1.0, abs=0.005)
    assert np.var(x) == pytest.approx(1.0, abs=0.02)
    # Kolmogorov-Smirnov distance to 1 - exp(-x); 1.63 / sqrt(n) is the 1% critical value
    cdf = -np.expm1(-x)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 1.63 / np.sqrt(n)
    # the arrival's own column carries the signal: far above the noise
    assert np.min(p.values[30:60, 50]) > 100 * sigma2


def test_zero_response_power_is_exp1_within_its_float32_tail_bound():
    """KS to sigma2 * Exp(1) on another seed, [0, 32 ln 2 * sigma2], and a populated tail."""
    sigma2 = 0.37
    p, zero = _on_grid_noise_map(keep_cfr=True, seed=29, sigma2=sigma2)
    x = np.sort(p.values[:, zero].ravel()) / sigma2
    n = x.size
    cdf = -np.expm1(-x)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 1.63 / np.sqrt(n)
    assert x[0] >= 0 and not np.signbit(x[0])
    assert x[-1] <= 32 * np.log(2) * (1 + 1e-6)
    # the tail beyond 8 is Exp(1)'s, within 5 Poisson standard deviations
    expected = n * np.exp(-8.0)
    assert abs(np.count_nonzero(x > 8.0) - expected) < 5 * np.sqrt(expected)


class _Words:
    """A stand-in generator whose raw words are given."""

    def __init__(self, words):
        self.bit_generator = self
        self._words = np.array(words, dtype=np.uint64)

    def random_raw(self, n):
        out, self._words = self._words[:n], self._words[n:]
        assert out.size == n
        return out


def test_log_uniforms_span_minus_32_ln2_to_zero_and_drop_an_odd_half():
    """x = 2**32 - 1 gives ln u = +0.0, x = 0 gives -32 ln 2; an odd count drops the last half."""
    top = 2**32 - 1
    log_u = np.empty(3, dtype=np.float32)
    synthesis._log_uniforms(_Words([top | (2**32 - 2**31) << 32, 7 << 32]), log_u)
    assert log_u[0] == 0 and not np.signbit(log_u[0])
    assert log_u[1] == pytest.approx(-np.log(2.0), rel=1e-6)  # u = 1/2
    assert log_u[2] == pytest.approx(-32 * np.log(2.0), rel=1e-6)  # x = 0: the low half of 7 << 32
    cos, sin = np.empty(2, dtype=np.float32), np.empty(2, dtype=np.float32)
    synthesis._uniform_phases(_Words([2**30 << 32]), cos, sin)  # theta = 0 and pi / 2
    np.testing.assert_allclose(cos, [1.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(sin, [0.0, 1.0], atol=1e-7)


def test_zero_response_phases_are_uniform_and_independent_of_the_power():
    p, zero = _on_grid_noise_map(keep_cfr=True)
    h, power = p.h[:, zero].ravel(), p.values[:, zero].ravel()
    np.testing.assert_allclose(np.abs(h) ** 2, power, rtol=1e-14, atol=0)
    theta = np.angle(h)
    n = theta.size
    u = np.sort((theta + np.pi) / (2 * np.pi))
    ks = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
    assert ks < 1.63 / np.sqrt(n)
    # independence: the phase's first two circular moments vanish in each power quartile
    quartile = np.searchsorted(np.quantile(power, [0.25, 0.5, 0.75]), power)
    for q in range(4):
        t = theta[quartile == q]
        for order in (1, 2):
            assert abs(np.mean(np.exp(1j * order * t))) < 4.0 / np.sqrt(t.size)
    assert abs(np.mean(power * np.exp(1j * theta))) / np.mean(power) < 4.0 / np.sqrt(n)


def _halves(rng, shape):
    """The 32-bit halves of ``rng``'s next raw words, low half first, as float32 values."""
    n = int(np.prod(shape))
    words = rng.bit_generator.random_raw((n + 1) // 2)
    x = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(-1)[:n]
    return x.astype(np.float32).reshape(shape)


def _exp_reference(rng, shape):
    """Exp(1) as documented: -ln u in float32, u = (x + 1) / 2**32."""
    return -np.log((_halves(rng, shape) + np.float32(1.0)) * np.float32(2.0**-32))


def _noise_reference(rng, shape, sigma2):
    """The documented law of ``add_noise``, written out: powers, then float32 phases."""
    e = _exp_reference(rng, shape)
    theta = _halves(rng, shape) * np.float32(2.0 * np.pi / 2.0**32)
    amp = np.sqrt(e * np.float32(sigma2))
    return (np.cos(theta) * amp).astype(np.float64) + 1j * (np.sin(theta) * amp)


def test_on_grid_map_draws_in_the_documented_order(cfg_small, arr36, pat10):
    """Complex noise on the signal column, then the power of every cell, then the phases.

    With 37 scan directions and one arrival the column's powers and phases
    each drop a last half-word, and so does the map's power draw (37 x 257).
    """
    cfg = replace(cfg_small, sigma2=0.7)
    mpcs = [MpcTruth(1.0, 0.3, 25e-9, np.radians(13.0)), MpcTruth(0.6, 1.1, 25e-9, 2.0)]
    for arr, arrivals in [(arr36, mpcs), (ArrayConfig(37), mpcs[:1])]:
        got = simulate_padp(arrivals, arr, pat10, cfg, seed=8, keep_cfr=False)
        signal = synth_cfr(arrivals, arr, pat10, cfg)
        rng = np.random.default_rng(8)
        w = _noise_reference(rng, arr.m, cfg.sigma2)
        want = _exp_reference(rng, (arr.m, cfg.k)).astype(np.float64) * cfg.sigma2
        want[:, 50] = np.abs(cfr_to_cir(signal, cfg)[:, 50] + w) ** 2
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(got.values[:, :50], want[:, :50])


def test_keep_cfr_draws_phases_after_the_map(cfg_small, arr36, pat10, mpc_13deg):
    """Without h the phase draw is skipped; the map is the same either way."""
    cfg = replace(cfg_small, sigma2=0.5)
    rng_without, rng_with = np.random.default_rng(6), np.random.default_rng(6)
    without = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=rng_without, keep_cfr=False)
    with_h = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=rng_with, keep_cfr=True)
    assert without.values.tobytes() == with_h.values.tobytes()
    assert without.h is None
    # the phases drew m * k half-words more, m * k / 2 raw words, from the shared generator
    rng_without.bit_generator.random_raw(arr36.m * cfg.k // 2)
    assert rng_without.random() == rng_with.random()
    np.testing.assert_allclose(np.abs(with_h.h) ** 2, with_h.values, rtol=1e-14, atol=0)


def test_on_grid_bins():
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=64)
    dt = cfg.delta_tau
    bins = synthesis._on_grid_bins
    np.testing.assert_array_equal(bins(np.array([3 * dt, 0.0, 3 * dt]), cfg), [0, 3])
    np.testing.assert_array_equal(bins(np.array([25e-9, 5e-9]), cfg), [10, 50])
    assert bins(np.array([(7 + 2e-10) * dt]), cfg) is not None
    assert bins(np.array([(7 + 1e-8) * dt]), cfg) is None
    assert bins(np.array([3 * dt, 7.5 * dt]), cfg) is None
    assert bins(np.array([63 * dt]), cfg) is not None
    assert bins(np.array([64 * dt]), cfg) is None  # beyond the grid: aliases


@pytest.mark.parametrize("bins", [257.0, 257.0 + 1e-9, 1e6])
def test_simulate_refuses_an_arrival_at_or_past_the_delay_window(cfg_small, arr36, pat10, bins):
    """The transform is circular over k bins: an arrival at k/bw or later would alias."""
    late = MpcTruth(1.0, 0.0, bins * cfg_small.delta_tau, 0.0)
    early = MpcTruth(1.0, 0.0, 25e-9, 0.0)
    for sigma2 in (0.0, 0.5):
        with pytest.raises(ValueError, match="^tau: .* delay window"):
            simulate_padp([early, late], arr36, pat10, replace(cfg_small, sigma2=sigma2))
    last = MpcTruth(1.0, 0.0, 256.9 * cfg_small.delta_tau, 0.0)
    assert simulate_padp([last], arr36, pat10, cfg_small).values.shape == (36, 257)


def test_cached_grids_are_read_only_and_equal_the_formulas(cfg_full):
    cfg = SoundingConfig(fc=cfg_full.fc, bw=cfg_full.bw, k=cfg_full.k)
    f_start = cfg.fc - 0.5 * cfg.bw
    formulas = {
        "freqs": f_start + np.arange(cfg.k) * cfg.delta_f,
        "delays": np.arange(cfg.k) * cfg.delta_tau,
    }
    arr = ArrayConfig(m=36)
    grids = [(getattr(cfg, name), getattr(cfg, name), ref) for name, ref in formulas.items()]
    grids.append((arr.steering_angles, arr.steering_angles, 2.0 * np.pi * np.arange(36) / 36))
    for grid, again, ref in grids:
        assert grid is again  # computed once per config
        assert grid.tobytes() == ref.tobytes()
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0


def test_add_noise_into_draw_adds_in_place():
    """With ``draw`` the sum is formed in ``s`` and returned; without, ``s`` is kept."""
    s = np.full((3, 5), 0.5 - 0.25j)
    for sigma2 in (0.0, 2.0):
        draw, target = np.empty((3, 3, 5), dtype=np.float32), s.copy()
        got = add_noise(target, sigma2, seed=9, draw=draw)
        assert got is target
        assert got.tobytes() == add_noise(s, sigma2, seed=9).tobytes()
    assert np.all(s == 0.5 - 0.25j)
    for bad in (
        np.empty((3, 5, 3), dtype=np.float32),
        np.empty((2, 3, 5), dtype=np.float32),
        np.empty((3, 3, 5)),
        np.empty((3, 5, 3), dtype=np.float32).transpose(2, 0, 1),
    ):
        with pytest.raises(ValueError, match="draw must"):
            add_noise(s.copy(), 1.0, seed=9, draw=bad)
    read_only = s.copy()
    read_only.flags.writeable = False
    shared = np.zeros(4 * s.size, dtype=np.float32)  # s's 240 bytes, the draw's first 180
    overlapping = (shared.view(np.complex128).reshape(s.shape), shared[:45].reshape(3, 3, 5))
    draw = np.empty((3, 3, 5), dtype=np.float32)
    for bad, scratch in (
        (s.astype(np.complex64), draw),
        (read_only, draw),
        (s.tolist(), draw),
        overlapping,
    ):
        with pytest.raises(ValueError, match="s must"):
            add_noise(bad, 1.0, seed=9, draw=scratch)


@pytest.mark.parametrize("s", [np.array(1 + 0j), np.complex128(1 + 0j), 1 + 0j])
def test_add_noise_takes_a_single_sample(s):
    """A 0-d sample gets the first sample of a one-element vector's noise, as a 0-d array."""
    want = add_noise(np.array([1 + 0j]), 1.0, 0)[0]
    got = add_noise(s, 1.0, 0)
    assert got.shape == () and got == want and got != 1 + 0j
    target = np.array(1 + 0j)
    assert add_noise(target, 1.0, 0, draw=np.empty(3, dtype=np.float32)) is target
    assert target == want


def test_add_noise_draws_the_documented_law_in_order():
    """Exponential powers for every sample, then float32 phases: the reference formula.

    An odd count drops the last half of each run of words, an empty draw
    takes none, and a draw longer than one ``random_raw`` block reads the
    same stream.
    """
    for shape in [(4, 6), (3, 5), (0,), (36, 0), (1, 2 * 12288 + 3)]:
        s = np.linspace(-1, 1, int(np.prod(shape))).reshape(shape) * (1 - 2j)
        got = add_noise(s, 0.3, seed=np.random.default_rng(2))
        want = s + _noise_reference(np.random.default_rng(2), s.shape, 0.3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


_erfc = np.frompyfunc(erfc, 1, 1)


def test_add_noise_is_circular_gaussian_noise():
    """1e6 samples: re and im each N(0, sigma2/2), uncorrelated; |w|^2/sigma2 ~ Exp(1); uniform phase."""
    sigma2, n = 2.5, 10**6
    w = add_noise(np.zeros((1000, 1000), dtype=complex), sigma2, seed=12).ravel()
    crit = 1.63 / np.sqrt(n)  # Kolmogorov-Smirnov 1% critical value

    def ks(x, cdf):
        c = cdf(np.sort(x))
        return max(np.max(np.arange(1, n + 1) / n - c), np.max(c - np.arange(n) / n))

    for part in (w.real, w.imag):
        z = part / np.sqrt(sigma2 / 2)
        assert abs(np.mean(z)) < 5 / np.sqrt(n)
        assert np.var(z) == pytest.approx(1.0, abs=5 * np.sqrt(2 / n))
        assert np.mean(z**3) == pytest.approx(0.0, abs=5 * np.sqrt(15 / n))
        assert np.mean(z**4) == pytest.approx(3.0, abs=5 * np.sqrt(96 / n))
        assert ks(z, lambda x: 0.5 * _erfc(-x / np.sqrt(2)).astype(float)) < crit
    assert abs(np.mean(w.real * w.imag)) / (sigma2 / 2) < 5 / np.sqrt(n)
    assert ks(np.abs(w) ** 2 / sigma2, lambda x: -np.expm1(-x)) < crit
    assert ks(np.angle(w), lambda x: (x + np.pi) / (2 * np.pi)) < crit


@pytest.mark.parametrize("keep_cfr", [True, False])
@pytest.mark.parametrize(
    "sigma2, tau", [(0.5, 40.2e-9), (0.5, 25e-9), (0.0, 40.2e-9)],
    ids=["off-grid-noisy", "on-grid-noisy", "noise-free"],
)
def test_workspace_synthesis_allocates_no_map(cfg_full, arr36, pat10, sigma2, tau, keep_cfr):
    """A call on a workspace stays under 256 kB of new memory: no map-sized (288 kB) temporary."""
    import tracemalloc

    cfg = replace(cfg_full, sigma2=sigma2)
    mpcs = [MpcTruth(1.0, 0.3, tau, np.radians(13.0)), MpcTruth(0.6, 1.1, 60e-9, 2.0)]
    ws = Workspace(arr36.m, cfg.k)
    simulate_padp(mpcs, arr36, pat10, cfg, seed=1, keep_cfr=keep_cfr, workspace=ws)  # warm caches
    tracemalloc.start()
    try:
        simulate_padp(mpcs, arr36, pat10, cfg, seed=2, keep_cfr=keep_cfr, workspace=ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("sigma2", [0.0, 0.5])
def test_workspace_call_equals_the_plain_call(cfg_small, arr36, pat10, sigma2):
    cfg = replace(cfg_small, sigma2=sigma2)
    mpcs = [MpcTruth(1.0, 0.3, 25e-9, np.radians(13.0)), MpcTruth(0.6, 1.1, 40.2e-9, 2.0)]
    plain = simulate_padp(mpcs, arr36, pat10, cfg, seed=4)
    ws = Workspace(arr36.m, cfg.k)
    got = simulate_padp(mpcs, arr36, pat10, cfg, seed=4, workspace=ws)
    assert got.values.tobytes() == plain.values.tobytes()
    assert got.h.tobytes() == plain.h.tobytes()
    assert got.values is ws.power and got.h is ws.h


@pytest.mark.parametrize(
    "sigma2, tau", [(0.5, 25e-9), (0.5, 40.2e-9), (0.0, 40.2e-9), (0.0, 25e-9)],
    ids=["on-grid-noisy", "off-grid-noisy", "off-grid-noise-free", "on-grid-noise-free"],
)
def test_a_call_without_a_workspace_keeps_only_its_map_and_h(cfg_small, arr36, pat10, sigma2, tau):
    """Its map and h own their memory: no scratch block stays alive behind them."""
    cfg = replace(cfg_small, sigma2=sigma2)
    got = simulate_padp([MpcTruth(1.0, 0.3, tau, np.radians(13.0))], arr36, pat10, cfg, seed=1)
    assert got.values.base is None and got.h.base is None


@pytest.mark.parametrize(
    "sigma2, tau", [(0.5, 25e-9), (0.5, 40.2e-9), (0.0, 40.2e-9)],
    ids=["on-grid-noisy", "off-grid-noisy", "noise-free"],
)
def test_a_call_without_a_workspace_owns_its_buffers(cfg_small, arr36, pat10, sigma2, tau):
    """Its Padp keeps its map and h through a second call without a workspace."""
    cfg = replace(cfg_small, sigma2=sigma2)
    mpcs = [MpcTruth(1.0, 0.3, tau, np.radians(13.0))]
    first = simulate_padp(mpcs, arr36, pat10, cfg, seed=1)
    kept = first.values.copy(), first.h.copy()
    second = simulate_padp(mpcs, arr36, pat10, replace(cfg, pu=4.0), seed=2)
    assert first.values.tobytes() == kept[0].tobytes() and first.h.tobytes() == kept[1].tobytes()
    assert not np.shares_memory(first.values, second.values)
    assert not np.shares_memory(first.h, second.h)
    assert not np.array_equal(first.values, second.values)


def test_next_workspace_call_overwrites_the_previous_padp(cfg_small, arr36, pat10, mpc_13deg):
    """A Padp built on a workspace is valid only until the workspace's next call."""
    cfg = replace(cfg_small, sigma2=0.5)
    ws = Workspace(arr36.m, cfg.k)
    first = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=1, workspace=ws)
    kept = first.values.copy(), first.h.copy()
    second = simulate_padp([mpc_13deg], arr36, pat10, cfg, seed=2, workspace=ws)
    np.testing.assert_array_equal(first.values, second.values)
    np.testing.assert_array_equal(first.h, second.h)
    assert not np.array_equal(kept[0], second.values) and not np.array_equal(kept[1], second.h)
    with pytest.raises(ValueError, match="workspace shape"):
        simulate_padp([mpc_13deg], arr36, pat10, cfg, workspace=Workspace(arr36.m, cfg.k + 1))


def test_noise_free_synthesis_draws_no_noise(cfg_small, arr36, pat10, mpc_13deg, monkeypatch):
    def boom(*_a, **_k):
        raise AssertionError("add_noise called with sigma2 == 0")

    monkeypatch.setattr(synthesis, "add_noise", boom)
    p = simulate_padp([mpc_13deg], arr36, pat10, cfg_small, seed=0)
    ref = pdp(cfr_to_cir(synth_cfr([mpc_13deg], arr36, pat10, cfg_small), cfg_small))
    assert np.max(np.abs(p.values - ref)) / np.max(ref) < 1e-12


@pytest.mark.parametrize(
    "delays", [[0.0], [1.0, 1.0, 2.0], [2.0, 1.0, 0.0], [np.nan, 1.0, 2.0]], ids=str
)
def test_padp_rejects_delay_grids_without_a_positive_first_step(delays):
    """A map's delays are j * delta_tau from 0: one column or a non-positive first step is refused."""
    v = np.ones((3, len(delays)))
    step = delays[1] - delays[0] if len(delays) > 1 else 1.0
    with pytest.raises(ValueError, match="^(values: expected a 2-D map|delta_tau: )"):
        Padp(v, step)
    np.testing.assert_array_equal(Padp(np.ones((3, 3)), 1.0).delays, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_padp_rejects_non_finite_or_negative_values(bad):
    v = np.ones((3, 4))
    v[1, 2] = bad
    with pytest.raises(ValueError, match="^values: expected finite entries >= 0"):
        Padp(v, 1.0)
    v[1, 2] = -0.0  # equal to zero, so allowed
    assert Padp(v, 1.0).values[1, 2] == 0.0


def test_noise_free_off_grid_maps_are_the_transformed_ramps(cfg_small, arr36, pat10, monkeypatch):
    """h is weights @ cfr_to_cir(ramps) bit for bit, the map |h|**2, and nothing is drawn."""

    def boom(*_a, **_k):
        raise AssertionError("noise-free map drew generator words")

    monkeypatch.setattr(synthesis, "_uniforms", boom)
    mpcs = [MpcTruth(1.0, 0.4, 25e-9, 0.2), MpcTruth(0.7, 2.0, 40.3e-9, 3.5)]
    alpha, phase, phi, tau = synthesis._truth_params(mpcs)
    for cfg in (cfg_small, replace(cfg_small, pu=3.0, g_tx=0.5)):
        weights = synthesis._arrival_weights(alpha, phase, phi, arr36, pat10, cfg)
        want = weights @ cfr_to_cir(synthesis._arrival_ramps(tau, cfg, 0.0), cfg)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        p = simulate_padp(mpcs, arr36, pat10, cfg, seed=rng, keep_cfr=True)
        assert rng.bit_generator.state == state
        assert p.h.tobytes() == want.tobytes()
        assert p.values.tobytes() == (np.abs(want) ** 2).tobytes()


def _truths(taus_ns):
    phis = np.radians([13.0, 200.0, 47.0])
    return [
        MpcTruth(alpha=1.0 - 0.3 * i, phase=0.4 + 1.6 * i, tau=t * 1e-9, phi=phis[i])
        for i, t in enumerate(taus_ns)
    ]


@pytest.mark.parametrize(
    "taus_ns",
    [(25.0,), (25.0, 31.5), (25.0, 25.0), (0.0, 31.5, 500.0)],
    ids=["one", "two", "two-on-one-bin", "three"],
)
def test_noise_free_on_grid_columns_are_sqrt_k_times_the_summed_weights(
    cfg_full, arr36, pat10, taus_ns
):
    """Bin q carries sqrt(k) times the weights of its arrivals, summed in arrival order.

    That is the transform's value there to rounding; every other cell is +0.0.
    """
    mpcs = _truths(taus_ns)
    alpha, phase, phi, tau = synthesis._truth_params(mpcs)
    w = synthesis._arrival_weights(alpha, phase, phi, arr36, pat10, cfg_full)
    bins = [round(t * 1e-9 * cfg_full.bw) for t in taus_ns]
    cols = sorted(set(bins))
    want = np.stack(
        [np.sqrt(cfg_full.k) * sum(w[:, l] for l, b in enumerate(bins) if b == q) for q in cols],
        axis=1,
    )
    kept = simulate_padp(mpcs, arr36, pat10, cfg_full, keep_cfr=True)
    assert kept.h[:, cols].tobytes() == want.tobytes()
    assert kept.values[:, cols].tobytes() == (np.abs(want) ** 2).tobytes()
    full = cfr_to_cir(synth_cfr(mpcs, arr36, pat10, cfg_full), cfg_full)[:, cols]
    assert np.max(np.abs(kept.h[:, cols] - full)) <= 1e-12 * np.max(np.abs(full))
    ref = pdp(full)
    assert np.max(np.abs(kept.values[:, cols] - ref)) <= 1e-12 * np.max(ref)
    off = np.ones(cfg_full.k, dtype=bool)
    off[cols] = False
    for a in (kept.values[:, off], kept.h[:, off].real, kept.h[:, off].imag):
        assert not np.any(a) and not np.any(np.signbit(a))
    values = kept.values.copy()
    bare = simulate_padp(mpcs, arr36, pat10, cfg_full, keep_cfr=False)
    assert bare.h is None
    assert bare.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("sigma2", [0.0, 0.5])
@pytest.mark.parametrize(
    "taus_ns", [(25.0,), (25.0, 25.0), (0.0, 31.5, 500.0)], ids=["one", "two-on-one-bin", "three"]
)
def test_on_grid_maps_skip_the_delay_transform(
    cfg_full, arr36, pat10, monkeypatch, sigma2, taus_ns
):
    def boom(*_a, **_k):
        raise AssertionError("on-grid map transformed")

    cfg = replace(cfg_full, sigma2=sigma2)
    monkeypatch.setattr(synthesis, "cfr_to_cir", boom)
    simulate_padp(_truths(taus_ns), arr36, pat10, cfg, seed=3)
    # 5e-10 bins off bin 50, within _ON_GRID_TOL: synthesized on it, bit for bit
    assert (25.0 + 2.5e-10) * 1e-9 * cfg.bw != 50.0
    near = simulate_padp(_truths([25.0 + 2.5e-10]), arr36, pat10, cfg, seed=3)
    kept = near.values.copy(), near.h.copy()
    exact = simulate_padp(_truths([25.0]), arr36, pat10, cfg, seed=3)
    assert exact.values.tobytes() == kept[0].tobytes() and exact.h.tobytes() == kept[1].tobytes()


def test_off_grid_maps_still_transform(cfg_full, arr36, pat10, monkeypatch):
    calls = []

    def spy(f):
        def wrapped(*a, **k):
            calls.append(f.__name__)
            return f(*a, **k)

        return wrapped

    monkeypatch.setattr(synthesis, "cfr_to_cir", spy(synthesis.cfr_to_cir))
    simulate_padp(_truths([25.0, 40.2]), arr36, pat10, cfg_full)
    assert calls == ["cfr_to_cir"]


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: SoundingConfig(fc=37.5e9, bw=2e9, k=2.5), "k"),
        (lambda: SoundingConfig(fc=37.5e9, bw=2e9, k=np.float64(8)), "k"),
        (lambda: SoundingConfig(fc=37.5e9, bw=2e9, k=True), "k"),
        (lambda: ArrayConfig(m=3.5), "m"),
        (lambda: ArrayConfig(m=np.float64(36)), "m"),
    ],
    ids=["k-fraction", "k-float64", "k-bool", "m-fraction", "m-float64"],
)
def test_grid_sizes_must_be_integers(make, field):
    with pytest.raises(ValueError, match=f"^{field}: expected an integer >= "):
        make()


def test_grid_sizes_accept_numpy_integers():
    assert SoundingConfig(fc=37.5e9, bw=2e9, k=np.int64(8)).delays.size == 8
    assert ArrayConfig(m=np.uint16(36)).steering_angles.size == 36


@pytest.mark.parametrize(
    "kw, field",
    [
        (dict(g_tx=0.0), "g_tx"),
        (dict(g_tx=-1.0), "g_tx"),
        (dict(g_tx=1e200), "g_tx"),  # its square, the power gain, overflows
        (dict(sigma2=1e38), "sigma2"),
        (dict(bw=1e-310), "the last delay"),  # 1/bw overflows
        (dict(fc=-1.7e308, bw=1e308), "the band edge"),
    ],
    ids=["g_tx-zero", "g_tx-negative", "g_tx-square", "sigma2-ceiling", "delay", "band-edge"],
)
def test_sounding_config_refuses_values_that_overflow_its_grids_or_draws(kw, field):
    with pytest.raises(ValueError, match=f"^{field}"):
        SoundingConfig(**{**dict(fc=37.5e9, bw=2e9, k=16, sigma2=0.1), **kw})


def test_noise_at_the_height_ceiling_stays_finite():
    """sigma2 * E of the float32 draw reaches the float32 maximum, not beyond it."""
    from padpkit.checks import NOISE_HEIGHT_MAX

    w = add_noise(np.zeros((4, 1000), dtype=complex), NOISE_HEIGHT_MAX, seed=0)
    assert np.all(np.isfinite(w))
    # the largest draw: a raw half x = 0 gives u = 2**-32, so E = 32 ln 2 in float32
    step = np.float32(2.0**-32)
    assert np.isfinite(np.log(np.float32(0.0) * step + step) * np.float32(-NOISE_HEIGHT_MAX))
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=16, sigma2=NOISE_HEIGHT_MAX)
    assert cfg.sigma2 == NOISE_HEIGHT_MAX
    with pytest.raises(ValueError, match="^sigma2: expected a noise height"):
        add_noise(np.zeros(4, dtype=complex), np.nextafter(NOISE_HEIGHT_MAX, np.inf), seed=0)


@pytest.mark.parametrize("name", ["delays"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_padp_refuses_non_finite_grids(name, bad):
    """A delay grid ending in a non-finite entry has no finite step, and is refused."""
    k = 4
    with pytest.raises(ValueError, match="^delta_tau: "):
        Padp(np.ones((3, k)), bad / (k - 1))
    assert np.all(np.isfinite(getattr(Padp(np.ones((3, k)), 1.0), name)))
