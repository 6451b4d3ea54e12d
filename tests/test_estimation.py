import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padpkit import (
    AntennaPattern,
    ArrayConfig,
    MpcTruth,
    Padp,
    SoundingConfig,
    simulate_padp,
)
from padpkit.angles import circular_delta, wrap_two_pi
from padpkit.antenna import (
    CHI_CLAMP,
    ChiSaturationError,
    PatternKind,
    Side,
    chi,
    gain,
    invert_chi_closed,
    invert_chi_tabulated,
    power_gain,
)
from padpkit.estimation import (
    Method,
    MpcEstimate,
    _median,
    PeakConfig,
    coarse_peaks_2d,
    estimate_haed,
    estimate_o1,
    estimate_o2,
    _subbin_kernel,
    _subbin_powers,
    haed_plus_refine,
    haed_refine,
    noise_threshold,
    o2_deembed_constant,
    synth_omni_max,
    synth_omni_sum,
)

K_SMALL = 257


def _row_power(cfr_row, delta_f, taus):
    """|h(tau)|**2 of one row's band-limited delay response at arbitrary taus.

    The absolute band position only contributes a unimodular factor, so
    baseband frequency indices suffice for magnitudes.
    """
    k = cfr_row.shape[0]
    phases = np.exp(2j * np.pi * np.outer(taus, np.arange(k) * delta_f))
    h = phases @ cfr_row / np.sqrt(k)
    return np.abs(h) ** 2


def _padp_for(phi_deg, cfg, arr, pat, tau=32e-9, alpha=1.0, seed=0):
    mpc = MpcTruth(alpha=alpha, phase=0.9, tau=tau, phi=np.radians(phi_deg))
    return simulate_padp([mpc], arr, pat, cfg, seed=seed), mpc


def quantized_angle_error_deg(phi_deg, asi_deg=10.0):
    """phi_3dB * floor(phi/phi_3dB + 0.5) - phi, the scan-grid rounding error."""
    return asi_deg * np.floor(phi_deg / asi_deg + 0.5) - phi_deg


def test_omni_max_single_row():
    p = Padp(values=np.arange(8.0)[None, :], angles=np.zeros(1), delays=np.arange(8.0))
    np.testing.assert_array_equal(synth_omni_max(p), np.arange(8.0))
    np.testing.assert_array_equal(synth_omni_sum(p), np.arange(8.0))


def test_omni_sum_equal_rows():
    v = np.tile(np.arange(6.0), (4, 1))
    p = Padp(values=v, angles=2 * np.pi * np.arange(4) / 4, delays=np.arange(6.0))
    np.testing.assert_array_equal(synth_omni_sum(p), 4.0 * np.arange(6.0))


def test_omni_max_single_entry():
    v = np.zeros((5, 7))
    v[3, 2] = 2.0
    p = Padp(values=v, angles=2 * np.pi * np.arange(5) / 5, delays=np.arange(7.0))
    out = synth_omni_max(p)
    assert out[2] == 2.0 and np.count_nonzero(out) == 1


def test_noise_threshold_zero_map():
    assert noise_threshold(np.zeros((4, 5)), PeakConfig()) == 0.0


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (36, 1001), (36, 1000)])
@pytest.mark.parametrize("ties", [False, True])
def test_noise_threshold_uses_exact_median(shape, ties):
    """The partition median gives the same bits as the np.median formula."""
    rng = np.random.default_rng(5)
    v = rng.exponential(0.3, size=shape)
    if ties:
        v = np.round(v, 1)  # a handful of distinct values, each repeated many times
    pk = PeakConfig()
    ref_floor = float(np.median(v)) / np.log(2.0) * np.log(max(v.size, 2))
    ref = max(ref_floor * 10.0 ** (pk.noise_floor_db_offset / 10.0), float(v.max()) * 1e-12)
    assert noise_threshold(v, pk) == ref


def _nulled_pattern():
    """A tabulated 10 deg beam with zero gain beyond +-30 deg."""
    ang = np.radians(np.arange(-180.0, 180.0, 0.02))
    g = np.where(np.abs(ang) <= np.radians(30.0), 10.0 * np.exp(-1.386 * (ang / 0.1745) ** 2), 0.0)
    return AntennaPattern.from_table(ang, g)


def _median_inputs():
    """name: (input, whether it must partition); only zero majorities skip the partition."""
    rng = np.random.default_rng(3)
    pos = rng.exponential(1.0, size=12)
    neg = -rng.exponential(1.0, size=6)
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=1001)
    maps = {
        # 30030 of 36036 cells are zero off-grid (the nulled rows), all but 6 on-grid
        f"nulled-{name}": (simulate_padp(
            [MpcTruth(1.0, 0.7, tau, np.radians(13.0))], ArrayConfig(m=36), _nulled_pattern(), cfg
        ).values.ravel(), False)
        for name, tau in (("on-grid", 25e-9), ("off-grid", 25.3e-9))
    }
    return {
        "even-half-zeros": (np.concatenate([np.zeros(6), pos[:6]]), True),
        "even-half-plus-one-zeros": (np.concatenate([pos[:5], np.zeros(7)]), False),
        "odd-majority-zeros": (np.concatenate([np.zeros(4), pos[:3]]), False),
        "odd-half-zeros": (np.concatenate([pos[:4], np.zeros(3)]), True),
        "zero-majority-with-negatives": (np.concatenate([neg[:2], np.zeros(6), pos[:3]]), False),
        "zeros-and-negatives-only": (np.concatenate([neg, np.zeros(7)]), False),
        "all-zeros": (np.zeros(8), False),
        "one-zero": (np.zeros(1), False),
        "one-value": (np.array([2.5]), True),
        "no-zeros": (pos, True),
        **maps,
    }


_MEDIAN_INPUTS = _median_inputs()


@pytest.mark.parametrize("name", list(_MEDIAN_INPUTS))
def test_median_equals_numpy_on_zero_heavy_inputs(name, monkeypatch):
    """Bit-equal to np.median; partitions only unless more than half the input is zero."""
    v, partitions = _MEDIAN_INPUTS[name]
    ref = np.float64(np.median(v))
    partitioned = []
    partition = np.partition

    def spy(*args, **kw):
        partitioned.append(True)
        return partition(*args, **kw)

    monkeypatch.setattr(np, "partition", spy)
    got = _median(v)
    assert np.float64(got).tobytes() == ref.tobytes()
    assert bool(partitioned) == partitions


def test_peak_config_validation():
    with pytest.raises(ValueError):
        PeakConfig(noise_floor_db_offset=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_peak_config_rejects_non_finite_thresholds(bad):
    """A NaN threshold would silently detect nothing, and +inf likewise."""
    with pytest.raises(ValueError, match="^noise_floor_db_offset: expected a finite number > 0"):
        PeakConfig(noise_floor_db_offset=bad)


@pytest.fixture(scope="module")
def cfg():
    return SoundingConfig(fc=37.5e9, bw=2e9, k=K_SMALL, pu=1.0, sigma2=0.0)


def test_o1_quantization_exact(cfg, arr36, pat10):
    for phi_deg in (13.0, 1.7, 347.2, 204.9):
        padp, mpc = _padp_for(phi_deg, cfg, arr36, pat10)
        (est,) = estimate_o1(padp, pat10)
        err = np.degrees(circular_delta(est.phi, mpc.phi))
        assert err == pytest.approx(quantized_angle_error_deg(phi_deg), abs=1e-9)


def test_o1_on_steering_exact_power(cfg, arr36, pat10):
    padp, _ = _padp_for(20.0, cfg, arr36, pat10)
    (est,) = estimate_o1(padp, pat10)
    assert np.degrees(est.phi) == pytest.approx(20.0, abs=1e-9)
    assert est.power == pytest.approx(cfg.k * cfg.pu, rel=1e-9)


def test_o1_offset_power_drop(cfg, arr36, pat10):
    padp, _ = _padp_for(25.0, cfg, arr36, pat10)  # 5 deg offset: half power
    (est,) = estimate_o1(padp, pat10)
    drop_db = 10 * np.log10(cfg.k * cfg.pu / est.power)
    assert drop_db == pytest.approx(10 * np.log10(2.0), abs=1e-6)


def test_o2_on_steering(cfg, arr36, pat10):
    padp, _ = _padp_for(20.0, cfg, arr36, pat10)
    (est,) = estimate_o2(padp, pat10)
    assert np.degrees(est.phi) == pytest.approx(20.0, abs=1e-9)


def test_o2_angle_matches_o1(cfg, arr36, pat10):
    padp, _ = _padp_for(13.0, cfg, arr36, pat10)
    (e1,) = estimate_o1(padp, pat10)
    (e2,) = estimate_o2(padp, pat10)
    assert e1.phi == e2.phi and e1.tau == e2.tau


def test_o2_power_ripple(cfg, arr36, pat10):
    offsets = np.linspace(-5.0, 5.0, 21)
    errs_db = []
    for off in offsets:
        padp, _ = _padp_for(20.0 + off, cfg, arr36, pat10)
        (est,) = estimate_o2(padp, pat10)
        errs_db.append(10 * np.log10(est.power / (cfg.k * cfg.pu)))
    errs_db = np.array(errs_db)
    assert np.ptp(errs_db) <= 0.6            # ring-sum ripple stays below 0.6 dB
    assert abs(np.mean(errs_db)) <= 0.05     # mean-unbiased de-embedding


def _ring_sums(pat, m, n=2001):
    """Offsets across one scan step and the o-2 ring sum of the pattern power at each."""
    from padpkit.antenna import power_gain

    steer = 2 * np.pi * np.arange(m) / m
    deltas = np.linspace(0.0, 2 * np.pi / m, n)
    return deltas, power_gain(pat, deltas[:, None] - steer[None, :]).sum(axis=1)


def test_o2_deembed_conventions(pat10):
    """The constant is the ring sum's mean over offsets, strictly inside its ripple."""
    deltas, rings = _ring_sums(pat10, 36)
    mean = o2_deembed_constant(pat10, 36)
    assert rings.min() < mean < rings.max()
    assert mean == pytest.approx(np.trapezoid(rings, deltas) / deltas[-1], rel=1e-9)


def _table_copy(pat, n=3601):
    from padpkit.antenna import gain

    angles = np.linspace(-np.pi, np.pi, n)
    return AntennaPattern.from_table(angles, gain(pat, angles), hpbw=pat.hpbw)


@pytest.mark.parametrize("tabulated", [False, True])
@pytest.mark.parametrize("m", [36, 72])
def test_o2_constant_cache_equals_quadrature(pat10, tabulated, m):
    pat = _table_copy(pat10) if tabulated else pat10
    cached = o2_deembed_constant(pat, m)
    assert cached == o2_deembed_constant.__wrapped__(pat, m)
    assert o2_deembed_constant(pat, m) == cached


def test_o2_constant_cache_is_keyed_on_pattern_value(pat10):
    o2_deembed_constant.cache_clear()
    try:
        for pat in (
            AntennaPattern.gaussian(100.0, np.radians(10.0)),
            AntennaPattern.gaussian(100.0, np.radians(10.0)),
        ):
            o2_deembed_constant(pat, 36)
        info = o2_deembed_constant.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

        tab = _table_copy(pat10)
        o2_deembed_constant(tab, 36)
        o2_deembed_constant(_table_copy(pat10), 36)
        info = o2_deembed_constant.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

        angles, gains = (np.array(a) for a in tab.table)
        gains[1800] *= 1.0 + 1e-9
        other = AntennaPattern.from_table(angles, gains, hpbw=tab.hpbw)
        o2_deembed_constant(other, 36)
        o2_deembed_constant(tab, 72)
        o2_deembed_constant(tab, 18)
        assert o2_deembed_constant.cache_info().currsize == 5
    finally:
        o2_deembed_constant.cache_clear()


def test_coarse_single_peak(cfg, arr36, pat10):
    padp, _ = _padp_for(13.0, cfg, arr36, pat10, tau=32e-9)
    peaks = coarse_peaks_2d(padp)
    assert len(peaks) == 1
    m, j, val = peaks[0]
    assert m == 1 and j == 64  # nearest steering angle 10 deg; 32 ns / 0.5 ns
    assert val == padp.values[1, 64]


def test_coarse_corridor_two_peaks(cfg, arr36, pat10):
    mpcs = [
        MpcTruth(alpha=1.0, phase=0.0, tau=32e-9, phi=0.0),
        MpcTruth(alpha=1.0, phase=1.0, tau=32e-9, phi=np.pi),
    ]
    padp = simulate_padp(mpcs, arr36, pat10, cfg, seed=0)
    peaks = coarse_peaks_2d(padp)
    assert sorted(p[0] for p in peaks) == [0, 18]
    # the 1-D strongest-direction profile merges them into one delay peak
    assert len(estimate_o1(padp, pat10)) == 1
    assert len(peaks) > len(estimate_o1(padp, pat10))


def test_coarse_midpoint_plateau(cfg, arr36, pat10):
    padp, _ = _padp_for(15.0, cfg, arr36, pat10)  # exactly between rows 1 and 2
    peaks = coarse_peaks_2d(padp)
    assert len(peaks) == 1
    assert peaks[0][0] == 1  # lexicographically smallest row of the plateau


def test_haed_noise_free_exactness(cfg, arr36, pat10):
    for phi_deg in (13.0, 17.5, 209.99, 355.0, 42.3):
        padp, mpc = _padp_for(phi_deg, cfg, arr36, pat10)
        (est,) = estimate_haed(padp, pat10)
        angle_err = abs(np.degrees(circular_delta(est.phi, mpc.phi)))
        assert angle_err < 1e-6
        assert est.power == pytest.approx(cfg.k * cfg.pu, rel=1e-9)
        assert not est.clamped


def test_haed_on_steering_chi(cfg, arr36, pat10):
    padp, _ = _padp_for(20.0, cfg, arr36, pat10)
    (est,) = estimate_haed(padp, pat10)
    assert est.eps == pytest.approx(0.0, abs=1e-9)
    assert est.chi_hat == pytest.approx(chi(pat10, 0.0, est.side), rel=1e-9)
    assert np.degrees(est.phi) == pytest.approx(20.0, abs=1e-8)


def test_haed_midpoint(cfg, arr36, pat10):
    padp, mpc = _padp_for(15.0, cfg, arr36, pat10)
    (est,) = estimate_haed(padp, pat10)
    assert est.side is Side.PLUS
    assert np.degrees(est.phi) == pytest.approx(15.0, abs=1e-8)


def test_haed_beats_o1_on_sweep(cfg, arr36, pat10):
    errs_haed, errs_o1 = [], []
    for phi_deg in np.linspace(10.0, 20.0, 21):
        padp, mpc = _padp_for(phi_deg, cfg, arr36, pat10)
        (eh,) = estimate_haed(padp, pat10)
        (e1,) = estimate_o1(padp, pat10)
        errs_haed.append(abs(np.degrees(circular_delta(eh.phi, mpc.phi))))
        errs_o1.append(abs(np.degrees(circular_delta(e1.phi, mpc.phi))))
    assert max(errs_haed) < 1e-6
    assert max(errs_o1) == pytest.approx(5.0, abs=0.01)


def test_haed_exact_when_asi_differs_from_hpbw(cfg, arr36):
    pat = AntennaPattern.gaussian(10 ** 2.46, np.radians(10.67))
    for phi_deg in (13.0, 17.2, 341.1):
        padp, mpc = _padp_for(phi_deg, cfg, arr36, pat)
        (est,) = estimate_haed(padp, pat)
        assert abs(np.degrees(circular_delta(est.phi, mpc.phi))) < 1e-6
        assert est.power == pytest.approx(cfg.k * cfg.pu, rel=1e-9)


def test_haed_power_between_traditional_when_asi_below_hpbw(cfg, arr36):
    # scan step (10 deg) finer than the beam (10.67 deg); de-embedded by the
    # ring sum's minimum instead of its mean, o-2 is an upper bracket
    pat = AntennaPattern.gaussian(10 ** 2.46, np.radians(10.67))
    to_ring_min = o2_deembed_constant(pat, 36) / _ring_sums(pat, 36)[1].min()
    for phi_deg in np.linspace(20.0, 30.0, 21):
        padp, _ = _padp_for(phi_deg, cfg, arr36, pat)
        (e1,) = estimate_o1(padp, pat)
        (e2,) = estimate_o2(padp, pat)
        (eh,) = estimate_haed(padp, pat)
        assert e1.power <= eh.power * (1 + 1e-9)
        assert eh.power <= e2.power * to_ring_min * (1 + 1e-9)


def test_haed_clamps_degenerate_adjacent(pat10):
    # synthetic map with dead adjacent directions: chi saturates at 1
    v = np.zeros((36, 32))
    v[4, 10] = 1000.0
    padp = Padp(values=v, angles=2 * np.pi * np.arange(36) / 36, delays=np.arange(32.0) * 0.5e-9)
    ests = haed_refine(padp, [(4, 10, 1000.0)], pat10)
    assert len(ests) == 1
    assert ests[0].clamped
    assert abs(ests[0].eps) <= pat10.hpbw / 2 + 1e-12


@pytest.mark.parametrize(
    "p_minus, p_plus, side",
    [(0.25, 0.255, Side.PLUS), (0.255, 0.25, Side.MINUS), (0.25, 0.25, Side.MINUS)],
    ids=["plus-2pct-stronger", "minus-2pct-stronger", "tie"],
)
def test_haed_takes_the_stronger_neighbour(pat10, p_minus, p_plus, side):
    """The contrast uses the stronger adjacent direction, even 2% stronger; ties take the lower."""
    v = np.zeros((36, 16))
    v[[9, 10, 11], 5] = p_minus, 1.0, p_plus
    padp = Padp(values=v, angles=2 * np.pi * np.arange(36) / 36, delays=np.arange(16.0) * 0.5e-9)
    (est,) = haed_refine(padp, [(10, 5, 1.0)], pat10)
    assert est.side is side
    p_adj = max(p_minus, p_plus)
    assert est.chi_hat == pytest.approx((1.0 - p_adj) / (1.0 + p_adj), rel=1e-15)
    # the arrival lies towards the stronger neighbour, inside half a scan step
    sign = 1 if side is Side.PLUS else -1
    assert 0 <= sign * est.eps < padp.asi / 2 and not est.clamped


def test_resolvability_contract(cfg, arr36, pat10):
    # separable either in delay (> one bin) or in angle (> 3 * hpbw)
    mpcs = [
        MpcTruth(alpha=1.0, phase=0.3, tau=32e-9, phi=np.radians(2.0)),
        MpcTruth(alpha=1.0, phase=1.1, tau=32e-9, phi=np.radians(42.0)),
        MpcTruth(alpha=0.8, phase=2.0, tau=40e-9, phi=np.radians(7.0)),
    ]
    padp = simulate_padp(mpcs, arr36, pat10, cfg, seed=0)
    ests = estimate_haed(padp, pat10)
    assert len(ests) == 3
    from padpkit.experiments import associate

    matched, extra = associate(ests, mpcs, cfg.delta_tau, pat10.hpbw)
    assert len(matched) == 3 and extra == 0
    # residual cross-beam interference keeps this above single-arrival
    # exactness but far below the scan quantization floor
    for ti, est in matched.items():
        assert abs(np.degrees(circular_delta(est.phi, mpcs[ti].phi))) < 1e-3


def test_haed_plus_on_grid_fixed_point(cfg, arr36, pat10):
    padp, mpc = _padp_for(13.0, cfg, arr36, pat10, tau=32e-9)
    ests = estimate_haed(padp, pat10)
    plus = haed_plus_refine(padp, ests)
    assert len(plus) == 1
    assert plus[0].method is Method.HAED_PLUS
    assert abs(plus[0].tau - mpc.tau) <= cfg.delta_tau / 32
    assert plus[0].power == pytest.approx(ests[0].power, rel=1e-6)


def test_haed_plus_off_grid_recovery(cfg, arr36, pat10):
    tau = 25.25e-9
    padp, mpc = _padp_for(13.0, cfg, arr36, pat10, tau=tau)
    ests = estimate_haed(padp, pat10)
    plus = haed_plus_refine(padp, ests)
    assert abs(plus[0].tau - tau) <= cfg.delta_tau / 16
    # amplitude recovered to well under the scalloping loss of the on-grid read
    err_plus = abs(plus[0].power / (cfg.k * cfg.pu) - 1.0)
    err_haed = abs(ests[0].power / (cfg.k * cfg.pu) - 1.0)
    assert err_plus < 1e-3
    assert err_plus < err_haed / 100


def test_haed_plus_requires_cfr(cfg, arr36, pat10):
    padp, _ = _padp_for(13.0, cfg, arr36, pat10)
    stripped = Padp(values=padp.values, angles=padp.angles, delays=padp.delays)
    ests = estimate_haed(padp, pat10)
    with pytest.raises(ValueError, match=r"delay responses \(h\)"):
        haed_plus_refine(stripped, ests)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 1024),
    upsample=st.integers(2, 32),
    bin_frac=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 6.0),
)
def test_cached_kernel_matches_row_power(k, upsample, bin_frac, seed, log_scale):
    """The cached sub-bin kernel reads the powers ``_row_power`` reads at haed+'s taus.

    The tolerance is 1e-12 of the row energy, the largest value |h|**2 can
    take: ``_row_power``'s own phase rounding grows with (delay bin x
    frequency index), to about 2e-12 of the window maximum at k = 1001.
    """
    j = int(bin_frac * k)
    rng = np.random.default_rng(seed)
    row = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 10.0**log_scale
    delta_tau = 0.5e-9
    taus = (np.arange(k) * delta_tau)[j] + np.arange(-upsample, upsample + 1) * (
        delta_tau / upsample
    )
    want = _row_power(row, 1.0 / (k * delta_tau), taus)
    got = _subbin_powers(row, j, upsample)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.sum(np.abs(row) ** 2))


@pytest.mark.parametrize(
    "bin_frac, alpha", [(995.3, 1e-2), (998.61, 3e-3), (990.17, 1e-3), (999.45, 1e-2)]
)
def test_haed_plus_vertex_power_is_exact_at_far_delays(cfg_full, arr36, pat10, bin_frac, alpha):
    """haed+ powers of weak peaks near the last bins of a k = 1001 grid, against exact sums.

    A strong arrival shares the weak one's scan row, so the row energy
    dwarfs the weak peak; rounding in the phase arguments then shows up
    magnified in the weak peak's relative power error.  The reference is
    |h(tau_hat)|**2 summed at 30 significant digits with mpmath.
    """
    mpmath = pytest.importorskip("mpmath")
    dt = cfg_full.delta_tau
    mpcs = [
        MpcTruth(alpha=1.0, phase=0.4, tau=100 * dt, phi=np.radians(13.0)),
        MpcTruth(alpha=alpha, phase=1.1, tau=bin_frac * dt, phi=np.radians(13.0)),
    ]
    padp = simulate_padp(mpcs, arr36, pat10, cfg_full, seed=0)
    weak = [e for e in estimate_haed(padp, pat10) if e.delay_index > 900]
    assert len(weak) == 1
    (plus,) = haed_plus_refine(padp, weak)
    est = weak[0]
    row = padp.spectra([est.scan_index])[0]
    k = row.size
    with mpmath.workdps(30):
        x = mpmath.mpf(plus.tau) / mpmath.mpf(dt)
        h = mpmath.fsum(
            mpmath.mpc(complex(row[n])) * mpmath.expjpi(2 * n * x / k) for n in range(k)
        )
        exact = float(abs(h) ** 2 / k)
    p_read = plus.power / est.power * padp.values[est.scan_index, est.delay_index]
    assert abs(plus.tau / dt - bin_frac) < 1.0  # the weak arrival's peak
    assert abs(p_read - exact) <= 3e-14 * exact


def test_subbin_kernel_is_cached_and_read_only():
    kernel = _subbin_kernel(129, 16)
    assert kernel.shape == (33, 129)
    assert _subbin_kernel(129, 16) is kernel
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0


def test_haed_plus_reads_only_peak_rows(cfg, arr36, pat10):
    """haed+ needs the delay responses of the peak rows only."""
    mpcs = [
        MpcTruth(alpha=1.0, phase=0.9, tau=25.25e-9, phi=np.radians(13.0)),
        MpcTruth(alpha=0.7, phase=0.2, tau=40.4e-9, phi=np.radians(200.0)),
    ]
    padp = simulate_padp(mpcs, arr36, pat10, cfg, seed=0)
    ests = estimate_haed(padp, pat10)
    peak_rows = sorted({e.scan_index for e in ests})
    assert len(peak_rows) == 2
    h = np.full_like(padp.h, np.nan)
    h[peak_rows] = padp.h[peak_rows]
    masked = Padp(padp.values, padp.angles, padp.delays, h=h, f_start=padp.f_start)
    assert haed_plus_refine(masked, ests) == haed_plus_refine(padp, ests)


def test_empty_when_nothing_above_threshold(pat10):
    v = np.zeros((36, 16))
    padp = Padp(values=v, angles=2 * np.pi * np.arange(36) / 36, delays=np.arange(16.0))
    assert estimate_o1(padp, pat10) == []
    assert estimate_o2(padp, pat10) == []
    assert coarse_peaks_2d(padp) == []


def _haed_reference(padp, coarse, pat):
    """``haed_refine`` written with the helpers' array forms: every per-peak value a 1-element array."""
    m_total, half, spacing = len(padp.angles), 0.5 * pat.hpbw, padp.asi
    out = []
    for m, j, val in coarse:
        p_minus, p_plus = padp.values[[(m - 1) % m_total, (m + 1) % m_total], j]
        side = Side.MINUS if p_minus >= p_plus else Side.PLUS
        p_adj = np.maximum(np.array([p_minus if side is Side.MINUS else p_plus]), np.finfo(float).tiny)
        chi_meas = (val - p_adj) / (val + p_adj)
        clamped = bool(np.abs(chi_meas[0]) >= CHI_CLAMP)
        chi_used = np.clip(chi_meas, -CHI_CLAMP, CHI_CLAMP)
        if pat.kind is PatternKind.GAUSSIAN_BEAM:
            try:
                eps = invert_chi_closed(chi_used, side, pat.hpbw, pat.kappa, spacing=spacing)
            except ChiSaturationError:
                eps, clamped = np.array([half if side is Side.MINUS else -half]), True
        else:
            eps = np.array([invert_chi_tabulated(chi_used, side, pat, spacing=spacing)])
        if clamped:
            eps = np.clip(eps, -half, half)
        out.append(
            MpcEstimate(
                tau=float(padp.delays[j]),
                phi=float(wrap_two_pi(padp.angles[[m]] + eps)[0]),
                power=float((val / power_gain(pat, eps))[0]),
                method=Method.HAED,
                chi_hat=float(chi_meas[0]),
                eps=float(eps[0]),
                side=side,
                clamped=clamped,
                scan_index=m,
                delay_index=j,
            )
        )
    return sorted(out, key=lambda e: (e.tau, e.phi))


_TAB_ANGLES = np.radians(np.arange(-180.0, 180.0, 0.05))
_HAED_PATTERNS = {
    # a 12 deg beam scanned every 10 deg: spacing < hpbw, so a steep contrast saturates the arcsin
    "gaussian-12deg": AntennaPattern.gaussian(100.0, np.radians(12.0)),
    "tabulated-10deg": AntennaPattern.from_table(
        _TAB_ANGLES, gain(AntennaPattern.gaussian(100.0, np.radians(10.0)), _TAB_ANGLES)
    ),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(_HAED_PATTERNS))
def test_haed_refine_is_bit_for_bit_its_array_form(cfg_full, arr36, name, seed):
    """On noisy 36 x 1001 maps haed's per-peak floats equal the 1-element-array reference.

    The maps carry three random arrivals, planted peaks in rows 0 and
    m - 1, one whose neighbours are both zero (the clamped contrast) and
    one whose stronger neighbour is 1e-11 of it (an unclamped contrast
    whose arcsin argument exceeds 1 under the 12 deg beam).
    """
    pat, rng = _HAED_PATTERNS[name], np.random.default_rng(seed)
    mpcs = [
        MpcTruth(rng.uniform(0.5, 1.0), rng.uniform(0, 2 * np.pi), rng.integers(10, 800) * 0.5e-9,
                 rng.uniform(0, 2 * np.pi))
        for _ in range(3)
    ]
    noisy = dataclasses.replace(cfg_full, sigma2=1e-3)
    padp = simulate_padp(mpcs, arr36, pat, noisy, seed=rng, keep_cfr=False)
    v = padp.values.copy()
    v[0, 850] = v[35, 870] = 5e2
    v[[6, 7, 8], 900] = 0.0, 1e3, 0.0
    v[[19, 20, 21], 950] = 1e-8, 1e3, 1e-9
    padp = Padp(v, padp.angles, padp.delays)
    coarse = coarse_peaks_2d(padp)
    assert {(0, 850), (35, 870), (7, 900), (20, 950)} <= {(m, j) for m, j, _ in coarse}
    got, want = haed_refine(padp, coarse, pat), _haed_reference(padp, coarse, pat)
    assert len(got) == len(want) == len(coarse)
    for g, w in zip(got, want):
        for f in dataclasses.fields(MpcEstimate):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert type(a) is type(b), f.name
            assert np.array([a]).tobytes() == np.array([b]).tobytes() if type(a) is float else a == b
    planted = {(e.scan_index, e.delay_index): e for e in got}
    assert planted[7, 900].clamped and planted[7, 900].chi_hat == 1.0
    saturated = planted[20, 950]
    assert abs(saturated.chi_hat) < CHI_CLAMP and saturated.side is Side.MINUS
    if pat.kind is PatternKind.GAUSSIAN_BEAM:  # saturated: the offset is the beam edge on that side
        assert saturated.clamped and saturated.eps == 0.5 * pat.hpbw
