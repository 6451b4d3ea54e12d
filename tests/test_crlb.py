import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from padpkit import AntennaPattern, ArrayConfig, MpcTruth, SoundingConfig
from padpkit.antenna import gain
from padpkit.crlb import (
    SWEEP_CHUNK,
    SingularFimError,
    _theta_from_mpcs,
    crlb_from_fim,
    crlb_from_fims,
    crlb_single_alpha,
    crlb_single_phi,
    crlb_sweep,
    fim,
    fim_sweep,
    jacobian,
    signal_model,
)
from padpkit.synthesis import synth_cfr

CFG = SoundingConfig(fc=37.5e9, bw=2e9, k=257, pu=1.0, sigma2=1.0)
ARR = ArrayConfig(m=36)


def _one(phi_deg, alpha=1.0, tau=25e-9, phase=0.3):
    return MpcTruth(alpha=alpha, phase=phase, tau=tau, phi=np.radians(phi_deg))


def test_signal_model_matches_synthesis(pat10):
    mpcs = [_one(13.0, alpha=1.3), _one(200.0, alpha=0.8, tau=30e-9, phase=1.9)]
    s1 = signal_model(_theta_from_mpcs(mpcs, CFG), ARR, pat10, CFG)
    s2 = synth_cfr(mpcs, ARR, pat10, CFG)
    assert np.max(np.abs(s1 - s2)) / np.max(np.abs(s2)) < 1e-9


def test_jacobian_matches_finite_differences(pat10):
    mpcs = [_one(13.0, alpha=1.3), _one(200.0, alpha=0.8, tau=30e-9, phase=1.9)]
    theta = _theta_from_mpcs(mpcs, CFG)
    jac = jacobian(mpcs, ARR, pat10, CFG)
    scales = []
    for m in mpcs:
        scales += [m.alpha, 1.0, 1.0, m.tau]
    for i in range(theta.size):
        h = 1e-6 * scales[i]
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (signal_model(tp, ARR, pat10, CFG) - signal_model(tm, ARR, pat10, CFG)).ravel()
        fd /= 2.0 * h
        ana = jac[:, i]
        if i % 4 == 0:
            ana = ana / mpcs[i // 4].alpha  # amp column is alpha-scaled
        assert np.max(np.abs(fd - ana)) / np.max(np.abs(ana)) < 1e-5


@pytest.mark.parametrize("n_mpcs", [1, 2])
@pytest.mark.parametrize("tabulated", [False, True])
def test_fim_equals_materialized_jacobian_product(pat10, n_mpcs, tabulated):
    """The factored Fisher matrix equals 2/sigma2 Re(J^H J) of the full Jacobian."""
    pat = pat10
    if tabulated:
        ang = np.radians(np.arange(-180.0, 180.0, 0.02))
        pat = AntennaPattern.from_table(ang, gain(pat10, ang))
    mpcs = [_one(13.0, alpha=1.3), _one(27.0, alpha=0.8, tau=30e-9, phase=1.9)][:n_mpcs]
    jac = jacobian(mpcs, ARR, pat, CFG)
    ref = (2.0 / CFG.sigma2) * np.real(jac.conj().T @ jac)
    got = fim(mpcs, ARR, pat, CFG)
    # relative to the information scale of each entry's row and column
    scale = 1.0 / np.sqrt(np.diag(ref))
    assert np.max(np.abs(got - ref) * np.outer(scale, scale)) < 1e-12


def test_fim_sigma2_scaling(pat10):
    mpcs = [_one(13.0)]
    f1 = fim(mpcs, ARR, pat10, CFG)
    cfg2 = SoundingConfig(fc=CFG.fc, bw=CFG.bw, k=CFG.k, sigma2=2.0)
    f2 = fim(mpcs, ARR, pat10, cfg2)
    np.testing.assert_allclose(f2, f1 / 2.0, rtol=1e-12)


@pytest.mark.parametrize("phi_deg", [0.0, 5.0, 20.0, 185.0])
def test_single_mpc_decoupling_at_symmetric_angles(pat10, phi_deg):
    f = fim([_one(phi_deg)], ARR, pat10, CFG)
    scale = np.sqrt(np.outer(np.diag(f), np.diag(f)))
    off = np.abs(f / scale - np.eye(4))
    assert np.max(off) < 1e-9


def test_single_mpc_universal_zero_blocks(pat10):
    # amp-phase, amp-tau, phase-phi, phi-tau and (band-centre) phase-tau
    # vanish at any angle; amp-phi does not in general
    f = fim([_one(13.0)], ARR, pat10, CFG)
    scale = np.sqrt(np.outer(np.diag(f), np.diag(f)))
    fn = f / scale
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3), (1, 3)):
        assert abs(fn[i, j]) < 1e-9
    assert abs(fn[0, 2]) > 1e-4


def test_closed_forms_match_reciprocal_diagonal(pat10):
    rng = np.random.default_rng(42)
    for _ in range(100):
        phi = rng.uniform(0, 2 * np.pi)
        gamma_i = 10.0 ** rng.uniform(-2, 2)
        cfg = SoundingConfig(fc=CFG.fc, bw=CFG.bw, k=CFG.k, sigma2=1.0 / gamma_i)
        f = fim([MpcTruth(alpha=1.0, phase=0.0, tau=25e-9, phi=phi)], ARR, pat10, cfg)
        np.testing.assert_allclose(
            crlb_single_phi(gamma_i, cfg, ARR, pat10, phi), 1.0 / f[2, 2], rtol=1e-9
        )
        np.testing.assert_allclose(
            crlb_single_alpha(gamma_i, cfg, ARR, pat10, phi), 1.0 / f[0, 0], rtol=1e-9
        )
        np.testing.assert_allclose(1.0 / f[1, 1], 1.0 / f[0, 0], rtol=1e-9)


def test_closed_forms_match_full_inversion_at_symmetric_angles(pat10):
    for phi_deg in (0.0, 5.0, 30.0, 175.0):
        rep = crlb_from_fim(fim([_one(phi_deg)], ARR, pat10, CFG))
        np.testing.assert_allclose(
            rep.value("phi"), crlb_single_phi(1.0, CFG, ARR, pat10, np.radians(phi_deg)),
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            rep.value("amp_norm"), crlb_single_alpha(1.0, CFG, ARR, pat10, np.radians(phi_deg)),
            rtol=1e-9,
        )


def test_amp_angle_coupling_inflates_joint_bound(pat10):
    # asymmetric arrival: the joint bound exceeds the decoupled closed form
    # by the amplitude-angle coupling factor (about 2% at a 3 deg offset)
    rep = crlb_from_fim(fim([_one(3.0)], ARR, pat10, CFG))
    ratio = rep.value("phi") / crlb_single_phi(1.0, CFG, ARR, pat10, np.radians(3.0))
    assert 1.001 < ratio < 1.05


def test_closed_form_against_inline_ring_sum(pat10):
    # literal evaluation of the decoupled angle bound at gamma_i = 0.1,
    # 5 deg arrival, full-scale grid
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=1001, sigma2=10.0)
    offs = 2.0 * np.pi * np.arange(36) / 36 - np.radians(5.0)
    offs = np.angle(np.exp(1j * offs))
    g_sq = pat10.g_max * np.exp(2.0 * pat10.kappa * (np.cos(offs) - 1.0))
    ring = float(np.sum(np.sin(offs) ** 2 * g_sq))
    expected = 1.0 / (2.0 * 0.1 * 1001 * pat10.kappa**2 * ring)
    got = crlb_single_phi(0.1, cfg, ARR, pat10, np.radians(5.0))
    assert got == pytest.approx(expected, rel=1e-12)


def test_crlb_scaling_in_snr(pat10):
    v1 = crlb_single_phi(0.1, CFG, ARR, pat10, 0.2)
    v2 = crlb_single_phi(1.0, CFG, ARR, pat10, 0.2)
    assert v1 / v2 == pytest.approx(10.0, rel=1e-12)


def test_crlb_angle_envelope(pat10):
    # worst accuracy on-steering, best mid-between
    offs = np.radians(np.linspace(0.0, 5.0, 11))
    vals = [crlb_single_phi(1.0, CFG, ARR, pat10, o) for o in offs]
    assert np.argmax(vals) == 0 and np.argmin(vals) == len(offs) - 1
    amps = [crlb_single_alpha(1.0, CFG, ARR, pat10, o) for o in offs]
    assert np.argmin(amps) == 0 and np.argmax(amps) == len(amps) - 1


def test_ring_rotation_invariance(pat10):
    base = crlb_single_phi(1.0, CFG, ARR, pat10, np.radians(3.0))
    for k in (1, 7, 19):
        rot = crlb_single_phi(1.0, CFG, ARR, pat10, np.radians(3.0 + 10.0 * k))
        assert rot == pytest.approx(base, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    phis=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40),
        elements=st.floats(-20.0, 20.0),
    ),
    m=st.integers(3, 72),
    gamma_i=st.floats(1e-3, 1e3),
)
def test_closed_forms_on_angle_arrays_equal_scalar_calls(pat10, phis, m, gamma_i):
    """Each element of an array call equals the scalar call at that angle, bit for bit."""
    arr = ArrayConfig(m=m)
    for bound in (crlb_single_phi, crlb_single_alpha):
        got = bound(gamma_i, CFG, arr, pat10, phis)
        if phis.ndim == 0:
            assert type(got) is float
            assert got == bound(gamma_i, CFG, arr, pat10, float(phis))
            continue
        assert got.shape == phis.shape
        want = [bound(gamma_i, CFG, arr, pat10, float(a)) for a in phis.ravel()]
        assert all(type(w) is float for w in want)
        assert np.array_equal(got.ravel(), np.array(want))


def test_crlb_from_fim_diagonal():
    d = np.diag([4.0, 2.0, 8.0, 16.0])
    rep = crlb_from_fim(d)
    np.testing.assert_allclose(rep.values[0], [0.25, 0.5, 0.125, 0.0625], rtol=1e-12)
    assert not rep.flagged
    assert np.all(rep.values > 0)


def test_crlb_from_fim_rejects_asymmetric():
    with pytest.raises(SingularFimError):
        crlb_from_fim(np.arange(16.0).reshape(4, 4))
    with pytest.raises(SingularFimError):
        crlb_from_fim(np.eye(3))


def test_coincident_mpcs_flagged(pat10):
    mpcs = [_one(3.0, phase=0.1), _one(3.0, phase=0.8)]
    rep = crlb_from_fim(fim(mpcs, ARR, pat10, CFG))
    assert rep.flagged
    assert np.all(np.isnan(rep.values))
    assert len(rep.singular_subspace) > 0


def test_two_mpc_decoupling_beyond_3_hpbw(pat10):
    mpcs = [_one(3.0, phase=np.pi / 3), _one(3.0 + 35.0, phase=np.pi / 5, tau=25e-9)]
    rep2 = crlb_from_fim(fim(mpcs, ARR, pat10, CFG))
    assert not rep2.flagged
    for l, mpc in enumerate(mpcs):
        rep1 = crlb_from_fim(fim([mpc], ARR, pat10, CFG))
        for param in ("amp_norm", "phase", "phi", "tau"):
            assert rep2.value(param, l) == pytest.approx(rep1.value(param), rel=0.01)


def test_fim_positive_semidefinite(pat10):
    mpcs = [_one(3.0), _one(40.0, tau=30e-9)]
    f = fim(mpcs, ARR, pat10, CFG)
    w = np.linalg.eigvalsh(f)
    assert np.all(w >= -1e-9 * np.trace(f))


def test_fim_validation(pat10):
    with pytest.raises(ValueError):
        fim([], ARR, pat10, CFG)
    cfg0 = SoundingConfig(fc=CFG.fc, bw=CFG.bw, k=CFG.k, sigma2=0.0)
    with pytest.raises(ValueError):
        fim([_one(3.0)], ARR, pat10, cfg0)


def test_tabulated_pattern_fim_close_to_gaussian(pat10):
    ang = np.radians(np.arange(-180.0, 180.0, 0.02))
    tab = AntennaPattern.from_table(ang, gain(pat10, ang))
    f_g = fim([_one(13.0)], ARR, pat10, CFG)
    f_t = fim([_one(13.0)], ARR, tab, CFG)
    np.testing.assert_allclose(np.diag(f_t), np.diag(f_g), rtol=2e-2)


def test_closed_forms_require_gaussian(pat10):
    ang = np.radians(np.arange(-180.0, 180.0, 0.5))
    tab = AntennaPattern.from_table(ang, gain(pat10, ang))
    with pytest.raises(ValueError):
        crlb_single_phi(1.0, CFG, ARR, tab, 0.0)


def test_fim_shares_one_frequency_gram_across_noise_and_power(pat10):
    """The Gram v^H v leaves the Fisher matrix bit for bit as the direct product."""
    from padpkit.crlb import _jacobian_factors

    mpcs = [_one(13.0, alpha=1.3), _one(27.0, alpha=0.8, tau=30.5e-9, phase=1.9)]
    for cfg in [CFG, replace(CFG, sigma2=0.01), replace(CFG, pu=3.0, g_tx=0.5)]:
        u, v = _jacobian_factors(mpcs, ARR, pat10, cfg)
        f = (2.0 / cfg.sigma2) * np.real((u.conj().T @ u) * (v.conj().T @ v))
        assert fim(mpcs, ARR, pat10, cfg).tobytes() == (0.5 * (f + f.T)).tobytes()


def test_fim_sweep_forms_one_gram_per_distinct_delays(pat10, monkeypatch):
    """Each call forms the frequency Gram once per distinct delay tuple among its points."""
    from padpkit import crlb

    keys = []
    gram = crlb._frequency_gram

    def spy(tau, cfg):
        keys.append(tau)
        return gram(tau, cfg)

    monkeypatch.setattr(crlb, "_frequency_gram", spy)
    sweep = [[_one(a)] for a in np.linspace(0.0, 10.0, 21)]  # a true-angle sweep
    want = np.stack([fim(p, ARR, pat10, CFG) for p in sweep])
    keys.clear()
    assert fim_sweep(sweep, ARR, pat10, CFG).tobytes() == want.tobytes()
    assert keys == [(25e-9,)]
    keys.clear()
    mixed = [[_one(float(i), tau=(25e-9, 30.5e-9)[i % 2])] for i in range(6)]
    fim_sweep(mixed, ARR, pat10, CFG)
    assert sorted(keys) == [(25e-9,), (30.5e-9,)]


@pytest.fixture(scope="module")
def tab10(pat10):
    ang = np.radians(np.arange(-180.0, 180.0, 0.02))
    return AntennaPattern.from_table(ang, gain(pat10, ang))


def _assert_same_report(got, want):
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert got.values.shape == want.values.shape
    assert got.cond == want.cond or (np.isnan(got.cond) and np.isnan(want.cond))
    assert got.flagged == want.flagged
    assert got.labels == want.labels
    assert got.singular_subspace == want.singular_subspace


@settings(max_examples=40, deadline=None)
@given(
    n_mpcs=st.integers(1, 3),
    tabulated=st.booleans(),
    n_points=st.sampled_from([1, 2, 7, SWEEP_CHUNK + 1]),
    seed=st.integers(0, 2**32 - 1),
    shared_delays=st.booleans(),
    coincident=st.booleans(),
)
def test_stacked_pass_equals_single_point_calls(
    pat10, tab10, n_mpcs, tabulated, n_points, seed, shared_delays, coincident
):
    """Every stacked matrix and report is the single-point one, bit for bit and field by field."""
    pat = tab10 if tabulated else pat10
    rng = np.random.default_rng(seed)
    base_tau = rng.uniform(5e-9, 120e-9, n_mpcs)
    sigma2 = 10.0 ** rng.uniform(-3.0, 3.0, n_points)
    points = []
    for p in range(n_points):
        tau = base_tau if shared_delays else rng.uniform(5e-9, 120e-9, n_mpcs)
        mpcs = [
            MpcTruth(alpha=rng.uniform(0.2, 3.0), phase=rng.uniform(0.0, 2.0 * np.pi),
                     tau=float(tau[l]), phi=rng.uniform(0.0, 2.0 * np.pi))
            for l in range(n_mpcs)
        ]
        if coincident and n_mpcs > 1 and p % 2 == 0:
            mpcs[1] = replace(mpcs[1], tau=mpcs[0].tau, phi=mpcs[0].phi)
        points.append(mpcs)
    stack = fim_sweep(points, ARR, pat, CFG, sigma2=sigma2)
    reports = crlb_sweep(points, ARR, pat, CFG, sigma2=sigma2)
    assert stack.shape == (n_points, 4 * n_mpcs, 4 * n_mpcs)
    assert len(reports) == n_points
    for p, mpcs in enumerate(points):
        single = fim(mpcs, ARR, pat, replace(CFG, sigma2=float(sigma2[p])))
        assert stack[p].tobytes() == single.tobytes()
        _assert_same_report(reports[p], crlb_from_fim(single))
    if coincident and n_mpcs > 1:
        assert reports[0].flagged and len(reports[0].singular_subspace) > 0


def test_fim_sweep_defaults_to_the_config_noise_height(pat10):
    points = [[_one(3.0)], [_one(17.0, tau=40e-9)]]
    assert fim_sweep(points, ARR, pat10, CFG).tobytes() == (
        fim_sweep(points, ARR, pat10, CFG, sigma2=[CFG.sigma2] * 2).tobytes()
    )


def test_stacked_errors(pat10):
    good = np.diag([4.0, 2.0, 8.0, 16.0])
    asym = good.copy()
    asym[0, 1] = 1.0
    with pytest.raises(SingularFimError, match=r"symmetric \(matrix 1 of the stack\)"):
        crlb_from_fims(np.stack([good, asym]))
    for shape in ((4, 4), (2, 3, 3), (2, 4, 8), (1, 0, 0)):
        with pytest.raises(SingularFimError, match="square"):
            crlb_from_fims(np.zeros(shape))
    assert crlb_from_fims(np.zeros((0, 4, 4))) == []
    with pytest.raises(ValueError, match="same number of arrivals"):
        fim_sweep([[_one(3.0)], [_one(3.0), _one(40.0)]], ARR, pat10, CFG)
    with pytest.raises(ValueError, match="same number of arrivals"):
        crlb_sweep([[_one(3.0)], [_one(3.0), _one(40.0)]], ARR, pat10, CFG)
    with pytest.raises(ValueError, match="at least one sweep point"):
        fim_sweep([], ARR, pat10, CFG)
    with pytest.raises(ValueError, match="at least one arrival"):
        fim_sweep([[_one(3.0)], []], ARR, pat10, CFG)
    with pytest.raises(ValueError, match="sigma2: expected 1 or 2 noise heights, got 3"):
        fim_sweep([[_one(3.0)], [_one(9.0)]], ARR, pat10, CFG, sigma2=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="sigma2: expected 1 or 2 noise heights, got 3"):
        crlb_sweep([[_one(3.0)], [_one(9.0)]], ARR, pat10, CFG, sigma2=[1.0, 2.0, 3.0])
    one_height = crlb_sweep([[_one(3.0)], [_one(9.0)]], ARR, pat10, CFG, sigma2=2.0)
    for got, want in zip(one_height, crlb_sweep([[_one(3.0)], [_one(9.0)]], ARR, pat10, CFG,
                                                 sigma2=[2.0, 2.0])):
        _assert_same_report(got, want)


COUPLED = np.array([[2.0, 1.0, 0, 0], [1.0, 2.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])


@pytest.mark.parametrize(
    "entries, named",
    [
        ({(0, 2): np.inf, (2, 0): np.inf}, ("amp_norm:0", "phi:0")),
        ({(1, 3): np.nan}, ("phase:0", "tau:0")),
        ({(2, 2): np.inf}, ("phi:0",)),
        ({(3, 3): -np.inf}, ("tau:0",)),
        ({(3, 3): -1.0}, ("tau:0",)),
        ({(0, 0): np.nan, (1, 3): np.nan, (3, 1): np.nan}, ("amp_norm:0", "phase:0", "tau:0")),
        # finite, but the normalization by 1/sqrt(diagonal) overflows
        ({(0, 0): 1e-320, (1, 1): 1e-320, (0, 1): 1e-300, (1, 0): 1e-300},
         ("amp_norm:0", "phase:0")),
    ],
)
def test_spoilt_fim_is_flagged_naming_its_parameters(entries, named):
    f = np.diag([4.0, 2.0, 8.0, 16.0])
    for ij, x in entries.items():
        f[ij] = x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = crlb_from_fim(f)
        stacked = crlb_from_fims(np.stack([f, np.eye(4), COUPLED]))
    assert rep.flagged and rep.cond == np.inf
    assert np.all(np.isnan(rep.values))
    assert rep.singular_subspace == named
    _assert_same_report(stacked[0], rep)
    # the other matrices of the stack are inverted as on their own
    _assert_same_report(stacked[1], crlb_from_fim(np.eye(4)))
    _assert_same_report(stacked[2], crlb_from_fim(COUPLED))
    assert stacked[1].cond == 1.0 and stacked[2].cond == pytest.approx(3.0)


@pytest.mark.parametrize("sigma2", [1e-310, 5e-324])
def test_fim_rejects_noise_height_whose_information_scale_overflows(pat10, sigma2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^2/sigma2 at sigma2 = {sigma2!r}: expected a finite"):
            fim([_one(3.0)], ARR, pat10, replace(CFG, sigma2=sigma2))
        with pytest.raises(ValueError, match="sigma2"):
            fim_sweep([[_one(3.0)]] * 2, ARR, pat10, CFG, sigma2=[1.0, sigma2])
        # a representable 2/sigma2 whose information overflows: the delay entry is inf
        f = fim([_one(3.0)], ARR, pat10, replace(CFG, sigma2=1e-300))
    assert f[3, 3] == np.inf and np.all(np.isfinite(f[:3, :3]))
    rep = crlb_from_fim(f)
    assert rep.flagged and rep.singular_subspace == ("tau:0",)


def test_overflow_is_told_apart_from_ill_conditioning(pat10):
    """A non-finite entry marks ``overflow``; a finite singular or unconditioned matrix does not."""
    over = np.diag([4.0, 2.0, 8.0, 16.0])
    over[3, 3] = np.inf
    negative = np.diag([4.0, 2.0, 8.0, -1.0])
    singular = np.ones((4, 4))
    reports = crlb_from_fims(np.stack([over, negative, singular, np.eye(4)]))
    assert [r.flagged for r in reports] == [True, True, True, False]
    assert [r.overflow for r in reports] == [True, False, False, False]
    # information beyond the float range: 2/sigma2 is finite, the delay entry is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = crlb_from_fim(fim([_one(3.0)], ARR, pat10, replace(CFG, sigma2=1e-300)))
    assert rep.flagged and rep.overflow
