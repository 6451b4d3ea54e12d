from dataclasses import replace

import numpy as np
import pytest

from padpkit import AntennaPattern, MpcTruth, SoundingConfig, checks, crlb_from_fim, fim, gain
from padpkit.angles import circular_delta
from padpkit.estimation import Method, MpcEstimate, PeakConfig, estimate_haed
from padpkit import crlb
from padpkit.crlb import crlb_single_alpha, crlb_single_bounds, crlb_single_phi
from padpkit.experiments import (
    ErrorStats,
    MonteCarloConfig,
    _sweep_points,
    apply_sweep,
    associate,
    rmsee,
    run_method,
    run_sweep,
    uniform_offset_study,
)

CFG = SoundingConfig(fc=37.5e9, bw=2e9, k=129, pu=1.0, sigma2=0.0)


def test_rmsee_values():
    assert rmsee([0.0, 0.0]) == 0.0
    assert rmsee([3.0, -4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-12)
    with pytest.raises(ValueError):
        rmsee([])


def test_circular_wrap():
    err = np.degrees(circular_delta(np.radians(359.0), np.radians(1.0)))
    assert err == pytest.approx(-2.0, abs=1e-12)


def test_circular_delta_equals_the_numpy_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    two_pi = 2.0 * np.pi
    edges = [0.0, -0.0, np.pi, -np.pi, two_pi, -two_pi, 3 * np.pi, 1e-300, -1e-300, 1e-17, -1e-17]
    a = np.concatenate([rng.uniform(-20.0, 20.0, 3000), edges, np.nextafter(np.pi, 4.0) + np.zeros(1)])
    b = np.concatenate([rng.uniform(-20.0, 20.0, 3000), np.zeros(len(edges) + 1)])
    d = np.mod(a - b, two_pi)
    ref = np.where(d > np.pi, d - two_pi, d)
    got = np.array([circular_delta(x, y) for x, y in zip(a, b)])
    assert got.tobytes() == ref.tobytes()


def _est(tau, phi_deg, method=Method.HAED):
    return MpcEstimate(tau=tau, phi=np.radians(phi_deg), power=1.0, method=method)


def test_associate_gating_and_greedy():
    truths = [
        MpcTruth(alpha=1.0, phase=0.0, tau=25e-9, phi=np.radians(10.0)),
        MpcTruth(alpha=1.0, phase=0.0, tau=25e-9, phi=np.radians(50.0)),
    ]
    ests = [_est(25e-9, 11.0), _est(25e-9, 49.0), _est(25e-9, 300.0)]
    matched, extra = associate(ests, truths, delay_gate=0.5e-9, angle_gate=np.radians(10.0))
    assert matched[0].phi == pytest.approx(np.radians(11.0))
    assert matched[1].phi == pytest.approx(np.radians(49.0))
    assert extra == 1  # the 300 deg estimate matches nothing
    # outside the delay gate: no match
    matched, extra = associate([_est(35e-9, 10.0)], truths[:1], 0.5e-9, np.radians(10.0))
    assert matched == {} and extra == 1


def test_associate_each_estimate_used_once():
    truths = [
        MpcTruth(alpha=1.0, phase=0.0, tau=25e-9, phi=np.radians(10.0)),
        MpcTruth(alpha=1.0, phase=0.0, tau=25e-9, phi=np.radians(14.0)),
    ]
    ests = [_est(25e-9, 12.0)]
    matched, extra = associate(ests, truths, 0.5e-9, np.radians(10.0))
    assert len(matched) == 1 and extra == 0


def test_error_stats_consistency():
    s = ErrorStats.from_samples([1.0, -2.0, 0.5])
    assert s.rmsee >= abs(s.mean_err)
    assert np.all(np.diff(s.cdf) >= 0)
    assert s.n == 3
    empty = ErrorStats.from_samples([], misses=4)
    assert np.isnan(empty.rmsee) and empty.misses == 4


def test_mc_config_validation(pat10):
    base = dict(
        trials=2,
        sweep_values=(10.0,),
        mpcs=(MpcTruth(1.0, 0.0, 25e-9, 0.0),),
    )
    with pytest.raises(ValueError):
        MonteCarloConfig(**{**base, "trials": 0})
    with pytest.raises(ValueError):
        MonteCarloConfig(**{**base, "sweep_values": ()})
    with pytest.raises(ValueError):
        MonteCarloConfig(**{**base, "sweep_variable": "bogus"})
    with pytest.raises(ValueError):
        MonteCarloConfig(**{**base, "sweep_variable": "angular_separation_deg"})
    # a per-trial angle redraw would discard a swept angle or move an overlaid arrival
    MonteCarloConfig(**base, randomize_angle=True)
    two = base["mpcs"] + (MpcTruth(1.0, 0.0, 25e-9, 0.1),)
    for variable, mpcs in [
        ("true_angle_deg", base["mpcs"]),
        ("angular_separation_deg", two),
        ("output_snr_db", two),
    ]:
        kw = {**base, "sweep_variable": variable, "mpcs": mpcs}
        MonteCarloConfig(**kw)
        with pytest.raises(ValueError, match="randomize_angle"):
            MonteCarloConfig(**kw, randomize_angle=True)


_MC_BASE = dict(sweep_values=(10.0,), mpcs=(MpcTruth(1.0, 0.0, 25e-9, 0.0),))


_BAD_METHODS = [
    (),
    ("haed",),
    (Method.HAED, "o1"),
    (Method.HAED, Method.O1, Method.HAED),
    [Method.HAED],
    Method.HAED,
    None,
]
_BAD_METHOD_IDS = [
    "no-method", "a-string", "a-string-among-methods", "repeated", "a-list", "bare", "none"
]


@pytest.mark.parametrize(
    "field, value",
    [
        *(("methods", m) for m in _BAD_METHODS),
        ("peak", 6.0),
        ("peak", None),
        ("peak", {"noise_floor_db_offset": 6.0}),
    ],
    ids=[*_BAD_METHOD_IDS, "peak-float", "peak-none", "peak-dict"],
)
def test_mc_config_rejects_bad_methods_and_peak(field, value):
    """Methods are a non-empty tuple of distinct ``Method`` members; peak is a ``PeakConfig``."""
    with pytest.raises(ValueError, match=f"^{field}: "):
        MonteCarloConfig(**_MC_BASE, **{field: value})


@pytest.mark.parametrize("methods", _BAD_METHODS, ids=_BAD_METHOD_IDS)
def test_offset_study_rejects_bad_methods(arr36, pat10, methods):
    """The same check as ``MonteCarloConfig``: a repeated method would count its draws twice."""
    with pytest.raises(ValueError, match="^methods: "):
        uniform_offset_study(3, seed=0, cfg=CFG, arr=arr36, pat=pat10, methods=methods)


@pytest.mark.parametrize("trials", [2.5, 2.0, True, "4", None, -1])
def test_mc_config_rejects_a_non_integer_trial_count(trials):
    with pytest.raises(ValueError, match="trials"):
        MonteCarloConfig(**_MC_BASE, trials=trials)


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, True, "1", None])
def test_mc_config_rejects_a_negative_or_non_integer_seed(seed):
    with pytest.raises(ValueError, match="base_seed"):
        MonteCarloConfig(**_MC_BASE, base_seed=seed)


@pytest.mark.parametrize("values", [(), np.array([]), 30.0, np.float64(30.0), np.array(30.0),
                                    "30", ["a"], [20.0, [30.0, 40.0]], np.zeros((2, 2))])
def test_mc_config_rejects_sweep_values_that_are_no_sequence_of_numbers(values):
    with pytest.raises(ValueError, match="sweep_values"):
        MonteCarloConfig(**{**_MC_BASE, "sweep_values": values})


def test_mc_config_accepts_numpy_values_and_integers(arr36, pat10):
    """A numpy sweep grid, trial count or seed runs as its Python equivalent does."""
    kw = dict(mpcs=_MC_BASE["mpcs"], methods=(Method.O1,), randomize_angle=True)
    config = MonteCarloConfig(
        **kw, trials=np.int64(3), sweep_values=np.array([25.0, 35.0]), base_seed=np.uint32(4)
    )
    assert config.sweep_values == (25.0, 35.0)
    plain = MonteCarloConfig(**kw, trials=3, sweep_values=(25.0, 35.0), base_seed=4)
    rows, want = run_sweep(config, CFG, arr36, pat10), run_sweep(plain, CFG, arr36, pat10)
    assert [(r.sweep_value, r.param, r.stats.rmsee) for r in rows] == [
        (r.sweep_value, r.param, r.stats.rmsee) for r in want
    ]


def _small_mc(trials=4, methods=(Method.O1, Method.HAED), seed=0):
    return MonteCarloConfig(
        trials=trials,
        sweep_variable="output_snr_db",
        sweep_values=(25.0, 35.0),
        mpcs=(MpcTruth(alpha=1.0, phase=0.0, tau=32e-9, phi=0.0),),
        randomize_angle=True,
        methods=methods,
        base_seed=seed,
    )


@pytest.mark.parametrize(
    "off_grid, bins, refused",
    [(True, 128.0, True), (True, 300.0, True), (False, 129.0, True), (False, 128.0, False)],
)
def test_run_sweep_refuses_delays_that_reach_the_window_before_any_trial(
    arr36, pat10, monkeypatch, off_grid, bins, refused
):
    """With off_grid_delay a delay plus one bin must stay below k/bw; without, the delay."""
    import padpkit.experiments as experiments

    def boom(*_a, **_k):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "simulate_padp", boom)
    monkeypatch.setattr(experiments, "crlb_sweep", boom)
    mc = replace(
        _small_mc(), mpcs=(MpcTruth(1.0, 0.0, bins * CFG.delta_tau, 0.0),), off_grid_delay=off_grid
    )
    error, message = (ValueError, "^tau: .* delay window") if refused else (AssertionError, "trial")
    with pytest.raises(error, match=message):
        run_sweep(mc, CFG, arr36, pat10)


def _no_trial(monkeypatch):
    """Make any trial, bound overlay or thread pool fail the test."""
    import padpkit.experiments as experiments

    def boom(*_a, **_k):
        raise AssertionError("a trial, bound or pool ran")

    for name in ("simulate_padp", "crlb_sweep", "ThreadPoolExecutor"):
        monkeypatch.setattr(experiments, name, boom)


def test_sweeps_refuse_a_beam_narrower_than_the_scan_step_before_any_trial(arr36, monkeypatch):
    """At 0.45 deg the power gain one 10 deg step off boresight underflows to 0."""
    _no_trial(monkeypatch)
    narrow = AntennaPattern.gaussian(100.0, np.radians(0.45))
    message = r"^pat\.hpbw: expected a beam whose power gain one scan step \(10 deg\) off"
    with pytest.raises(ValueError, match=message):
        run_sweep(_small_mc(), CFG, arr36, narrow)
    with pytest.raises(ValueError, match=message):
        uniform_offset_study(3, 0, CFG, arr36, narrow)


def test_counts_past_their_caps_are_refused_before_any_trial_or_thread(arr36, pat10, monkeypatch):
    _no_trial(monkeypatch)
    cap = checks.MAX_TRIALS
    assert _small_mc(trials=cap).trials == cap
    with pytest.raises(ValueError, match=rf"^trials: expected at most {cap}, got {cap + 1}$"):
        _small_mc(trials=cap + 1)
    cap = checks.MAX_DRAWS
    with pytest.raises(ValueError, match=rf"^n_mpcs: expected at most {cap}, got {cap + 1}$"):
        uniform_offset_study(cap + 1, 0, CFG, arr36, pat10)
    cap = checks.MAX_THREADS
    monkeypatch.setenv("PADPKIT_THREADS", str(cap + 1))
    with pytest.raises(ValueError, match=rf"^PADPKIT_THREADS: expected at most {cap}, got '"):
        run_sweep(_small_mc(), CFG, arr36, pat10)


def test_run_sweep_structure(arr36, pat10):
    rows = run_sweep(_small_mc(), CFG, arr36, pat10)
    keys = {(r.sweep_value, r.method, r.param) for r in rows}
    assert len(keys) == 2 * 2 * 3  # values x methods x params
    for r in rows:
        if r.param == "phi_deg":
            assert np.isfinite(r.sqrt_crlb) and r.sqrt_crlb > 0
            assert r.stats.n + r.stats.misses == 4


def test_run_sweep_deterministic(arr36, pat10):
    a = run_sweep(_small_mc(), CFG, arr36, pat10)
    b = run_sweep(_small_mc(), CFG, arr36, pat10)
    for ra, rb in zip(a, b):
        assert ra.sweep_value == rb.sweep_value and ra.param == rb.param
        np.testing.assert_array_equal(ra.stats.cdf, rb.stats.cdf)
        np.testing.assert_equal(ra.sqrt_crlb, rb.sqrt_crlb)  # NaN-tolerant


def test_run_sweep_threaded_matches_serial(arr36, pat10, monkeypatch):
    serial = run_sweep(_small_mc(trials=6), CFG, arr36, pat10)
    monkeypatch.setenv("PADPKIT_THREADS", "3")
    threaded = run_sweep(_small_mc(trials=6), CFG, arr36, pat10)
    for ra, rb in zip(serial, threaded):
        np.testing.assert_array_equal(ra.stats.cdf, rb.stats.cdf)


@pytest.mark.parametrize(
    "methods", [(Method.O1, Method.O2, Method.HAED), (Method.HAED, Method.HAED_PLUS)]
)
def test_spectra_only_for_peak_rows(arr36, pat10, monkeypatch, methods):
    """Sweeps turn into spectra no more scan rows than the map has distinct peak rows."""
    from padpkit.synthesis import Padp

    converted = []
    spectra = Padp.spectra

    def spy(padp, rows=slice(None)):
        peak_rows = {e.scan_index for e in estimate_haed(padp, pat10)}
        got = np.arange(padp.values.shape[0])[rows]
        converted.append((len(got), len(set(got) - peak_rows), len(peak_rows)))
        return spectra(padp, rows)

    monkeypatch.setattr(Padp, "spectra", spy)
    mpcs = (
        MpcTruth(alpha=1.0, phase=0.0, tau=20e-9, phi=np.radians(13.0)),
        MpcTruth(alpha=0.8, phase=1.0, tau=35e-9, phi=np.radians(13.0)),
    )
    mc = MonteCarloConfig(
        trials=3,
        sweep_variable="angular_separation_deg",
        sweep_values=(0.0, 90.0),
        mpcs=mpcs,
        off_grid_delay=True,
        methods=methods,
    )
    run_sweep(mc, replace(CFG, sigma2=0.05), arr36, pat10)
    uniform_offset_study(2, seed=0, cfg=CFG, arr=arr36, pat=pat10, methods=methods)
    if Method.HAED_PLUS not in methods:
        assert converted == []
        return
    assert len(converted) == 3 * 2 + 2  # one conversion per haed+ call
    for n_rows, outside, n_peak_rows in converted:
        assert 1 <= n_rows <= n_peak_rows and outside == 0
    assert max(n for n, _, _ in converted) == 2  # both rows of the 90-degree pair


def test_estimator_failure_counts_as_miss(arr36, pat10, monkeypatch):
    import padpkit.experiments as exp

    def boom(*args, **kwargs):
        raise ValueError("synthetic estimator failure")

    monkeypatch.setattr(exp, "estimate_o1", boom)
    rows = run_sweep(_small_mc(trials=3, methods=(Method.O1,)), CFG, arr36, pat10)
    for r in rows:
        assert r.stats.misses == 3 and r.stats.n == 0
        assert r.stats.failures == 3


@pytest.mark.parametrize("threads", ["1", "2"])
def test_unexpected_estimator_error_propagates(arr36, pat10, monkeypatch, threads):
    """Only ValueError counts as an estimator failure; any other exception is a bug."""
    import padpkit.experiments as exp

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic bug")

    monkeypatch.setenv("PADPKIT_THREADS", threads)
    monkeypatch.setattr(exp, "estimate_o1", boom)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        run_sweep(_small_mc(trials=3, methods=(Method.O1, Method.HAED)), CFG, arr36, pat10)


def test_zero_noise_sweep_is_exact(arr36, pat10):
    mc = MonteCarloConfig(
        trials=3,
        sweep_variable="true_angle_deg",
        sweep_values=(13.0, 17.5),
        mpcs=(MpcTruth(alpha=1.0, phase=0.2, tau=32e-9, phi=0.0),),
        methods=(Method.HAED,),
        base_seed=0,
    )
    rows = run_sweep(mc, CFG, arr36, pat10)
    for r in rows:
        if r.param == "phi_deg":
            assert r.stats.rmsee < 1e-6
            assert r.sqrt_crlb == 0.0


def test_two_mpc_separation_sweep_smoke(arr36, pat10):
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=129, pu=1.0, sigma2=10.0)
    mc = MonteCarloConfig(
        trials=3,
        sweep_variable="angular_separation_deg",
        sweep_values=(40.0,),
        mpcs=(
            MpcTruth(alpha=1.0, phase=np.pi / 3, tau=16e-9, phi=np.radians(3.0)),
            MpcTruth(alpha=1.0, phase=np.pi / 5, tau=16e-9, phi=np.radians(3.0)),
        ),
        methods=(Method.HAED,),
        base_seed=1,
    )
    rows = run_sweep(mc, cfg, arr36, pat10)
    per_param = {r.param for r in rows}
    assert "phi_deg:0" in per_param and "phi_deg:1" in per_param
    for r in rows:
        if r.param.startswith("phi_deg"):
            assert np.isfinite(r.sqrt_crlb)


def test_uniform_offset_study_basics(arr36, pat10):
    study = uniform_offset_study(80, seed=7, cfg=CFG, arr=arr36, pat=pat10)
    o1_phi = study[Method.O1]["phi_deg"]
    haed_phi = study[Method.HAED]["phi_deg"]
    haed_pow = study[Method.HAED]["power_db"]
    assert o1_phi.n == 80
    assert o1_phi.mean_abs_err == pytest.approx(2.5, abs=0.6)
    assert haed_phi.mean_abs_err < 1e-6
    assert haed_pow.mean_abs_err < 1e-6
    again = uniform_offset_study(80, seed=7, cfg=CFG, arr=arr36, pat=pat10)
    np.testing.assert_array_equal(
        again[Method.O1]["phi_deg"].cdf, o1_phi.cdf
    )
    with pytest.raises(ValueError):
        uniform_offset_study(0, seed=1, cfg=CFG, arr=arr36, pat=pat10)


@pytest.mark.parametrize("snr_db", [15.0, 27.5, 40.0])
def test_randomized_angle_overlay_is_mean_of_scalar_bounds(arr36, pat10, snr_db):
    """The overlay over the 181-angle grid equals the mean of per-angle scalar calls exactly."""
    mpc = MpcTruth(alpha=1.0, phase=0.0, tau=16e-9, phi=np.radians(13.0))
    mc = MonteCarloConfig(
        trials=1, sweep_values=(snr_db,), mpcs=(mpc,), randomize_angle=True
    )
    gamma_i = 10.0 ** (snr_db / 10.0) / pat10.g_max
    cfg_pt = replace(CFG, sigma2=CFG.pu / gamma_i)
    grid = np.linspace(0.0, arr36.asi, 181)
    gamma = mpc.alpha**2 * cfg_pt.pu / cfg_pt.sigma2
    sphi = np.mean([np.sqrt(crlb_single_phi(gamma, cfg_pt, arr36, pat10, a)) for a in grid])
    salpha = np.mean([np.sqrt(crlb_single_alpha(gamma, cfg_pt, arr36, pat10, a)) for a in grid])
    [(mpcs, cfg_got, got)] = _sweep_points(mc, CFG, arr36, pat10)
    assert mpcs == [mpc] and cfg_got == cfg_pt
    assert got[0][:2] == (float(np.degrees(sphi)), float(salpha))
    assert np.isnan(got[0][2])


def test_closed_form_overlay_sums_the_scan_ring_once_per_point(arr36, pat10, monkeypatch):
    """Both closed forms of a sweep point come from one ``_ring_sums`` pass over the angle grid."""
    ring_sums, passes = crlb._ring_sums, []

    def counted(pat, arr, phi_l):
        passes.append(np.shape(phi_l))
        return ring_sums(pat, arr, phi_l)

    monkeypatch.setattr(crlb, "_ring_sums", counted)
    mpc = MpcTruth(alpha=1.0, phase=0.0, tau=16e-9, phi=np.radians(13.0))
    mc = MonteCarloConfig(trials=1, sweep_values=(15.0, 30.0), mpcs=(mpc,), randomize_angle=True)
    _sweep_points(mc, CFG, arr36, pat10)
    assert passes == [(181,), (181,)]
    grid = np.linspace(0.0, arr36.asi, 181)
    bounds = crlb_single_bounds(2.0, CFG, arr36, pat10, grid)
    for got, single in zip(bounds, (crlb_single_phi, crlb_single_alpha)):
        assert got.tobytes() == single(2.0, CFG, arr36, pat10, grid).tobytes()


@pytest.mark.parametrize("snr_db", [20.0, 30.0])
def test_randomized_tabulated_overlay_is_mean_of_fisher_bounds(arr36, pat10, snr_db):
    """A tabulated pattern's randomized overlay averages sqrt of the Fisher bound over the grid."""
    ang = np.radians(np.arange(-180.0, 180.0, 0.05))
    pat = AntennaPattern.from_table(ang, gain(pat10, ang))
    mpc = MpcTruth(alpha=1.0, phase=0.3, tau=16e-9, phi=np.radians(13.0))
    mc = MonteCarloConfig(trials=1, sweep_values=(snr_db,), mpcs=(mpc,), randomize_angle=True)
    [(_, cfg_pt, got)] = _sweep_points(mc, CFG, arr36, pat)
    reports = [
        crlb_from_fim(fim([replace(mpc, phi=a)], arr36, pat, cfg_pt))
        for a in np.linspace(0.0, arr36.asi, 181)
    ]

    def mean_sqrt(param):
        return np.mean([np.sqrt(r.value(param, 0)) for r in reports])

    want = (
        float(np.degrees(mean_sqrt("phi"))),
        float(mean_sqrt("amp_norm")),
        float(mean_sqrt("tau") * 1e9),
    )
    assert got == {0: want}
    at_one_angle = crlb_from_fim(fim([mpc], arr36, pat, cfg_pt))
    assert got[0][0] != pytest.approx(np.degrees(np.sqrt(at_one_angle.value("phi", 0))), rel=1e-3)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_apply_sweep_runs_once_per_sweep_value(arr36, pat10, monkeypatch, threads):
    """Trials take their point's arrivals: the sweep is applied per value, not per trial."""
    import padpkit.experiments as exp

    calls = []
    real = exp.apply_sweep

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    mpcs = (
        MpcTruth(alpha=1.0, phase=0.0, tau=20e-9, phi=np.radians(13.0)),
        MpcTruth(alpha=0.8, phase=1.0, tau=35e-9, phi=np.radians(13.0)),
    )
    mc = MonteCarloConfig(
        trials=5,
        sweep_variable="angular_separation_deg",
        sweep_values=(30.0, 90.0, 150.0),
        mpcs=mpcs,
        off_grid_delay=True,
        methods=(Method.HAED,),
    )
    monkeypatch.setenv("PADPKIT_THREADS", threads)
    monkeypatch.setattr(exp, "apply_sweep", counting)
    rows = run_sweep(mc, replace(CFG, sigma2=0.05), arr36, pat10)
    assert calls == [("angular_separation_deg", v) for v in mc.sweep_values]
    assert {r.sweep_value for r in rows} == set(mc.sweep_values)


def test_apply_sweep_rules():
    a = MpcTruth(alpha=1.0, phase=0.0, tau=16e-9, phi=np.radians(10.0))
    b = MpcTruth(alpha=0.5, phase=1.0, tau=32e-9, phi=np.radians(200.0))
    sep = apply_sweep((a, b), "angular_separation_deg", 30.0)
    assert sep[0] == a and sep[1].phi == pytest.approx(np.radians(40.0)) and sep[1].tau == b.tau
    ang = apply_sweep((a, b), "true_angle_deg", 5.0)
    assert ang[0].phi == np.radians(5.0) and ang[0].tau == a.tau and ang[1] == b
    assert apply_sweep((a, b), "output_snr_db", 20.0) == [a, b]
    with pytest.raises(ValueError, match="two arrivals"):
        apply_sweep((a,), "angular_separation_deg", 30.0)
    with pytest.raises(ValueError, match="^sweep_variable: expected one of"):
        apply_sweep((a,), "bogus", 1.0)


@pytest.mark.parametrize("two_arrivals", [False, True])
def test_fim_overlay_follows_true_angle_sweep(arr36, pat10, two_arrivals):
    """The Fisher-matrix overlay (tabulated pattern, or two arrivals) uses the swept angle."""
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=129, pu=1.0, sigma2=1.0)
    mpcs = [MpcTruth(alpha=1.0, phase=0.3, tau=16e-9, phi=0.0)]
    pat = pat10
    if two_arrivals:
        mpcs.append(MpcTruth(alpha=0.7, phase=1.1, tau=40e-9, phi=np.radians(120.0)))
    else:
        ang = np.radians(np.arange(-180.0, 180.0, 0.05))
        pat = AntennaPattern.from_table(ang, gain(pat10, ang))
    mc = MonteCarloConfig(
        trials=1,
        sweep_variable="true_angle_deg",
        sweep_values=(0.0, 5.0),
        mpcs=tuple(mpcs),
        methods=(Method.HAED,),
    )
    rows = run_sweep(mc, cfg, arr36, pat)
    for value in mc.sweep_values:
        swept = [MpcTruth(alpha=1.0, phase=0.3, tau=16e-9, phi=np.radians(value))] + mpcs[1:]
        report = crlb_from_fim(fim(swept, arr36, pat, cfg))
        got = [r for r in rows if r.sweep_value == value and r.param.startswith("phi_deg")]
        assert len(got) == len(mpcs)
        for r in got:
            want = np.degrees(np.sqrt(report.value("phi", r.truth_index)))
            assert r.sqrt_crlb == pytest.approx(want, rel=1e-12)
    first = {r.sweep_value: r.sqrt_crlb for r in rows if r.param in ("phi_deg", "phi_deg:0")}
    assert first[0.0] != pytest.approx(first[5.0], rel=1e-3)


def test_two_arrival_snr_overlay_bounds_each_point_at_its_own_noise_height(arr36, pat10):
    """Each point of a two-arrival output-SNR sweep is bounded at its own noise height.

    The overlay equals the one-point Fisher bound under ``replace(cfg,
    sigma2=height)`` bit for bit; the base config's height would differ.
    """
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=129, pu=1.0, sigma2=1.0)
    mpcs = (
        MpcTruth(alpha=1.0, phase=0.3, tau=16e-9, phi=np.radians(13.0)),
        MpcTruth(alpha=0.7, phase=1.1, tau=40e-9, phi=np.radians(120.0)),
    )
    mc = MonteCarloConfig(trials=1, sweep_values=(10.0, 25.0, 40.0), mpcs=mpcs)
    points = _sweep_points(mc, cfg, arr36, pat10)
    assert len(points) == len(mc.sweep_values)
    for snr_db, (got_mpcs, cfg_got, got) in zip(mc.sweep_values, points):
        height = cfg.pu / (10.0 ** (snr_db / 10.0) / pat10.g_max)  # alpha of arrival 0 is 1
        assert got_mpcs == list(mpcs) and cfg_got == replace(cfg, sigma2=height)
        report = crlb_from_fim(fim(list(mpcs), arr36, pat10, replace(cfg, sigma2=height)))
        assert got == {
            ti: (
                float(np.degrees(np.sqrt(report.value("phi", ti)))),
                float(np.sqrt(report.value("amp_norm", ti))),
                float(np.sqrt(report.value("tau", ti)) * 1e9),
            )
            for ti in range(2)
        }


def test_run_method_matches_estimators(arr36, pat10):
    cfg = SoundingConfig(fc=37.5e9, bw=2e9, k=129, pu=1.0, sigma2=0.05)
    from padpkit import haed_plus_refine, simulate_padp
    from padpkit.estimation import estimate_o1, estimate_o2

    truth = MpcTruth(alpha=1.0, phase=0.4, tau=16.3e-9, phi=np.radians(13.0))
    padp = simulate_padp([truth], arr36, pat10, cfg, seed=2)
    pk = PeakConfig()
    haed = estimate_haed(padp, pat10, pk)
    want = {
        Method.O1: estimate_o1(padp, pat10, pk),
        Method.O2: estimate_o2(padp, pat10, pk),
        Method.HAED: haed,
        Method.HAED_PLUS: haed_plus_refine(padp, haed),
    }
    for method, ests in want.items():
        assert run_method(method, padp, pat10, pk) == ests
    with pytest.raises(ValueError, match="unknown method"):
        run_method("o3", padp, pat10, pk)


def test_o2_constant_is_computed_once_per_pattern(arr36, pat10):
    """Sweeps and offset studies read the o-2 constant from its cache, not their own copy."""
    from padpkit.estimation import o2_deembed_constant

    methods = (Method.O1, Method.O2)
    o2_deembed_constant.cache_clear()
    try:
        run_sweep(_small_mc(trials=2, methods=methods), CFG, arr36, pat10)
        run_sweep(_small_mc(trials=2, methods=methods, seed=1), CFG, arr36, pat10)
        uniform_offset_study(3, seed=0, cfg=CFG, arr=arr36, pat=pat10, methods=methods)
        info = o2_deembed_constant.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits > 0
    finally:
        o2_deembed_constant.cache_clear()


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "2.5"])
def test_bad_thread_count_is_rejected(arr36, pat10, monkeypatch, raw):
    monkeypatch.setenv("PADPKIT_THREADS", raw)
    with pytest.raises(ValueError, match="PADPKIT_THREADS") as info:
        run_sweep(_small_mc(trials=1), CFG, arr36, pat10)
    assert repr(raw) in str(info.value)


def test_empty_thread_count_runs_serially(arr36, pat10, monkeypatch):
    import padpkit.experiments as exp

    serial = run_sweep(_small_mc(trials=2), CFG, arr36, pat10)
    monkeypatch.setenv("PADPKIT_THREADS", "")
    monkeypatch.setattr(exp, "ThreadPoolExecutor", None)  # any pool use would fail
    again = run_sweep(_small_mc(trials=2), CFG, arr36, pat10)
    for ra, rb in zip(serial, again):
        np.testing.assert_array_equal(ra.stats.cdf, rb.stats.cdf)


def _plus_mc(methods, trials=3):
    return MonteCarloConfig(
        trials=trials,
        sweep_variable="output_snr_db",
        sweep_values=(30.0,),
        mpcs=(MpcTruth(alpha=1.0, phase=0.0, tau=32e-9, phi=np.radians(13.0)),),
        off_grid_delay=True,
        methods=methods,
    )


def _phi_rows(rows):
    return {r.method: r for r in rows if r.param == "phi_deg"}


def test_method_failures_stay_isolated(arr36, pat10, monkeypatch):
    import padpkit.experiments as exp

    def boom(*args, **kwargs):
        raise ValueError("synthetic estimator failure")

    methods = (Method.O1, Method.HAED, Method.HAED_PLUS)
    monkeypatch.setattr(exp, "haed_plus_refine", boom)
    rows = _phi_rows(run_sweep(_plus_mc(methods), CFG, arr36, pat10))
    assert rows[Method.HAED_PLUS].stats.misses == 3
    assert rows[Method.HAED].stats.n == 3 and rows[Method.O1].stats.n == 3
    assert rows[Method.HAED_PLUS].stats.failures == 3
    assert rows[Method.HAED].stats.failures == rows[Method.O1].stats.failures == 0
    monkeypatch.undo()
    monkeypatch.setattr(exp, "estimate_haed", boom)
    rows = _phi_rows(run_sweep(_plus_mc(methods), CFG, arr36, pat10))
    assert rows[Method.HAED].stats.misses == 3 and rows[Method.HAED_PLUS].stats.misses == 3
    assert rows[Method.O1].stats.n == 3
    assert rows[Method.HAED].stats.failures == rows[Method.HAED_PLUS].stats.failures == 3
    assert rows[Method.O1].stats.failures == 0


def test_offset_study_memory_does_not_grow_with_draws(arr36, pat10, cfg_full):
    """Every draw is synthesized into the study's one workspace."""
    import tracemalloc

    methods = (Method.O1, Method.O2, Method.HAED, Method.HAED_PLUS)

    def peak(n):
        tracemalloc.start()
        try:
            uniform_offset_study(n, seed=5, cfg=cfg_full, arr=arr36, pat=pat10, methods=methods)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    uniform_offset_study(1, seed=5, cfg=cfg_full, arr=arr36, pat=pat10, methods=methods)  # warm caches
    assert peak(20) <= 1.1 * peak(1)


def _fingerprint(rows):
    """Every field of every sweep row, exactly (NaN compares by its bytes)."""
    return [
        (r.sweep_value, r.method, r.param, r.truth_index, np.float64(r.sqrt_crlb).tobytes(),
         np.array([r.stats.rmsee, r.stats.mean_err, r.stats.mean_abs_err, r.stats.mc_stderr]).tobytes(),
         r.stats.n, r.stats.misses, r.stats.false_alarms, r.stats.failures, r.stats.cdf.tobytes())
        for r in rows
    ]


def _counting_workspaces(monkeypatch):
    """Count the workspaces built, starting with none kept by this thread."""
    import threading

    import padpkit.experiments as exp

    made = []
    monkeypatch.setattr(exp, "_thread_workspace", threading.local())

    class Counting(exp.Workspace):
        def __init__(self, m, k):
            super().__init__(m, k)
            made.append((m, k))

    monkeypatch.setattr(exp, "Workspace", Counting)
    return made


def test_run_sweep_rows_equal_with_two_threads(arr36, pat10, monkeypatch):
    """Per-thread workspaces leave every row field unchanged, noisy and off-grid."""
    cfg = replace(CFG, k=257)
    methods = (Method.O1, Method.O2, Method.HAED, Method.HAED_PLUS)
    mc = replace(_plus_mc(methods, trials=8), sweep_values=(20.0, 30.0))
    monkeypatch.delenv("PADPKIT_THREADS", raising=False)
    serial = run_sweep(mc, cfg, arr36, pat10)
    monkeypatch.setenv("PADPKIT_THREADS", "2")
    made = _counting_workspaces(monkeypatch)
    threaded = run_sweep(mc, cfg, arr36, pat10)
    assert _fingerprint(threaded) == _fingerprint(serial)
    assert 1 <= len(made) <= 2  # one per pool thread: the pool serves every point


def test_serial_sweep_and_offset_study_allocate_one_workspace(arr36, pat10, monkeypatch):
    monkeypatch.delenv("PADPKIT_THREADS", raising=False)
    made = _counting_workspaces(monkeypatch)
    run_sweep(_small_mc(trials=5), CFG, arr36, pat10)
    assert made == [(arr36.m, CFG.k)]
    uniform_offset_study(6, seed=1, cfg=CFG, arr=arr36, pat=pat10)
    assert made == [(arr36.m, CFG.k)] * 2


def test_consecutive_serial_sweeps_share_one_workspace(arr36, pat10, monkeypatch):
    """A thread keeps its workspace across sweeps of one map shape; the rows do not move."""
    import threading

    monkeypatch.delenv("PADPKIT_THREADS", raising=False)
    mc = _small_mc(trials=4)
    fresh = []  # a new thread starts with no workspace kept
    worker = threading.Thread(target=lambda: fresh.append(run_sweep(mc, CFG, arr36, pat10)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(fresh) == 1
    made = _counting_workspaces(monkeypatch)
    first = run_sweep(mc, CFG, arr36, pat10)
    second = run_sweep(mc, CFG, arr36, pat10)
    assert made == [(arr36.m, CFG.k)]
    assert _fingerprint(first) == _fingerprint(second) == _fingerprint(fresh[0])
    run_sweep(mc, replace(CFG, k=257), arr36, pat10)  # a new map shape builds a new one
    assert made == [(arr36.m, CFG.k), (arr36.m, 257)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_rows_do_not_depend_on_the_chunk_size(arr36, pat10, monkeypatch, chunk, threads):
    """Chunks of one trial run each trial's three passes back to back, as a one-trial loop."""
    import padpkit.experiments as exp

    chunk = chunk or exp._CHUNK
    methods = (Method.O1, Method.HAED, Method.HAED_PLUS)
    mc = replace(_plus_mc(methods, trials=2 * chunk + 3), sweep_values=(20.0, 30.0))
    monkeypatch.delenv("PADPKIT_THREADS", raising=False)
    monkeypatch.setattr(exp, "_CHUNK", 1)
    want = run_sweep(mc, CFG, arr36, pat10)
    monkeypatch.setattr(exp, "_CHUNK", chunk)
    monkeypatch.setenv("PADPKIT_THREADS", threads)
    assert _fingerprint(run_sweep(mc, CFG, arr36, pat10)) == _fingerprint(want)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_association_failures_stay_isolated(arr36, pat10, monkeypatch, threads):
    """A ValueError from associate fails its method's trial alone, as an estimator's does."""
    import padpkit.experiments as exp

    associate_ = exp.associate

    def picky(ests, *args):
        if any(e.method is Method.HAED_PLUS for e in ests):
            raise ValueError("synthetic association failure")
        return associate_(ests, *args)

    methods = (Method.O1, Method.HAED, Method.HAED_PLUS)
    monkeypatch.setenv("PADPKIT_THREADS", threads)
    monkeypatch.setattr(exp, "associate", picky)
    rows = _phi_rows(run_sweep(_plus_mc(methods), CFG, arr36, pat10))
    plus = rows[Method.HAED_PLUS].stats
    assert plus.misses == plus.failures == 3 and plus.n == plus.false_alarms == 0
    assert rows[Method.HAED].stats.n == rows[Method.O1].stats.n == 3
    assert rows[Method.HAED].stats.failures == rows[Method.O1].stats.failures == 0


def test_unexpected_error_in_a_pooled_map_propagates(arr36, pat10, monkeypatch):
    """A RuntimeError building a map on a pool thread, in the second chunk, leaves run_sweep."""
    import padpkit.experiments as exp

    calls, simulate = [], exp.simulate_padp

    def flaky(*args, **kw):
        calls.append(None)
        if len(calls) >= 4:
            raise RuntimeError("synthetic bug")
        return simulate(*args, **kw)

    monkeypatch.setenv("PADPKIT_THREADS", "2")
    monkeypatch.setattr(exp, "_CHUNK", 3)
    monkeypatch.setattr(exp, "simulate_padp", flaky)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        run_sweep(_plus_mc((Method.HAED,), trials=6), CFG, arr36, pat10)


def test_pooled_sweep_call_structure(monkeypatch):
    """The call structure the benchmark's own tests rely on, on its mc-pair-plus scenario.

    With two threads each trial builds its map once, on a pool thread; each
    of haed and haed+ runs one noise threshold (the 2-D map's) and one
    association per trial.
    """
    import threading
    from pathlib import Path

    import padpkit.estimation as est
    import padpkit.experiments as exp
    from padpkit.io import load_scenario

    sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "corridor_pair.json")
    calls = {"simulate_padp": [], "noise_threshold": [], "associate": []}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name].append(threading.get_ident())
            return fn(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)

    counted(exp, "simulate_padp")
    counted(est, "noise_threshold")
    counted(exp, "associate")
    monkeypatch.setenv("PADPKIT_THREADS", "2")
    mc = MonteCarloConfig(
        trials=4,
        sweep_variable="angular_separation_deg",
        sweep_values=(30.0,),
        mpcs=sc.mpcs,
        off_grid_delay=True,
        methods=(Method.HAED, Method.HAED_PLUS),
        base_seed=1,
    )
    run_sweep(mc, sc.sounding, sc.array, sc.pattern)
    main = threading.main_thread().ident
    assert len(calls["simulate_padp"]) == 4 and main not in calls["simulate_padp"]
    assert len(calls["noise_threshold"]) == 8
    assert len(calls["associate"]) == 8


@pytest.mark.parametrize("seed", [0, 7])
def test_o1_o2_haed_rows_do_not_depend_on_haed_plus(arr36, pat10, monkeypatch, seed):
    """On-grid noisy maps are the same whether or not haed+ asks for their responses h."""
    import padpkit.experiments as exp

    kept, simulate = [], exp.simulate_padp

    def spy(*args, keep_cfr=True, **kw):
        kept.append(keep_cfr)
        return simulate(*args, keep_cfr=keep_cfr, **kw)

    monkeypatch.setattr(exp, "simulate_padp", spy)
    base = (Method.O1, Method.O2, Method.HAED)
    without = run_sweep(_small_mc(trials=6, methods=base, seed=seed), CFG, arr36, pat10)
    assert kept and not any(kept)
    kept.clear()
    mc = _small_mc(trials=6, methods=base + (Method.HAED_PLUS,), seed=seed)
    with_plus = run_sweep(mc, CFG, arr36, pat10)
    assert kept and all(kept)
    assert _fingerprint(without) == _fingerprint(
        [r for r in with_plus if r.method is not Method.HAED_PLUS]
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_off_grid_haed_rows_do_not_depend_on_haed_plus(arr36, pat10, seed):
    """Off-grid noisy maps draw the same noise whether or not haed+ reads their responses h."""
    mc = replace(_small_mc(trials=6, methods=(Method.HAED,), seed=seed), off_grid_delay=True)
    without = run_sweep(mc, CFG, arr36, pat10)
    with_plus = run_sweep(replace(mc, methods=(Method.HAED, Method.HAED_PLUS)), CFG, arr36, pat10)
    assert _fingerprint(without) == _fingerprint(
        [r for r in with_plus if r.method is not Method.HAED_PLUS]
    )


def _offset_fingerprint(study, methods):
    return {
        (m, p): (s.rmsee, s.mean_err, s.mean_abs_err, s.mc_stderr, s.n, s.misses, s.cdf.tobytes())
        for m in methods
        for p, s in study[m].items()
    }


@pytest.mark.parametrize("seed", [0, 4])
def test_offset_study_rows_do_not_depend_on_haed_plus(arr36, pat10, cfg_full, monkeypatch, seed):
    """The o1/o2/haed statistics are the same with and without haed+, which alone keeps h."""
    import padpkit.experiments as exp

    kept, simulate = [], exp.simulate_padp

    def spy(*args, keep_cfr=True, **kw):
        kept.append(keep_cfr)
        return simulate(*args, keep_cfr=keep_cfr, **kw)

    monkeypatch.setattr(exp, "simulate_padp", spy)
    base = (Method.O1, Method.O2, Method.HAED)
    without = uniform_offset_study(30, seed, cfg_full, arr36, pat10, methods=base)
    assert kept and not any(kept)
    kept.clear()
    plus = base + (Method.HAED_PLUS,)
    with_plus = uniform_offset_study(30, seed, cfg_full, arr36, pat10, methods=plus)
    assert kept and all(kept)
    assert _offset_fingerprint(with_plus, base) == _offset_fingerprint(without, base)
    assert with_plus[Method.HAED_PLUS]["power_db"].rmsee < 1e-12


@pytest.mark.parametrize("n", [True, False, 2.5, 2.0, "3", None, 0, -1])
def test_offset_study_rejects_a_non_integer_draw_count(arr36, pat10, n):
    with pytest.raises(ValueError, match="n_mpcs"):
        uniform_offset_study(n, seed=0, cfg=CFG, arr=arr36, pat=pat10)


def test_offset_study_accepts_numpy_integers(arr36, pat10):
    study = uniform_offset_study(np.int64(3), seed=0, cfg=CFG, arr=arr36, pat=pat10)
    assert study[Method.O1]["phi_deg"].n == 3


@pytest.mark.parametrize("values", [(np.inf,), (np.nan,), (30.0, -np.inf), (True,)])
def test_mc_config_rejects_non_finite_sweep_values(values):
    with pytest.raises(ValueError, match="^sweep_values: expected (finite entries|a non-empty)"):
        MonteCarloConfig(**{**_MC_BASE, "sweep_values": values})


@pytest.mark.parametrize(
    "pu, snr_db, message",
    [
        (1.0, 4000.0, "^output_snr_db: expected a gain in dB"),
        (1.0, -4000.0, "^output_snr_db: expected a gain in dB"),
        (1e300, 30.0, r"^sigma2 = alpha\*\*2 \* pu \* g_max / SNR at 30.0 dB: expected a noise"),
    ],
    ids=["snr-overflows", "snr-underflows", "noise-past-the-ceiling"],
)
def test_run_sweep_refuses_output_snrs_without_a_representable_noise_height(
    arr36, pat10, monkeypatch, pu, snr_db, message
):
    """The noise height of every output-SNR point is checked before any trial, naming the point."""
    import padpkit.experiments as experiments

    def boom(*_a, **_k):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "simulate_padp", boom)
    mc = replace(_small_mc(), sweep_values=(snr_db,))
    with pytest.raises(ValueError, match=message):
        run_sweep(mc, replace(CFG, pu=pu), arr36, pat10)
