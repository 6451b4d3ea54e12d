import numpy as np
import pytest

from padpkit import MpcTruth, SoundingConfig
from padpkit.angles import circular_delta
from padpkit.estimation import Method, MpcEstimate
from padpkit.experiments import (
    ErrorStats,
    MonteCarloConfig,
    associate,
    rmsee,
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
    "methods, want_cfr",
    [((Method.O1, Method.O2, Method.HAED), False), ((Method.HAED, Method.HAED_PLUS), True)],
)
def test_spectra_built_only_for_haed_plus(arr36, pat10, monkeypatch, methods, want_cfr):
    import padpkit.experiments as exp

    seen = []

    def spy(*args, **kwargs):
        padp = simulate(*args, **kwargs)
        seen.append(padp.cfr is not None)
        return padp

    simulate = exp.simulate_padp
    monkeypatch.setattr(exp, "simulate_padp", spy)
    run_sweep(_small_mc(trials=2, methods=methods), CFG, arr36, pat10)
    uniform_offset_study(2, seed=0, cfg=CFG, arr=arr36, pat=pat10, methods=methods)
    assert seen and set(seen) == {want_cfr}


def test_estimator_failure_counts_as_miss(arr36, pat10, monkeypatch):
    import padpkit.experiments as exp

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic estimator failure")

    monkeypatch.setattr(exp, "estimate_o1", boom)
    rows = run_sweep(_small_mc(trials=3, methods=(Method.O1,)), CFG, arr36, pat10)
    for r in rows:
        assert r.stats.misses == 3 and r.stats.n == 0


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
