"""Metamorphic relations of the o-1, o-2 and haed estimators on noisy scan maps.

Each relation transforms a map in a known way and states how every
estimate must follow, so no reference output is needed:

* rolling the scan rows by s steps turns every angle by s * asi with the
  same power;
* scaling the map by c scales every power by c with the same angle;
* shifting the map along delay by whole bins, away from the delay edges,
  shifts every delay by the same number of bins;
* mirroring the scan (row i to row -i mod m) under a symmetric beam
  negates every angle with the same power.  Noisy maps have no exact
  ties, which the relation excludes (a tie picks the lower row or side).
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from padpkit import simulate_padp
from padpkit.angles import circular_delta
from padpkit.estimation import Method, PeakConfig
from padpkit.experiments import run_method
from padpkit.io import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
METHODS = (Method.O1, Method.O2, Method.HAED)
ANGLE_TOL = 1e-12  # rad
POWER_RTOL = 1e-13


@pytest.fixture(scope="module", params=["default.json", "corridor_pair.json"])
def noisy_maps(request):
    """Three noisy maps of a scenario, as power-only Padps, and its pattern."""
    sc = load_scenario(SCENARIOS / request.param)
    assert sc.sounding.sigma2 > 0
    maps = [
        replace(simulate_padp(sc.mpcs, sc.array, sc.pattern, sc.sounding, seed=seed), h=None)
        for seed in (1, 2, 3)
    ]
    return maps, sc.pattern


def _estimates(padp, pat, method):
    return run_method(method, padp, pat, PeakConfig())


def _assert_follow(
    before, after, dtau, phi_shift=0.0, power_scale=1.0, bin_shift=0, mirror=False
):
    """Every estimate of ``before`` has exactly one transformed counterpart in ``after``.

    ``dtau`` is the delay bin; delays compare within 1e-6 of it.  ``mirror``
    negates each angle before the shift.
    """
    assert len(after) == len(before)
    unused = list(after)
    for est in before:
        tau = est.tau + bin_shift * dtau
        phi = (-est.phi if mirror else est.phi) + phi_shift
        hits = [
            e for e in unused
            if abs(e.tau - tau) <= 1e-6 * dtau
            and abs(float(circular_delta(e.phi, phi))) <= ANGLE_TOL
        ]
        assert len(hits) == 1, (est, hits)
        hit = hits[0]
        assert abs(hit.power - power_scale * est.power) <= POWER_RTOL * power_scale * est.power
        unused.remove(hit)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_rolling_the_scan_turns_every_angle(noisy_maps, method):
    maps, pat = noisy_maps
    for padp in maps:
        before = _estimates(padp, pat, method)
        assert before
        for s in range(1, 6):
            rolled = replace(padp, values=np.roll(padp.values, s, axis=0))
            after = _estimates(rolled, pat, method)
            _assert_follow(before, after, padp.delta_tau, phi_shift=s * padp.asi)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_mirroring_the_scan_negates_every_angle(noisy_maps, method):
    maps, pat = noisy_maps
    for padp in maps:
        m = padp.values.shape[0]
        before = _estimates(padp, pat, method)
        assert before
        mirrored = replace(padp, values=padp.values[-np.arange(m) % m])
        _assert_follow(before, _estimates(mirrored, pat, method), padp.delta_tau, mirror=True)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_scaling_the_map_scales_every_power(noisy_maps, method):
    maps, pat = noisy_maps
    for padp in maps:
        before = _estimates(padp, pat, method)
        after = _estimates(replace(padp, values=padp.values * 7.3), pat, method)
        _assert_follow(before, after, padp.delta_tau, power_scale=7.3)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_shifting_delays_by_whole_bins_shifts_every_delay(noisy_maps, method):
    """Estimates within a bin of the delay edges or of the wrapped seam are left out."""
    maps, pat = noisy_maps
    for padp in maps:
        k = padp.values.shape[1]
        dtau = padp.delta_tau
        for b in (1, 7, 40):
            shifted = replace(padp, values=np.roll(padp.values, b, axis=1))
            before = [e for e in _estimates(padp, pat, method) if 1 <= e.delay_index <= k - 2 - b]
            after = [
                e for e in _estimates(shifted, pat, method)
                if b + 1 <= e.delay_index <= k - 2
            ]
            assert any(e.delay_index < 100 for e in before)  # the arrivals are kept
            _assert_follow(before, after, dtau, bin_shift=b)
