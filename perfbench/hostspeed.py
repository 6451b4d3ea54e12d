"""Host-speed reference: a fixed numpy kernel timed next to the benchmark's operations.

On a shared host the same code can run 30% slower for minutes at a time.
The slowdown comes from other tenants, not from this process: there is no
steal time, and the process gets one CPU-second per wall second.  Ten runs
of raw wall-clock times then spread by 0.2-0.3 of their median, wider than
any useful regression bound.  So each measured batch is scaled by
``REF_NOMINAL_S / reference time``, measured just before that batch.  A change in host
speed cancels.  A change in padpkit does not: the kernel uses only numpy and
the interpreter, never padpkit.  It does the array work of one trial: a
36 x 1001 outer product, noise draws, an FFT, a median and neighbour
comparisons.  On a 2-vCPU development host, scaled spreads were 0.04
against 0.31 raw over the same 5 minutes.  Raw times are reported next to
the scaled ones.
"""

import time

import numpy as np

REF_NOMINAL_S = 0.004  # the kernel's time on the development host in its faster phases
_M, _K = 36, 1001
_FREQS = 37.5e9 - 1e9 + np.arange(_K) * (2e9 / _K)
_STEER = 2.0 * np.pi * np.arange(_M) / _M


def _kernel():
    rng = np.random.default_rng(0)
    g = np.exp(-0.5 * (_STEER - 1.0) ** 2)
    s = np.outer(g, np.exp(-2j * np.pi * 25e-9 * _FREQS))
    y = s + np.sqrt(0.05) * (rng.standard_normal((_M, _K)) + 1j * rng.standard_normal((_M, _K)))
    v = np.abs(np.sqrt(_K) * np.fft.ifft(y, axis=-1)) ** 2
    keep = (v > 10.0 * np.median(v)) & (v > np.roll(v, 1, axis=0)) & (v >= np.roll(v, -1, axis=0))
    np.nonzero(keep)
    np.max(v, axis=0)
    np.sum(v, axis=0)
    return sum(float(v[i % _M, i]) for i in range(60))


def reference_s(reps=3):
    """Fastest of ``reps`` timings of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


def factor():
    """Scale factor from a raw time measured now to a time at reference host speed."""
    return REF_NOMINAL_S / reference_s()
