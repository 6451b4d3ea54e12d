"""Small angle helpers shared across modules (radians everywhere)."""

import math

import numpy as np


def wrap_pm_pi(angle):
    """Wrap angle(s) to [-pi, pi)."""
    return np.mod(np.asarray(angle, dtype=np.float64) + np.pi, 2.0 * np.pi) - np.pi


def wrap_two_pi(angle):
    """Wrap angle(s) to [0, 2*pi)."""
    return np.mod(np.asarray(angle, dtype=np.float64), 2.0 * np.pi)


def circular_delta(a, b):
    """Signed smallest difference a - b of two scalar angles on the circle, in (-pi, pi].

    Python float arithmetic: its ``%`` is the same floored remainder as
    ``np.mod``, without a numpy call per Monte Carlo match.
    """
    d = (float(a) - float(b)) % (2.0 * math.pi)
    return d - 2.0 * math.pi if d > math.pi else d
