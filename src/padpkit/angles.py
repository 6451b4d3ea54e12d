"""Small angle helpers shared across modules (radians everywhere).

A float argument (a Python float or a numpy float64) is worked on as a
Python float and gives one back; anything else is worked on as a float64
array.  Both run the same expressions: Python's ``%`` on floats is the
floored remainder ``np.mod`` computes, bit for bit, so a scalar pays no
numpy call and equals the one-element array result.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def float_or_array(x):
    """``x`` as a Python float when it is a float, otherwise as a float64 array."""
    return float(x) if isinstance(x, float) else np.asarray(x, dtype=np.float64)


def wrap_pm_pi(angle):
    """Wrap angle(s) to [-pi, pi)."""
    return (float_or_array(angle) + math.pi) % TWO_PI - math.pi


def wrap_two_pi(angle):
    """Wrap angle(s) to [0, 2*pi)."""
    return float_or_array(angle) % TWO_PI


def circular_delta(a, b):
    """Signed smallest difference a - b of two scalar angles on the circle, in (-pi, pi].

    Python float arithmetic: its ``%`` is the same floored remainder as
    ``np.mod``, without a numpy call per Monte Carlo match.
    """
    d = (float(a) - float(b)) % TWO_PI
    return d - TWO_PI if d > math.pi else d
