import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from padpkit import checks


@pytest.mark.parametrize(
    "rule, args, value",
    [
        (checks.integer, (1,), 2.0),
        (checks.integer, (1,), True),
        (checks.integer, (1,), 0),
        (checks.decimal, (0,), "-1"),
        (checks.decimal, (0,), "9" * 5000),  # beyond int()'s digit limit
        (checks.finite, (), float("nan")),
        (checks.finite, (), 10**400),
        (checks.finite, (), "1.0"),
        (checks.finite, (), True),
        (checks.positive, (), 0.0),
        (checks.amplitude, (), 1e155),
        (checks.noise_height, (), -0.0 - 1e-300),
        (checks.hpbw, (), np.radians(0.0999)),
        (checks.hpbw_deg, (), 180.0001),
        (checks.gain_db, (), 3100.0),
        (checks.gain_db, (), -3300.0),
        (checks.grid, (), [1.0, [2.0, 3.0]]),
        (checks.grid, (), [True, False]),
        (checks.finite_array, (0.0,), np.array([1.0, -1e-300])),
        (checks.finite_array, (), np.array([1.0, complex(0.0, np.inf)])),
        (checks.integer, (1, 5), 6),
        (checks.decimal, (1, 5), "6"),
        (checks.finite_array, (0.0,), np.array([1.0, np.inf], dtype=np.float32)),
    ],
)
def test_every_rule_refuses_in_one_form(rule, args, value):
    """``<field>: expected <rule>, got <value>``, with a long value cut short."""
    with pytest.raises(ValueError, match=r"^f\.x: expected .+, got .+") as info:
        rule(value, "f.x", *args)
    assert len(str(info.value)) < 200


def test_rules_return_the_checked_value():
    n = checks.integer(np.int64(3), "n", 1)
    assert n == 3 and type(n) is int
    assert checks.decimal("042", "n", 1) == 42
    assert checks.integer(5, "n", 1, 5) == 5 == checks.decimal("5", "n", 1, 5)
    assert checks.finite(np.float32(0.5), "x") == 0.5
    assert checks.gain_db(20.0, "g") == 100.0
    assert checks.hpbw_deg(180.0, "h") == np.pi == checks.hpbw(np.pi, "h")
    assert checks.hpbw_deg(0.1, "h") == checks.HPBW_MIN == checks.hpbw(checks.HPBW_MIN, "h")
    grid = np.arange(3.0)
    assert checks.grid(grid, "g") is grid
    assert checks.grid((1, 2), "g").dtype == np.float64


def test_a_field_of_none_leaves_the_name_to_the_caller():
    with pytest.raises(ValueError, match=r"^expected an integer >= 1 in decimal digits, got '0'$"):
        checks.decimal("0", None, 1)


_MINUS_NAN = float(np.copysign(np.nan, -1.0))
_ENTRIES = st.one_of(
    st.floats(allow_subnormal=True),  # NaN, +-inf and negatives among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1e-300, np.inf, -np.inf, np.nan, _MINUS_NAN]),
)


@settings(max_examples=300, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6), elements=_ENTRIES),
       strided=st.booleans())
@example(a=np.array([np.inf]), strided=False)
@example(a=np.array([_MINUS_NAN, 1.0]), strided=False)
@example(a=np.array([-0.0, 0.0, 2.0]), strided=False)
def test_finite_array_from_zero_accepts_and_refuses_as_its_min_max_rule(a, strided):
    """The bit-pattern fast path changes neither which arrays pass nor any message."""
    if strided:
        a = a[..., ::2]
    lo, hi = (float(a.min()), float(a.max())) if a.size else (0.0, 0.0)
    bad = lo if not (math.isfinite(lo) and lo >= 0.0) else hi if not math.isfinite(hi) else None
    if bad is None:
        assert checks.finite_array(a, "f.x", 0.0) is a
    else:
        expected = f"f.x: expected finite entries >= 0, got {bad!r}"
        with pytest.raises(ValueError) as info:
            checks.finite_array(a, "f.x", 0.0)
        assert str(info.value) == expected
