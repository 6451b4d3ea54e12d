import numpy as np
import pytest

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
