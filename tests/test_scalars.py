import math
import random
from fractions import Fraction

import pytest

from dualpiped import scalars, transference
from dualpiped.bodies import Parallelepiped
from dualpiped.scalars import (
    Quad3,
    exact_nth_root,
    format_scalar,
    parse_scalar,
    quad_sign,
    scalar_floor,
    sqrt_exact,
    zsqrt3_sign,
)

from oracle_utils import SQRT3


def test_quad_sign_frozen_cases():
    assert quad_sign(Quad3(2, -1)) == 1          # 2 - sqrt3: 4 > 3
    assert quad_sign(Quad3(5, -3)) == -1         # 5 - 3*sqrt3: 25 < 27
    assert quad_sign(Quad3(0, 0)) == 0
    assert quad_sign(Quad3(-2, 1)) == -1
    assert quad_sign(Quad3(1, 1)) == 1
    assert quad_sign(Quad3(-1, -1)) == -1
    assert quad_sign(Quad3(7, -4)) == 1          # (2 - sqrt3)^2


def test_quad_sign_matches_float_on_random_inputs():
    rng = random.Random(20240817)
    for _ in range(10_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        x = Quad3(a, b)
        approx = float(a) + float(b) * math.sqrt(3.0)
        if abs(approx) > 1e-9:
            assert quad_sign(x) == (1 if approx > 0 else -1)
        else:
            # tiny values: trust the exact route, just check consistency
            assert quad_sign(x) in (-1, 0, 1)


def test_quad3_arithmetic():
    x = Quad3(1, 1)
    y = Quad3(2, -1)
    assert x * y == Quad3(-1, 1)
    assert x * x == Quad3(4, 2)
    assert x**3 == x * x * x and x**0 == Quad3(1)
    assert Quad3(1) / y == Quad3(2, 1)
    # a rational divisor divides coefficient-wise, as its field inverse would
    assert x / 2 == x * Quad3(2)._inverse() == Quad3(Fraction(1, 2), Fraction(1, 2))
    assert x / Fraction(-2, 3) == Quad3(Fraction(-3, 2), Fraction(-3, 2))
    with pytest.raises(ZeroDivisionError):
        x / 0
    assert x - x == Quad3(0)
    assert -x == Quad3(-1, -1)
    assert x + Fraction(1, 2) == Quad3(Fraction(3, 2), 1)
    assert 2 * x == Quad3(2, 2)
    assert abs(Quad3(5, -3)) == Quad3(-5, 3)


def test_quad3_comparisons_are_exact():
    assert Quad3(0, 1) < Quad3(7, -3)            # sqrt3 < 7 - 3 sqrt3 ?
    # 4 sqrt3 vs 7: 48 < 49
    assert Quad3(0, 4) < Quad3(7)
    assert Quad3(0, 2) > Quad3(3)                # 12 > 9
    assert Quad3(5, 0) == Fraction(5)
    # sqrt3 = 1.732..., 7/4 = 1.75, 2 - sqrt3 = 0.267...
    order = sorted([Quad3(0, 1), Quad3(Fraction(7, 4)), Quad3(2, -1)])
    assert order == [Quad3(2, -1), Quad3(0, 1), Quad3(Fraction(7, 4))]


def test_quad3_rejects_float_operands():
    with pytest.raises(TypeError):
        Quad3(1, 1) + 0.5
    with pytest.raises(TypeError):
        0.5 * Quad3(1, 1)
    with pytest.raises(TypeError):
        Quad3(1, 1) / 0.5


def test_float_conversion():
    assert float(Quad3(0, Fraction(2, 3))) == pytest.approx(2 / math.sqrt(3), rel=1e-15)
    assert float(Fraction(5, 4)) == 1.25
    assert float(1.5) == 1.5


@pytest.mark.parametrize(
    "text,kind,value",
    [
        ("5/4", "rational", Fraction(5, 4)),
        ("-3", "rational", Fraction(-3)),
        ("0", "rational", Fraction(0)),
        ("2/3*sqrt3", "quad3", Quad3(0, Fraction(2, 3))),
        ("1/2+2/3*sqrt3", "quad3", Quad3(Fraction(1, 2), Fraction(2, 3))),
        ("1/2-2/3*sqrt3", "quad3", Quad3(Fraction(1, 2), Fraction(-2, 3))),
        ("-1*sqrt3", "quad3", Quad3(0, -1)),
        ("7", "quad3", Quad3(7)),
        ("1.25", "float", 1.25),
    ],
)
def test_parse_scalar(text, kind, value):
    assert parse_scalar(text, kind) == value


def test_format_round_trip_canonical():
    cases = [
        Fraction(5, 4),
        Fraction(-3),
        Fraction(0),
        Quad3(0, Fraction(2, 3)),
        Quad3(Fraction(1, 2), Fraction(-2, 3)),
        Quad3(7),
        Quad3(0, -1),
        1.25,
        -0.125,
    ]
    for x in cases:
        text = format_scalar(x)
        kind = "float" if isinstance(x, float) else ("quad3" if isinstance(x, Quad3) else "rational")
        assert parse_scalar(text, kind) == x


def test_format_scalar_exact_strings():
    assert format_scalar(Fraction(5, 4)) == "5/4"
    assert format_scalar(Quad3(0, Fraction(2, 3))) == "2/3*sqrt3"
    assert format_scalar(Quad3(Fraction(1, 2), Fraction(2, 3))) == "1/2+2/3*sqrt3"
    assert format_scalar(Quad3(-2)) == "-2"


def test_scalar_floor():
    assert scalar_floor(Fraction(5, 4)) == 1
    assert scalar_floor(Fraction(-5, 4)) == -2
    assert scalar_floor(SQRT3) == 1
    assert scalar_floor(-SQRT3) == -2
    assert scalar_floor(Quad3(2, -1)) == 0       # 2 - sqrt3 in (0, 1)
    assert scalar_floor(Quad3(3)) == 3
    assert scalar_floor(2.75) == 2


def test_zsqrt3_sign_and_quad3_floor():
    # a + b sqrt3 with small ints stays at least 0.01 away from 0 unless both
    # vanish, far beyond float error, so the float sign is an oracle
    for a in range(-12, 13):
        for b in range(-7, 8):
            value = a + b * math.sqrt(3.0)
            assert zsqrt3_sign(a, b) == (value > 0) - (value < 0)
            for den in (1, 2, 5, -3):
                n = scalar_floor(Quad3(a, b) / den)
                assert Quad3(n) <= Quad3(a, b) / den < Quad3(n + 1)
    # exact and immediate far beyond the float range of the parts
    big = 10**40
    assert scalar_floor(Quad3(0, big)) == math.isqrt(3 * big * big)
    assert scalar_floor(Quad3(0, -big)) == -math.isqrt(3 * big * big) - 1
    x = Quad3(Fraction(10**30, 7), Fraction(-(10**25), 3))
    n = scalar_floor(x)
    assert Quad3(n) <= x < Quad3(n + 1)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(Fraction(2)) is None
    assert sqrt_exact(Quad3(7, -4)) == Quad3(2, -1)
    assert sqrt_exact(Quad3(4, 2)) == Quad3(1, 1)
    assert sqrt_exact(Quad3(3)) == SQRT3
    assert sqrt_exact(Quad3(2)) is None
    assert sqrt_exact(Quad3(Fraction(4, 3))) == Quad3(0, Fraction(2, 3))
    assert sqrt_exact(Fraction(0)) == Fraction(0)


def test_exact_nth_root():
    assert exact_nth_root(Fraction(1, 256), 4) == Fraction(1, 4)
    assert exact_nth_root(Fraction(27, 8), 3) == Fraction(3, 2)
    assert exact_nth_root(Fraction(5), 3) is None
    assert exact_nth_root(Quad3(Fraction(16, 9)), 4) == Quad3(0, Fraction(2, 3))
    assert exact_nth_root(Quad3(4, 2), 2) == Quad3(1, 1)
    assert exact_nth_root(Quad3(2), 6) is None


def test_float_tolerance_policy():
    # the scalar kinds hold no tolerance: the one slack sits beside the claim
    # decisions, and only a float trial's comparison reads it
    assert transference.REL_SLACK == 1e-9
    gone = ("REL_SLACK", "STRICT_DELTA", "float_leq", "float_strictly_greater", "widen")
    assert [name for name in gone if hasattr(scalars, name)] == []
    floats = transference._Trial(Parallelepiped.cube(2, kind="float"), ())
    assert floats.leq(1.0, 1.0) and not floats.slack_used
    assert not floats.leq(1.0 + 1e-6, 1.0) and not floats.slack_used
    assert floats.leq(1.0 + 1e-10, 1.0) and floats.slack_used
    # relative to the larger magnitude, and measured exactly, so nothing overflows
    floats.slack_used = False
    assert floats.leq(Fraction(10**400) + 10**390, 10**400) and floats.slack_used
    assert not floats.leq(2 * Fraction(10**400), 1e300)
    exact = transference._Trial(Parallelepiped.cube(2), ())
    assert exact.leq(Fraction(1), 1) and not exact.leq(1 + Fraction(1, 10**10), 1)
    assert not exact.slack_used
