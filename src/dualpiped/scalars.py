"""Scalar kinds: rationals, Q(sqrt3) and floats, with exact signs, roots, parsing and formatting."""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "Quad3", float]

_QUAD_RE = re.compile(
    rf"(?:(?P<a>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<bs>[+-]?)(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt3"
)


class Quad3:
    """a + b*sqrt3 with rational a, b; all comparisons are exact."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike | Fraction = 0, b: RationalLike | Fraction = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Quad3 is immutable")

    @staticmethod
    def _coerce(other: object) -> "Quad3 | None":
        if isinstance(other, Quad3):
            return other
        if isinstance(other, (int, Fraction)):
            return Quad3(other)
        return None

    def __add__(self, other: object) -> "Quad3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Quad3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad3(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> "Quad3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad3(o.a - self.a, o.b - self.b)

    def __mul__(self, other: object) -> "Quad3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad3(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Quad3":
        if isinstance(other, (int, Fraction)):
            return Quad3(self.a / other, self.b / other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other: object) -> "Quad3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n: object) -> "Quad3":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Quad3(1)
        for _ in range(n):
            out = out * self
        return out

    def _inverse(self) -> "Quad3":
        # (a + b sqrt3)^-1 = (a - b sqrt3) / (a^2 - 3 b^2)
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt3)")
        return Quad3(self.a / norm, -self.b / norm)

    def __neg__(self) -> "Quad3":
        return Quad3(-self.a, -self.b)

    def __pos__(self) -> "Quad3":
        return self

    def __abs__(self) -> "Quad3":
        return self if quad_sign(self) >= 0 else -self

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad_sign(self - o) < 0

    def __le__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad_sign(self - o) <= 0

    def __gt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad_sign(self - o) > 0

    def __ge__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad_sign(self - o) >= 0

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(3.0)

    def __repr__(self) -> str:
        return f"Quad3({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def quad_sign(x: Quad3 | Fraction | int) -> int:
    """Exact sign of a + b*sqrt3 decided by rational comparisons only."""
    if not isinstance(x, Quad3):
        return (x > 0) - (x < 0)
    return zsqrt3_sign(x.a, x.b)


def zsqrt3_sign(a, b) -> int:
    """Sign of a + b sqrt3 for ints or rationals a, b: a^2 against 3 b^2."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -1
    return 1 if (a * a > 3 * b * b) == (a > 0) else -1


def zsqrt3_parts(x) -> tuple:
    """Ints p, q and r > 0 with x = (p + q sqrt3) / r, for a Quad3, Fraction or int x."""
    a, b = (x.a, x.b) if isinstance(x, Quad3) else (Fraction(x), 0)
    r = math.lcm(a.denominator, b.denominator)
    return a.numerator * (r // a.denominator), b.numerator * (r // b.denominator), r


def exact_scalar(x: Scalar) -> Scalar:
    """x as an exact scalar; a float is the dyadic rational it stores."""
    return Fraction(x) if isinstance(x, (int, float)) else x


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, Quad3):
        return quad_sign(x)
    return (x > 0) - (x < 0)


def scalar_floor(x: Scalar) -> int:
    if isinstance(x, Quad3):
        # floor(x) = floor(floor(p + q sqrt3) / r) for r > 0, and q sqrt3 is
        # irrational unless q = 0: its floor is isqrt(3 q^2), one less if q < 0
        p, q, r = zsqrt3_parts(x)
        root = math.isqrt(3 * q * q)
        return (p + (root if q >= 0 else -root - 1)) // r
    return math.floor(x)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_exact(x: Scalar) -> Scalar | None:
    """Square root staying in the input's field, or None if it leaves it."""
    if isinstance(x, (int, Fraction)):
        return _fraction_sqrt(Fraction(x))
    if quad_sign(x) < 0:
        return None
    a, b = x.a, x.b
    if b == 0:
        r = _fraction_sqrt(a)
        if r is not None:
            return Quad3(r)
        r = _fraction_sqrt(a / 3)
        if r is not None:
            return Quad3(0, r)
        return None
    # (p + q sqrt3)^2 = a + b sqrt3 gives p^2 + 3 q^2 = a, 2 p q = b;
    # p^2 is a root of y^2 - a y + 3 (b/2)^2 = 0.
    disc = a * a - 3 * b * b
    root_disc = _fraction_sqrt(disc)
    if root_disc is None:
        return None
    for y in ((a + root_disc) / 2, (a - root_disc) / 2):
        p = _fraction_sqrt(y)
        if p is not None and p != 0:
            q = b / (2 * p)
            cand = Quad3(p, q)
            if cand * cand == x:
                return abs(cand)
    return None


def exact_nth_root(x: Scalar, n: int) -> Scalar | None:
    """Positive n-th root within Q or Q(sqrt3), or None when it leaves the field."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return x
    if n % 2 == 0:
        s = sqrt_exact(x)
        if s is None and isinstance(x, (int, Fraction)):
            # the root may still live in Q(sqrt3), e.g. sqrt(3)
            s = sqrt_exact(Quad3(x))
        if s is None:
            return None
        return exact_nth_root(s, n // 2)
    if isinstance(x, Quad3):
        if x.b != 0:
            return None
        x = x.a
    q = Fraction(x)
    if q < 0:
        return None
    rn = _int_nth_root(q.numerator, n)
    rd = _int_nth_root(q.denominator, n)
    if rn is not None and rd is not None:
        return Fraction(rn, rd)
    return None


def float_nth_root(x: Scalar, n: int) -> float:
    """The positive n-th root of x > 0, as a float.

    A Fraction x is split as y 2^(n e) with y near 1, and the root is
    float(y)^(1/n) 2^e: only y is rounded, so an x beyond the float range
    loses nothing before the root. Other kinds take float(x)^(1/n).
    """
    e = 0
    if isinstance(x, Fraction):
        e = (x.numerator.bit_length() - x.denominator.bit_length()) // n
    return math.ldexp(float(x / Fraction(2) ** (n * e)) ** (1.0 / n), e)


def _int_nth_root(v: int, n: int) -> int | None:
    if v == 0:
        return 0
    r = int(round(v ** (1.0 / n)))
    r = max(r, 1)
    while r**n > v:
        r -= 1
    while (r + 1) ** n <= v:
        r += 1
    return r if r**n == v else None


def parse_scalar(text: str, kind: str, field: str = "scalar") -> Scalar:
    """The scalar of the given kind that text spells; a zero denominator is a ValueError naming the field."""
    t = text.strip().replace(" ", "")
    try:
        if kind == "rational":
            return Fraction(t)
        if kind == "float":
            return float(t)
        if kind == "quad3":
            if "sqrt3" not in t:
                return Quad3(Fraction(t))
            m = _QUAD_RE.fullmatch(t)
            if m is None:
                raise ValueError(f"cannot parse Q(sqrt3) scalar: {text!r}")
            a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
            b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
            if m.group("bs") == "-":
                b = -b
            return Quad3(a, b)
    except ZeroDivisionError:
        raise ValueError(f"{field} {text.strip()!r} has a zero denominator") from None
    raise ValueError(f"unknown scalar kind: {kind!r}")


def format_scalar(x: Scalar) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Quad3):
        if x.b == 0:
            return str(x.a)
        sqrt_part = f"{abs(x.b)}*sqrt3"
        if x.a == 0:
            return sqrt_part if x.b > 0 else f"-{sqrt_part}"
        sign = "+" if x.b > 0 else "-"
        return f"{x.a}{sign}{sqrt_part}"
    return str(Fraction(x))

