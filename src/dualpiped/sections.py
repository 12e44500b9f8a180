"""Central cube sections, the normalized section volume, and section-dual bodies.

The (d-1)-volume of the section of [-1,1]^d orthogonal to a direction a with
no zero coordinate is

    |a| * S(|a|) / ((d-1)! * prod |a_i|),
    S(a) = sum over sign patterns s of (-1)^{#negative} * (s.a)_+^{d-1},

the truncated-power form of the density of sum a_i U_i at zero. Unlike the
divided-difference form it has no singular denominators, so repeated
coefficients need no perturbation. Zero coordinates factor out of the section
as whole cube edges, contributing 2 each.

Every sum is exact. Floats are read as the dyadic rationals they are, and
rational coordinates are scaled to coprime integers k = c |a| over one common
denominator: the ratio S(a) / ((d-1)! prod a_i) is homogeneous of degree -1,
so the sum runs on Python ints whatever the scale of a, and c cancels from
the square of the volume, 4^zeros |k|^2 S(k)^2 / ((n-1)! prod k)^2, one
Fraction of two ints. Q(sqrt3) coordinates run the same sum in their own
arithmetic. Each volume derives from its exact square: exact
kinds take the root when it lies in Q(sqrt3), and floats (or a root outside
the field) round the square once and take math.sqrt. The sum has 2^n terms
for n nonzero coordinates, each on integers of B bits, so a direction with
2^n * ceil(B / 64) above 2^18 is refused before the sum starts: directions
whose integers fit one 64-bit word may have up to 18 nonzero coordinates.

The section-dual body of Pi = A B_d collects the points A'z whose defining
hyperplane cuts a unit-volume section out of Pi; its gauge at z works out to
|w| / (2^{1-d} vol(w-section)) with w = A^T z / det A, a ratio in which the
irrational |w| cancels, so the gauge is exact. The rows of A^T / det A are
kept once per body (`Parallelepiped.pullback`) and read exactly for every
kind, so a float body's gauges and section-dual minimum are exact values
rounded once. For a det-normalized body the pseudo-compound's vertex
H^T diag(eta*) sigma pulls back to w = +-sigma, so every such vertex has the
cube's gauge at (1, ..., 1).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .bodies import Parallelepiped
from .minima import GaugeRows, lattice_points_in_dilate, reduced_basis
from .scalars import Quad3, Scalar, exact_nth_root, exact_scalar, zsqrt3_parts

_SQRT3 = Quad3(0, 1)

# sign patterns times 64-bit words of their integers that a sum may take:
# 2^18 patterns of one-word integers take under a second
_WORK_CAP = 2**18


def _check_work(n: int, bits: int) -> None:
    """Refuse the 2^n-term sum on integers of `bits` bits above _WORK_CAP words."""
    words = -(-bits // 64)
    if words * 2**n > _WORK_CAP:
        raise ValueError(
            f"direction has {n} nonzero coordinates of up to {bits} bits: 2^{n} sign"
            f" patterns of {words} 64-bit words, over the budget of 2^18 one-word patterns"
        )


def _signed_power_sum(parts, power: int):
    """S(a): alternating sum of positive parts raised to `power`.

    The sign test s > 0 is exact for ints and for Q(sqrt3) sums alike.
    """
    total = 0
    for signs in itertools.product((1, -1), repeat=len(parts)):
        s = 0
        negatives = 0
        for x, sg in zip(parts, signs):
            if sg > 0:
                s = s + x
            else:
                s = s - x
                negatives += 1
        if s > 0:
            term = s**power
            total = total - term if negatives % 2 else total + term
    return total


def _section_ratio(parts) -> tuple:
    """k, num, den, D and g with S(a) / ((n-1)! prod a_i) = D num / (g den), for n positive parts a.

    Rational and float parts (a float is the dyadic rational it stores)
    are scaled to coprime integers k = D a / g, with D the lcm of their
    denominators and g the gcd of the scaled parts; the ratio is
    homogeneous of degree -1, so num / den = S(k) / ((n-1)! prod k) holds
    in ints. Q(sqrt3) parts keep k = a and D = g = 1, in their own
    arithmetic.
    """
    n = len(parts)
    if any(isinstance(x, Quad3) for x in parts):
        parts = [exact_scalar(x) for x in parts]
        _check_work(n, max(abs(v).bit_length() for x in parts for v in zsqrt3_parts(x)))
        return parts, _signed_power_sum(parts, n - 1), math.factorial(n - 1) * math.prod(parts), 1, 1
    ratios = [x.as_integer_ratio() for x in parts]
    lcm = math.lcm(*(q for _, q in ratios))
    ints = [p * (lcm // q) for p, q in ratios]
    g = math.gcd(*ints)
    ints = [k // g for k in ints]
    _check_work(n, max(ints).bit_length())
    return ints, _signed_power_sum(ints, n - 1), math.factorial(n - 1) * math.prod(ints), lcm, g


def _quotient(num, den):
    """num / den, one Fraction of two ints, or in Q(sqrt3)."""
    return Fraction(num, den) if isinstance(num, int) and isinstance(den, int) else num / den


def _squared_volume(a, d: int, normalized: bool = False):
    """Exact square of the section volume, or with `normalized` of v_tau.

    The square is 4^zeros |a|^2 ratio^2, and with k = c a, c = D / g, the
    scale cancels: 4^zeros |k|^2 num^2 / den^2 (see _section_ratio), one
    Fraction for rational and float directions. v_tau^2 divides it by
    4^(d-1) = 4^zeros 4^(n-1).
    """
    if len(a) != d:
        raise ValueError("direction length must equal the dimension")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not all(math.isfinite(x) for x in a if isinstance(x, float)):
        raise ValueError("direction must be finite")
    parts = [abs(x) for x in a if x]
    if not parts:
        raise ValueError("direction must be nonzero")
    k, num, den, _, _ = _section_ratio(parts)
    top = sum(x * x for x in k) * num * num
    if normalized:
        den *= 2 ** (len(parts) - 1)
    else:
        top *= 4 ** (d - len(parts))
    return _quotient(top, den * den)


def _root(square, a) -> Scalar:
    """The root of an exact square: in its field when it lies there and a holds no float."""
    root = None if any(isinstance(x, float) for x in a) else exact_nth_root(square, 2)
    return math.sqrt(square) if root is None else root


def cube_section_volume(a: Sequence[Scalar], d: int) -> Scalar:
    """(d-1)-volume of the central section of [-1,1]^d orthogonal to a.

    Exact inputs give an exact value whenever |a| lies in Q(sqrt3), a float
    otherwise; float values are the exact volume rounded once. Invariant under
    permutations, sign flips, and positive scaling.
    """
    a = tuple(a)
    return _root(_squared_volume(a, d), a)


def v_tau(tau: Sequence[Scalar]) -> Scalar:
    """Normalized section volume 2^{1-d} vol(section orthogonal to tau).

    Defined for every nonzero direction, invariant under signs and positive
    scaling; Vaaler's and Ball's theorems pin it into [1, sqrt(2)].
    """
    return _root(v_tau_squared(tau), tau)


def v_tau_squared(tau: Sequence[Scalar]) -> Scalar:
    """Exact square of v_tau; float inputs are read as exact dyadic rationals.

    The square drops the lone square root in v_tau, so comparisons against
    rational thresholds can be decided exactly.
    """
    return _squared_volume(tau, len(tau), normalized=True)


def _wedge_gauge(w) -> Scalar:
    """Gauge of the section-dual of the cube at w: 2^(n-1) / ratio, exactly.

    The ratio runs over the n nonzero |w_i|; floats are read exactly. The
    gauge is homogeneous of degree 1.
    """
    parts = [abs(x) for x in w if x]
    if not parts:
        return Fraction(0)
    _, num, den, lcm, g = _section_ratio(parts)
    return _quotient(2 ** (len(parts) - 1) * den * g, lcm * num)


def _pullback_gauge(rows: GaugeRows, z) -> Scalar:
    """The gauge at w = (rows) z for exact z, exactly, from the integer form of the rows.

    The rows clear to (a + b sqrt3) / den (GaugeRows.cleared) and the gauge
    is homogeneous of degree 1, so it is the gauge of a z (+ b z sqrt3),
    divided by den.
    """
    a, b, den = rows.cleared
    w = [sum(map(mul, row, z)) for row in a]
    if b is not None:
        w = [x + sum(map(mul, row, z)) * _SQRT3 for x, row in zip(w, b)]
    return _wedge_gauge(w) / den


def section_dual_gauge(piped: Parallelepiped, z: Sequence[Scalar]) -> Scalar:
    """Gauge of the section-dual body of the parallelepiped at the point z.

    With Pi = A B_d for A = H^{-1} diag(eta), the point z is pulled back to
    w = A^T z / det A and measured against the section-dual of the cube.
    The rows of A^T / det A and z are read exactly, so the gauge is exact,
    and a float body's gauge is that value rounded once; membership in the
    body is gauge <= 1.
    """
    # floats are read exactly; ints stay ints, so integer points cost integer products
    z = [Fraction(x) if isinstance(x, float) else x for x in z]
    gauge = _pullback_gauge(GaugeRows(piped.pullback), z)
    return float(gauge) if piped.kind == "float" else gauge


def first_minimum_section_dual(piped: Parallelepiped) -> Scalar:
    """Minimum section-dual gauge over nonzero integer points; d <= 6.

    The gauge dominates the sup norm of w = A^T z / det A (every central
    section is a graph over the facet hyperplane of its largest coefficient,
    so the section volume is at most 2^{d-1} |w| / max|w_i|). Hence the
    sup-norm box whose radius is the smallest gauge among the reduced basis
    vectors holds every minimizer, and one enumeration of it settles the
    minimum. Radius and minimum are exact (see _pullback_gauge); a float
    body's minimum is rounded once.
    """
    d = piped.dimension
    if not 2 <= d <= 6:
        raise ValueError("section-dual minimum supports dimensions 2 through 6")
    rows = GaugeRows(piped.pullback)
    basis = reduced_basis(rows)
    radius = min(_pullback_gauge(rows, k) for k in basis)
    points = lattice_points_in_dilate(rows, radius, basis)
    value = min(_pullback_gauge(rows, k) for _, k in points)
    return float(value) if piped.kind == "float" else value
