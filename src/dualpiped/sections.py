"""Central cube sections, the normalized section volume, and section-dual bodies.

The (d-1)-volume of the section of [-1,1]^d orthogonal to a direction a with
no zero coordinate is

    |a| * S(|a|) / ((d-1)! * prod |a_i|),
    S(a) = sum over sign patterns s of (-1)^{#negative} * (s.a)_+^{d-1},

the truncated-power form of the density of sum a_i U_i at zero. Unlike the
divided-difference form it has no singular denominators, so repeated
coefficients need no perturbation. Zero coordinates factor out of the section
as whole cube edges, contributing 2 each.

The section-dual body of Pi = A B_d collects the points A'z whose defining
hyperplane cuts a unit-volume section out of Pi; its gauge at z works out to
|w| / (2^{1-d} vol(w-section)) with w = A^T z / det A, a ratio in which the
irrational |w| cancels, so exact scalar kinds stay exact.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

from .bodies import Parallelepiped
from .linalg import Matrix
from .minima import lattice_points_in_dilate, reduced_basis
from .scalars import Scalar, exact_nth_root, scalar_sign

# relative size under which the alternating sum is recomputed exactly
_CANCELLATION_GUARD = 1e-7


def _signed_power_sum(parts, power: int):
    """S(a): alternating sum of positive parts raised to `power`."""
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
        if scalar_sign(s) > 0:
            term = s**power
            total = total - term if negatives % 2 else total + term
    return total


def _section_ratio(parts, is_float: bool):
    """S(a) / ((d'-1)! * prod a_i) for positive parts a; exact when possible.

    Floats watch the alternating sum for cancellation against its largest
    term, the all-plus one (rounding is monotone, so no other pattern's sum
    exceeds it), and redo the ratio in exact dyadic rationals when it
    strikes; the ratio itself is well conditioned, only the naive summation
    order is not.
    """
    power = len(parts) - 1
    total = _signed_power_sum(parts, power)
    if is_float and total <= sum(parts) ** power * _CANCELLATION_GUARD:
        return float(_section_ratio([Fraction(x) for x in parts], False))
    return total / (math.factorial(power) * math.prod(parts))


def _split_direction(a, d: int):
    a = tuple(a)
    if len(a) != d:
        raise ValueError("direction length must equal the dimension")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    is_float = any(isinstance(x, float) for x in a)
    if is_float:
        entries = tuple(float(x) for x in a)
        if not all(math.isfinite(x) for x in entries):
            raise ValueError("direction must be finite")
    else:
        entries = tuple(Fraction(x) if isinstance(x, int) else x for x in a)
    parts = [abs(x) for x in entries if scalar_sign(x) != 0]
    if not parts:
        raise ValueError("direction must be nonzero")
    return entries, parts, is_float


def _in_float_range(parts: list) -> tuple:
    """Float parts scaled by 2^-e when the sums would leave the range, and e.

    With n parts, the largest of binary exponent e, every term and product of
    the formula lies within 2^(+-n(|e| + log2 n + 1)). Directions inside the
    room are left alone (e = 0), since float powers need not scale exactly;
    parts that underflow to zero after scaling are dropped like zero
    coordinates.
    """
    n = len(parts)
    e = math.frexp(max(parts))[1]
    # a room of 2^(+-1000) keeps the guard's 1e-7 above the smallest normal
    if n * (abs(e) + n.bit_length() + 1) <= 1000:
        return parts, 0
    scaled = (math.ldexp(x, -e) for x in parts)
    return [x for x in scaled if x > 0.0], e


def cube_section_volume(a: Sequence[Scalar], d: int) -> Scalar:
    """(d-1)-volume of the central section of [-1,1]^d orthogonal to a.

    Exact inputs give an exact value whenever |a| lies in Q(sqrt3), a float
    otherwise; invariant under permutations, sign flips, and positive scaling.
    """
    _, parts, is_float = _split_direction(a, d)
    if is_float:
        parts, _ = _in_float_range(parts)
    zeros = d - len(parts)
    if len(parts) == 1:
        # the section is a facet-parallel slice
        return 2.0 ** (d - 1) if is_float else Fraction(2 ** (d - 1))
    ratio = _section_ratio(parts, is_float)
    norm2 = 0
    for x in parts:
        norm2 = norm2 + x * x
    if is_float:
        return 2.0**zeros * math.sqrt(norm2) * ratio
    root = exact_nth_root(norm2, 2)
    if root is None:
        return 2.0**zeros * math.sqrt(float(norm2)) * float(ratio)
    return 2**zeros * root * ratio


def v_tau(tau: Sequence[Scalar]) -> Scalar:
    """Normalized section volume 2^{1-d} vol(section orthogonal to tau).

    Defined for every nonzero direction, invariant under signs and positive
    scaling; Vaaler's and Ball's theorems pin it into [1, sqrt(2)].
    """
    d = len(tau)
    vol = cube_section_volume(tau, d)
    if isinstance(vol, float):
        return vol * 2.0 ** (1 - d)
    return vol * Fraction(1, 2 ** (d - 1))


def v_tau_squared(tau: Sequence[Scalar]) -> Scalar:
    """Exact square of v_tau; float inputs are read as exact dyadic rationals.

    The square drops the lone square root in v_tau, so comparisons against
    rational thresholds can be decided exactly.
    """
    d = len(tau)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    exact = [Fraction(t) if isinstance(t, (int, float)) else t for t in tau]
    parts = [abs(t) for t in exact if scalar_sign(t) != 0]
    if not parts:
        raise ValueError("the direction must have a nonzero coordinate")
    if len(parts) == 1:
        return Fraction(1)
    zeros = d - len(parts)
    ratio = _section_ratio(parts, False)
    norm2 = 0
    for t in parts:
        norm2 = norm2 + t * t
    return norm2 * ratio * ratio * Fraction(4**zeros, 4 ** (d - 1))


def _wedge_gauge(w) -> Scalar:
    """Gauge of the section-dual of the cube at w; rational in the entries.

    The gauge is homogeneous of degree one, so a float direction rescaled
    into range has its gauge scaled back by the same power of two.
    """
    is_float = any(isinstance(x, float) for x in w)
    parts = [abs(x) for x in w if scalar_sign(x) != 0]
    if not parts:
        return 0.0 if is_float else Fraction(0)
    e = 0
    if is_float:
        parts, e = _in_float_range(parts)
    if len(parts) == 1:
        gauge = parts[0]
    else:
        two = 2.0 if is_float else Fraction(2)
        gauge = two ** (len(parts) - 1) / _section_ratio(parts, is_float)
    return math.ldexp(gauge, e) if e else gauge


def _pullback(piped: Parallelepiped) -> tuple:
    """A = H^{-1} diag(eta), so that Pi = A B_d, and det A; once per body."""
    return _pullback_of(piped, piped.kind)


@functools.lru_cache(maxsize=256)
def _pullback_of(piped: Parallelepiped, kind: str) -> tuple:
    # the kind is part of the key: a Quad3 body equals its rational twin
    a = piped.forms.inverse().matmul(Matrix.diagonal(piped.bounds))
    return a, a.det()


def section_dual_gauge(piped: Parallelepiped, z: Sequence[Scalar]) -> Scalar:
    """Gauge of the section-dual body of the parallelepiped at the point z.

    With Pi = A B_d for A = H^{-1} diag(eta), the point z is pulled back to
    w = A^T z / det A and measured against the section-dual of the cube.
    Exact kinds return exact values; membership in the body is gauge <= 1.
    """
    a, det = _pullback(piped)
    w = tuple(x / det for x in a.transpose().matvec(tuple(z)))
    return _wedge_gauge(w)


def first_minimum_section_dual(piped: Parallelepiped) -> Scalar:
    """Minimum section-dual gauge over nonzero integer points; d <= 6.

    The gauge dominates the sup norm of w = A^T z / det A (every central
    section is a graph over the facet hyperplane of its largest coefficient,
    so the section volume is at most 2^{d-1} |w| / max|w_i|). Hence the
    sup-norm box whose radius is the smallest gauge among the reduced basis
    vectors holds every minimizer, and one enumeration of it settles the
    minimum.
    """
    d = piped.dimension
    if not 2 <= d <= 6:
        raise ValueError("section-dual minimum supports dimensions 2 through 6")
    a, det = _pullback(piped)
    c_rows = tuple(tuple(x / det for x in row) for row in a.transpose().rows)
    cmat = Matrix(c_rows)
    basis = reduced_basis(c_rows)
    radius = min(_wedge_gauge(cmat.matvec(k)) for k in basis)
    points = lattice_points_in_dilate(c_rows, radius, basis)
    return min(_wedge_gauge(cmat.matvec(k)) for _, k in points)
