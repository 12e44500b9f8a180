"""Lattice point enumeration in dilates and successive minima.

All searches work on coefficient vectors k with respect to a lattice basis B:
the gauge of the lattice point Bk under a parallelepiped (H, eta) is the sup
norm of C k where C = diag(1/eta) H B. Enumeration reports one canonical
representative per antipodal pair (first nonzero coordinate positive) and
never reports the origin. Points are ordered by (gauge, coefficient vector),
with exact lexicographic tie-breaking, so results are deterministic. One
float search, a numpy grid over the exact coefficient box, serves every
scalar kind and only proposes points; each is decided by its exact gauge,
and float gauges are exact dyadic gauges rounded once. A box of more than
GRID_CELL_CAP cells is refused before the grid is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from operator import add, mul

import numpy as np

from .bodies import Lattice, Parallelepiped
from .linalg import Matrix, RationalSpan, zsqrt3_rows
from .scalars import Quad3, scalar_floor, scalar_sign, widen, zsqrt3_parts, zsqrt3_sign

_SQRT3 = math.sqrt(3.0)
GRID_CELL_CAP = 2_000_000


class EnumerationBudgetError(RuntimeError):
    """The search box exceeds GRID_CELL_CAP cells, or the search ended without an answer."""


def gauge_rows(piped: Parallelepiped, lattice: Lattice | None = None) -> tuple:
    """Rows of diag(1/eta) H B, B = I without a lattice; gauge of Bk is the sup norm of (rows) k."""
    if lattice is not None and (piped.kind == "float") != (lattice.kind == "float"):
        raise ValueError(
            f"a {piped.kind} body cannot be measured against a {lattice.kind} lattice"
        )
    hb = piped.forms if lattice is None else piped.forms.matmul(lattice.basis)
    return tuple(
        tuple(x / e for x in row) for row, e in zip(hb.rows, piped.bounds)
    )


def lattice_points_in_dilate(c_rows, mu, basis) -> list:
    """All (gauge, k) with sup norm of (c_rows) k at most mu, k != 0.

    One representative per antipodal pair, sorted by (gauge, k). The search
    runs in the coordinates of `basis`, the reduced_basis(c_rows) that the
    caller has already used to size mu (the unit vectors when the rows need
    no reduction), on a float snapshot of the reduced rows of any kind: a
    numpy grid over the exact box, refused with EnumerationBudgetError when
    the box has more than GRID_CELL_CAP cells. The grid only proposes
    candidates. Each is kept iff its exact gauge (see _gauge_of) is at most
    the limit, mu for exact rows and widen(mu) for float rows, and then
    mapped back, so no point or bit depends on the snapshot. The reduced
    rows and the gauges are exact Python ints: integer rows over one
    denominator, or for Q(sqrt3) rows pairs of integer rows in Z[sqrt3];
    only the box of Q(sqrt3) rows is still a field inverse.

    The candidates hold every point within the limit. Rows of every kind
    are taken exactly (a float is dyadic; see _integer_rows), so such a
    point has |k_j| <= b_j, the box of their exact inverse at the limit.
    The snapshot is of the reduced rows times the power of two that brings
    the largest entry near 1, so none overflows. A snapshot entry s of a
    scaled entry x is off by at most 2^-53 w: w = |s| for a rational x,
    rounded once, and w = 4 (|a| + 2|b|) for x = a + b sqrt3, as
    float(a) + float(b) * sqrt(3) can cancel; w also carries 2^-1020 for up
    to four roundings in the subnormal range. A float row times k adds at
    most gamma_d sum_j |s_ij| b_j: products by integers, and sums that land
    in the subnormal range, are exact. The search radius adds twice both
    bounds, and twice the rounding of the limit itself, to the scaled
    limit; the second half is room for the float sums that form the radius,
    and any extra candidate it admits fails its exact gauge.
    """
    d = len(c_rows)
    if any(len(row) != d for row in c_rows):
        raise ValueError("c_rows must be square")
    if scalar_sign(mu) <= 0:
        return []
    is_float = isinstance(c_rows[0][0], float)
    limit = widen(float(mu)) if is_float else mu
    a, b, den = _integer_rows(c_rows)
    a = _times(a, basis)
    b = None if b is None else _times(b, basis)
    scaled_mu = _exact(limit) * den
    box = _box(a, b, scaled_mu)
    cells = math.prod(2 * bj + 1 for bj in box)
    if cells > GRID_CELL_CAP:
        raise EnumerationBudgetError(
            f"the search box has {cells} cells; the grid supports at most {GRID_CELL_CAP}"
        )
    if b is None:
        magnitudes = [[abs(x) for x in row] for row in a]
    else:
        magnitudes = [[abs(x) + 2 * abs(y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    top = Fraction(max(map(max, magnitudes)), den)
    shift = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    num, div = (shift / den).as_integer_ratio()
    # int / int rounds correctly, as float of a Fraction does, so the snapshot
    # of a Q(sqrt3) entry is float(a) + float(b) * sqrt(3) of its scaled parts
    if b is None:
        snapshot = [[x * num / div for x in row] for row in a]
        weights = [[abs(s) for s in row] for row in snapshot]
    else:
        snapshot = [[x * num / div + y * num / div * _SQRT3 for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        weights = [[4.0 * (m * num / div) for m in row] for row in magnitudes]
    spread = max(
        sum((w + 2.0**-1020 + (d + 1) * abs(s)) * bj for w, s, bj in zip(ws, ss, box))
        for ws, ss in zip(weights, snapshot)
    )
    scaled_limit = _exact(limit) * shift
    radius = float(scaled_limit) + 2.0**-52 * (
        spread + _error_weight(scaled_limit, float(scaled_limit))
    )
    key, value = _gauge_of(a, b, den, is_float)
    within = _within(limit if is_float else scaled_mu, b is not None)
    u = tuple(zip(*basis))  # row-major, the basis vectors as columns
    points = []
    for kp in _grid_points(snapshot, radius, box):
        gauge = key(kp)
        if within(gauge):
            k = [sum(map(mul, row, kp)) for row in u]
            if next(filter(None, k)) < 0:
                k = [-x for x in k]
            points.append((gauge, tuple(k)))
    points.sort(key=None if b is None else _zsqrt3_order)
    return [(value(gauge), k) for gauge, k in points]


def _box(a, b, mu) -> list:
    """Per-coordinate bound floor(mu * l1 norm of each row of n^-1), exact.

    n = a for integer rows, which stay in integers: Montante's fraction-free
    Gauss-Jordan, dividing exactly by the previous pivot as Bareiss (1968)
    does, turns (n | I) into (c I | c n^-1). n = a + b sqrt3 is inverted in
    its field.
    """
    if b is not None:
        n = Matrix([[Quad3(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        return [scalar_floor(mu * reduce(add, map(abs, row))) for row in n.inverse().rows]
    d = len(a)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(a)]
    prev = 1
    for k in range(d):
        piv = next((r for r in range(k, d) if aug[r][k]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        pivot = aug[k]
        p = pivot[k]
        tail = pivot[k + 1:]
        # columns up to k are c I already, so only the rest is updated
        for row in aug:
            if row is not pivot:
                c = row[k]
                row[k + 1:] = [(p * x - c * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    mu = _exact(mu) / abs(prev)
    return [scalar_floor(mu * sum(map(abs, row[d:]))) for row in aug]


def dilate_box(c_rows, mu) -> list:
    """The coefficient box floor(mu * l1 norm of each row of c_rows^-1), exact."""
    a, b, den = _integer_rows(c_rows)
    return _box(a, b, _exact(mu) * den)


def _reduction_transform(c_rows):
    """Integer unimodular u such that the columns of (c_rows) u are short.

    The reduction runs on a float snapshot of the rows, so it applies to
    float, rational, and quadratic entries alike; u is exactly unimodular in
    every case, and None means the coordinates are already fine. The LLL
    reads each snapshot entry as the exact dyadic rational it is: it is
    scale invariant and clears the denominators itself, so nothing is
    rounded or rescaled. Each search computes the transform once, through
    reduced_basis, and hands that basis to the enumeration.
    """
    d = len(c_rows)
    if d < 2:
        return None
    snapshot = [[float(x) for x in row] for row in c_rows]
    if not all(math.isfinite(x) for row in snapshot for x in row):
        return None
    return _lll_unimodular([[Fraction(row[j]) for row in snapshot] for j in range(d)])


def reduced_basis(c_rows) -> list:
    """d independent integer vectors k with short images (c_rows) k.

    These are the columns of the reduction transform, or the unit vectors
    when the rows need none; the j-th smallest gauge among them is an upper
    bound for the j-th successive minimum.
    """
    d = len(c_rows)
    u = _reduction_transform(c_rows)
    if u is None:
        return [tuple(int(i == j) for i in range(d)) for j in range(d)]
    return [tuple(u[i][j] for i in range(d)) for j in range(d)]


def _integer_rows(c_rows):
    """Integer rows a, b and a divisor D with c_rows = (a + b sqrt3) / D, exactly.

    Rational and float entries are scaled to integers over the lcm D of
    their denominators (a power of two for floats), and b is None. Rows
    with a Q(sqrt3) entry clear every denominator of both parts into one D
    (linalg.zsqrt3_rows), so their reduced rows and gauges are Z[sqrt3] ints.
    """
    if any(isinstance(x, Quad3) for row in c_rows for x in row):
        return zsqrt3_rows(c_rows)
    ratios = [[x.as_integer_ratio() for x in row] for row in c_rows]
    den = math.lcm(*(q for row in ratios for _, q in row))
    return [[p * (den // q) for p, q in row] for row in ratios], None, den


def _times(rows, basis):
    """The integer rows times the basis vectors, as columns."""
    return [[sum(map(mul, row, v)) for v in basis] for row in rows]


def _gauge_of(a, b, den, rounded: bool):
    """Key and value of the exact gauge k -> max_i |c_i . k| of c = (a + b sqrt3) / den.

    The key is the maximum before its division by den: an int for rational
    rows, which sorts as the gauge does since den > 0, and for Q(sqrt3)
    rows a pair (p, q) of ints standing for p + q sqrt3, whose signs are
    decided in ints (see _zsqrt3_order). value divides it once into a
    Fraction or a Quad3. Float rows key by the gauge itself: the exact
    maximum divided once into a correctly rounded float, whatever the order
    of the sums, since two maxima that round alike must sort by k.
    """
    if rounded:
        return (lambda k: max([abs(sum(map(mul, row, k))) for row in a]) / den), (lambda g: g)
    if b is None:
        return (lambda k: max([abs(sum(map(mul, row, k))) for row in a])), (lambda m: Fraction(m, den))

    def key(k):
        best = (0, 0)
        for ra, rb in zip(a, b):
            p, q = sum(map(mul, ra, k)), sum(map(mul, rb, k))
            if zsqrt3_sign(p, q) < 0:
                p, q = -p, -q
            if zsqrt3_sign(p - best[0], q - best[1]) > 0:
                best = (p, q)
        return best

    return key, lambda g: Quad3(Fraction(g[0], den), Fraction(g[1], den))


def _within(bound, quadratic: bool):
    """Whether a key of _gauge_of stands for a gauge at most the limit.

    bound is the limit itself for float rows, else the limit times den.
    """
    if isinstance(bound, float):
        return lambda g: g <= bound
    if not quadratic:
        bound = scalar_floor(bound)  # the keys are ints
        return lambda m: m <= bound
    p, q, r = zsqrt3_parts(bound)
    return lambda g: zsqrt3_sign(p - r * g[0], q - r * g[1]) >= 0


@cmp_to_key
def _zsqrt3_order(x, y) -> int:
    """(key, k) pairs of Q(sqrt3) rows in (gauge, k) order."""
    (g, k), (h, m) = x, y
    return zsqrt3_sign(g[0] - h[0], g[1] - h[1]) or (k > m) - (k < m)


def _exact(x):
    """x as an exact scalar; a float is the dyadic rational it stores."""
    return Fraction(x) if isinstance(x, (int, float)) else x


def _error_weight(x, s: float) -> float:
    """w with |s - x| <= 2^-53 w for the snapshot s of x; see lattice_points_in_dilate."""
    w = 4.0 * float(abs(x.a) + 2 * abs(x.b)) if isinstance(x, Quad3) else abs(s)
    return w + 2.0**-1020


def _lll_unimodular(cols):
    """Track the column operations of an exact LLL pass over rational columns.

    Returns the transform as row-major integer tuples, or None when the
    columns are degenerate or already reduced. This is the integral LLL of
    Cohen (A Course in Computational Algebraic Number Theory, Alg. 2.6.7)
    with delta = 3/4, run in the order of the textbook rational pass: size
    reduction from j = k - 1 down to 0 before each Lovasz test. Scaling
    every column by the lcm D of the denominators is one positive factor: it
    leaves every mu_ij as it is and multiplies both sides of every Lovasz
    test by D^2. The Gram determinants d_i and the numerators
    lambda_ij = d_(j+1) mu_ij are then exact integers (every division below
    is exact), q rounds half to even as round() does on a Fraction, and each
    test is the rational one with its denominators cleared. So the transform
    is the one that the same pass in Fraction arithmetic computes, step for
    step. A wrong or weak transform could only slow the search down, never
    change its answer, because callers re-derive every box and gauge from
    the transformed rows.
    """
    n = len(cols)
    scale = math.lcm(*(x.denominator for c in cols for x in c))
    b = [[x.numerator * (scale // x.denominator) for x in c] for c in cols]
    u_cols = [[int(i == j) for i in range(n)] for j in range(n)]

    # integral Gram-Schmidt; the basis itself is not read again
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            acc = sum(p * q for p, q in zip(b[k], b[j]))
            for i in range(j):
                acc = (d[i + 1] * acc - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = acc
            elif acc == 0:
                return None
            else:
                d[k + 1] = acc

    k = 1
    steps = 0
    while k < n and steps < 10_000:
        steps += 1
        row = lam[k]
        for j in range(k - 1, -1, -1):
            # round(lam / d) with ties to even, as round() does on a Fraction
            q, r = divmod(row[j], d[j + 1])
            if 2 * r > d[j + 1] or (2 * r == d[j + 1] and q & 1):
                q += 1
            if q:
                u_cols[k] = [p - q * s for p, s in zip(u_cols[k], u_cols[j])]
                for i in range(j):
                    row[i] -= q * lam[j][i]
                row[j] -= q * d[j + 1]
        lk = row[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lk * lk:
            k += 1
        else:
            # the swap keeps lam[k][k - 1]; it moves d[k] and the later rows
            u_cols[k], u_cols[k - 1] = u_cols[k - 1], u_cols[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            swapped = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (swapped * t + lk * lam[i][k]) // d[k + 1]
            d[k] = swapped
            k = max(k - 1, 1)
    u = tuple(tuple(u_cols[m][j] for m in range(n)) for j in range(n))
    if all(u[i][j] == (i == j) for i in range(n) for j in range(n)):
        return None
    return u


def _grid_points(rows, radius: float, box) -> list:
    """Canonical points of the box with float gauge (one matmul) at most radius."""
    c = np.array(rows, dtype=float)
    axes = [np.arange(-b, b + 1, dtype=np.int32) for b in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    k = np.stack([m.ravel() for m in mesh], axis=1)
    g = np.abs(k @ c.T).max(axis=1)
    lead = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
    return list(map(tuple, k[(g <= radius) & (lead > 0)].tolist()))


@dataclass(frozen=True)
class MinimaProfile:
    """Successive minima values with independent witness coefficient vectors."""

    values: tuple
    witnesses: tuple

    def __post_init__(self) -> None:
        if len(self.values) != len(self.witnesses):
            raise ValueError("values and witnesses must have equal length")
        for a, b in zip(self.values, self.values[1:]):
            if not a <= b:
                raise ValueError("minima must be nondecreasing")
        if self.witnesses:
            span = RationalSpan(len(self.witnesses[0]))
            for w in self.witnesses:
                if not span.add(w):
                    raise ValueError("witnesses must be linearly independent")


def successive_minima(
    piped: Parallelepiped,
    lattice: Lattice | None = None,
    k_max: int | None = None,
) -> MinimaProfile:
    """First k_max successive minima of the lattice with respect to the body.

    Any j independent lattice vectors bound the j-th minimum, so the k_max-th
    smallest gauge among the reduced basis vectors sizes one dilate that holds
    every witness. That dilate is enumerated once, and an independent subset
    is extracted greedily in (gauge, k) order.
    """
    d = piped.dimension
    if k_max is None:
        k_max = d
    if not 1 <= k_max <= d:
        raise ValueError("k_max must lie in 1..dimension")
    rows = gauge_rows(piped, lattice)
    basis = reduced_basis(rows)
    key, value = _gauge_of(*_integer_rows(rows), piped.kind == "float")
    radius = sorted(value(key(k)) for k in basis)[k_max - 1]
    span = RationalSpan(d)
    values = []
    witnesses = []
    for gauge, k in lattice_points_in_dilate(rows, radius, basis):
        if span.add(k):
            values.append(gauge)
            witnesses.append(k)
            if len(values) == k_max:
                return MinimaProfile(tuple(values), tuple(witnesses))
    raise EnumerationBudgetError(
        f"fewer than {k_max} independent lattice points found within the reduced-basis bound"
    )


def first_minimum(piped: Parallelepiped, lattice: Lattice | None = None):
    """The first minimum and one witness coefficient vector."""
    profile = successive_minima(piped, lattice, 1)
    return profile.values[0], profile.witnesses[0]
