"""Lattice point enumeration in dilates and successive minima.

All searches work on coefficient vectors k with respect to a lattice basis B:
the gauge of the lattice point Bk under a parallelepiped (H, eta) is the sup
norm of C k where C = diag(1/eta) H B. Enumeration reports one canonical
representative per antipodal pair (first nonzero coordinate positive) and
never reports the origin. Points are ordered by (gauge, coefficient vector),
with exact lexicographic tie-breaking, so results are deterministic. Every
scalar kind is searched in one exact arithmetic: a float is the dyadic
rational it stores, so float rows keep, order and measure their points as
their exact twins do, and only successive_minima rounds, once, the values of
a float body. A numpy grid over the canonical half of the exact coefficient
box only proposes points. Rational and float rows decide their candidates
as arrays, by one exact integer matmul, in int64 where a bound proves it
exact and over Python ints otherwise. A box of more than GRID_CELL_CAP
cells is refused before the grid is built. Each search runs in the
coordinates of an exact LLL reduction of its rows, which may start from a
given basis. No answer depends on the basis, only the size of the box does.
A body's hyperbolic shifts only scale the rows of its gauge, so
first_minima_in_basis searches them all in the body's own reduced basis,
with no reduction and no shifted body: a rational body's reduced rows are
inverted once, and that one adjugate gives every shift's box in ints,
while a float body's rounded shifted rows take one inverse each. A shift
whose box has at most 3^d cells is decided by the exact integer keys of
all its canonical cells, with no snapshot, grid, sort or span, and any
other shift is left to first_minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from operator import add, mul, neg

import numpy as np

from .bodies import Lattice, Parallelepiped
from .linalg import Matrix, RationalSpan, eliminate, integer_rows, zsqrt3_rows
from .scalars import Quad3, exact_scalar, scalar_floor, scalar_sign, zsqrt3_parts, zsqrt3_sign

_SQRT3 = math.sqrt(3.0)
GRID_CELL_CAP = 2_000_000


class EnumerationBudgetError(RuntimeError):
    """The search box exceeds GRID_CELL_CAP cells, or the search ended without an answer."""


class GaugeRows(tuple):
    """Rows of a gauge (see gauge_rows) that clear themselves to integers once.

    The reduction, the radius and the enumeration of one search all read
    the integer form; rows given as plain sequences are cleared on each use.
    """

    @cached_property
    def cleared(self) -> tuple:
        """Integer rows a, b and a divisor D with rows = (a + b sqrt3) / D, exactly.

        Rational and float entries are scaled to integers over the lcm D of
        their denominators (a power of two for floats), and b is None. Rows
        with a Q(sqrt3) entry clear every denominator of both parts into one
        D (linalg.zsqrt3_rows), so their reduced rows and gauges are Z[sqrt3]
        ints.
        """
        if any(isinstance(x, Quad3) for row in self for x in row):
            return zsqrt3_rows(self)
        return integer_rows(self)

    def times(self, basis) -> tuple:
        """The reduced rows: the cleared a and b times the basis vectors as columns, and D.

        The product with the last basis asked for is kept, so the radius and
        the enumeration of one search build it once.
        """
        basis = tuple(map(tuple, basis))
        kept = self.__dict__.get("_times")
        if kept is None or kept[0] != basis:
            a, b, den = self.cleared
            kept = (basis, _times(a, basis), None if b is None else _times(b, basis), den)
            self.__dict__["_times"] = kept
        return kept[1:]


def gauge_rows(piped: Parallelepiped, lattice: Lattice | None = None) -> GaugeRows:
    """Rows of diag(1/eta) H B, B = I without a lattice; gauge of Bk is the sup norm of (rows) k."""
    if lattice is not None and (piped.kind == "float") != (lattice.kind == "float"):
        raise ValueError(
            f"a {piped.kind} body cannot be measured against a {lattice.kind} lattice"
        )
    hb = piped.forms if lattice is None else piped.forms.matmul(lattice.basis)
    return GaugeRows(
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
    candidates. Each is kept iff its exact gauge is at most mu, read exactly
    for every kind (a float is the dyadic rational it stores), and then
    mapped back, so no point or bit depends on the snapshot. The reduced
    rows, kept for the basis by GaugeRows.times, are exact integer rows over
    one denominator den, or for Q(sqrt3) rows pairs of integer rows in
    Z[sqrt3]; only the box of Q(sqrt3) rows is still a field inverse.

    Rational and float rows decide all candidates at once, by one rule.
    Their integer keys m = max_i |a_i . k| are one integer matmul by the
    reduced rows a (see _exact_product), and a candidate is kept iff
    m <= floor(mu den). One more matmul by the basis maps the kept points
    back, array operations flip them to their canonical sign, and one sort
    orders them by (m, k), which is the (gauge, k) order since den > 0; each
    gauge is the exact Fraction(m, den), float rows included. Q(sqrt3) rows
    decide their candidates one by one in Z[sqrt3] ints (see
    _quadratic_points).

    The candidates hold every point within mu. Rows of every kind are taken
    exactly (see _integer_rows), so such a point has |k_j| <= b_j, the box
    of their exact inverse at mu.
    The snapshot is of the reduced rows times the power of two that brings
    the largest entry near 1, so none overflows. A snapshot entry s of a
    scaled entry x is off by at most 2^-53 w: w = |s| for a rational x,
    rounded once, and w = 4 (|a| + 2|b|) for x = a + b sqrt3, as
    float(a) + float(b) * sqrt(3) can cancel; w also carries 2^-1020 for up
    to four roundings in the subnormal range. A float row times k adds at
    most gamma_d sum_j |s_ij| b_j: products by integers, and sums that land
    in the subnormal range, are exact. The search radius adds twice both
    bounds, and twice the rounding of mu itself, to the scaled mu; the
    second half is room for the float sums that form the radius,
    and any extra candidate it admits fails its exact gauge.
    """
    d = len(c_rows)
    if any(len(row) != d for row in c_rows):
        raise ValueError("c_rows must be square")
    if scalar_sign(mu) <= 0:
        return []
    a, b, den = _as_gauge_rows(c_rows).times(basis)
    scaled_mu = exact_scalar(mu) * den
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
    shifted_mu = exact_scalar(mu) * shift
    radius = float(shifted_mu) + 2.0**-52 * (
        spread + _error_weight(shifted_mu, float(shifted_mu))
    )
    candidates = _grid_points(snapshot, radius, box)
    if b is not None:
        return _quadratic_points(candidates.tolist(), a, b, den, scaled_mu, basis)
    m = np.abs(_exact_product(candidates, a, box)).max(axis=1)
    num, div = scaled_mu.as_integer_ratio()
    keep = m <= num // div
    k = _exact_product(candidates[keep], tuple(zip(*basis)), box)
    m = m[keep]
    del candidates, keep  # before the lists are built: they set the peak on large boxes
    lead = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
    k[lead < 0] *= -1
    order = np.lexsort((*k.T[::-1], m))
    m = m[order].tolist()
    # one list per coordinate, not per point: zip then builds each point's tuple
    k = k[order].T.tolist()
    gauges = {g: Fraction(g, den) for g in set(m)}
    return list(zip(map(gauges.__getitem__, m), zip(*k)))


def _exact_product(k, rows, box):
    """The integer candidates k (one per line) times the integer rows, exactly.

    Every |k_j| is at most b_j, so when every row has sum_j |r_ij| max(b_j, 1)
    below 2^62, that bounds each entry and each partial sum of the product,
    and it runs in int64. Otherwise it runs in numpy's object dtype over
    Python ints; both go through the same matmul.
    """
    wide = any(sum(abs(x) * max(bj, 1) for x, bj in zip(row, box)) >= 2**62 for row in rows)
    dtype = object if wide else np.int64
    return k.astype(dtype, copy=False) @ np.array(rows, dtype=dtype).T


def _quadratic_points(candidates, a, b, den, scaled_mu, basis) -> list:
    """The (gauge, k) of the candidates of Q(sqrt3) rows within mu, one by one.

    Each gauge is a pair of ints in Z[sqrt3] (see _zsqrt3_max), compared
    with mu times den by an integer sign.
    """
    p, q, r = zsqrt3_parts(scaled_mu)
    u = tuple(zip(*basis))  # row-major, the basis vectors as columns
    points = []
    for kp in candidates:
        gauge = _zsqrt3_max([sum(map(mul, row, kp)) for row in a],
                            [sum(map(mul, row, kp)) for row in b])
        if zsqrt3_sign(p - r * gauge[0], q - r * gauge[1]) >= 0:
            k = [sum(map(mul, row, kp)) for row in u]
            if next(filter(None, k)) < 0:
                k = [-x for x in k]
            points.append((gauge, tuple(k)))
    points.sort(key=_zsqrt3_order)
    return [(Quad3(Fraction(g, den), Fraction(h, den)), k) for (g, h), k in points]


def _box(a, b, mu) -> list:
    """Per-coordinate bound floor(mu * l1 norm of each row of n^-1), exact.

    n = a for integer rows, which stay in integers: linalg.eliminate gives
    det(n) n^-1, and each bound is one integer division. n = a + b sqrt3 is
    inverted in its field, by Matrix.inverse, which says why.
    """
    if b is None:
        det, rows = eliminate(a, inverse=True)
        num, div = mu.as_integer_ratio()
        div *= abs(det)
        return [num * sum(map(abs, row)) // div for row in rows]
    n = Matrix([[Quad3(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    return [scalar_floor(mu * sum(map(abs, row))) for row in n.inverse().rows]


def dilate_box(c_rows, mu) -> list:
    """The coefficient box floor(mu * l1 norm of each row of c_rows^-1), exact."""
    a, b, den = _integer_rows(c_rows)
    return _box(a, b, exact_scalar(mu) * den)


def _reduction_transform(c_rows, start) -> tuple:
    """A start basis S and an integer unimodular u, the columns of (c_rows) S u short.

    S holds the vectors of `start` as columns, or the unit vectors when it
    is None. A given start must be a basis of Z^d, such as the reduced basis
    of rows that differ from these by a diagonal scaling (a hyperbolic
    shift); its vectors are ordered by the exact squared norm of their
    integer images, so the LLL only confirms or improves it. u is exactly
    unimodular, and None means S is already fine. Rational and float rows
    are reduced exactly, on the integer rows that the search clears once
    (see GaugeRows; a float is the dyadic rational it stores), since the LLL
    is scale invariant. Q(sqrt3) rows are reduced on their float snapshot,
    read exactly in the same way. Each search computes the transform once,
    through reduced_basis, and hands that basis to the enumeration.
    """
    d = len(c_rows)
    unit = start is None
    if unit:
        start = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    if d < 2 or not all(math.isfinite(x) for row in c_rows for x in row if isinstance(x, float)):
        return start, None
    a, b, _ = _integer_rows(c_rows)
    if b is not None:
        a = integer_rows([[float(x) for x in row] for row in c_rows])[0]
    if unit:
        return start, _lll_unimodular(list(zip(*a)))
    cols = [[sum(map(mul, row, v)) for row in a] for v in start]
    order = sorted(range(d), key=lambda j: sum(x * x for x in cols[j]))
    return [start[j] for j in order], _lll_unimodular([cols[j] for j in order])


def reduced_basis(c_rows, start=None) -> list:
    """d independent integer vectors k with short images (c_rows) k.

    These are the start vectors (the unit vectors by default; see
    _reduction_transform) times the reduction transform, or the start
    vectors themselves when they need none; the j-th smallest gauge among
    them is an upper bound for the j-th successive minimum.
    """
    start, u = _reduction_transform(c_rows, start)
    if u is None:
        return list(start)
    d = len(u)
    return [tuple(sum(v[i] * w[j] for v, w in zip(start, u)) for i in range(d)) for j in range(d)]


def _as_gauge_rows(c_rows) -> GaugeRows:
    return c_rows if isinstance(c_rows, GaugeRows) else GaugeRows(c_rows)


def _integer_rows(c_rows) -> tuple:
    """The integer form of the rows (see GaugeRows.cleared); callers do not modify it."""
    return _as_gauge_rows(c_rows).cleared


def _times(rows, basis):
    """The integer rows times the basis vectors, as columns."""
    return [[sum(map(mul, row, v)) for v in basis] for row in rows]


def _column_gauges(a, b, den) -> list:
    """The exact gauges of the basis vectors: the column maxima of the reduced rows.

    A column of rational or float rows gives Fraction(max |a_ij|, den), and
    of Q(sqrt3) rows a Quad3 from its Z[sqrt3] maximum (see _zsqrt3_max).
    """
    if b is not None:
        return [Quad3(Fraction(p, den), Fraction(q, den))
                for p, q in map(_zsqrt3_max, zip(*a), zip(*b))]
    return [Fraction(max(map(abs, col)), den) for col in zip(*a)]


def _zsqrt3_max(ps, qs) -> tuple:
    """max_i |p_i + q_i sqrt3| as a pair of ints, the signs decided in ints."""
    best = (0, 0)
    for p, q in zip(ps, qs):
        if zsqrt3_sign(p, q) < 0:
            p, q = -p, -q
        if zsqrt3_sign(p - best[0], q - best[1]) > 0:
            best = (p, q)
    return best


@cmp_to_key
def _zsqrt3_order(x, y) -> int:
    """(key, k) pairs of Q(sqrt3) rows in (gauge, k) order."""
    (g, k), (h, m) = x, y
    return zsqrt3_sign(g[0] - h[0], g[1] - h[1]) or (k > m) - (k < m)


def _error_weight(x, s: float) -> float:
    """w with |s - x| <= 2^-53 w for the snapshot s of x; see lattice_points_in_dilate."""
    w = 4.0 * float(abs(x.a) + 2 * abs(x.b)) if isinstance(x, Quad3) else abs(s)
    return w + 2.0**-1020


def _lll_unimodular(cols):
    """Track the column operations of an exact LLL pass over integer columns.

    Returns the transform as row-major integer tuples, or None when the
    columns are degenerate or already reduced. This is the integral LLL of
    Cohen (A Course in Computational Algebraic Number Theory, Alg. 2.6.7)
    with delta = 3/4, run in the order of the textbook rational pass: size
    reduction from j = k - 1 down to 0 before each Lovasz test. Rational
    columns are passed scaled by the lcm D of their denominators, one
    positive factor: it leaves every mu_ij as it is and multiplies both
    sides of every Lovasz test by D^2. The Gram determinants d_i and the
    numerators lambda_ij = d_(j+1) mu_ij are exact integers (every division
    below is exact), q rounds half to even as round() does on a Fraction,
    and each test is the rational one with its denominators cleared. So the
    transform is the one that the same pass in Fraction arithmetic computes
    on the unscaled columns, step for step. A wrong or weak transform could
    only slow the search down, never change its answer, because callers
    re-derive every box and gauge from the transformed rows.
    """
    n = len(cols)
    u_cols = [[int(i == j) for i in range(n)] for j in range(n)]

    # integral Gram-Schmidt; the columns themselves are not read again
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            acc = sum(map(mul, cols[k], cols[j]))
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


def _grid_points(rows, radius: float, box):
    """Canonical points of the box with float gauge (one matmul) at most radius.

    Returns int64 coordinates, one point per line. Cell i of the N cells in
    row-major order holds k and cell N - 1 - i holds -k, so the origin is
    the middle cell, and the cells after it are exactly those whose first
    nonzero coordinate is positive: only that half is built.
    """
    shape = [2 * b + 1 for b in box]
    cells = math.prod(shape)
    k = np.stack(np.unravel_index(np.arange(cells // 2 + 1, cells), shape), axis=-1)
    k -= np.array(box, dtype=k.dtype)
    g = np.abs(k @ np.array(rows, dtype=float).T).max(axis=1)
    return k[g <= radius]


@dataclass(frozen=True)
class MinimaProfile:
    """Successive minima values with independent witness coefficient vectors.

    basis is the reduced basis the search ran in, a start for the searches
    of the body's hyperbolic shifts; it takes no part in equality.
    """

    values: tuple
    witnesses: tuple
    basis: tuple = field(default=(), compare=False, repr=False)

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
    *,
    start=None,
) -> MinimaProfile:
    """First k_max successive minima of the lattice with respect to the body.

    Any j independent lattice vectors bound the j-th minimum, so the k_max-th
    smallest gauge among the reduced basis vectors sizes one dilate that holds
    every witness. That dilate is enumerated once, and an independent subset
    is extracted greedily in (gauge, k) order. The reduction starts from the
    basis `start` when one is given (see reduced_basis); the answer does not
    depend on it. The search is exact for every kind; a float body's values
    are its exact values rounded once, the search's one float step.
    """
    d = piped.dimension
    if k_max is None:
        k_max = d
    if not 1 <= k_max <= d:
        raise ValueError("k_max must lie in 1..dimension")
    rows = gauge_rows(piped, lattice)
    basis = reduced_basis(rows, start)
    gauges = _column_gauges(*rows.times(basis))
    radius = sorted(gauges)[k_max - 1]
    span = RationalSpan(d)
    values = []
    witnesses = []
    for gauge, k in lattice_points_in_dilate(rows, radius, basis):
        if span.add(k):
            values.append(gauge)
            witnesses.append(k)
            if len(values) == k_max:
                if piped.kind == "float":
                    values = map(float, values)
                return MinimaProfile(tuple(values), tuple(witnesses), tuple(basis))
    raise EnumerationBudgetError(
        f"fewer than {k_max} independent lattice points found within the reduced-basis bound"
    )


def first_minimum(piped: Parallelepiped, lattice: Lattice | None = None, *, start=None):
    """The first minimum and one witness coefficient vector."""
    profile = successive_minima(piped, lattice, 1, start=start)
    return profile.values[0], profile.witnesses[0]


def first_minima_in_basis(piped: Parallelepiped, directions, start) -> list:
    """The first minimum against Z^d of the body shifted by each direction, or None.

    A shift by tau scales the bounds to tau * eta (see apply_hyperbolic),
    so row i of the gauge rows by 1 / tau_i, and `start`, the reduced basis
    of the body's profile search (MinimaProfile.basis), keeps each shift's
    box small with no reduction. A shift's reduced rows clear to integers
    a' over one denominator den; the smallest column maximum m0 is the
    radius, and a box of at most 3^d cells there is decided whole: the
    smallest integer key m = max_i |a'_i . k| over its canonical cells
    (_smallest_key) passes the keep rule m <= floor(mu den) = m0 of
    lattice_points_in_dilate, as the radius's basis vector lies in the box,
    and gives the value Fraction(m, den), rounded once for a float body.
    No shifted body, snapshot, grid, sort or span is built.

    A rational body's reduced rows a / den are inverted once: with
    tau_i = p_i / q_i and L = lcm(p), a shift's rows are s_i a_i over den L,
    s_i = q_i L / p_i, so the one adjugate gives every shift's box in ints,
    b_j = floor(m0 sum_i |adj_ji| / (s_i |det a|)). A float body's shifted
    rows are the rounded quotients h / fl(tau eta), which no shared inverse
    describes, so each takes its own (_box). Q(sqrt3) rows, float bounds or
    rows beyond the float range and larger boxes give None, for
    first_minimum to search.
    """
    if piped.kind == "float":
        return [_float_shift_minimum(piped, raw, start) for raw in directions]
    a, b, den = gauge_rows(piped).times(start)
    if b is not None:
        return [None] * len(directions)
    det, adj = eliminate(a, inverse=True)
    values = []
    for raw in directions:
        ratios = [t.as_integer_ratio() for t in raw]
        lcm = math.lcm(*(p for p, _ in ratios))
        scales = [q * (lcm // p) for p, q in ratios]
        shifted = [[s * x for x in row] for s, row in zip(scales, a)]
        radius = min(max(map(abs, col)) for col in zip(*shifted))
        common = math.lcm(*scales)
        weights = [common // s for s in scales]
        div = common * abs(det)
        box = [radius * sum(abs(x) * w for x, w in zip(row, weights)) // div for row in adj]
        key = _small_box_key(shifted, box)
        values.append(None if key is None else Fraction(key, den * lcm))
    return values


def _float_shift_minimum(piped: Parallelepiped, raw, start):
    """A float body's first minimum shifted by raw, for first_minima_in_basis, or None."""
    bounds = [float(t) * e for t, e in zip(raw, piped.bounds)]
    if not all(0 < e < math.inf for e in bounds):
        return None
    rows = [[x / e for x in row] for row, e in zip(piped.forms.rows, bounds)]
    if not all(math.isfinite(x) for row in rows for x in row):
        return None
    a, _, den = GaugeRows(rows).times(start)
    key = _small_box_key(a, _box(a, None, min(max(map(abs, col)) for col in zip(*a))))
    return None if key is None else float(Fraction(key, den))


def _small_box_key(a, box):
    """_smallest_key of the integer rows a over the box, or None past 3^d cells."""
    if math.prod(2 * bj + 1 for bj in box) > 3 ** len(box):
        return None
    return _smallest_key(list(zip(*a)), box)


def _smallest_key(cols, box) -> int:
    """The least max_i |(sum_j k_j col_j)_i| over the canonical cells k of the box.

    The images are built from the last coordinate back: the canonical cells
    whose first nonzero coordinate is j are t e_j, t = 1..b_j, plus any cell
    of the coordinates after j, and with their negatives they fill the box of
    the coordinates from j on. So each canonical cell costs one vector sum.
    """
    tails = [(0,) * len(cols)]
    keys = []
    for j in range(len(cols) - 1, -1, -1):
        steps = [tuple(t * x for x in cols[j]) for t in range(1, box[j] + 1)]
        lead = [tuple(map(add, step, tail)) for step in steps for tail in tails]
        keys += [max(map(abs, v)) for v in lead]
        if j:
            tails += lead + [tuple(map(neg, v)) for v in lead]
    return min(keys)
