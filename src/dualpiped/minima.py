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
a float body. A box of more than GRID_CELL_CAP cells is refused first.
Rational and float rows decide every canonical cell of the box by its exact
integer key, with no float: a box of at most WALK_CELL_CAP cells is walked
in Python ints, and a larger one is decided as arrays, by one exact matmul
of the primitive rows (int64 on harness bodies). Only Q(sqrt3) rows propose
their points from a float snapshot. The enumeration (_dilate) leaves the
sorted keys and points, and successive_minima finds each witness among them
by one exact product of a block of points against its span's normals
(RationalSpan.first_outside). Each search runs in the coordinates of an
exact LLL reduction of its rows, which may start from a given basis; no
answer depends on the basis, only the size of the box does. A body keeps
its rows and their search state (GaugeRows), so its searches clear, reduce
from each start and invert them once. A body's hyperbolic shifts only scale
its gauge rows, so first_minima_in_basis decides them all exactly, for a
rational or a float body alike, on each direction's integer ratios in the
basis and from the inverse of the body's profile search, with no shifted rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from operator import add, mul, neg

import numpy as np

from .bodies import Lattice, Parallelepiped
from .linalg import Matrix, RationalSpan, eliminate, exact_product, integer_rows, zsqrt3_rows
from .scalars import Quad3, exact_scalar, scalar_floor, scalar_sign, zsqrt3_parts, zsqrt3_sign

_SQRT3 = math.sqrt(3.0)
GRID_CELL_CAP = 2_000_000
# rational and float boxes of at most this many cells are walked in Python
# ints rather than gridded (see _dilate): on the boxes of harness bodies at
# d = 3-6 the walk was faster on every box of up to 64 cells and slower on
# most of over 100; boxes of 400-1000 cells at d = 5 walk in about twice
# the grid's time
WALK_CELL_CAP = 64


class EnumerationBudgetError(RuntimeError):
    """The search box exceeds GRID_CELL_CAP cells, or the search ended without an answer."""


class GaugeRows(tuple):
    """Rows of a gauge (see gauge_rows) that keep the search state of their row set.

    The integer form is cleared once, each start is reduced once
    (reduced_basis), and the reduced rows of the last basis asked for are
    built and inverted once (times). A body keeps its rows (gauge_rows), so
    its searches share that state; rows given as plain sequences keep
    nothing between uses.
    """

    rounded = False  # set on a float body's rows (gauge_rows), which rounding can leave singular

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
        """The reduced rows n: the cleared a and b times the basis vectors as columns, D, and _inverse(n).

        The rows and the inverse of the last basis asked for are kept, so
        the radius, the box and the enumeration of a search, and the shifts
        searched in its basis (first_minima_in_basis), build them once.
        """
        basis = tuple(map(tuple, basis))
        kept = self.__dict__.get("_times")
        if kept is None or kept[0] != basis:
            a, b, den = self.cleared
            a, b = _times(a, basis), None if b is None else _times(b, basis)
            try:
                kept = (basis, a, b, den, _inverse(a, b))
            except ZeroDivisionError:
                if not self.rounded:
                    raise
                raise ValueError("the gauge rows h_ij / eta_i lose their rank in the float range") from None
            self.__dict__["_times"] = kept
        return kept[1:]


def gauge_rows(piped: Parallelepiped, lattice: Lattice | None = None) -> GaugeRows:
    """Rows of diag(1/eta) H B, B = I without a lattice; gauge of Bk is the sup norm of (rows) k.

    Without a lattice they are the body's own, built once per body. Float
    rows are read as stored, so an entry that overflows, or rounds to 0
    from a nonzero h_ij, is refused with a ValueError.
    """
    if lattice is None and "_gauge_rows" in piped.__dict__:
        return piped.__dict__["_gauge_rows"]
    if lattice is not None and (piped.kind == "float") != (lattice.kind == "float"):
        raise ValueError(
            f"a {piped.kind} body cannot be measured against a {lattice.kind} lattice"
        )
    hb = piped.forms if lattice is None else piped.forms.matmul(lattice.basis)
    rows = GaugeRows(tuple(x / e for x in row) for row, e in zip(hb.rows, piped.bounds))
    if piped.kind == "float":
        rows.rounded = True
        for i, (row, quotients) in enumerate(zip(hb.rows, rows)):
            if not all(math.isfinite(q) and (q or not x) for x, q in zip(row, quotients)):
                raise ValueError(f"gauge row {i} leaves the float range: an entry over eta_{i}"
                                 " overflows or rounds to 0")
    if lattice is None:
        piped.__dict__["_gauge_rows"] = rows
    return rows


def lattice_points_in_dilate(c_rows, mu, basis) -> list:
    """All (gauge, k) with sup norm of (c_rows) k at most mu, k != 0.

    One representative per antipodal pair, sorted by (gauge, k): the points
    of _dilate, each gauge built once per distinct key.
    """
    keys, points, den = _dilate(c_rows, mu, basis)
    if isinstance(points, np.ndarray):
        # one list per coordinate, not per point: zip then builds each point's tuple
        points = zip(*points.T.tolist())
    gauges = {key: _gauge(key, den) for key in set(keys)}
    return list(zip(map(gauges.__getitem__, keys), points))


def _gauge(key, den):
    """The exact gauge key / den of a search key: an int, or a Z[sqrt3] pair."""
    if isinstance(key, tuple):
        return Quad3(Fraction(key[0], den), Fraction(key[1], den))
    return Fraction(key, den)


def _dilate(c_rows, mu, basis) -> tuple:
    """The points of lattice_points_in_dilate as integer keys, points k and den.

    The keys are a list of ints m, or of Z[sqrt3] pairs for Q(sqrt3) rows,
    each gauge the exact key / den (_gauge); the points are the k in the same
    (gauge, k) order, int tuples, or from the grid an int array with one
    point a line, so a caller builds tuples and gauges only for the points
    it reads. The search runs in the coordinates of `basis`, the
    reduced_basis(c_rows) that sized mu, on the reduced rows (GaugeRows.times):
    integer rows a over one denominator den, or pairs of them in Z[sqrt3].
    Every point within mu lies in the box of their exact inverse (_box), and
    a box of more than GRID_CELL_CAP cells is refused first.

    Rational and float rows keep a canonical cell k iff its integer key
    m = max_i |a_i . k| is at most floor(mu den); the point is mapped back by
    the basis, flipped to its canonical sign, and sorted by (m, k), the
    (gauge, k) order. A box of at most WALK_CELL_CAP cells is walked in ints
    (_walked_points), a larger one decided as arrays (_grid_points); no float
    takes part. Q(sqrt3) rows are proposed by a float snapshot and decided
    in Z[sqrt3] ints (_quadratic_points).
    """
    d = len(c_rows)
    if any(len(row) != d for row in c_rows):
        raise ValueError("c_rows must be square")
    if scalar_sign(mu) <= 0:
        return [], [], 1
    a, b, den, inverse = _as_gauge_rows(c_rows).times(basis)
    scaled_mu = exact_scalar(mu) * den
    box = _box(inverse, scaled_mu)
    cells = math.prod(2 * bj + 1 for bj in box)
    if cells > GRID_CELL_CAP:
        raise EnumerationBudgetError(
            f"the search box has {cells} cells; the grid supports at most {GRID_CELL_CAP}"
        )
    if b is not None:
        return (*_quadratic_points(a, b, den, scaled_mu, basis, box), den)
    num, div = scaled_mu.as_integer_ratio()
    if cells <= WALK_CELL_CAP:
        return (*_walked_points(a, num // div, basis, box), den)
    return (*_grid_points(a, num, div, basis, box), den)


def _walked_points(a, limit, basis, box) -> tuple:
    """The keys and points of _dilate for the integer rows a, walking every canonical cell.

    The basis vectors are appended to the columns of a, so the walk gives
    each cell's image and its point k together.
    """
    d = len(a)
    points = []
    for v in _walk([col + tuple(u) for col, u in zip(zip(*a), basis)], box):
        m = max(map(abs, v[:d]))
        if m <= limit:
            k = v[d:]
            if next(filter(None, k)) < 0:
                k = tuple(map(neg, k))
            points.append((m, k))
    points.sort()
    return [m for m, _ in points], [k for _, k in points]


def _grid_points(a, num, div, basis, box) -> tuple:
    """The keys and points of _dilate for the integer rows a, as arrays over the half box.

    Row i is t_i g_i, with t_i = gcd(a_i) and g_i primitive, so a cell k
    passes the keep rule m <= floor(num / div) iff every |g_i . k| is at
    most l_i = floor(num / (div t_i)). The products g k of every cell are one
    exact product (linalg.exact_product), int64 on harness bodies: there a
    rational g_i is a signed unit row however wide a_i is, a float g_i has
    about 53 bits. The keys m = max_i t_i |g_i . k| of the kept cells are
    in int64 when every t_i max(l_i, 1) < 2^63 bounds them; one more product
    by the basis maps the kept points back, and arrays flip and sort them.
    """
    scales = [math.gcd(*row) for row in a]
    g = [[x // t for x in row] for row, t in zip(a, scales)]
    limits = [num // (div * t) for t in scales]
    k = _half_box(box)
    products = np.abs(exact_product(k, g, box))
    keep = (products <= limits).all(axis=1)
    dtype = object if any(t * max(x, 1) >= 2**63 for t, x in zip(scales, limits)) else np.int64
    m = (products[keep].astype(dtype) * np.array(scales, dtype=dtype)).max(axis=1)
    k = k[keep]
    del products, keep  # before the sort copies the kept points: they set the peak on large boxes
    k = exact_product(k, tuple(zip(*basis)), box)
    lead = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
    k[lead < 0] *= -1
    order = np.lexsort((*k.T[::-1], m))
    return m[order].tolist(), k[order]


def _quadratic_points(a, b, den, scaled_mu, basis, box) -> tuple:
    """The keys and points of _dilate for the Q(sqrt3) rows (a + b sqrt3) / den.

    A float snapshot of the rows (_snapshot) proposes the canonical cells of
    the box within a float radius, and each is decided alone: its key is a
    pair of ints in Z[sqrt3] (see _zsqrt3_max), compared with mu den by an
    integer sign. The candidates hold every point within mu: a snapshot
    entry s of a scaled x = a + b sqrt3 is off by at most 2^-53 w,
    w = 4 (|a| + 2|b|), as float(a) + float(b) * sqrt(3) can cancel, plus
    2^-1020 for up to four roundings in the subnormal range, and a float row
    times k adds at most gamma_d sum_j |s_ij| b_j, as products by integers
    and sums in the subnormal range are exact. The radius adds twice both
    bounds, and twice the rounding of mu, to the scaled mu: the second half
    is room for the float sums that form it, and any extra candidate it
    admits fails its exact gauge.
    """
    d = len(a)
    snapshot, shift = _snapshot(a, b, den)
    num, div = (shift / den).as_integer_ratio()
    spread = max(
        sum((4.0 * ((abs(x) + 2 * abs(y)) * num / div) + 2.0**-1020 + (d + 1) * abs(s)) * bj
            for x, y, s, bj in zip(ra, rb, ss, box))
        for ra, rb, ss in zip(a, b, snapshot)
    )
    x = scaled_mu * shift / den  # mu shifted as the rows are, weighed as an entry is
    w = 4.0 * float(abs(x.a) + 2 * abs(x.b)) if isinstance(x, Quad3) else abs(float(x))
    radius = float(x) + 2.0**-52 * (spread + (w + 2.0**-1020))
    cells = _half_box(box)
    candidates = cells[np.abs(cells @ np.array(snapshot).T).max(axis=1) <= radius].tolist()
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
    return [key for key, _ in points], [k for _, k in points]


def _snapshot(a, b, den) -> tuple:
    """The float rows of (a + b sqrt3) / den times a power of two, and that power.

    The power brings the largest |a| + 2|b| near 1, so no entry overflows,
    and int / int rounds as float of a Fraction does: each entry is
    float(x) of its scaled x, the unscaled float(x) times the power
    wherever that one is finite and normal.
    """
    top = Fraction(max(abs(x) + 2 * abs(y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)), den)
    shift = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    num, div = (shift / den).as_integer_ratio()
    return [[x * num / div + y * num / div * _SQRT3 for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], shift


def _inverse(a, b) -> tuple:
    """det n and adj n = det(n) n^-1 for n = a by linalg.eliminate, or None and n^-1 for n = a + b sqrt3.

    n = a + b sqrt3 is inverted in its field, by Matrix.inverse, which says why.
    """
    if b is None:
        return eliminate(a, inverse=True)
    return None, Matrix([[Quad3(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]).inverse().rows


def _box(inverse, mu) -> list:
    """Per-coordinate bound floor(mu * l1 norm of each row of n^-1), exact, from _inverse(n)."""
    det, rows = inverse
    if det is None:
        return [scalar_floor(mu * sum(map(abs, row))) for row in rows]
    num, div = mu.as_integer_ratio()
    div *= abs(det)
    return [num * sum(map(abs, row)) // div for row in rows]


def dilate_box(c_rows, mu) -> list:
    """The coefficient box floor(mu * l1 norm of each row of c_rows^-1), exact."""
    a, b, den = _integer_rows(c_rows)
    return _box(_inverse(a, b), exact_scalar(mu) * den)


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
    is scale invariant. Q(sqrt3) rows are reduced on their float snapshot
    (_snapshot, scaled so no entry leaves the float range), read exactly in
    the same way. Each search computes the transform once, through
    reduced_basis, and hands that basis to the enumeration.
    """
    d = len(c_rows)
    unit = start is None
    if unit:
        start = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    if d < 2 or not all(math.isfinite(x) for row in c_rows for x in row if isinstance(x, float)):
        return start, None
    a, b, den = _integer_rows(c_rows)
    if b is not None:
        a = integer_rows(_snapshot(a, b, den)[0])[0]
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
    them is an upper bound for the j-th successive minimum. GaugeRows keep
    the basis of each start, so a start is reduced once per row set.
    """
    rows = _as_gauge_rows(c_rows)
    kept = rows.__dict__.setdefault("_reduced", {})
    key = None if start is None else tuple(map(tuple, start))
    if key not in kept:
        start, u = _reduction_transform(rows, start)
        kept[key] = start if u is None else [
            tuple(sum(v[i] * w[j] for v, w in zip(start, u)) for i in range(len(u))) for j in range(len(u))]
    return list(kept[key])


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


def _half_box(box):
    """The canonical cells of the box, int64 coordinates with one cell a line.

    Cell i of the N cells in row-major order holds k and cell N - 1 - i
    holds -k, so the origin is the middle cell, and the cells after it are
    exactly those whose first nonzero coordinate is positive: only that half
    is built, (N - 1) / 2 cells.
    """
    shape = [2 * b + 1 for b in box]
    cells = math.prod(shape)
    k = np.stack(np.unravel_index(np.arange(cells // 2 + 1, cells), shape), axis=-1)
    k -= np.array(box, dtype=k.dtype)
    return k


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
    every witness. That dilate is enumerated once (_dilate), and an
    independent subset is extracted greedily in (gauge, k) order:
    RationalSpan.first_outside finds each next witness among the sorted
    points, and only the witnesses become tuples and gauges. The reduction
    starts from the basis `start` when one is given (see reduced_basis);
    the answer does not depend on it. The search is exact for every kind; a
    float body's values are its exact values rounded once, the search's one
    float step.
    """
    d = piped.dimension
    if k_max is None:
        k_max = d
    if not 1 <= k_max <= d:
        raise ValueError("k_max must lie in 1..dimension")
    rows = gauge_rows(piped, lattice)
    basis = reduced_basis(rows, start)
    gauges = _column_gauges(*rows.times(basis)[:3])
    radius = sorted(gauges)[k_max - 1]
    keys, points, den = _dilate(rows, radius, basis)
    span = RationalSpan(d)
    values = []
    witnesses = []
    i = span.first_outside(points)
    while i is not None:
        k = tuple(map(int, points[i]))
        span.add(k)
        values.append(_gauge(keys[i], den))
        witnesses.append(k)
        if len(values) == k_max:
            if piped.kind == "float":
                values = map(float, values)
            return MinimaProfile(tuple(values), tuple(witnesses), tuple(basis))
        i = span.first_outside(points, i + 1)
    raise EnumerationBudgetError(
        f"fewer than {k_max} independent lattice points found within the reduced-basis bound"
    )


def first_minimum(piped: Parallelepiped, lattice: Lattice | None = None, *, start=None):
    """The first minimum and one witness coefficient vector."""
    profile = successive_minima(piped, lattice, 1, start=start)
    return profile.values[0], profile.witnesses[0]


def first_minima_in_basis(piped: Parallelepiped, directions, start) -> list:
    """The exact first minimum against Z^d of the body shifted by each direction, or None.

    A shift by tau scales row i of the body's gauge rows by 1 / tau_i, and
    `start`, the basis of the body's profile search (MinimaProfile.basis),
    keeps its box small. The rows there clear to integers a over den and are
    inverted once; a shift is decided on its ratios tau_i = p_i / q_i in
    ints: the gauge max_i |a_i . k| q_i / (p_i den) by cross-multiplication,
    the radius as the least column gauge num / (div den), and with Q = lcm(q)
    the box b_j = floor(num sum_i |adj_ji| p_i (Q / q_i) / (div Q |det a|)).
    A box whose one canonical cell is the radius's basis vector has the
    radius as its value, one of at most 3^d cells its least gauge (_walk), a
    Fraction for every kind; Q(sqrt3) rows and larger boxes give None.
    """
    a, b, den, (det, adj) = gauge_rows(piped).times(start)
    if b is not None:
        return [None] * len(directions)
    cols = list(zip(*a))
    values = []
    for raw in directions:
        ratios = [t.as_integer_ratio() for t in raw]
        num, div = _least_gauge(cols, ratios)
        lcm = math.lcm(*(q for _, q in ratios))
        weights = [p * (lcm // q) for p, q in ratios]
        scale = div * lcm * abs(det)
        box = [num * sum(abs(x) * w for x, w in zip(row, weights)) // scale for row in adj]
        cells = math.prod(2 * bj + 1 for bj in box)
        if 3 < cells <= 3 ** len(box):
            num, div = _least_gauge(_walk(cols, box), ratios)
        values.append(None if cells > 3 ** len(box) else Fraction(num, div * den))
    return values


def _least_gauge(images, ratios) -> tuple:
    """The least max_i |v_i| q_i / p_i over the images v, as ints (num, div), by cross-multiplication."""
    least = None
    for v in images:
        num, div = 0, 1
        for x, (p, q) in zip(v, ratios):
            x = abs(x) * q
            if x * div > num * p:
                num, div = x, p
        if least is None or num * least[1] < least[0] * div:
            least = num, div
    return least


def _walk(cols, box) -> list:
    """The images sum_j k_j col_j of the canonical cells k of the box, as int tuples.

    The images are built from the last coordinate back: the canonical cells
    whose first nonzero coordinate is j are t e_j, t = 1..b_j, plus any cell
    of the coordinates after j, and with their negatives they fill the box of
    the coordinates from j on. So each canonical cell costs one vector sum.
    """
    tails = [(0,) * len(cols[0])]
    images = []
    for j in range(len(cols) - 1, -1, -1):
        steps = [tuple(t * x for x in cols[j]) for t in range(1, box[j] + 1)]
        lead = [tuple(map(add, step, tail)) for step in steps for tail in tails]
        images += lead
        if j:
            tails += lead + [tuple(map(neg, v)) for v in lead]
    return images
