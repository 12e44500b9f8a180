"""Lattice point enumeration in dilates and successive minima.

All searches work on coefficient vectors k with respect to a lattice basis B:
the gauge of the lattice point Bk under a parallelepiped (H, eta) is the sup
norm of C k where C = diag(1/eta) H B. Enumeration reports one canonical
representative per antipodal pair (first nonzero coordinate positive) and
never reports the origin. Points are ordered by (gauge, coefficient vector),
with exact lexicographic tie-breaking, so results are deterministic. One
float search serves every scalar kind and only proposes points; each is
decided by its exact gauge, and float gauges are exact dyadic gauges rounded
once, so no reported point or bit depends on the search that found it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np

from .bodies import Lattice, Parallelepiped
from .linalg import Matrix, RationalSpan
from .scalars import Quad3, as_float, scalar_floor, scalar_sign, widen

GRID_CELL_CAP = 2_000_000
NODE_CAP = 3_000_000


class EnumerationBudgetError(RuntimeError):
    """The search exceeded its node budget or ended without an answer."""


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
    no reduction), on a float snapshot of the reduced rows of any kind: the
    numpy grid when the box is small enough, else the branch-and-bound.
    Either only proposes candidates. Each is kept iff its exact gauge (see
    _gauge_of) is at most the limit, mu for exact rows and widen(mu) for
    float rows, and then mapped back, so no point or bit depends on the path.

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
    limit; the second half covers the rounding of the interval sums on
    which the branch search prunes.
    """
    d = len(c_rows)
    if any(len(row) != d for row in c_rows):
        raise ValueError("c_rows must be square")
    if scalar_sign(mu) <= 0:
        return []
    is_float = isinstance(c_rows[0][0], float)
    limit = widen(float(mu)) if is_float else mu
    n, den = _integer_rows(c_rows)
    exact = [[sum(map(mul, row, b)) for b in basis] for row in n]
    box = _dilate_box(exact, _exact(limit) * den)
    top = Fraction(max(_magnitude(x) for row in exact for x in row), den)
    shift = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    scale = shift / den
    # int / int rounds correctly, and so does float of a Fraction or of the
    # exact Q(sqrt3) entry, which the error weight reads
    rows = [[x * scale.numerator / scale.denominator for x in row] for row in exact]
    snapshot = [[float(x) for x in row] for row in rows]
    spread = max(
        sum((_error_weight(x, s) + (d + 1) * abs(s)) * b for x, s, b in zip(xs, ss, box))
        for xs, ss in zip(rows, snapshot)
    )
    scaled_limit = _exact(limit) * shift
    radius = float(scaled_limit) + 2.0**-52 * (
        spread + _error_weight(scaled_limit, float(scaled_limit))
    )
    search = _grid_points if math.prod(2 * b + 1 for b in box) <= GRID_CELL_CAP else _branch_points
    gauge_of = _gauge_of(exact, den, is_float)
    u = tuple(zip(*basis))  # row-major, the basis vectors as columns
    points = []
    for kp in search(snapshot, radius, box):
        gauge = gauge_of(kp)
        if gauge <= limit:
            k = [sum(map(mul, row, kp)) for row in u]
            if next(filter(None, k)) < 0:
                k = [-x for x in k]
            points.append((gauge, tuple(k)))
    points.sort()
    return points


def _dilate_box(rows, mu) -> list:
    """Per-coordinate bound floor(mu * l1 norm of each row of rows^-1), exact.

    Integer rows stay in integers: Montante's fraction-free Gauss-Jordan,
    dividing exactly by the previous pivot as Bareiss (1968) does, turns
    (rows | I) into (c I | c rows^-1). Other rows are inverted in their field.
    """
    if not all(isinstance(x, int) for row in rows for x in row):
        cinv = Matrix(rows).inverse().rows
        return [scalar_floor(mu * reduce(add, map(abs, row))) for row in cinv]
    d = len(rows)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(rows)]
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
                a = row[k]
                row[k + 1:] = [(p * x - a * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    mu = _exact(mu) / abs(prev)
    return [scalar_floor(mu * sum(map(abs, row[d:]))) for row in aug]


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
    snapshot = [[as_float(x) for x in row] for row in c_rows]
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


def _dot(row, k):
    """row . k for an integer vector k != 0, skipping its zero entries.

    Multiplying a quadratic scalar by 0 is not free.
    """
    return reduce(add, (x * y for x, y in zip(row, k) if y))


def _integer_rows(c_rows):
    """Rows n and a divisor D with c_rows = n / D, exactly.

    Rational and float entries are scaled to integers over the lcm D of
    their denominators (a power of two for floats). Rows with a Q(sqrt3)
    entry are kept as they are, over D = 1.
    """
    if any(isinstance(x, Quad3) for row in c_rows for x in row):
        return c_rows, 1
    ratios = [[x.as_integer_ratio() for x in row] for row in c_rows]
    den = math.lcm(*(q for row in ratios for _, q in row))
    return [[p * (den // q) for p, q in row] for row in ratios], den


def _gauge_of(rows, den, rounded: bool):
    """The exact gauge k -> max_i |rows_i . k| / den of rows from _integer_rows.

    An exact maximum, divided once into a Fraction, or when rounded, as for
    float rows, into one correctly rounded float, whatever the order of the
    sums. Q(sqrt3) rows, over den 1, keep their field gauge.
    """
    if rounded:
        return lambda k: max([abs(sum(map(mul, row, k))) for row in rows]) / den
    if any(isinstance(x, Quad3) for row in rows for x in row):
        return lambda k: max(abs(_dot(row, k)) for row in rows)
    return lambda k: Fraction(max([abs(sum(map(mul, row, k))) for row in rows]), den)


def _exact(x):
    """x as an exact scalar; a float is the dyadic rational it stores."""
    return Fraction(x) if isinstance(x, (int, float)) else x


def _magnitude(x):
    """An exact upper bound on |x|; a + b sqrt3 counts |a| + 2|b|."""
    return abs(x.a) + 2 * abs(x.b) if isinstance(x, Quad3) else abs(x)


def _error_weight(x, s: float) -> float:
    """w with |s - x| <= 2^-53 w for the snapshot s of x; see lattice_points_in_dilate."""
    w = 4.0 * float(_magnitude(x)) if isinstance(x, Quad3) else abs(s)
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


def _branch_points(c_rows, radius: float, box) -> list:
    """Canonical points of the box with float gauge at most radius."""
    d = len(c_rows)
    results: list = []
    assignment = [0] * d
    nodes = 0

    def propagate(lo, hi, fixed, free) -> bool:
        # tighten: for each form i, fixed_i + sum_j c_ij k_j must lie in
        # [-radius, radius]; a few passes are enough, correctness never
        # depends on reaching a fixpoint because leaves recheck the gauge
        for _ in range(3):
            changed = False
            for i in range(d):
                row = c_rows[i]
                mins = {}
                maxs = {}
                total_min = 0
                total_max = 0
                for j in free:
                    t1 = row[j] * lo[j]
                    t2 = row[j] * hi[j]
                    if t2 < t1:
                        t1, t2 = t2, t1
                    mins[j] = t1
                    maxs[j] = t2
                    total_min = total_min + t1
                    total_max = total_max + t2
                base = fixed[i]
                if base + total_min > radius or base + total_max < -radius:
                    return False
                for j in free:
                    cij = row[j]
                    if cij == 0.0:
                        continue
                    low_target = -radius - base - (total_max - maxs[j])
                    high_target = radius - base - (total_min - mins[j])
                    if cij > 0.0:
                        new_lo = math.ceil(low_target / cij - 1e-9)
                        new_hi = math.floor(high_target / cij + 1e-9)
                    else:
                        new_lo = math.ceil(high_target / cij - 1e-9)
                        new_hi = math.floor(low_target / cij + 1e-9)
                    if new_lo > lo[j]:
                        lo[j] = new_lo
                        changed = True
                    if new_hi < hi[j]:
                        hi[j] = new_hi
                        changed = True
                    if lo[j] > hi[j]:
                        return False
            if not changed:
                break
        return True

    def search(lo, hi, fixed, free) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise EnumerationBudgetError(
                f"enumeration exceeded {NODE_CAP} nodes; the dilate is too large"
            )
        lo = list(lo)
        hi = list(hi)
        if not propagate(lo, hi, fixed, free):
            return
        if not free:
            if max(map(abs, fixed)) <= radius and next(filter(None, assignment), 0) > 0:
                results.append(tuple(assignment))
            return
        j = min(free, key=lambda jj: hi[jj] - lo[jj])
        rest = [jj for jj in free if jj != j]
        for v in range(lo[j], hi[j] + 1):
            assignment[j] = v
            search(lo, hi, [fixed[i] + c_rows[i][j] * v for i in range(d)], rest)
        assignment[j] = 0

    search([-b for b in box], list(box), [0] * d, list(range(d)))
    return results


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
    gauge_of = _gauge_of(*_integer_rows(rows), piped.kind == "float")
    radius = sorted(map(gauge_of, basis))[k_max - 1]
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
