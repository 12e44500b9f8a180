"""Lattice point enumeration in dilates and successive minima.

All searches work on coefficient vectors k with respect to a lattice basis B:
the gauge of the lattice point Bk under a parallelepiped (H, eta) is the sup
norm of C k where C = diag(1/eta) H B. Enumeration reports one canonical
representative per antipodal pair (first nonzero coordinate positive) and
never reports the origin. Points are ordered by (gauge, coefficient vector),
with exact lexicographic tie-breaking, so results are deterministic. Float
gauges are exact dyadic gauges rounded once, so no reported bit depends on
the search that found the point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Sequence

import numpy as np

from .bodies import Lattice, Parallelepiped
from .linalg import Matrix, RationalSpan
from .scalars import as_float, scalar_ceil, scalar_floor, scalar_sign, widen

GRID_CELL_CAP = 2_000_000
NODE_CAP = 3_000_000


class EnumerationBudgetError(RuntimeError):
    """The search exceeded its node budget or ended without an answer."""


def gauge_rows(piped: Parallelepiped, lattice: Lattice) -> tuple:
    """Rows of diag(1/eta) H B; gauge of Bk is the sup norm of (rows) k."""
    if (piped.kind == "float") != (lattice.kind == "float"):
        raise ValueError(
            f"a {piped.kind} body cannot be measured against a {lattice.kind} lattice"
        )
    hb = piped.forms.matmul(lattice.basis)
    return tuple(
        tuple(x / e for x in row) for row, e in zip(hb.rows, piped.bounds)
    )


def lattice_points_in_dilate(c_rows, mu, basis) -> list:
    """All (gauge, k) with sup norm of (c_rows) k at most mu, k != 0.

    One representative per antipodal pair, sorted by (gauge, k). The search
    runs in the coordinates of `basis`, the reduced_basis(c_rows) that the
    caller has already used to size mu (the unit vectors when the rows need
    no reduction): the numpy grid when the box is small enough, else the
    branch-and-bound. Either search only proposes candidates; one loop then
    maps them back and decides them. Exact rows keep the exact leaf gauge.
    Float rows are a filter only: the search runs a little wider than mu,
    and each candidate's gauge is taken exactly (see _gauge_of) and kept when
    it is at most widen(mu), so the points and their bits do not depend on
    the path that found them.
    """
    d = len(c_rows)
    if any(len(row) != d for row in c_rows):
        raise ValueError("c_rows must be square")
    if scalar_sign(mu) <= 0:
        return []
    is_float = isinstance(c_rows[0][0], float)
    rows = tuple(tuple(_dot(row, b) for b in basis) for row in c_rows)
    # searching this much wider than the decision, rounding can add
    # candidates but never lose one
    radius = widen(float(mu)) * (1.0 + 1e-7) if is_float else mu
    box = _dilate_box(Matrix(rows).inverse(), radius, is_float)
    if is_float and _cell_count(box) <= GRID_CELL_CAP:
        candidates = _grid_points_float(rows, radius, box)
    else:
        candidates = _branch_points(rows, radius, box, is_float)
    if is_float:
        gauge_of = _gauge_of(c_rows)
        limit = widen(float(mu))
    u = tuple(zip(*basis))  # row-major, the basis vectors as columns
    points = []
    for gauge, kp in candidates:
        k = [sum(map(mul, row, kp)) for row in u]
        if next(filter(None, k)) < 0:
            k = [-x for x in k]
        k = tuple(k)
        if is_float:
            gauge = gauge_of(k)
            if gauge > limit:
                continue
        points.append((gauge, k))
    points.sort()
    return points


def _dilate_box(cinv: Matrix, mu, is_float: bool) -> list:
    """Per-coordinate bound floor(mu * l1 norm of each inverse row)."""
    box = []
    for row in cinv.rows:
        width = abs(row[0])
        for x in row[1:]:
            width = width + abs(x)
        width = mu * width
        box.append(math.floor(width + 1e-9) if is_float else scalar_floor(width))
    return box


def _cell_count(box) -> int:
    cells = 1
    for b in box:
        cells *= 2 * b + 1
    return cells


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


def _gauge_of(c_rows):
    """The gauge k -> sup norm of (c_rows) k, exact on every scalar kind.

    Float entries are dyadic rationals, so float rows are scaled once to
    integer rows n_i over one power-of-two denominator D. The gauge of k is
    then max_i |n_i . k| / D: an exact integer maximum and one correctly
    rounded int / int division, whatever the order of the sums.
    """
    if not isinstance(c_rows[0][0], float):
        return lambda k: max(abs(_dot(row, k)) for row in c_rows)
    ratios = [[x.as_integer_ratio() for x in row] for row in c_rows]
    den = max(q for row in ratios for _, q in row)
    ints = [[p * (den // q) for p, q in row] for row in ratios]
    return lambda k: max([abs(sum(map(mul, n, k))) for n in ints]) / den


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


def _grid_points_float(rows, radius: float, box) -> list:
    """Canonical points of the box with float gauge (one matmul) at most radius."""
    c = np.array(rows, dtype=float)
    axes = [np.arange(-b, b + 1, dtype=np.int32) for b in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    k = np.stack([m.ravel() for m in mesh], axis=1)
    g = np.abs(k @ c.T).max(axis=1)
    lead = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
    keep = (g <= radius) & (lead > 0)
    return list(zip(g[keep].tolist(), map(tuple, k[keep].tolist())))


def _branch_points(c_rows, radius, box, is_float: bool) -> list:
    """Canonical points with gauge at most radius; exact or float scalars."""
    d = len(c_rows)
    if is_float:

        def int_floor(x):
            return math.floor(x + 1e-9)

        def int_ceil(x):
            return math.ceil(x - 1e-9)

    else:
        int_floor = scalar_floor
        int_ceil = scalar_ceil

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
                    if scalar_sign(cij) == 0:
                        continue
                    low_target = -radius - base - (total_max - maxs[j])
                    high_target = radius - base - (total_min - mins[j])
                    if scalar_sign(cij) > 0:
                        new_lo = int_ceil(low_target / cij)
                        new_hi = int_floor(high_target / cij)
                    else:
                        new_lo = int_ceil(high_target / cij)
                        new_hi = int_floor(low_target / cij)
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
            gauge = max(abs(f) for f in fixed)
            if gauge <= radius and next((x for x in assignment if x), 0) > 0:
                results.append((gauge, tuple(assignment)))
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
    if lattice is None:
        lattice = Lattice.integers(d, kind=piped.kind if piped.kind == "float" else "rational")
    if k_max is None:
        k_max = d
    if not 1 <= k_max <= d:
        raise ValueError("k_max must lie in 1..dimension")
    rows = gauge_rows(piped, lattice)
    basis = reduced_basis(rows)
    radius = sorted(map(_gauge_of(rows), basis))[k_max - 1]
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


@dataclass(frozen=True)
class OrthogonalSublattice:
    """Integer points orthogonal to a primitive vector, with exact covolume."""

    vector: tuple
    basis_columns: tuple
    covolume_squared: int

    def covolume(self) -> float:
        return math.sqrt(self.covolume_squared)


def orthogonal_sublattice(v: Sequence[int]) -> OrthogonalSublattice:
    """Basis of {k in Z^d : <v, k> = 0} for primitive integer v.

    Column reduction of v with a tracked unimodular matrix yields the kernel
    columns; a column Hermite normal form makes the basis canonical. The
    squared covolume (Gram determinant) always equals |v|^2.
    """
    if not all(isinstance(x, int) for x in v):
        raise TypeError("vector entries must be integers")
    t = list(v)
    d = len(t)
    if d == 0 or math.gcd(*(abs(x) for x in t)) != 1:
        raise ValueError("vector must be primitive (nonzero, gcd 1)")
    u_cols = [[int(i == j) for i in range(d)] for j in range(d)]
    while True:
        support = [j for j in range(d) if t[j] != 0]
        if len(support) == 1:
            break
        p = min(support, key=lambda j: abs(t[j]))
        for j in support:
            if j == p:
                continue
            q = t[j] // t[p]
            if q:
                t[j] -= q * t[p]
                u_cols[j] = [a - q * b for a, b in zip(u_cols[j], u_cols[p])]
    pivot = support[0]
    kernel = [u_cols[j] for j in range(d) if j != pivot]
    basis = _column_hnf(kernel, d)
    if basis:
        gram = Matrix(
            [
                [Fraction(sum(a * b for a, b in zip(c1, c2))) for c2 in basis]
                for c1 in basis
            ]
        )
        covol2 = int(gram.det())
    else:
        covol2 = 1
    return OrthogonalSublattice(tuple(v), tuple(basis), covol2)


def _column_hnf(cols, d: int) -> tuple:
    """Canonical column form: positive pivots, earlier columns reduced mod pivot."""
    cols = [list(c) for c in cols]
    n = len(cols)
    placed = 0
    for row in range(d):
        if placed == n:
            break
        while True:
            active = [j for j in range(placed, n) if cols[j][row] != 0]
            if len(active) <= 1:
                break
            p = min(active, key=lambda j: abs(cols[j][row]))
            for j in active:
                if j == p:
                    continue
                q = cols[j][row] // cols[p][row]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
        if not active:
            continue
        j0 = active[0]
        cols[placed], cols[j0] = cols[j0], cols[placed]
        if cols[placed][row] < 0:
            cols[placed] = [-x for x in cols[placed]]
        pivot_value = cols[placed][row]
        for j in range(placed):
            q = cols[j][row] // pivot_value
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[placed])]
        placed += 1
    return tuple(tuple(c) for c in cols)
