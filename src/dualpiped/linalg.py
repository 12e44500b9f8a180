"""Small dense matrices over one scalar kind, plus bracketed root finding.

Exact kinds clear their denominators once and eliminate fraction-free
(Bareiss) in Python ints: determinants over Z[sqrt3] (`zsqrt3_det`, which
Q(sqrt3) rows in `minima` share) and the rank tracker `RationalSpan`;
inverses use plain field operations, and the float kind gets partial
pivoting.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .scalars import Quad3, Scalar, scalar_sign, zsqrt3_parts


def _normalize_entry(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


class Matrix:
    """Immutable row-major matrix; all entries share one scalar kind."""

    __slots__ = ("rows", "kind", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence[Scalar]]) -> None:
        mat = [tuple(_normalize_entry(x) for x in row) for row in rows]
        if not mat or not mat[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(r) != len(mat[0]) for r in mat):
            raise ValueError("ragged rows")
        has_float = any(isinstance(x, float) for r in mat for x in r)
        has_quad = any(isinstance(x, Quad3) for r in mat for x in r)
        has_rat = any(isinstance(x, Fraction) for r in mat for x in r)
        if has_float and (has_quad or has_rat):
            raise TypeError("float entries cannot mix with exact entries")
        if has_quad:
            mat = [tuple(x if isinstance(x, Quad3) else Quad3(x) for x in r) for r in mat]
            kind = "quad3"
        elif has_float:
            kind = "float"
        else:
            kind = "rational"
        object.__setattr__(self, "rows", tuple(mat))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nrows", len(mat))
        object.__setattr__(self, "ncols", len(mat[0]))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, d: int, kind: str = "rational") -> "Matrix":
        if kind == "float":
            one, zero = 1.0, 0.0
        elif kind == "quad3":
            one, zero = Quad3(1), Quad3(0)
        else:
            one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(d)] for i in range(d)])

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "Matrix":
        d = len(entries)
        zero = 0.0 if any(isinstance(x, float) for x in entries) else Fraction(0)
        return cls([[entries[i] if i == j else zero for j in range(d)] for i in range(d)])

    @property
    def dim(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def _check_compatible(self, other: "Matrix") -> None:
        if (self.kind == "float") != (other.kind == "float"):
            raise TypeError("float matrices cannot mix with exact matrices")

    def matmul(self, other: "Matrix") -> "Matrix":
        self._check_compatible(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [[_dot(row, col) for col in cols] for row in self.rows]
        )

    def matvec(self, vec: Sequence[Scalar]) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        v = [_normalize_entry(x) for x in vec]
        return tuple(_dot(row, v) for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def scale(self, s: Scalar) -> "Matrix":
        return Matrix([[s * x for x in row] for row in self.rows])

    def to_float(self) -> "Matrix":
        return Matrix([[float(x) for x in row] for row in self.rows])

    def det(self) -> Scalar:
        self.dim  # rejects non-square matrices
        return _det(self.rows, self.kind)

    def inverse(self) -> "Matrix":
        d = self.dim
        if self.kind == "float":
            return Matrix(_gauss_jordan_float([list(r) for r in self.rows]))
        return Matrix(_gauss_jordan_exact([list(r) for r in self.rows]))

    def cofactor(self) -> "Matrix":
        """M' with M (M')^T = (det M) I; equals (det M)(M^T)^{-1} when invertible."""
        det = self.det()
        if scalar_sign(det) != 0:
            return self.inverse().transpose().scale(det)
        return self._cofactor_minors()

    def _cofactor_minors(self) -> "Matrix":
        d = self.dim
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                minor = [
                    [self.rows[r][c] for c in range(d) if c != j]
                    for r in range(d)
                    if r != i
                ]
                sub = _det(minor, self.kind)
                row.append(sub if (i + j) % 2 == 0 else -sub)
            out.append(row)
        return Matrix(out)

    # 1.0 == Fraction(1), so a float matrix and its exact twin would compare
    # and hash alike by entries alone; exact kinds still compare by value
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        same_kind = (self.kind == "float") == (other.kind == "float")
        return same_kind and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.kind == "float", self.rows))

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]!r})"


def _dot(a, b):
    total = None
    for x, y in zip(a, b):
        term = x * y
        total = term if total is None else total + term
    return total


def _det(rows, kind: str) -> Scalar:
    if kind == "float":
        return _det_float([list(r) for r in rows])
    # det (A + B sqrt3) / D^d: one elimination in ints, B = 0 for rationals
    a, b, den = zsqrt3_rows(rows)
    p, q = zsqrt3_det(a, b)
    scale = den ** len(rows)
    if kind == "quad3":
        return Quad3(Fraction(p, scale), Fraction(q, scale))
    return Fraction(p, scale)


def _det_float(m) -> float:
    d = len(m)
    det = 1.0
    for k in range(d):
        piv = max(range(k, d), key=lambda r: abs(m[r][k]))
        if m[piv][k] == 0.0:
            return 0.0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, d):
            f = m[i][k] / m[k][k]
            for j in range(k, d):
                m[i][j] -= f * m[k][j]
    return det


def _gauss_jordan_exact(m):
    d = len(m)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(d)] for i, row in enumerate(m)]
    for k in range(d):
        piv = next((r for r in range(k, d) if aug[r][k]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        inv_p = 1 / aug[k][k]
        aug[k] = [x * inv_p for x in aug[k]]
        for r in range(d):
            if r != k and aug[r][k]:
                f = aug[r][k]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return [row[d:] for row in aug]


def _gauss_jordan_float(m):
    d = len(m)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(d)] for i, row in enumerate(m)]
    for k in range(d):
        piv = max(range(k, d), key=lambda r: abs(aug[r][k]))
        if aug[piv][k] == 0.0:
            raise ZeroDivisionError("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        p = aug[k][k]
        aug[k] = [x / p for x in aug[k]]
        for r in range(d):
            if r != k and aug[r][k] != 0.0:
                f = aug[r][k]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return [row[d:] for row in aug]


class RationalSpan:
    """Incremental exact rank tracker for rational vectors.

    Each vector is scaled to integers on entry and reduced fraction-free
    against the stored rows (Bareiss 1968): r <- p r - a row for the pivot p
    of a row and the entry a of r under it, then r is divided by its gcd.
    Every stored row is a nonzero multiple of the row that elimination over
    the field would store, so the same vectors are accepted.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._reduced: list[tuple[int, list]] = []

    @property
    def rank(self) -> int:
        return len(self._reduced)

    def add(self, vec: Sequence[int | Fraction]) -> bool:
        """Add vec if it enlarges the span; return whether it did."""
        scale = math.lcm(*(x.denominator for x in vec))
        r = [x.numerator * (scale // x.denominator) for x in vec]
        for piv, row in self._reduced:
            a = r[piv]
            if a:
                p = row[piv]
                r = [p * x - a * y for x, y in zip(r, row)]
        piv = next((i for i, x in enumerate(r) if x), None)
        if piv is None:
            return False
        g = math.gcd(*r)
        self._reduced.append((piv, [x // g for x in r]))
        return True


def zsqrt3_rows(rows) -> tuple:
    """Integer matrices A, B and a divisor D > 0 with rows = (A + B sqrt3) / D.

    Entries are Quad3, Fraction or int; D is the lcm of every denominator.
    """
    parts = [[zsqrt3_parts(x) for x in row] for row in rows]
    den = math.lcm(*(r for row in parts for _, _, r in row))
    a = [[p * (den // r) for p, _, r in row] for row in parts]
    b = [[q * (den // r) for _, q, r in row] for row in parts]
    return a, b, den


def zsqrt3_det(a, b) -> tuple:
    """det(A + B sqrt3) = p + q sqrt3 for square integer matrices A, B, as (p, q).

    Bareiss's fraction-free elimination over the ring Z[sqrt3]: each entry
    under pivot k becomes (p r - a y) / prev for the pivot p, the entry a
    of its row in the pivot column, the pivot row's entry y and the
    previous pivot prev. Bareiss divisions are exact in any integral
    domain, so each is a product by the conjugate of prev followed by an
    exact // by its norm, a nonzero integer because sqrt3 is irrational.
    """
    rows = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
    d = len(rows)
    sign = 1
    prev_a, prev_b, norm = 1, 0, 1
    for k in range(d):
        piv = next((r for r in range(k, d) if rows[r][k] != (0, 0)), None)
        if piv is None:
            return 0, 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k]
        pa, pb = pivot[k]
        tail = pivot[k + 1:]
        for row in rows[k + 1:]:
            ca, cb = row[k]
            new = []
            for (xa, xb), (ya, yb) in zip(row[k + 1:], tail):
                ta = pa * xa + 3 * (pb * xb - cb * yb) - ca * ya
                tb = pa * xb + pb * xa - ca * yb - cb * ya
                # (ta + tb sqrt3) / prev, exactly
                new.append(((ta * prev_a - 3 * tb * prev_b) // norm, (tb * prev_a - ta * prev_b) // norm))
            row[k + 1:] = new
        prev_a, prev_b, norm = pa, pb, pa * pa - 3 * pb * pb
    return sign * prev_a, sign * prev_b


def monotone_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a strictly monotone f on [lo, hi] by float bisection.

    Bisection stops when the midpoint no longer moves, at machine precision.
    """
    slo, shi = scalar_sign(f(lo)), scalar_sign(f(hi))
    if slo == 0:
        return lo
    if shi == 0:
        return hi
    if slo == shi:
        raise ValueError("no sign change on the bracket")
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return mid
        sm = scalar_sign(f(mid))
        if sm == 0:
            return mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
