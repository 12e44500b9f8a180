"""Small dense matrices over one scalar kind, plus bracketed root finding.

Matrices are immutable, and every det, inverse and transpose computed once
per matrix is kept on it, so bodies that share a form matrix share its
pseudo-compound's H^-T and that matrix's det. Every determinant, and every
rational and float inverse, is one fraction-free elimination in Python ints
(`eliminate`): the rows are cleared once to integers over one denominator,
in Z[sqrt3] for Q(sqrt3) rows, so float results are the exact dyadic values
rounded once. Q(sqrt3) inverses still use plain field operations. The rank
tracker `RationalSpan` keeps integer normals to its span, so a vector is
tested by dot products, and an array of integer vectors by one exact
product (`exact_product`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Sequence

import numpy as np

from .scalars import Quad3, Scalar, scalar_sign, zsqrt3_parts


def _normalize_entry(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


class Matrix:
    """Immutable row-major matrix; all entries share one scalar kind."""

    __slots__ = ("rows", "kind", "nrows", "ncols", "_det", "_inverse", "_transpose")

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
        object.__setattr__(self, "_det", None)
        object.__setattr__(self, "_inverse", None)
        object.__setattr__(self, "_transpose", None)

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

    def transpose(self) -> "Matrix":
        """The transpose, computed once per matrix, with no link back, as inverse keeps none."""
        if self._transpose is None:
            object.__setattr__(self, "_transpose", Matrix(list(zip(*self.rows))))
        return self._transpose

    def scale(self, s: Scalar) -> "Matrix":
        return Matrix([[s * x for x in row] for row in self.rows])

    def to_float(self) -> "Matrix":
        return Matrix([[float(x) for x in row] for row in self.rows])

    def exact_det(self) -> Scalar:
        """The exact determinant, a float matrix's as a Fraction; computed once per matrix."""
        if self._det is None:
            self.dim  # rejects non-square matrices
            clear = zsqrt3_rows if self.kind == "quad3" else integer_rows
            a, b, den = clear(self.rows)
            det, _ = eliminate(a, b)
            scale = den**self.nrows
            if self.kind == "quad3":
                value = Quad3(Fraction(det.p, scale), Fraction(det.q, scale))
            else:
                value = Fraction(det, scale)
            object.__setattr__(self, "_det", value)
        return self._det

    def det(self) -> Scalar:
        """exact_det, rounded once for the float kind, where it may round to 0.0 or overflow."""
        return float(self.exact_det()) if self.kind == "float" else self.exact_det()

    def inverse(self) -> "Matrix":
        """The exact inverse, each float entry rounded once; computed once per matrix.

        ZeroDivisionError if singular. The inverse keeps no link back to this
        matrix, so no reference cycle forms.
        """
        if self._inverse is None:
            self.dim  # rejects non-square matrices
            # Q(sqrt3) inverses stay in field arithmetic for now: in Z[sqrt3]
            # ints (eliminate(a, b, inverse=True)) the benchmark's witness ran
            # 72-77 operations a second, past the about 54 at which its pool of
            # 276 eps runs dry and the run fails; switch once the pool can cycle
            if self.kind == "quad3":
                rows = _gauss_jordan_exact([list(r) for r in self.rows])
            else:
                a, _, den = integer_rows(self.rows)
                det, adj = eliminate(a, inverse=True)
                # A^-1 = adj A / det A, and the matrix is A / den; a positive
                # divisor keeps zero entries +0.0, and int / int rounds once
                num = den if det > 0 else -den
                det = abs(det)
                if self.kind == "float":
                    rows = [[num * x / det for x in row] for row in adj]
                else:
                    rows = [[Fraction(num * x, det) for x in row] for row in adj]
            object.__setattr__(self, "_inverse", Matrix(rows))
        return self._inverse

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


class RationalSpan:
    """Incremental exact rank tracker for rational vectors.

    It keeps primitive integer normals n_1..n_m that span the orthogonal
    complement of the span, m = dim - rank; before the first vector they
    are the unit vectors, left implicit. A vector lies in the span iff
    every r_i = vec . n_i is zero, so a test at rank dim - 1 is one dot
    product, in ints for an int vector. On acceptance the r_i are scaled to
    integers, and for one r_t != 0 each other normal becomes
    r_t n_i - r_i n_t, divided by its gcd, and n_t is dropped. The new
    normals are orthogonal to vec and stay independent, so they span the
    new complement, and the same vectors are accepted as by elimination.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._normals: list | None = None

    @property
    def rank(self) -> int:
        return 0 if self._normals is None else self.dim - len(self._normals)

    def add(self, vec: Sequence[int | Fraction]) -> bool:
        """Add vec if it enlarges the span; return whether it did."""
        normals = self._normals
        dots = vec if normals is None else [sum(map(mul, vec, n)) for n in normals]
        if not any(dots):
            return False
        t = next(i for i, x in enumerate(dots) if x)
        # only the ratios of the dots matter, so they are scaled to integers
        scale = math.lcm(*(x.denominator for x in dots))
        dots = [x.numerator * (scale // x.denominator) for x in dots]
        rt = dots[t]
        if normals is None:
            # r_t e_i - r_i e_t for the unit vectors, built sparse
            self._normals = []
            for i, ri in enumerate(dots):
                if i != t:
                    g = math.gcd(rt, ri)
                    n = [0] * self.dim
                    n[i], n[t] = rt // g, -ri // g
                    self._normals.append(n)
            return True
        nt = normals[t]
        kept = []
        for i, (ri, n) in enumerate(zip(dots, normals)):
            if ri:
                if i == t:
                    continue
                n = [rt * x - ri * y for x, y in zip(n, nt)]
                g = math.gcd(*n)
                n = [x // g for x in n]
            kept.append(n)
        self._normals = kept
        return True

    def first_outside(self, vecs, start: int = 0):
        """The index of the first of the integer vectors vecs[start:] outside the span, or None.

        vecs is a sequence of int tuples, tested one by one by dot products
        as add tests a vector, or an int array with one vector a line, tested
        in blocks of doubling length from start, each by one exact integer
        product with the normals (exact_product), its bound the block's
        largest |entry| in each coordinate. The vector found is left for add.
        """
        normals = self._normals
        if normals is None:
            normals = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        if not normals:
            return None
        if not isinstance(vecs, np.ndarray):
            return next((i for i in range(start, len(vecs))
                         if any(sum(map(mul, vecs[i], n)) for n in normals)), None)
        block = 16
        while start < len(vecs):
            chunk = vecs[start:start + block]
            bound = np.abs(chunk).max(axis=0).tolist()
            hits = np.flatnonzero(exact_product(chunk, normals, bound).any(axis=1))
            if len(hits):
                return start + int(hits[0])
            start += block
            block *= 2
        return None


def exact_product(k, rows, box):
    """The integer vectors k (one per line) times the integer rows, exactly.

    Every |k_j| is at most b_j, so when every b_j and every row's
    sum_j |r_ij| max(b_j, 1) lie below 2^62, k fits int64 and that sum bounds
    each entry and each partial sum of the product, and it runs in int64.
    Otherwise it runs in numpy's object dtype over Python ints; both go
    through the same matmul.
    """
    wide = max(box) >= 2**62 or any(
        sum(abs(x) * max(bj, 1) for x, bj in zip(row, box)) >= 2**62 for row in rows
    )
    dtype = object if wide else np.int64
    return k.astype(dtype, copy=False) @ np.array(rows, dtype=dtype).T


def zsqrt3_rows(rows) -> tuple:
    """Integer matrices A, B and a divisor D > 0 with rows = (A + B sqrt3) / D.

    Entries are Quad3, Fraction or int; D is the lcm of every denominator.
    """
    parts = [[zsqrt3_parts(x) for x in row] for row in rows]
    den = math.lcm(*(r for row in parts for _, _, r in row))
    a = [[p * (den // r) for p, _, r in row] for row in parts]
    b = [[q * (den // r) for _, q, r in row] for row in parts]
    return a, b, den


def integer_rows(rows) -> tuple:
    """Integer matrix A, None and D > 0, the lcm of every denominator, with rows = A / D.

    Entries are Fraction, int or float; a float is the dyadic rational it stores.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = math.lcm(*(q for row in ratios for _, q in row))
    return [[p * (den // q) for p, q in row] for row in ratios], None, den


class _ZSqrt3:
    """p + q sqrt3 with int p, q: the ring in which eliminate runs Q(sqrt3) rows.

    Its // is an exact quotient: the product by the conjugate, divided by the
    norm, a nonzero integer because sqrt3 is irrational.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        self.p, self.q = p, q

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def __sub__(self, other: "_ZSqrt3") -> "_ZSqrt3":
        return _ZSqrt3(self.p - other.p, self.q - other.q)

    def __mul__(self, other: "_ZSqrt3") -> "_ZSqrt3":
        p, q = other.p, other.q
        return _ZSqrt3(self.p * p + 3 * self.q * q, self.p * q + self.q * p)

    def __floordiv__(self, other: "_ZSqrt3") -> "_ZSqrt3":
        p, q = other.p, other.q
        norm = p * p - 3 * q * q
        return _ZSqrt3((self.p * p - 3 * self.q * q) // norm, (self.q * p - self.p * q) // norm)


def eliminate(a, b=None, inverse: bool = False) -> tuple:
    """det N and, with inverse, adj N = det(N) N^-1, for N = A + B sqrt3 in integers.

    Montante's fraction-free Gauss-Jordan with the exact divisions of Bareiss
    (1968): step k turns each entry x of another row into (p x - c y) / prev
    for the pivot p, the row's entry c under it, the pivot row's entry y and
    the previous pivot, so each pivot is a leading minor. Without inverse
    only the rows under the pivot change (Bareiss's elimination). A row swap
    negates one row, which keeps the determinant, so the last pivot is det N
    and (N | I) ends as (det N I | adj N). B = None stands for B = 0 and runs
    on plain ints. A singular N gives det 0, or ZeroDivisionError with inverse.
    """
    d = len(a)
    if b is None:
        n, one = [list(row) for row in a], 1
    else:
        n, one = [[_ZSqrt3(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], _ZSqrt3(1, 0)
    zero = one - one
    if inverse:
        for i, row in enumerate(n):
            row += [one if i == j else zero for j in range(d)]
    prev = one
    for k in range(d):
        piv = next((r for r in range(k, d) if n[r][k]), None)
        if piv is None:
            if inverse:
                raise ZeroDivisionError("matrix is singular")
            return zero, None
        if piv != k:
            n[k], n[piv] = n[piv], [zero - x for x in n[k]]
        pivot = n[k]
        p = pivot[k]
        tail = pivot[k + 1:]
        # the columns up to k are prev I already, so only the rest is updated
        for row in n if inverse else n[k + 1:]:
            if row is not pivot:
                c = row[k]
                row[k + 1:] = [(p * x - c * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return prev, [row[d:] for row in n] if inverse else None


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
