"""Brute-force reference implementations and paper constructions used only by the test suite."""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from dualpiped.bodies import Lattice, Parallelepiped
from dualpiped.linalg import Matrix, RationalSpan, monotone_root
from dualpiped.scalars import Quad3, exact_nth_root, scalar_sign, sqrt_exact
from dualpiped.sections import v_tau_squared
from dualpiped.transference import REL_SLACK, c_d


def random_unimodular(rng, d, ops=None):
    """Integer matrix of determinant one from `ops` random row additions."""
    m = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(ops if ops is not None else 3 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for col in range(d):
            m[i][col] += c * m[j][col]
    return Matrix(m)


def generic_body(rng, d, kind):
    """A body with non-integer forms of determinant 1: U diag(s) V, with s in pairs q, 1/q."""
    scales = [Fraction(1)] * d
    for i in range(0, d - 1, 2):
        q = Fraction(rng.randint(2, 5), rng.randint(2, 5))
        scales[i:i + 2] = [q, 1 / q]
    diagonal = Matrix.diagonal(scales)
    forms = random_unimodular(rng, d, ops=2 * d).matmul(diagonal).matmul(random_unimodular(rng, d, ops=2 * d))
    eta = tuple(Fraction(rng.randint(2, 9), rng.randint(1, 4)) for _ in range(d))
    body = Parallelepiped(forms, eta)
    return body.to_float() if kind == "float" else body


def gauges_in_box(piped, lattice, box):
    """All (gauge, k) for integer coefficient vectors 0 != |k_i| <= box."""
    d = piped.forms.dim
    out = []
    for k in itertools.product(range(-box, box + 1), repeat=d):
        if all(x == 0 for x in k):
            continue
        point = lattice.basis.matvec(k)
        out.append((piped.gauge(point), k))
    return out


def brute_force_minima(piped, lattice, k_max, box=6):
    """Exhaustive successive minima over the |k_i| <= box coefficient cube.

    Valid whenever the true minima witnesses fall inside the box; tests use
    generously small instances where that is guaranteed.
    """
    pts = sorted(gauges_in_box(piped, lattice, box), key=lambda t: (t[0], t[1]))
    span = RationalSpan(piped.forms.dim)
    values, witnesses = [], []
    for g, k in pts:
        if span.add([Fraction(x) for x in k]):
            values.append(g)
            witnesses.append(k)
            if len(values) == k_max:
                break
    return values, witnesses


class BareissSpan:
    """The former RationalSpan: reference for the rank tracker of linalg.

    Each vector is scaled to integers on entry and reduced fraction-free
    against the stored rows (Bareiss 1968): r <- p r - a row for the pivot p
    of a row and the entry a of r under it, then r is divided by its gcd.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._reduced = []

    @property
    def rank(self) -> int:
        return len(self._reduced)

    def add(self, vec) -> bool:
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


def dilate_points_oracle(c_rows, mu, basis):
    """lattice_points_in_dilate by its definition, one candidate at a time.

    Sweeps every canonical cell of the box of the reduced rows (c_rows) U at
    mu, U the basis vectors as columns, with the box taken from their field
    inverse; maps each cell kp back to k = U kp, measures it by its exact
    Fraction gauge (floats are read as the dyadic rationals they store, for
    rows and mu alike), keeps it iff that gauge is at most mu, flips k to its
    first nonzero coordinate positive and sorts by (gauge, k).
    """
    exact = [[Fraction(x) for x in row] for row in c_rows]
    limit = Fraction(mu)
    u = list(zip(*basis))
    reduced = [[sum(x * y for x, y in zip(row, v)) for v in basis] for row in exact]
    box = [math.floor(limit * sum(abs(x) for x in row)) for row in field_inverse(reduced)]
    points = []
    for kp in itertools.product(*(range(-b, b + 1) for b in box)):
        if next(filter(None, kp), 0) <= 0:
            continue
        k = tuple(sum(x * y for x, y in zip(row, kp)) for row in u)
        gauge = max(abs(sum(x * y for x, y in zip(row, k))) for row in exact)
        if gauge <= limit:
            if next(filter(None, k)) < 0:
                k = tuple(-x for x in k)
            points.append((gauge, k))
    return sorted(points)


def fraction_rank(rows):
    """Rank of rational row vectors by plain Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# exactly singular as dyadic rationals; float elimination with pivoting
# leaves a determinant of about -1.8e-18
SINGULAR_FLOAT_ROWS = (
    (0.5675971780695452, -0.3933745478421451, -0.04680609169528838),
    (0.1667640789100624, 0.8162257703906703, 0.009373711634780513),
    (0.7343612569796076, 0.42285122254852525, -0.037432380060507864),
)


def field_inverse(rows):
    """Inverse by plain Gauss-Jordan in the entries' own field (Fraction or Quad3)."""
    d = len(rows)
    m = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(rows)]
    for col in range(d):
        piv = next(r for r in range(col, d) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[d:] for row in m]


def field_det(rows):
    """Determinant by Laplace expansion along the first row, in the entries' field."""
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total = total + (-1) ** j * x * field_det(minor)
    return total


def random_quad3_rows(rng, d):
    """A d x d list of Q(sqrt3) entries, often zero (forcing row swaps), with
    denominators up to 10^20."""
    def part():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9) * rng.choice((1, 10**19)), rng.choice((1, 3, 7, 10**20)))

    rows = [[Quad3(part(), part()) for _ in range(d)] for _ in range(d)]
    if d > 1 and rng.random() < 0.5:
        rows[0][0] = Quad3(0)
    return rows


def fraction_lll_unimodular(cols, delta=Fraction(3, 4)):
    """Track the column operations of an exact LLL pass over rational columns.

    The Fraction pass that the integral `minima._lll_unimodular` replaced,
    its code unchanged, kept as the reference the integral pass must match.

    Returns the transform as row-major integer tuples, or None when the
    columns are degenerate or already reduced. Exact arithmetic guarantees
    the swap condition never flip-flops on rounding noise; a wrong or weak
    transform could only slow the search down, never change its answer,
    because callers re-derive every box and gauge from the transformed rows.
    """
    n = len(cols)
    b = [list(c) for c in cols]
    u_cols = [[int(i == j) for i in range(n)] for j in range(n)]

    # one exact Gram-Schmidt pass; swaps later update it in place
    bstar: list = []
    mus = [[Fraction(0)] * n for _ in range(n)]
    norms: list = []
    for i in range(n):
        v = list(b[i])
        for j in range(i):
            if norms[j] == 0:
                return None
            m = sum(p * q for p, q in zip(b[i], bstar[j])) / norms[j]
            mus[i][j] = m
            v = [p - m * q for p, q in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(sum(p * p for p in v))
    if norms[-1] == 0:
        return None

    k = 1
    steps = 0
    while k < n and steps < 10_000:
        steps += 1
        for j in range(k - 1, -1, -1):
            q = round(mus[k][j])
            if q:
                b[k] = [p - q * r for p, r in zip(b[k], b[j])]
                u_cols[k] = [p - q * r for p, r in zip(u_cols[k], u_cols[j])]
                for i in range(j):
                    mus[k][i] -= q * mus[j][i]
                mus[k][j] -= q
        if norms[k] >= (delta - mus[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u_cols[k], u_cols[k - 1] = u_cols[k - 1], u_cols[k]
            # constant-size update of the orthogonalization state
            mu_old = mus[k][k - 1]
            norm_up = norms[k] + mu_old * mu_old * norms[k - 1]
            if norm_up == 0:
                return None
            mus[k][k - 1] = mu_old * norms[k - 1] / norm_up
            norms[k] = norms[k - 1] * norms[k] / norm_up
            norms[k - 1] = norm_up
            for j in range(k - 1):
                mus[k][j], mus[k - 1][j] = mus[k - 1][j], mus[k][j]
            for i in range(k + 1, n):
                t = mus[i][k]
                mus[i][k] = mus[i][k - 1] - mu_old * t
                mus[i][k - 1] = t + mus[k][k - 1] * mus[i][k]
            k = max(k - 1, 1)
    u = tuple(tuple(u_cols[m][j] for m in range(n)) for j in range(n))
    if all(u[i][j] == (i == j) for i in range(n) for j in range(n)):
        return None
    return u


def witness_sweep(body, basis, dilate, cap=3):
    """Closed and interior coefficient sets of a dilate, swept over |k_i| <= cap.

    The blanket cross-check for the witness certificates: every triple of
    the cube is measured in exact arithmetic, with no box derivation at all.
    """
    coeff_forms = (
        Matrix.diagonal(tuple(1 / e for e in body.bounds))
        .matmul(body.forms)
        .matmul(basis)
    )
    closed = []
    interior = []
    for k in itertools.product(range(-cap, cap + 1), repeat=3):
        gauge = max(abs(x) for x in coeff_forms.matvec(k))
        if gauge <= dilate:
            closed.append(k)
            if gauge < dilate:
                interior.append(k)
    return tuple(sorted(closed)), tuple(sorted(interior))


def section3_area(x):
    """Area of the section of [-1,1]^3 orthogonal to (x, 1, 1): (4-x)sqrt(2+x^2).

    An elementary cross-check for the general formula, valid on 0 <= x <= 1.
    """
    if isinstance(x, float):
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0, 1]")
        return (4.0 - x) * math.sqrt(2.0 + x * x)
    if isinstance(x, int):
        x = Fraction(x)
    if scalar_sign(x) < 0 or scalar_sign(1 - x) < 0:
        raise ValueError("x must lie in [0, 1]")
    inner = 2 + x * x
    root = sqrt_exact(inner)
    if root is None and isinstance(inner, Fraction):
        root = sqrt_exact(Quad3(inner))
    if root is None:
        return float(4 - x) * math.sqrt(float(inner))
    return (4 - x) * root


def squared_section_volume(a, d):
    """The exact square 4^zeros |a|^2 ratio^2 of the section volume, by the full sum.

    The reference for sections: ratio = S(a) / ((n-1)! prod a_i) over the
    n nonzero |a_i| read as Fractions (a float is the dyadic rational it
    stores), with S summed over all 2^n sign patterns in Fraction arithmetic.
    """
    parts = [abs(Fraction(x)) for x in a if x]
    n = len(parts)
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=n):
        s = sum(sg * x for sg, x in zip(signs, parts))
        if s > 0:
            total += (-1) ** signs.count(-1) * s ** (n - 1)
    ratio = total / (math.factorial(n - 1) * math.prod(parts))
    return 4 ** (d - n) * sum(x * x for x in parts) * ratio * ratio


def section_root(square, a):
    """The exact root of a square where it lies in Q(sqrt3) and a holds no float, else math.sqrt."""
    root = None if any(isinstance(x, float) for x in a) else exact_nth_root(square, 2)
    return math.sqrt(square) if root is None else root


def monte_carlo_section_volume(a, d, *, samples=1_000_000, seed=0, half_width=1e-3):
    """Slab estimate of the central section volume and its standard error.

    Counts uniform cube samples within distance half_width of the hyperplane
    orthogonal to a; deterministic for a given seed.
    """
    if len(a) != d:
        raise ValueError("direction length must equal the dimension")
    unit = np.array([float(x) for x in a])
    unit /= math.sqrt(float(np.dot(unit, unit)))
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 262_144)
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        hits += int(np.count_nonzero(np.abs(x @ unit) <= half_width))
        remaining -= n
    p = hits / samples
    scale = 2.0**d / (2.0 * half_width)
    estimate = p * scale
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / samples) * scale
    return estimate, sigma


def tau_vertex(tau: Sequence):
    """The distinguished corner (prod tau)^{-1} (tau_1, ..., tau_d)."""
    if any(scalar_sign(t) <= 0 for t in tau):
        raise ValueError("all weights must be positive")
    prod = tau[0]
    for t in tau[1:]:
        prod = prod * t
    return tuple(t / prod for t in tau)


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


# ---------------------------------------------------------------------------
# paper constructions that only the tests check; the library does not need them

SQRT3 = Quad3(0, 1)


def cofactor(m: Matrix) -> Matrix:
    """M' with M (M')^T = (det M) I; equals (det M)(M^T)^{-1} when invertible."""
    det = m.det()
    if scalar_sign(det) != 0:
        return m.inverse().transpose().scale(det)
    return _cofactor_minors(m)


def _cofactor_minors(m: Matrix) -> Matrix:
    d = m.dim
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            minor = [
                [m.rows[r][c] for c in range(d) if c != j]
                for r in range(d)
                if r != i
            ]
            sub = Matrix(minor).det()
            row.append(sub if (i + j) % 2 == 0 else -sub)
        out.append(row)
    return Matrix(out)


def covolume(lat: Lattice):
    return abs(lat.basis.det())


def dual_lattice(lat: Lattice) -> Lattice:
    """Basis of the dual: inverse transpose, so <b_i, b*_j> = delta_ij."""
    return Lattice(lat.basis.inverse().transpose())


def axis_box(eta: Sequence) -> Parallelepiped:
    kind = "float" if any(isinstance(e, float) for e in eta) else (
        "quad3" if any(isinstance(e, Quad3) for e in eta) else "rational"
    )
    return Parallelepiped(Matrix.identity(len(eta), kind=kind), tuple(eta))


def contains(piped: Parallelepiped, x: Sequence, dilate=1) -> bool:
    return piped.gauge(x) <= dilate


def contains_interior(piped: Parallelepiped, x: Sequence, dilate=1) -> bool:
    return piped.gauge(x) < dilate


def apply_linear(piped: Parallelepiped, t: Matrix) -> Parallelepiped:
    """The image T(Pi): forms become H T^{-1}, bounds stay."""
    return Parallelepiped(piped.forms.matmul(t.inverse()), piped.bounds)


def khintchine_pair(theta: Sequence):
    """Dual form matrices (F, G) of the two classical approximation problems.

    Row i of F is x_i - theta_i x_{n+1} (last row x_{n+1}); row i of G is x_i
    (last row theta.x + x_{n+1}). Always F^T G = I, exactly.
    """
    n = len(theta)
    if n < 1:
        raise ValueError("need at least one coefficient")
    is_float = any(isinstance(t, float) for t in theta)
    one = 1.0 if is_float else Fraction(1)
    zero = 0.0 if is_float else Fraction(0)
    f_rows = []
    g_rows = []
    for i in range(n):
        f_row = [zero] * (n + 1)
        f_row[i] = one
        f_row[n] = -theta[i] if is_float else -Fraction(theta[i]) if isinstance(theta[i], int) else -theta[i]
        f_rows.append(f_row)
        g_row = [zero] * (n + 1)
        g_row[i] = one
        g_rows.append(g_row)
    f_rows.append([zero] * n + [one])
    g_rows.append(list(theta) + [one])
    return Matrix(f_rows), Matrix(g_rows)


def mahler_dual_box(lam: Sequence, det):
    """Mahler's dual bounds: lam_bar = (|D| prod lam)^{1/(d-1)}, (d-1)lam_bar/lam_i.

    Exact inputs stay exact when the root does; otherwise floats are returned.
    """
    d = len(lam)
    if d < 2:
        raise ValueError("need at least two bounds")
    if scalar_sign(det) == 0:
        raise ValueError("determinant must be nonzero")
    if any(scalar_sign(x) <= 0 for x in lam):
        raise ValueError("all bounds must be positive")
    prod = abs(det)
    for x in lam:
        prod = prod * x
    if isinstance(prod, float):
        lam_bar = prod ** (1.0 / (d - 1))
    else:
        lam_bar = exact_nth_root(prod, d - 1)
        if lam_bar is None:
            lam_bar = float(prod) ** (1.0 / (d - 1))
    if isinstance(lam_bar, float):
        return lam_bar, tuple((d - 1) * lam_bar / float(x) for x in lam)
    return lam_bar, tuple((d - 1) * lam_bar / x for x in lam)


def hyperbolic_map(piped: Parallelepiped, tau: Sequence) -> Matrix:
    """The shift A^{-1} diag(tau) A in the parallelepiped's eigenbasis A = diag(1/eta)H."""
    d = piped.dimension
    if len(tau) != d:
        raise ValueError("tau length must equal the dimension")
    a = Matrix.diagonal(tuple(1 / e for e in piped.bounds)).matmul(piped.forms)
    return a.inverse().matmul(Matrix.diagonal(tuple(tau))).matmul(a)


def float_leq(a: float, b: float) -> bool:
    """a <= b within the claim engine's relative slack, compared in floats."""
    return a <= b + REL_SLACK * max(1.0, abs(a), abs(b))


def on_surface(tau: Sequence, mode: str = "plain") -> bool:
    """Whether sum tau^2 = v^2 prod tau^2 (v = 1, or v_tau when sharp), exactly or within REL_SLACK."""
    if mode not in ("plain", "sharp"):
        raise ValueError("mode must be plain or sharp")
    if any(scalar_sign(t) <= 0 for t in tau):
        return False
    if any(isinstance(t, float) for t in tau):
        tau = tuple(float(t) for t in tau)
        v2 = 1.0 if mode == "plain" else float(v_tau_squared(tau))
    else:
        tau = [Fraction(t) if isinstance(t, int) else t for t in tau]
        v2 = 1 if mode == "plain" else v_tau_squared(tau)
    sum_sq = sum(t * t for t in tau)
    target = v2 * math.prod(tau) ** 2
    if isinstance(target, float):
        return float_leq(sum_sq, target) and float_leq(target, sum_sq)
    return sum_sq == target


def t2_root(t1: float, d: int) -> float:
    """Positive root t of t1^2 t^{2(d-1)} = t1^2 + (d-1)t^2; decreasing in t1."""
    if d < 3:
        raise ValueError("the root equation degenerates below dimension 3")
    t1 = float(t1)
    if t1 < 1.0:
        raise ValueError("t1 must be at least 1")
    t1_sq = t1 * t1
    # at t1 = 1 the root sits exactly on c_d^2; inflate the bracket end so
    # float rounding cannot lose the sign change
    hi = c_d(d) ** 2 * (1 + 1e-9)
    root = monotone_root(
        lambda s: t1_sq * s ** (d - 1) - (d - 1) * s - t1_sq, 1.0, hi
    )
    return math.sqrt(root)
