"""Independent output checks: the benchmark's own oracles, not the program's.

Each check returns a list of problems (empty when the output is right), so
the benchmark's tests can feed it a deliberately wrong value and see it
rejected. Exact inputs are compared exactly; floats within a stated relative
tolerance.
"""
from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np

FLOAT_REL = 1e-9
SQRT2 = math.sqrt(2.0)

# brute force is only attempted on boxes up to this many cells
BRUTE_CELL_CAP = 1 << 22
_CHUNK = 1 << 17


def close(a: float, b: float, rel: float = FLOAT_REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- exact linear algebra ---------------------------------------------------


def exact_inverse(rows) -> list:
    """Gauss-Jordan inverse over Fractions."""
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def exact_det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    d = len(m)
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, d):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


# -- geometry of numbers ------------------------------------------------------


def gauge_rows(forms_rows, bounds) -> list:
    """Rows of diag(1/eta) H: the gauge of k in Z^d is the sup norm of rows @ k."""
    return [[x / e for x in row] for row, e in zip(forms_rows, bounds)]


def body_volume(forms_rows, bounds, exact: bool):
    """2^d prod(eta) / |det H|."""
    d = len(bounds)
    prod = Fraction(1) if exact else 1.0
    for e in bounds:
        prod = prod * (Fraction(e) if exact else float(e))
    if exact:
        return 2**d * prod / abs(exact_det(forms_rows))
    det = float(np.linalg.det(np.array(forms_rows, dtype=float)))
    return 2.0**d * prod / abs(det)


def brute_box(c_rows, radius, exact: bool) -> list:
    """|k_j| <= radius * l1(row j of C^{-1}) holds for every k with gauge <= radius."""
    if exact:
        inv = exact_inverse(c_rows)
        return [math.floor(radius * sum(abs(x) for x in row)) for row in inv]
    inv = np.linalg.inv(np.array(c_rows, dtype=float))
    return [math.floor(float(radius) * float(np.abs(row).sum()) * (1 + 1e-7) + 1e-9)
            for row in inv]


def box_cells(box) -> int:
    cells = 1
    for b in box:
        cells *= 2 * b + 1
    return cells


def brute_first_minimum(c_rows, radius, exact: bool):
    """Smallest gauge of a nonzero integer k inside the box of `radius`.

    Every k is visited: exact rows in Fractions, float rows with numpy in
    chunks. Returns None when no nonzero point has gauge <= radius.
    """
    box = brute_box(c_rows, radius, exact)
    if exact:
        best = None
        for k in itertools.product(*(range(-b, b + 1) for b in box)):
            if not any(k):
                continue
            g = max(abs(sum(c * x for c, x in zip(row, k))) for row in c_rows)
            if g <= radius and (best is None or g < best):
                best = g
        return best
    c = np.array(c_rows, dtype=float)
    shape = tuple(2 * b + 1 for b in box)
    offset = np.array(box, dtype=np.int64)
    cells = box_cells(box)
    best = math.inf
    for start in range(0, cells, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, cells), dtype=np.int64)
        k = np.stack(np.unravel_index(idx, shape), axis=1).astype(np.int64) - offset
        g = np.abs(k @ c.T).max(axis=1)
        g[~k.any(axis=1)] = math.inf
        best = min(best, float(g.min()))
    if best > float(radius) * (1 + FLOAT_REL):
        return None
    return best


def first_minimum_problems(label: str, reported, brute, exact: bool) -> list:
    if brute is None:
        return [f"{label}: brute force found no point at the reported first minimum {reported}"]
    if exact:
        ok = reported == brute
    else:
        ok = close(float(reported), float(brute))
    if not ok:
        return [f"{label}: first minimum {reported} but brute force gives {brute}"]
    return []


def minkowski_problems(label: str, values, volume, exact: bool) -> list:
    """Minkowski's second theorem for Z^d: 2^d/d! <= vol * prod(mu) <= 2^d."""
    d = len(values)
    product = Fraction(1) if exact else 1.0
    for v in values:
        product = product * v
    product = product * volume
    lower = Fraction(2**d, math.factorial(d))
    upper = Fraction(2**d)
    if exact:
        ok = lower <= product <= upper
    else:
        p = float(product)
        ok = float(lower) * (1 - FLOAT_REL) <= p <= float(upper) * (1 + FLOAT_REL)
    if not ok:
        return [f"{label}: vol * prod(mu) = {float(product)!r} outside "
                f"[{float(lower)!r}, {float(upper)!r}]"]
    return []


# -- verify suite ---------------------------------------------------------------


def report_problems(payload: dict, trials: int) -> list:
    """Aggregated verify report: every claim counted once per trial, no violation."""
    problems = []
    for row in payload["claims"]:
        if row["instances"] != trials:
            problems.append(f"claim {row['claim']}: {row['instances']} instances, expected {trials}")
        if row["passes"] + row["skips"] + row["violations"] != row["instances"]:
            problems.append(f"claim {row['claim']}: counts do not add up")
        if row["violations"]:
            problems.append(f"claim {row['claim']}: {row['violations']} violations")
    return problems


# -- sharpness witness ------------------------------------------------------------

# squares of the construction's exact minima 2/sqrt3, 1, 5/4, 1, 1 (paper)
WITNESS_SQUARES = (Fraction(4, 3), Fraction(1), Fraction(25, 16), Fraction(1), Fraction(1))


def witness_problems(label: str, values) -> list:
    """Each value is positive and its square is the paper's exact square."""
    if len(values) != len(WITNESS_SQUARES):
        return [f"{label}: {len(values)} minima, expected {len(WITNESS_SQUARES)}"]
    problems = []
    for i, (value, square) in enumerate(zip(values, WITNESS_SQUARES)):
        if isinstance(value, float) or not (value > 0 and value * value == square):
            problems.append(f"{label}: minimum {i + 1} is {value}, expected sqrt({square})")
    return problems


# -- cube sections -----------------------------------------------------------------


def _poly_shift(p: list, c: Fraction) -> list:
    """Coefficients of p(x + c)."""
    q = [Fraction(0)] * len(p)
    for k, a in enumerate(p):
        if a:
            for j in range(k + 1):
                q[j] += a * comb(k, j) * c ** (k - j)
    return q


def _poly_eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _poly_integral(p: list) -> list:
    return [Fraction(0)] + [a / (k + 1) for k, a in enumerate(p)]


class _PiecewiseCdf:
    """Distribution function of a sum of uniforms, as exact polynomial pieces."""

    def __init__(self, half_width: Fraction) -> None:
        c = half_width
        self.xs = [-c, c]
        self.pieces = [[Fraction(1, 2), 1 / (2 * c)]]

    def piece_at(self, x: Fraction) -> list:
        if x <= self.xs[0]:
            return [Fraction(0)]
        if x >= self.xs[-1]:
            return [Fraction(1)]
        return self.pieces[bisect.bisect_right(self.xs, x) - 1]

    def value(self, x: Fraction) -> Fraction:
        return _poly_eval(self.piece_at(x), x)

    def add_uniform(self, c: Fraction) -> None:
        """Convolve with uniform[-c, c]: density (F(x+c) - F(x-c)) / 2c."""
        xs = sorted({x + c for x in self.xs} | {x - c for x in self.xs})
        pieces = []
        acc = Fraction(0)
        for lo, hi in zip(xs, xs[1:]):
            mid = (lo + hi) / 2
            upper = _poly_shift(self.piece_at(mid + c), c)
            lower = _poly_shift(self.piece_at(mid - c), -c)
            n = max(len(upper), len(lower))
            upper += [Fraction(0)] * (n - len(upper))
            lower += [Fraction(0)] * (n - len(lower))
            density = [(u - v) / (2 * c) for u, v in zip(upper, lower)]
            anti = _poly_integral(density)
            base = acc - _poly_eval(anti, lo)
            pieces.append([base + anti[0]] + anti[1:])
            acc += _poly_eval(anti, hi) - _poly_eval(anti, lo)
        self.xs = xs
        self.pieces = pieces


def v_tau_squared_oracle(direction) -> Fraction:
    """v_tau(a)^2 = 4 |a|^2 f(0)^2, f the density of sum a_i U_i, U_i ~ U[-1, 1].

    The density comes from convolving the uniforms one at a time in exact
    piecewise polynomials: no sign-pattern sum and no cancellation guard.
    """
    parts = [abs(Fraction(x)) for x in direction if x != 0]
    if not parts:
        raise ValueError("direction must be nonzero")
    norm2 = sum(x * x for x in parts)
    if len(parts) == 1:
        return Fraction(1)
    cdf = _PiecewiseCdf(parts[0])
    for c in parts[1:-1]:
        cdf.add_uniform(c)
    c = parts[-1]
    density0 = (cdf.value(c) - cdf.value(-c)) / (2 * c)
    return 4 * norm2 * density0 * density0


def is_exact(value) -> bool:
    return not isinstance(value, float)


def v_tau_range_problems(label: str, v) -> list:
    """Vaaler and Ball: 1 <= v_tau <= sqrt(2)."""
    if is_exact(v):
        ok = v >= 1 and v * v <= 2
    else:
        ok = 1.0 - FLOAT_REL <= v <= SQRT2 * (1 + FLOAT_REL)
    return [] if ok else [f"{label}: v_tau = {v} outside [1, sqrt2]"]


def volume_problems(label: str, volume, v, d: int) -> list:
    """The section volume is 2^(d-1) v_tau."""
    if is_exact(volume) and is_exact(v):
        ok = volume == v * 2 ** (d - 1)
    else:
        ok = close(float(volume), float(v) * 2.0 ** (d - 1), 1e-12)
    return [] if ok else [f"{label}: volume {volume} is not 2^(d-1) * v_tau {v}"]


def same_value_problems(label: str, v, w, rel: float = 1e-12) -> list:
    """Two evaluations of one value: equal when both exact, else within rel."""
    if is_exact(v) and is_exact(w):
        ok = v == w
    else:
        ok = close(float(v), float(w), rel)
    return [] if ok else [f"{label}: {v} differs from {w}"]


def oracle_problems(label: str, v, square: Fraction) -> list:
    """Compare v_tau with the convolution oracle's exact square."""
    if is_exact(v):
        ok = v > 0 and v * v == square
    else:
        ok = close(float(v), math.sqrt(square), FLOAT_REL)
    return [] if ok else [f"{label}: v_tau {v} but the convolution gives sqrt({square})"]
