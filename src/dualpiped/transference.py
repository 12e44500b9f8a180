"""Transference constants, hyperbolic shifts, and the claim-checking engine.

Claim ids are stable strings used verbatim in reports and CLI filters:
T3, T4, MK2, T5, T6, T7, FAM, FAMSHARP, WM, C12. Every claim is evaluated
against the integer lattice; a claim whose hypothesis fails is reported as
skipped, a conclusion failing beyond the float slack of `scalars` as a
violation. Exact scalar kinds decide pass/fail exactly (irrational thresholds
are compared through powers or polynomial signs); margins are always
reported as floats. C12 is decided by an identity rather than per vertex:
every vertex of the pseudo-compound has the same section-dual gauge, an
exact constant of the dimension, for every body and every scalar kind.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bodies import Parallelepiped, det_normalized, pseudo_compound
from .linalg import Matrix, monotone_root
from .minima import first_minimum, successive_minima
from .scalars import (
    Scalar,
    exact_nth_root,
    float_leq,
    float_strictly_greater,
    scalar_sign,
)
from .sections import first_minimum_section_dual, v_tau_squared

ALL_CLAIMS = ("T3", "T4", "MK2", "T5", "T6", "T7", "FAM", "FAMSHARP", "WM", "C12")

_MODES = ("plain", "sharp")


def khintchine_pair(theta: Sequence[Scalar]):
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


def mahler_dual_box(lam: Sequence[Scalar], det: Scalar):
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


def hyperbolic_map(piped: Parallelepiped, tau: Sequence[Scalar]) -> Matrix:
    """The shift A^{-1} diag(tau) A in the parallelepiped's eigenbasis A = diag(1/eta)H."""
    d = piped.dimension
    if len(tau) != d:
        raise ValueError("tau length must equal the dimension")
    a = Matrix.diagonal(tuple(1 / e for e in piped.bounds)).matmul(piped.forms)
    return a.inverse().matmul(Matrix.diagonal(tuple(tau))).matmul(a)


def apply_hyperbolic(piped: Parallelepiped, tau: Sequence[Scalar]) -> Parallelepiped:
    """The image of the body under its hyperbolic shift: bounds scale to tau*eta."""
    d = piped.dimension
    if len(tau) != d:
        raise ValueError("tau length must equal the dimension")
    return Parallelepiped(piped.forms, tuple(t * e for t, e in zip(tau, piped.bounds)))


def _exactify(tau):
    return [Fraction(t) if isinstance(t, int) else t for t in tau]


def _surface_terms(tau, mode: str) -> tuple:
    """sum tau^2, prod tau^2 and v^2 (v = 1, or v_tau when sharp); floats if tau has one."""
    if any(isinstance(t, float) for t in tau):
        tau = tuple(float(t) for t in tau)
        v2 = 1.0 if mode == "plain" else float(v_tau_squared(tau))
    else:
        tau = _exactify(tau)
        v2 = 1 if mode == "plain" else v_tau_squared(tau)
    return sum(t * t for t in tau), math.prod(tau) ** 2, v2


def _family_ratio(raw, value, v2, power: int) -> tuple:
    """Ints num, den > 0 with num / den = value^power v2 prod raw^2 / sum raw^2, exactly.

    value, v2 and the entries of raw are exact or floats, each read as the
    rational it stores; int / int of the pair is that ratio rounded once.
    """
    ratios = [t.as_integer_ratio() for t in raw]
    lcm = math.lcm(*(q for _, q in ratios))
    vn, vd = value.as_integer_ratio()
    wn, wd = v2.as_integer_ratio()
    num = vn**power * wn * (math.prod(p for p, _ in ratios) * lcm) ** 2
    sum_sq = sum((p * (lcm // q)) ** 2 for p, q in ratios)
    den = vd**power * wd * math.prod(q for _, q in ratios) ** 2 * sum_sq
    return num, den


def normalize_tau(tau: Sequence[Scalar], mode: str = "plain"):
    """Scale tau onto its surface: sum tau^2 = v^2 prod tau^2, v = 1 or v_tau.

    The scale is (sum/(v^2 prod))^{1/(2(d-1))}, formed on the exact values
    (a float is the dyadic rational it stores, so prod tau^2 cannot
    underflow); exact kinds stay exact when that root stays in the field
    and otherwise fall back to floats, as float input does.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    d = len(tau)
    if d < 2:
        raise ValueError("need at least two weights")
    if any(scalar_sign(t) <= 0 for t in tau):
        raise ValueError("all weights must be positive")
    exact = [Fraction(t) if isinstance(t, (int, float)) else t for t in tau]
    sum_sq, prod_sq, v2 = _surface_terms(exact, mode)
    ratio = sum_sq / (v2 * prod_sq)
    n = 2 * (d - 1)
    lam = None if any(isinstance(t, float) for t in tau) else exact_nth_root(ratio, n)
    if lam is None:
        # ratio = y 2^(n e) with y near 1: only y is rounded, and nothing overflows
        e = 0
        if isinstance(ratio, Fraction):
            e = (ratio.numerator.bit_length() - ratio.denominator.bit_length()) // n
        lam = math.ldexp(float(ratio / Fraction(2) ** (n * e)) ** (1.0 / n), e)
        return tuple(lam * float(t) for t in tau)
    return tuple(lam * t for t in exact)


def on_surface(tau: Sequence[Scalar], mode: str = "plain") -> bool:
    """Whether tau satisfies its surface identity, exactly or within REL_SLACK."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if any(scalar_sign(t) <= 0 for t in tau):
        return False
    sum_sq, prod_sq, v2 = _surface_terms(tau, mode)
    target = v2 * prod_sq
    if isinstance(target, float):
        return float_leq(sum_sq, target) and float_leq(target, sum_sq)
    return sum_sq == target


def c_d(d: int) -> float:
    """The two-minima constant: sqrt of the root of s^{d-1} = (d-1)s + 1 on (1, oo)."""
    if d < 3:
        raise ValueError("the polynomial degenerates below dimension 3")
    lo = d ** (1.0 / (d - 1))
    hi = d ** (1.0 / (d - 2))
    root = monotone_root(lambda s: s ** (d - 1) - (d - 1) * s - 1, lo, hi)
    return math.sqrt(root)


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


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one claim on one instance.

    Margin is the smallest (bound - attained) across subchecks, as a float;
    status is "pass", "violation", or "skip" (hypothesis unmet or claim not
    evaluatable), never silent.
    """

    claim: str
    status: str
    hypothesis: bool | None
    conclusion: bool | None
    margin: float | None
    detail: str = ""
    witnesses: tuple = ()


def sample_directions(rng: random.Random, d: int, count: int):
    """Positive-orthant direction samples used for the family claims."""
    out = []
    for _ in range(count):
        out.append(tuple(max(abs(rng.gauss(0.0, 1.0)), 1e-6) for _ in range(d)))
    return out


def check_claims(
    piped: Parallelepiped,
    claims: Sequence[str] | None = None,
    *,
    directions: Sequence[Sequence[float]],
) -> list:
    """Evaluate the requested claims on one parallelepiped against Z^d.

    The body is det-normalized first (same body, unit form determinant), so
    the pseudo-compound and its volume identities apply directly. Exact
    scalar kinds are judged exactly; floats within scalars.REL_SLACK. The
    family claims FAM and FAMSHARP run over the positive `directions`.

    FAM and FAMSHARP never normalize tau. The first minimum is homogeneous,
    so on the surface tau = lam raw it is mu_1(raw shift) / lam, with
    lam^(2(d-1)) = sum raw^2 / (v^2 prod raw^2). One search per direction
    serves both claims. It starts from the reduced basis of the body's own
    profile search, whose gauge rows the shift only scales, so the body's
    rows are reduced once per trial. Each claim is decided as
    mu_1^(2(d-1)) v^2 prod raw^2 <= sum raw^2 on the dyadic directions, as
    one comparison of two Python ints for exact kinds and their quotient,
    rounded once, within the slack for floats.
    """
    requested = tuple(claims) if claims is not None else ALL_CLAIMS
    unknown = [c for c in requested if c not in ALL_CLAIMS]
    if unknown:
        raise ValueError(f"unknown claim ids: {unknown}")
    d = piped.dimension
    if not 2 <= d <= 8:
        raise ValueError("claim checking supports dimensions 2 through 8")
    directions = tuple(tuple(map(float, raw)) for raw in directions)
    if any(len(raw) != d or not all(0 < t < math.inf for t in raw) for raw in directions):
        raise ValueError("every supplied direction needs d finite positive entries")

    body = det_normalized(piped)
    star = pseudo_compound(body)
    is_float = body.kind == "float"
    profile = successive_minima(body)
    profile_star = successive_minima(star)
    mu = profile.values
    mu_star = profile_star.values
    vol = body.volume()
    vol_star = star.volume()

    def leq(a, b) -> bool:
        if is_float:
            return float_leq(float(a), float(b))
        return a <= b

    def strictly_greater(a, b) -> bool:
        if is_float:
            return float_strictly_greater(float(a), float(b))
        return a > b

    def finish(cid, hypothesis, checks, detail="", witnesses=()):
        # checks: (bound, attained, ok) triples; margin = min bound - attained
        if not hypothesis:
            return ClaimReport(cid, "skip", False, None, None,
                               detail or "hypothesis not satisfied", witnesses)
        margin = min((b - a for b, a, _ in checks), default=None)
        ok = all(ok_ for _, _, ok_ in checks)
        return ClaimReport(cid, "pass" if ok else "violation", True, ok,
                           margin, detail, witnesses)

    def claim_t3():
        hyp = leq(mu_star[0], 1)
        checks = [(float(d - 1), float(mu[0]), leq(mu[0], d - 1))]
        return finish("T3", hyp, checks, witnesses=(profile.witnesses[0],))

    def claim_t4():
        lower = Fraction(2**d, d) / vol
        upper = Fraction(2**d) * math.factorial(d) / vol
        checks = []
        for k in range(1, d + 1):
            product = mu_star[k - 1] * mu[d - k]
            checks.append((float(product), float(lower), leq(lower, product)))
            checks.append((float(upper), float(product), leq(product, upper)))
        return finish("T4", True, checks, detail=f"k = 1..{d} pairings")

    def claim_mk2():
        checks = []
        for which, prof, volume in (("body", mu, vol), ("compound", mu_star, vol_star)):
            product = prof[0]
            for value in prof[1:]:
                product = product * value
            lower = Fraction(2**d, math.factorial(d)) / volume
            upper = Fraction(2**d) / volume
            checks.append((float(product), float(lower), leq(lower, product)))
            checks.append((float(upper), float(product), leq(product, upper)))
        return finish("MK2", True, checks, detail="minima products, body and compound")

    def _power_claim(cid, exponent_of):
        hyp = leq(mu_star[0], 1) and leq(1, mu[0])
        checks = []
        for k in range(1, d):
            exponent = exponent_of(k)
            bound = d ** (1.0 / exponent)
            if is_float:
                ok = float_leq(float(mu[k - 1]), bound)
            else:
                ok = mu[k - 1] ** exponent <= d
            checks.append((bound, float(mu[k - 1]), ok))
        return finish(cid, hyp, checks)

    def claim_t5():
        return _power_claim("T5", lambda k: d - k)

    def claim_t6():
        return _power_claim("T6", lambda k: 2 * (d - k))

    def claim_t7():
        if d < 3:
            return ClaimReport("T7", "skip", None, None, None,
                               "the two-minima constant c_d needs dimension 3 or more", ())
        hyp = leq(mu_star[0], 1) and strictly_greater(mu[0], 1)
        bound = c_d(d)
        if is_float:
            ok = float_leq(float(mu[1]), bound)
        else:
            s = mu[1] * mu[1]
            ok = s <= 1 or scalar_sign(s ** (d - 1) - (d - 1) * s - 1) <= 0
        return finish("T7", hyp, [(bound, float(mu[1]), ok)],
                      witnesses=(profile.witnesses[1],))

    @functools.cache
    def family_minima():
        # the raw shifts, in the body's own kind, serve FAM and FAMSHARP; a
        # shift scales the body's gauge rows, so each search starts from the
        # basis that the body's profile search reduced to
        exact = [tuple(map(Fraction, raw)) for raw in directions]
        shifts = directions if is_float else exact
        values = [first_minimum(apply_hyperbolic(body, raw), start=profile.basis)[0]
                  for raw in shifts]
        return list(zip(exact, values))

    def _family(cid, mode):
        power = 2 * (d - 1)
        checks = []
        witnesses = []
        for raw, value in family_minima():
            v2 = 1 if mode == "plain" else v_tau_squared(raw)
            # mu_1 of the shift on the surface, to the power 2(d-1), is num / den
            num, den = _family_ratio(raw, value, v2, power)
            ok = float_leq(num / den, 1.0) if is_float else num <= den
            checks.append((1.0, (num / den) ** (1 / power), ok))
            if not ok:
                witnesses.append(raw)
        detail = f"{len(directions)} sampled surface directions"
        return finish(cid, True, checks, detail=detail, witnesses=tuple(witnesses))

    def claim_fam():
        return _family("FAM", "plain")

    def claim_famsharp():
        return _family("FAMSHARP", "sharp")

    def claim_wm():
        if d > 6:
            return ClaimReport("WM", "skip", None, None, None,
                               "section-dual enumeration supports dimensions 2 through 6", ())
        wedge_min = first_minimum_section_dual(body)
        hyp = leq(wedge_min, 1)
        product = Fraction(1)
        for value in mu[: d - 1]:
            product = product * value
        return finish("WM", hyp, [(1.0, float(product), leq(product, 1))])

    def claim_c12():
        # every pseudo-compound vertex H^T diag(eta*) sigma pulls back to
        # w = +-sigma, so all share the cube's section-dual gauge g_d at
        # (1, ..., 1), and g_d^2 = d / v_tau(1, ..., 1)^2 <= d is Vaaler's
        # bound (test_sections checks the identity on random bodies)
        square = d / v_tau_squared((1,) * d)
        gauge = exact_nth_root(square, 2)
        return finish("C12", True, [(math.sqrt(d), float(gauge), square <= d)],
                      detail="every pseudo-compound vertex, by its pullback identity")

    evaluators = {
        "T3": claim_t3,
        "T4": claim_t4,
        "MK2": claim_mk2,
        "T5": claim_t5,
        "T6": claim_t6,
        "T7": claim_t7,
        "FAM": claim_fam,
        "FAMSHARP": claim_famsharp,
        "WM": claim_wm,
        "C12": claim_c12,
    }
    return [evaluators[cid]() for cid in requested]
