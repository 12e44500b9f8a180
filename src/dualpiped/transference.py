"""The two-minima constant, the surface scaling, and the claim-checking engine.

Claim ids are stable strings used verbatim in reports and CLI filters:
T3, T4, MK2, T5, T6, T7, FAM, FAMSHARP, WM, C12. Each names a module-level
function in one table, `_EVALUATORS`, and every function reads one `_Trial`:
the body as given, its pseudo-compound (one per body, whose gauge rows are
also WM's section-dual rows), both minima profiles, both volumes and the
family minima are derived there on first use, so a claim filter pays only
for what its claims read. Every claim is evaluated
against the integer lattice; a claim whose hypothesis fails is reported as
skipped, a conclusion failing as a violation. Each hypothesis and
conclusion is one comparison `_Trial.leq` of exact expressions (irrational
thresholds through powers or polynomials), exact but for the float slack
`REL_SLACK`; margins are always reported as floats. C12 is decided by an
identity rather than per vertex: every vertex of the pseudo-compound has
the same section-dual gauge, an exact constant of the dimension, for every
body and every scalar kind.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .bodies import Parallelepiped, pseudo_compound
from .linalg import Matrix, eliminate, monotone_root
from .minima import first_minima_in_basis, first_minimum, gauge_rows, successive_minima
from .scalars import Scalar, exact_nth_root, exact_scalar, float_nth_root, scalar_sign
from .sections import first_minimum_section_dual, v_tau_squared

_MODES = ("plain", "sharp")

# The one float tolerance policy: a claim comparison on a float body also
# passes when a - b <= REL_SLACK max(1, |a|, |b|), measured exactly, so no
# comparison overflows. Only `_Trial.leq` reads it.
REL_SLACK = 1e-9


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


def _family_margin_root(num: int, den: int, power: int) -> float:
    """(num / den)^(1 / power) in floats, or the root of the exact ratio where num / den overflows."""
    try:
        return (num / den) ** (1 / power)
    except OverflowError:
        return float_nth_root(Fraction(num, den), power)


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
    exact = [exact_scalar(t) for t in tau]
    v2 = 1 if mode == "plain" else v_tau_squared(exact)
    ratio = sum(t * t for t in exact) / (v2 * math.prod(exact) ** 2)
    n = 2 * (d - 1)
    lam = None if any(isinstance(t, float) for t in tau) else exact_nth_root(ratio, n)
    if lam is None:
        lam = float_nth_root(ratio, n)
        return tuple(lam * float(t) for t in tau)
    return tuple(lam * t for t in exact)


# the float bracket of c_d changes sign for every d from 3 to here, checked one
# by one; it first fails at d = 491,513, where the rounding of s^(d-1) outgrows hi - 1
CD_MAX_DIM = 100_000


def c_d(d: int) -> float:
    """The two-minima constant: sqrt of the root of s^{d-1} = (d-1)s + 1 on (1, oo)."""
    if not 3 <= d <= CD_MAX_DIM:
        raise ValueError(f"c_d supports dimensions 3 through {CD_MAX_DIM}, got {d}")
    lo = d ** (1.0 / (d - 1))
    hi = d ** (1.0 / (d - 2))
    root = monotone_root(lambda s: s ** (d - 1) - (d - 1) * s - 1, lo, hi)
    return math.sqrt(root)


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one claim on one instance.

    Margin is the smallest (bound - attained) across subchecks, as a float;
    status is "pass", "violation", or "skip" (hypothesis unmet or claim not
    evaluatable), never silent. slack_pass marks a pass that some comparison
    made only inside REL_SLACK.
    """

    claim: str
    status: str
    hypothesis: bool | None
    conclusion: bool | None
    margin: float | None
    detail: str = ""
    witnesses: tuple = ()
    slack_pass: bool = False


class Direction(tuple):
    """A positive direction of the family claims that keeps its exact v_tau^2.

    FAMSHARP reads the square, and math.sqrt of it is v_tau rounded once, bit
    for bit what `sections.v_tau` returns; the harness's v_tau range reads
    the same square, so a direction's section ratio is summed once.
    """

    @cached_property
    def v_squared(self) -> Fraction:
        return v_tau_squared(self)


def sample_directions(rng: random.Random, d: int, count: int) -> list:
    """Positive-orthant direction samples used for the family claims."""
    return [Direction(max(abs(rng.gauss(0.0, 1.0)), 1e-6) for _ in range(d))
            for _ in range(count)]


class _Trial:
    """One body, kept as given, and the values its claims read, each derived on first use.

    The compound is the body's own (pseudo_compound), so T3-T7, MK2 and WM's
    search share one, and an exact body is judged exactly whatever its
    determinant. FAM alone makes the body's
    profile search, in whose reduced basis the shifts are searched, and no
    compound search; C12 alone makes none. The compound's profile search
    and WM's section-dual search start from the dual of that basis
    (dual_basis); every claim that reads either also reads the body's
    profile, so no claim filter makes a search for the start alone.
    """

    def __init__(self, piped: Parallelepiped, directions: tuple) -> None:
        self.body = piped
        self.d = piped.dimension
        self.is_float = piped.kind == "float"
        self.directions = directions
        self.slack_used = False

    def leq(self, a, b) -> bool:
        """a <= b exactly, or for a float body within REL_SLACK, noted in slack_used."""
        ok = a <= b
        if ok or not self.is_float:
            return ok
        a, b = Fraction(a), Fraction(b)
        ok = a - b <= Fraction(REL_SLACK) * max(1, abs(a), abs(b))
        self.slack_used |= ok
        return ok

    @cached_property
    def profile(self):
        return successive_minima(self.body)

    @cached_property
    def dual_basis(self) -> tuple:
        """The rows of B^-1 for the basis B of the body's profile search, its vectors as columns.

        With C the body's gauge rows, the compound's gauge rows (which WM's
        section-dual search reads too) times B^-T are (C B)^-T up to a
        scale, so the dual of the body's reduced basis starts both searches
        reduced.
        det B = +-1, so B^-1 = det B adj B, from one elimination.
        """
        det, adj = eliminate(list(zip(*self.profile.basis)), inverse=True)
        return tuple(tuple(det * x for x in row) for row in adj)

    @cached_property
    def profile_star(self):
        return successive_minima(pseudo_compound(self.body), start=self.dual_basis)

    @cached_property
    def vol(self) -> Scalar:
        return self.body.volume()

    @cached_property
    def vol_star(self) -> Scalar:
        return pseudo_compound(self.body).volume()

    @cached_property
    def family_minima(self) -> list:
        """The exact mu_1 of the body shifted by each raw direction.

        A shift by tau scales row i of the body's gauge rows by 1 / tau_i,
        so every shift is searched in the basis that the body's profile
        search reduced to. One first_minima_in_basis call decides each shift
        whose box there is small (every shift of a harness body) from one
        inverse of those rows, for a rational or a float body alike, with no
        Parallelepiped, reduction, grid or profile. Only the others are
        searched by first_minimum from that basis, on the exact body whose
        forms are the gauge rows, read exactly (a float is the dyadic
        rational it stores), and whose bounds are the direction as
        Fractions: its gauge rows are the scaled rows themselves.
        """
        start = self.profile.basis
        values = first_minima_in_basis(self.body, self.directions, start)
        if None in values:
            rows = Matrix([map(exact_scalar, row) for row in gauge_rows(self.body)])
            values = [first_minimum(Parallelepiped(rows, tuple(map(Fraction, raw))), start=start)[0]
                      if value is None else value for raw, value in zip(self.directions, values)]
        return values


def _finish(cid: str, hypothesis, checks, detail: str = "", witnesses=()) -> ClaimReport:
    """The report of (bound, attained, ok) checks; margin = min bound - attained."""
    if not hypothesis:
        return ClaimReport(cid, "skip", False, None, None,
                           detail or "hypothesis not satisfied", witnesses)
    margin = min((b - a for b, a, _ in checks), default=None)
    ok = all(ok_ for _, _, ok_ in checks)
    return ClaimReport(cid, "pass" if ok else "violation", True, ok, margin, detail, witnesses)


def _between(t: _Trial, lower, value, upper) -> list:
    """The checks lower <= value and value <= upper."""
    return [(float(value), float(lower), t.leq(lower, value)),
            (float(upper), float(value), t.leq(value, upper))]


def _claim_t3(t: _Trial) -> ClaimReport:
    mu = t.profile.values
    checks = [(float(t.d - 1), float(mu[0]), t.leq(mu[0], t.d - 1))]
    return _finish("T3", t.leq(t.profile_star.values[0], 1), checks,
                   witnesses=(t.profile.witnesses[0],))


def _claim_t4(t: _Trial) -> ClaimReport:
    d, mu, mu_star = t.d, t.profile.values, t.profile_star.values
    lower = Fraction(2**d, d) / t.vol
    upper = Fraction(2**d) * math.factorial(d) / t.vol
    checks = []
    for k in range(1, d + 1):
        checks += _between(t, lower, mu_star[k - 1] * mu[d - k], upper)
    return _finish("T4", True, checks, detail=f"k = 1..{d} pairings")


def _claim_mk2(t: _Trial) -> ClaimReport:
    d = t.d
    checks = []
    for profile, volume in ((t.profile, t.vol), (t.profile_star, t.vol_star)):
        lower = Fraction(2**d, math.factorial(d)) / volume
        checks += _between(t, lower, math.prod(profile.values), Fraction(2**d) / volume)
    return _finish("MK2", True, checks, detail="minima products, body and compound")


def _power_claim(t: _Trial, cid: str, factor: int) -> ClaimReport:
    """mu_k^(factor (d - k)) <= d for k < d, under mu*_1 <= 1 <= mu_1."""
    d, mu = t.d, t.profile.values
    hypothesis = t.leq(t.profile_star.values[0], 1) and t.leq(1, mu[0])
    checks = []
    for k in range(1, d):
        exponent = factor * (d - k)
        ok = t.leq(exact_scalar(mu[k - 1]) ** exponent, d)
        checks.append((d ** (1.0 / exponent), float(mu[k - 1]), ok))
    return _finish(cid, hypothesis, checks)


def _claim_t5(t: _Trial) -> ClaimReport:
    return _power_claim(t, "T5", 1)


def _claim_t6(t: _Trial) -> ClaimReport:
    return _power_claim(t, "T6", 2)


def _claim_t7(t: _Trial) -> ClaimReport:
    d = t.d
    if d < 3:
        return ClaimReport("T7", "skip", None, None, None,
                           "the two-minima constant c_d needs dimension 3 or more", ())
    mu = t.profile.values
    hypothesis = t.leq(t.profile_star.values[0], 1) and not t.leq(mu[0], 1)
    # mu_2 <= c_d: s^(d-1) - (d-1) s - 1 is negative on (0, c_d^2), positive beyond
    s = exact_scalar(mu[1]) ** 2
    ok = t.leq(s ** (d - 1), (d - 1) * s + 1)
    return _finish("T7", hypothesis, [(c_d(d), float(mu[1]), ok)],
                   witnesses=(t.profile.witnesses[1],))


def _family(t: _Trial, cid: str, sharp: bool) -> ClaimReport:
    """mu_1 of the shift on the surface tau = lam raw is at most 1, for each direction.

    The first minimum is homogeneous, so it is mu_1(raw shift) / lam with
    lam^(2(d-1)) = sum raw^2 / (v^2 prod raw^2); the claim is decided as
    mu_1^(2(d-1)) v^2 prod raw^2 <= sum raw^2 on the dyadic direction.
    """
    if not t.directions:
        return ClaimReport(cid, "skip", None, None, None, "no direction was given", ())
    power = 2 * (t.d - 1)
    checks = []
    witnesses = []
    for raw, value in zip(t.directions, t.family_minima):
        num, den = _family_ratio(raw, value, raw.v_squared if sharp else 1, power)
        # within the slack, num <= den is the test of num / den <= 1, as
        # max(num, den) = den max(num / den, 1), and skips a gcd of big ints
        ok = t.leq(num, den)
        checks.append((1.0, _family_margin_root(num, den, power), ok))
        if not ok:
            witnesses.append(raw)
    detail = f"{len(t.directions)} sampled surface directions"
    return _finish(cid, True, checks, detail=detail, witnesses=tuple(witnesses))


def _claim_fam(t: _Trial) -> ClaimReport:
    return _family(t, "FAM", False)


def _claim_famsharp(t: _Trial) -> ClaimReport:
    return _family(t, "FAMSHARP", True)


def _claim_wm(t: _Trial) -> ClaimReport:
    d = t.d
    if d > 6:
        return ClaimReport("WM", "skip", None, None, None,
                           "section-dual enumeration supports dimensions 2 through 6", ())
    hypothesis = t.leq(first_minimum_section_dual(t.body, start=t.dual_basis), 1)
    product = math.prod(t.profile.values[: d - 1])
    return _finish("WM", hypothesis, [(1.0, float(product), t.leq(product, 1))])


def _claim_c12(t: _Trial) -> ClaimReport:
    # every pseudo-compound vertex H^T diag(eta*) sigma of every body pulls
    # back to w = +-sigma, so all share the cube's section-dual gauge g_d at
    # (1, ..., 1), and g_d^2 = d / v_tau(1, ..., 1)^2 <= d is Vaaler's
    # bound (test_sections checks the identity on random bodies)
    d = t.d
    square = d / v_tau_squared((1,) * d)
    gauge = exact_nth_root(square, 2)
    return _finish("C12", True, [(math.sqrt(d), float(gauge), square <= d)],
                   detail="every pseudo-compound vertex, by its pullback identity")


_EVALUATORS = {
    "T3": _claim_t3,
    "T4": _claim_t4,
    "MK2": _claim_mk2,
    "T5": _claim_t5,
    "T6": _claim_t6,
    "T7": _claim_t7,
    "FAM": _claim_fam,
    "FAMSHARP": _claim_famsharp,
    "WM": _claim_wm,
    "C12": _claim_c12,
}

ALL_CLAIMS = tuple(_EVALUATORS)


def check_claims(
    piped: Parallelepiped,
    claims: Sequence[str] | None = None,
    *,
    directions: Sequence[Sequence[float]],
) -> list:
    """Evaluate the requested claims on one parallelepiped against Z^d.

    The body is kept as given, and its pseudo-compound takes no root of
    its determinant, so every exact body is judged exactly, whatever its
    determinant; floats within REL_SLACK, and a pass
    that needed the slack is marked `slack_pass`. The
    family claims FAM and FAMSHARP run over the positive `directions`, one
    shifted minimum per direction for both, and are skipped when none is
    given. Each shifted minimum is exact for every kind: the shift scales
    the body's own gauge rows, read exactly, so no shifted float bound is
    formed and none can leave the float range. A plain sequence is read
    as a `Direction` of floats.
    """
    requested = tuple(claims) if claims is not None else ALL_CLAIMS
    unknown = [c for c in requested if c not in _EVALUATORS]
    if unknown:
        raise ValueError(f"unknown claim ids: {unknown}")
    d = piped.dimension
    if not 2 <= d <= 8:
        raise ValueError("claim checking supports dimensions 2 through 8")
    directions = tuple(raw if isinstance(raw, Direction) else Direction(map(float, raw))
                       for raw in directions)
    if any(len(raw) != d or not all(0 < t < math.inf for t in raw) for raw in directions):
        raise ValueError("every supplied direction needs d finite positive entries")
    trial = _Trial(piped, directions)
    reports = []
    for cid in requested:
        trial.slack_used = False
        report = _EVALUATORS[cid](trial)
        if trial.slack_used and report.status == "pass":
            report = replace(report, slack_pass=True)
        reports.append(report)
    return reports
