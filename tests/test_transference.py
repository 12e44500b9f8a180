import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest

from dualpiped import minima, sections, transference
from dualpiped.bodies import ExactnessError, Parallelepiped, det_normalized, pseudo_compound
from dualpiped.linalg import Matrix
from dualpiped.minima import (
    EnumerationBudgetError,
    MinimaProfile,
    first_minima_in_basis,
    first_minimum,
    gauge_rows,
    successive_minima,
)
from dualpiped.scalars import Quad3, exact_scalar
from dualpiped.sections import first_minimum_section_dual, v_tau_squared
from dualpiped.transference import (
    ALL_CLAIMS,
    REL_SLACK,
    c_d,
    check_claims,
    normalize_tau,
    sample_directions,
)

from oracle_utils import (
    apply_hyperbolic,
    apply_linear,
    diagonal,
    family_minima_off_closed_form,
    float_leq,
    gauge,
    generic_body,
    harness_trial,
    hyperbolic_map,
    khintchine_pair,
    mahler_dual_box,
    on_surface,
    random_unimodular,
    scaled_rows_body,
    searches_off_closed_form,
    t2_root,
    tau_vertex,
    to_float,
)


def test_khintchine_pair_frozen():
    t = Fraction(7, 3)
    f, g = khintchine_pair((t,))
    assert f == Matrix([[1, -t], [0, 1]])
    assert g == Matrix([[1, 0], [t, 1]])
    assert f.transpose().matmul(g) == Matrix.identity(2)

    f, g = khintchine_pair((Fraction(0), Fraction(0)))
    assert f == Matrix.identity(3)
    assert g == Matrix.identity(3)


def test_khintchine_pair_duality_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        theta = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
        f, g = khintchine_pair(theta)
        assert f.transpose().matmul(g) == Matrix.identity(n + 1)
        assert g.transpose().matmul(f) == Matrix.identity(n + 1)


def test_mahler_dual_box_frozen():
    lam_bar, bounds = mahler_dual_box((Fraction(3), Fraction(5)), Fraction(1))
    assert lam_bar == 15
    assert bounds == (Fraction(5), Fraction(3))

    lam_bar, bounds = mahler_dual_box((Fraction(1),) * 3, Fraction(1))
    assert lam_bar == 1
    assert bounds == (Fraction(2), Fraction(2), Fraction(2))

    lam_bar, bounds = mahler_dual_box((Fraction(4), Fraction(1), Fraction(1)), Fraction(2))
    assert lam_bar == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert bounds[0] == pytest.approx(math.sqrt(2), rel=1e-12)
    assert bounds[1] == pytest.approx(4 * math.sqrt(2), rel=1e-12)
    assert bounds[2] == bounds[1]


def test_hyperbolic_map_frozen_and_conjugation():
    tau = (Fraction(2), Fraction(3), Fraction(5))
    assert hyperbolic_map(Parallelepiped.cube(3), tau) == diagonal(tau)

    rng = random.Random(23)
    for _ in range(15):
        d = rng.randint(2, 4)
        h = random_unimodular(rng, d)
        eta = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        t = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        # scalar multiples act as plain dilations
        scalar_map = hyperbolic_map(piped, (t,) * d)
        assert scalar_map == Matrix.identity(d).scale(t)
        tau = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d))
        hmap = hyperbolic_map(piped, tau)
        a = diagonal([1 / e for e in eta]).matmul(h)
        assert a.matmul(hmap).matmul(a.inverse()) == diagonal(tau)


def test_apply_hyperbolic_matches_linear_action():
    rng = random.Random(37)
    for _ in range(10):
        d = rng.randint(2, 4)
        h = random_unimodular(rng, d)
        eta = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        tau = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d))
        shortcut = apply_hyperbolic(piped, tau)
        assert shortcut.forms == piped.forms
        assert shortcut.bounds == tuple(t * e for t, e in zip(tau, eta))
        moved = apply_linear(piped, hyperbolic_map(piped, tau))
        # the two descriptions name the same body: equal gauges everywhere
        for _ in range(5):
            x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            assert gauge(shortcut, x) == gauge(moved, x)


def test_normalize_tau_plain():
    out = normalize_tau((1.0, 1.0, 1.0), "plain")
    lam = 3 ** 0.25
    for t in out:
        assert t == pytest.approx(lam, rel=1e-12)
    assert on_surface(out, "plain")
    # idempotent
    again = normalize_tau(out, "plain")
    for a, b in zip(again, out):
        assert a == pytest.approx(b, rel=1e-12)


def test_normalize_tau_sharp_frozen_exact():
    out = normalize_tau((Fraction(1), Fraction(1), Fraction(1)), "sharp")
    assert out == (Quad3(0, Fraction(2, 3)),) * 3
    assert on_surface(out, "sharp")
    assert normalize_tau(out, "sharp") == out

    out = normalize_tau((Fraction(4), Fraction(5), Fraction(5)), "sharp")
    assert out == (Fraction(1), Fraction(5, 4), Fraction(5, 4))
    assert on_surface(out, "sharp")


def test_normalize_tau_scale_invariant_and_float_surface():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randint(3, 6)
        tau = tuple(rng.uniform(0.1, 2.0) for _ in range(d))
        for mode in ("plain", "sharp"):
            out = normalize_tau(tau, mode)
            scaled = normalize_tau(tuple(3.5 * t for t in tau), mode)
            for a, b in zip(out, scaled):
                assert a == pytest.approx(b, rel=1e-9)
            assert on_surface(out, mode)


def test_normalize_tau_survives_an_underflowing_product():
    # prod tau^2 = 1e-400 underflows as a float; the ratio is formed on the
    # exact dyadic values and the root taken without overflow
    for mode in ("plain", "sharp"):
        for tau in ((1e-200, 1.0, 1.0), (1e-200, 1e-200, 1.0, 3.0), (1e150, 1.0, 1.0)):
            out = normalize_tau(tau, mode)
            assert all(math.isfinite(t) and t > 0 for t in out)
            exact = [Fraction(t) for t in out]
            v2 = 1 if mode == "plain" else v_tau_squared(exact)
            ratio = sum(t * t for t in exact) / (v2 * math.prod(exact) ** 2)
            assert abs(ratio - 1) <= REL_SLACK
            # the same body scaled: the direction is unchanged
            for a, b, t, s in zip(out, out[1:], tau, tau[1:]):
                assert a / b == pytest.approx(t / s, rel=1e-12)


def test_c_d_frozen_values_and_bounds():
    assert c_d(3) == pytest.approx(math.sqrt(1 + math.sqrt(2)), rel=1e-12)
    assert c_d(4) == pytest.approx(math.sqrt(2 * math.cos(math.pi / 9)), rel=1e-9)
    with pytest.raises(ValueError):
        c_d(2)
    previous = None
    for d in range(3, 65):
        value = c_d(d)
        assert d ** (1 / (2 * (d - 1))) < value < d ** (1 / (2 * (d - 2)))
        if previous is not None:
            assert value < previous
        previous = value


def test_c_d_asymptotics():
    d = 1000
    ratio = (c_d(d) - 1) / (math.log(d) / (2 * d))
    assert abs(ratio - 1) <= 0.05


def test_t2_root_frozen_and_monotone():
    for d in (3, 4, 5):
        assert t2_root(1.0, d) == pytest.approx(c_d(d), rel=1e-12)
    # fixed point of the root equation
    for d in range(3, 11):
        t1 = d ** (1 / (2 * (d - 1)))
        assert abs(t2_root(t1, d) - t1) <= 1e-10
    assert t2_root(1.2, 3) < c_d(3)
    for d in (3, 4):
        samples = [1 + 0.02 * i for i in range(51)]
        values = [t2_root(t1, d) for t1 in samples]
        assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        t2_root(0.5, 3)


def test_tau_vertex_frozen():
    assert tau_vertex((Fraction(1), Fraction(1), Fraction(1))) == (Fraction(1),) * 3
    prime = (Quad3(0, Fraction(2, 3)),) * 3
    assert tau_vertex(prime) == (Fraction(3, 4),) * 3
    second = (Fraction(1), Fraction(5, 4), Fraction(5, 4))
    assert tau_vertex(second) == (Fraction(16, 25), Fraction(4, 5), Fraction(4, 5))


def test_check_claims_on_cube():
    for d in (3, 4):
        directions = sample_directions(random.Random(1), d, 8)
        reports = check_claims(Parallelepiped.cube(d), directions=directions)
        by_id = {r.claim: r for r in reports}
        assert set(by_id) == set(ALL_CLAIMS)
        assert all(r.status != "violation" for r in reports)
        assert by_id["T3"].status == "pass"
        assert by_id["T3"].margin == pytest.approx(d - 2, abs=1e-9)
        # the cube sits exactly on the first-minimum threshold, so the
        # strict hypothesis of the two-minima bound is not met
        assert by_id["T7"].status == "skip"
        assert by_id["T4"].status == "pass"
        assert by_id["MK2"].status == "pass"
        assert by_id["WM"].status == "pass"
        assert by_id["C12"].status == "pass"
        assert by_id["FAM"].status == "pass"
        assert by_id["FAMSHARP"].status == "pass"


def test_family_claims_skip_without_directions():
    # a family claim that sampled no direction has checked nothing
    cube = Parallelepiped.cube(3)
    fam, famsharp, c12 = check_claims(cube, ("FAM", "FAMSHARP", "C12"), directions=[])
    for report in (fam, famsharp):
        assert report.status == "skip"
        assert report.hypothesis is None
        assert report.margin is None
        assert "no direction" in report.detail
    assert c12.status == "pass"


def test_check_claims_deterministic_and_filterable():
    piped = Parallelepiped(
        Matrix([[1.0, 0.25, 0.0], [0.0, 1.0, -0.5], [0.25, 0.0, 1.0]]),
        (1.1, 0.8, 1.3),
    )
    directions = sample_directions(random.Random(9), 3, 8)
    first = check_claims(piped, ("FAM", "FAMSHARP", "C12"), directions=directions)
    second = check_claims(piped, ("FAM", "FAMSHARP", "C12"), directions=directions)
    assert [r.claim for r in first] == ["FAM", "FAMSHARP", "C12"]
    for a, b in zip(first, second):
        assert a.claim == b.claim
        assert a.status == b.status
        assert a.margin == b.margin
    assert all(r.status != "violation" for r in first)


def test_check_claims_random_exact_instances():
    rng = random.Random(69)
    hypothesis_hits = 0
    for _ in range(12):
        h = random_unimodular(rng, 3, ops=5)
        eta = tuple(Fraction(rng.randint(2, 6), rng.randint(1, 2)) for _ in range(3))
        piped = Parallelepiped(h, eta)
        reports = check_claims(
            piped, ("T3", "T4", "MK2", "T5", "T6", "WM", "C12"),
            directions=sample_directions(random.Random(2), 3, 8),
        )
        assert all(r.status != "violation" for r in reports)
        if any(r.claim == "T3" and r.status == "pass" for r in reports):
            hypothesis_hits += 1
    assert hypothesis_hits >= 3


def test_implication_chain_consistency():
    rng = random.Random(91)
    checked = 0
    for _ in range(30):
        d = 3
        h = random_unimodular(rng, d, ops=5)
        eta = tuple(Fraction(rng.randint(2, 5)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        star = pseudo_compound(piped)
        if successive_minima(star, k_max=1).values[0] > 1:
            continue
        profile = successive_minima(piped)
        product = Fraction(1)
        for mu in profile.values[: d - 1]:
            product *= mu
        assert product * product <= d
        checked += 1
    assert checked >= 5


def normalized_family(piped, directions, mode):
    """FAM or FAMSHARP on each surface tau itself: (status, margin), in floats."""
    body = to_float(det_normalized(piped))
    checks = []
    for raw in directions:
        tau = normalize_tau(raw, mode)
        value = float(first_minimum(apply_hyperbolic(body, tau))[0])
        checks.append((1.0 - value, float_leq(value, 1.0)))
    status = "pass" if all(ok for _, ok in checks) else "violation"
    return status, min(margin for margin, _ in checks)


def failing_to_float(self):
    raise AssertionError("exact family claims must not convert the body to floats")


@pytest.mark.parametrize("kind", ["float", "exact"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_family_claims_by_homogeneity_match_the_normalized_shift(monkeypatch, d, kind):
    rng = random.Random(f"family-{d}-{kind}")
    for _ in range(3):
        forms = random_unimodular(rng, d, ops=2 * d)
        eta = tuple(Fraction(rng.randint(2, 9), rng.randint(1, 4)) for _ in range(d))
        piped = Parallelepiped(forms, eta)
        if kind == "float":
            piped = to_float(piped)
        directions = sample_directions(rng, d, 6)
        expected = [normalized_family(piped, directions, mode) for mode in ("plain", "sharp")]
        calls = []
        shifted = []

        def counted(body, raws, start):
            values = first_minima_in_basis(body, raws, start)
            calls.append((body, raws, values.count(None)))
            return values

        def searched(body, **options):
            shifted.append(body)
            return first_minimum(body, **options)

        with monkeypatch.context() as patch:
            patch.setattr(transference, "first_minima_in_basis", counted)
            patch.setattr(transference, "first_minimum", searched)
            if kind == "exact":
                patch.setattr(Matrix, "to_float", failing_to_float)
            reports = check_claims(piped, ("FAM", "FAMSHARP"), directions=directions)
        # one batched call, on the normalized body in its kind and every
        # direction, serves both claims; only the shifts it leaves are searched
        [(body, raws, left)] = calls
        assert body == det_normalized(piped) and body.kind == piped.kind
        assert list(raws) == directions
        assert len(shifted) == left
        for report, (status, margin) in zip(reports, expected):
            assert report.status == status
            assert abs(report.margin - margin) <= 1e-12


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_family_warm_start_matches_cold_searches_on_generic_bodies(monkeypatch, kind):
    # each shifted search starts from the body's reduced basis; a cold
    # search of the same shift must give the same minimum and witness
    rng = random.Random(f"warm-start-{kind}")
    for d in range(2, 7):
        for _ in range(2):
            piped = generic_body(rng, d, kind)
            directions = sample_directions(rng, d, 4) + [
                (1e-200,) + (1.0,) * (d - 1),
                (1.0, 1e6) + (1.0,) * (d - 2),
            ]
            warm = check_claims(piped, ("FAM", "FAMSHARP"), directions=directions)
            with monkeypatch.context() as patch:
                patch.setattr(transference, "first_minimum",
                              lambda shifted, **options: first_minimum(shifted))
                cold = check_claims(piped, ("FAM", "FAMSHARP"), directions=directions)
            assert warm == cold
            body = det_normalized(piped)
            start = successive_minima(body).basis
            for raw in directions:
                shifted = apply_hyperbolic(body, raw if kind == "float" else tuple(map(Fraction, raw)))
                assert first_minimum(shifted, start=start) == first_minimum(shifted)


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_dual_starts_match_cold_searches_on_generic_bodies(kind):
    # the compound's profile and the section-dual minimum start from the
    # dual of the body's reduced basis; cold searches give the same values
    # and witnesses, of the same types, and no search that a cold one
    # finishes is refused
    rng = random.Random(f"dual-start-{kind}")
    searched = 0
    for d in range(2, 7):
        for _ in range(3):
            trial = transference._Trial(generic_body(rng, d, kind), ())
            try:
                basis = trial.profile.basis
            except EnumerationBudgetError:
                continue  # the body's own profile is refused (a FOUND in CHANGES.md)
            dual = trial.dual_basis
            assert [[sum(x * y for x, y in zip(row, v)) for v in basis] for row in dual] == \
                [[int(i == j) for j in range(d)] for i in range(d)]
            for search in (lambda **start: successive_minima(pseudo_compound(trial.body), **start),
                           lambda **start: first_minimum_section_dual(trial.body, **start)):
                try:
                    cold = search()
                except EnumerationBudgetError:
                    continue
                assert repr(search(start=dual)) == repr(cold)
                searched += 1
            assert repr(trial.profile_star) == repr(successive_minima(pseudo_compound(trial.body)))
    assert searched >= 25


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_batched_shift_minima_match_cold_searches_on_generic_bodies(monkeypatch, kind):
    # a shift scales the body's gauge rows, read exactly, by 1 / tau: each
    # value the batched call gives equals a cold exact search of that body,
    # by value and type, and so does each value of a shift that it leaves
    # to first_minimum (the large boxes); every branch occurs: a box whose
    # one canonical cell is the radius's basis vector, a walked box of more
    # than one cell and at most 3^d, and a larger box left as None
    walked = []
    walk = minima._walk
    monkeypatch.setattr(minima, "_walk", lambda cols, box: walked.append(box) or walk(cols, box))
    rng = random.Random(f"batched-{kind}")
    branches = set()
    bodies = 0
    for d in range(2, 7):
        for _ in range(3):
            piped = generic_body(rng, d, kind)
            directions = sample_directions(rng, d, 4) + [
                (1e-200,) + (1.0,) * (d - 1),
                (1.0, 1e6) + (1.0,) * (d - 2),
            ]
            trial = transference._Trial(piped, tuple(directions))
            body = trial.body
            try:
                start = trial.profile.basis
            except EnumerationBudgetError:
                continue  # the body's own profile is refused (a FOUND in CHANGES.md)
            bodies += 1
            batched = first_minima_in_basis(body, directions, start)
            for raw, value, family in zip(directions, batched, trial.family_minima):
                cold = first_minimum(scaled_rows_body(body, raw))[0]
                walked.clear()
                assert first_minima_in_basis(body, [raw], start) == [value]
                if value is None:
                    branches.add("none")
                elif walked:
                    [box] = walked
                    assert 3 < math.prod(2 * b + 1 for b in box) <= 3**d
                    branches.add("walk")
                else:
                    branches.add("one")
                if value is not None:
                    assert value == cold and type(value) is Fraction
                assert family == cold and type(family) is Fraction
                if kind == "exact":
                    assert cold == first_minimum(apply_hyperbolic(body, tuple(map(Fraction, raw))))[0]
    assert bodies >= 12
    assert branches == {"one", "walk", "none"}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_family_minima_of_harness_trials_match_the_closed_form(d):
    # exactly on exact trials, within 1e-12 relative on float ones
    for mode in ("exact", "float"):
        for index in range(20):
            trial = harness_trial(d, 42, index, mode)
            assert family_minima_off_closed_form(trial) == []
            assert all(type(value) is Fraction for value in trial.family_minima)


@pytest.mark.parametrize("factor", [Fraction(99, 100), Fraction(101, 100)])
def test_closed_form_check_reports_scaled_family_minima(monkeypatch, factor):
    # a family minimum 1% off in either direction is reported on every trial
    batched = transference.first_minima_in_basis
    monkeypatch.setattr(transference, "first_minima_in_basis",
                        lambda *args: [value * factor for value in batched(*args)])
    for mode in ("exact", "float"):
        for d in (2, 3, 4, 5):
            for index in range(3):
                trial = harness_trial(d, 42, index, mode)
                assert len(family_minima_off_closed_form(trial)) == len(trial.directions)


@pytest.mark.parametrize("fault", ["profile", "section-dual"])
@pytest.mark.parametrize("factor", ["low", "high"])
def test_closed_form_check_reports_scaled_searches(monkeypatch, fault, factor):
    # profile values 1e-6 off, or WM's section-dual minimum 1% off, in
    # either direction, are reported on every trial
    if fault == "profile":
        scale = Fraction(10**6 - 1, 10**6) if factor == "low" else Fraction(10**6 + 1, 10**6)
        search = transference.successive_minima

        def scaled(*args, **kwargs):
            profile = search(*args, **kwargs)
            return replace(profile, values=tuple(value * scale for value in profile.values))

        monkeypatch.setattr(transference, "successive_minima", scaled)
    else:
        scale = Fraction(99, 100) if factor == "low" else Fraction(101, 100)
        search = transference.first_minimum_section_dual
        monkeypatch.setattr(transference, "first_minimum_section_dual",
                            lambda *args, **kwargs: search(*args, **kwargs) * scale)
    for mode in ("exact", "float"):
        for d in (2, 3, 4, 5):
            for index in range(3):
                off = [name for name, _, _ in searches_off_closed_form(harness_trial(d, 42, index, mode))]
                if fault == "profile":
                    assert off == ["profile"] * d + ["compound profile"] * d
                else:
                    assert off == ["section-dual minimum"]


@pytest.mark.parametrize("dimension, mode", [(5, "float"), (3, "exact")])
def test_one_compound_per_trial(monkeypatch, dimension, mode):
    # the body derives its compound once: T3-T7 and MK2 read it, and WM's
    # section-dual search reads its gauge rows
    derive = Parallelepiped._compound.func
    derived = []

    def counting(body):
        derived.append(body)
        return derive(body)

    compound = cached_property(counting)
    compound.__set_name__(Parallelepiped, "_compound")
    monkeypatch.setattr(Parallelepiped, "_compound", compound)
    read = []
    rows = minima.gauge_rows

    def recording(piped, *args):
        read.append(piped)
        return rows(piped, *args)

    monkeypatch.setattr(sections, "gauge_rows", recording)
    for index in range(5):
        trial = harness_trial(dimension, 1, index, mode)
        derived.clear()
        read.clear()
        reports = check_claims(trial.body, directions=trial.directions)
        assert all(report.status in ("pass", "skip") for report in reports)
        assert derived == [trial.body]
        assert len(read) == 1 and read[0] is pseudo_compound(trial.body)


def test_exact_bodies_of_any_determinant_are_judged_exactly():
    # no root of det H is taken, so bodies whose det-normalization leaves
    # Q and Q(sqrt3) (det 2 at d = 2, det 7 at d = 3) are judged exactly,
    # each claim as on the body's float twin
    bodies = [
        Parallelepiped(Matrix([[1, 1], [0, 2]]), (Fraction(1), Fraction(1))),
        Parallelepiped(Matrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]]), (Fraction(2),) * 3),
    ]
    for body in bodies:
        with pytest.raises(ExactnessError):
            det_normalized(body)
        directions = sample_directions(random.Random(5), body.dimension, 4)
        exact = check_claims(body, directions=directions)
        twin = check_claims(to_float(body), directions=directions)
        assert [report.claim for report in exact] == list(ALL_CLAIMS)
        assert [report.status for report in exact] == [report.status for report in twin]
        assert not any(report.slack_pass for report in exact)
    # the d = 3 body meets the hypotheses of T3 and WM: 7 claims pass, T5-T7 skip
    assert [report.status for report in exact if report.status != "skip"] == ["pass"] * 7


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_power_claims_in_ints_match_the_exact_comparison(kind):
    # T5-T7 decide mu^e <= d and s^(d-1) <= (d-1) s + 1 on the ratio n / m
    # of mu, scaled by a power of m: around each threshold (sqrt3 and 3 for
    # T5-T6, c_3 for T7) they report what _Trial.leq reports on the exact
    # powers, slack included, for rational, float and Q(sqrt3) values
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def trial(values):
        t = transference._Trial(Parallelepiped.cube(3, kind=kind), ())
        t.__dict__["profile"] = MinimaProfile(values, basis)
        t.__dict__["profile_star"] = MinimaProfile((Fraction(1, 2),) * 3, basis)
        return t

    def reports(values):
        t, found = trial(values), []
        for claim in (transference._claim_t5, transference._claim_t6, transference._claim_t7):
            t.slack_used = False
            report = claim(t)
            found.append((report.status, t.slack_used and report.status == "pass"))
        return found

    def reference(values):
        t, found = trial(values), []
        first, mu = (exact_scalar(x) for x in values[:2])
        for factor in (1, 2):
            t.slack_used = False
            ok = all([t.leq(first ** (2 * factor), 3), t.leq(mu**factor, 3)])
            found.append(("pass" if ok else "violation", t.slack_used and ok))
        # T7's hypothesis asks mu_1 > 1
        t.slack_used = False
        s = mu * mu
        ok = t.leq(s**2, 2 * s + 1)
        status = "skip" if first == 1 else "pass" if ok else "violation"
        found.append((status, t.slack_used and status == "pass"))
        return found

    thresholds = (math.sqrt(3), 3.0, c_d(3))
    xs = [x for threshold in thresholds
          for x in (threshold, math.nextafter(threshold, 0), math.nextafter(threshold, 4),
                    threshold * (1 + 1e-10), threshold * (1 + 1e-6))]
    if kind == "exact":
        xs = [Fraction(x) for x in xs] + [Quad3(0, 1), Quad3(Fraction(1, 10**12), 1), Quad3(3),
                                          Quad3(Fraction(-1, 10**12), 1)]
    outcomes = set()
    for x in xs:
        for first in (1.0, 1.25):
            values = (first, x, x) if kind == "float" else (Fraction(first), x, x)
            found = reports(values)
            assert found == reference(values)
            outcomes.update(found)
    expected = {("pass", False), ("violation", False), ("skip", False)}
    assert outcomes == (expected | {("pass", True)} if kind == "float" else expected)


def test_family_directions_must_be_finite():
    cube = Parallelepiped.cube(3, kind="float")
    for bad in ((math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="finite positive"):
            check_claims(cube, ("FAM",), directions=[bad])
    # prod tau^2 underflows in a float normalization; the exact ratio does not
    fam, famsharp = check_claims(cube, ("FAM", "FAMSHARP"), directions=[(1e-200, 1.0, 1.0)])
    assert (fam.status, fam.margin) == ("pass", 1.0)
    assert famsharp.status == "pass"



@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_check_claims_on_float_determinants_beyond_the_float_range(scale):
    # each claim is reported, or refused by a ValueError where a value it
    # reads (the compound's bounds, a volume) lies beyond the float range:
    # the compound's bounds are 1 / scale^2, so every claim that reads the
    # compound, WM's section-dual search included, is refused
    body = Parallelepiped(Matrix([[scale, 0.0], [0.0, scale]]), (1.0, 1.0))
    directions = [(1.0, 2.0)]
    compound = "the pseudo-compound's bounds .* lie beyond the float range"
    with pytest.raises(ValueError, match=compound):
        check_claims(body, directions=directions)
    for claim in ("T3", "T4", "T5", "T6", "WM"):
        with pytest.raises(ValueError, match=compound):
            check_claims(body, (claim,), directions=directions)
    with pytest.raises(ValueError, match="the body's volume lies beyond the float range"):
        check_claims(body, ("MK2",), directions=directions)
    # a shift whose bound tau eta (1e500 or 1e-500) lies beyond the float
    # range only scales the exact gauge rows: mu_1 = 1 / max_i tau_i eta_i
    # is 1e-500 or 1e200, and both family claims pass with margin 1.0
    shift = (1e300, 1.0) if scale < 1 else (1e-300, 1.0)
    trial = transference._Trial(body, (shift,))
    (value,) = trial.family_minima
    assert value == min(Fraction(row[i]) / Fraction(t)
                        for i, (row, t) in enumerate(zip(gauge_rows(trial.body), shift)))
    exponent = math.log10(value.numerator) - math.log10(value.denominator)
    assert math.isclose(exponent, -500 if scale < 1 else 200, abs_tol=1e-9)
    for report in check_claims(body, ("FAM", "FAMSHARP"), directions=[shift]):
        assert (report.status, report.margin) == ("pass", 1.0)
    reports = check_claims(body, ("FAM", "FAMSHARP", "C12"), directions=directions)
    # mu_1 = 1 / scale, the gauge rows being scale I
    expected = ("pass", "pass", "pass") if scale < 1 else ("violation", "violation", "pass")
    assert tuple(report.status for report in reports) == expected
    assert all(math.isfinite(report.margin) for report in reports if report.margin is not None)
