import math
import random
from fractions import Fraction

import pytest

from dualpiped import transference
from dualpiped.bodies import Parallelepiped, det_normalized, pseudo_compound
from dualpiped.linalg import Matrix
from dualpiped.minima import (
    EnumerationBudgetError,
    first_minima_in_basis,
    first_minimum,
    successive_minima,
)
from dualpiped.scalars import Quad3
from dualpiped.sections import v_tau_squared
from dualpiped.transference import (
    ALL_CLAIMS,
    REL_SLACK,
    apply_hyperbolic,
    c_d,
    check_claims,
    normalize_tau,
    sample_directions,
)

from oracle_utils import (
    apply_linear,
    float_leq,
    generic_body,
    hyperbolic_map,
    khintchine_pair,
    mahler_dual_box,
    on_surface,
    random_unimodular,
    t2_root,
    tau_vertex,
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
    assert hyperbolic_map(Parallelepiped.cube(3), tau) == Matrix.diagonal(tau)

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
        a = Matrix.diagonal([1 / e for e in eta]).matmul(h)
        assert a.matmul(hmap).matmul(a.inverse()) == Matrix.diagonal(tau)


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
            assert shortcut.gauge(x) == moved.gauge(x)


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
    body = det_normalized(piped).to_float()
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
            piped = piped.to_float()
        directions = sample_directions(rng, d, 6)
        expected = [normalized_family(piped, directions, mode) for mode in ("plain", "sharp")]
        calls = []
        shifted = []

        def counted(body, raws, start):
            values = first_minima_in_basis(body, raws, start)
            calls.append((body, raws, values.count(None)))
            return values

        def building(body, tau):
            shifted.append(tau)
            return apply_hyperbolic(body, tau)

        with monkeypatch.context() as patch:
            patch.setattr(transference, "first_minima_in_basis", counted)
            patch.setattr(transference, "apply_hyperbolic", building)
            if kind == "exact":
                patch.setattr(Parallelepiped, "to_float", failing_to_float)
            reports = check_claims(piped, ("FAM", "FAMSHARP"), directions=directions)
        # one batched call, on the normalized body in its kind and every
        # direction, serves both claims; only the shifts it leaves are built
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
def test_batched_shift_minima_match_cold_searches_on_generic_bodies(kind):
    # each value the batched call gives equals a cold search's, of the same
    # type; the shifts it leaves to first_minimum are the large boxes
    rng = random.Random(f"batched-{kind}")
    branches = set()
    bodies = 0
    for d in range(2, 7):
        for _ in range(3):
            body = det_normalized(generic_body(rng, d, kind))
            try:
                start = successive_minima(body).basis
            except EnumerationBudgetError:
                continue  # the body's own profile is refused (a FOUND in CHANGES.md)
            bodies += 1
            directions = sample_directions(rng, d, 4) + [
                (1e-200,) + (1.0,) * (d - 1),
                (1.0, 1e6) + (1.0,) * (d - 2),
            ]
            shifts = [apply_hyperbolic(body, tuple(map(Fraction, raw))) for raw in directions]
            for shifted, value in zip(shifts, first_minima_in_basis(body, directions, start)):
                branches.add(value is None)
                if value is not None:
                    cold = first_minimum(shifted)[0]
                    assert value == cold
                    assert type(value) is type(cold)
    assert bodies >= 12
    assert branches == {False, True}


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
    # reads (the compound's bounds, a volume) lies beyond the float range
    body = Parallelepiped(Matrix([[scale, 0.0], [0.0, scale]]), (1.0, 1.0))
    directions = [(1.0, 2.0)]
    compound = "the pseudo-compound's bounds .* lie beyond the float range"
    with pytest.raises(ValueError, match=compound):
        check_claims(body, directions=directions)
    for claim in ("T3", "T4", "T5", "T6"):
        with pytest.raises(ValueError, match=compound):
            check_claims(body, (claim,), directions=directions)
    with pytest.raises(ValueError, match="the body's volume lies beyond the float range"):
        check_claims(body, ("MK2",), directions=directions)
    # a shifted bound (1e500 or 1e-500) beyond the float range is left to
    # apply_hyperbolic, which refuses it as it refuses any such body
    shift, message = ((1e300, 1.0), "finite") if scale < 1 else ((1e-300, 1.0), "positive")
    with pytest.raises(ValueError, match=message):
        check_claims(body, ("FAM",), directions=[shift])
    reports = check_claims(body, ("FAM", "FAMSHARP", "WM", "C12"), directions=directions)
    # mu_1 = 1 / scale on the normalized body (bounds 1 / scale)
    expected = ("pass", "pass", "pass", "pass") if scale < 1 else ("violation", "violation", "skip", "pass")
    assert tuple(report.status for report in reports) == expected
    assert all(math.isfinite(report.margin) for report in reports if report.margin is not None)
