import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from dualpiped import sections
from dualpiped.bodies import Parallelepiped, pseudo_compound
from dualpiped.linalg import Matrix
from dualpiped.minima import dilate_box, gauge_rows, reduced_basis
from dualpiped.sections import (
    cube_section_volume,
    first_minimum_section_dual,
    section_dual_gauge,
    v_tau,
    v_tau_squared,
)
from dualpiped.scalars import Quad3
from dualpiped.transference import check_claims, sample_directions

from oracle_utils import (
    apply_linear,
    cofactor,
    diagonal,
    generic_body,
    matvec,
    monte_carlo_section_volume,
    random_unimodular,
    section3_area,
    section_root,
    squared_section_volume,
    to_float,
)


def test_cube_section_frozen_values():
    # facet-parallel slice
    for d in (2, 3, 4, 5):
        a = tuple(Fraction(int(i == 0)) for i in range(d))
        assert cube_section_volume(a, d) == Fraction(2 ** (d - 1))
    # main diagonal of the 3-cube: regular hexagon of area 3*sqrt(3)
    assert cube_section_volume((1, 1, 1), 3) == Quad3(0, 3)
    # face diagonal: 2 x 2*sqrt(2) rectangle
    assert cube_section_volume((0, 1, 1), 3) == pytest.approx(4 * math.sqrt(2), rel=1e-12)
    assert cube_section_volume((1.0, 1.0, 0.0, 0.0), 4) == pytest.approx(
        8 * math.sqrt(2), rel=1e-12
    )


def test_cube_section_invariances():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(2, 6)
        a = [rng.uniform(-1, 1) for _ in range(d)]
        if max(abs(x) for x in a) < 1e-3:
            continue
        base = cube_section_volume(tuple(a), d)
        shuffled = a[:]
        rng.shuffle(shuffled)
        flipped = [x if rng.random() < 0.5 else -x for x in shuffled]
        assert cube_section_volume(tuple(flipped), d) == pytest.approx(base, rel=1e-9)
        scaled = [3.7 * x for x in a]
        assert cube_section_volume(tuple(scaled), d) == pytest.approx(base, rel=1e-9)


def test_section3_frozen_values():
    assert section3_area(Fraction(0)) == pytest.approx(4 * math.sqrt(2), rel=1e-12)
    assert section3_area(Fraction(1)) == Quad3(0, 3)
    assert section3_area(Fraction(4, 5)) == pytest.approx(
        Fraction(16, 25) * math.sqrt(66), rel=1e-12
    )
    with pytest.raises(ValueError):
        section3_area(Fraction(3, 2))
    with pytest.raises(ValueError):
        section3_area(-0.1)


def test_section3_matches_general_formula():
    rng = random.Random(17)
    for _ in range(100):
        x = rng.random()
        general = cube_section_volume((x, 1.0, 1.0), 3)
        assert abs(general - section3_area(x)) <= 1e-10


def test_monte_carlo_oracle_agrees():
    estimate, sigma = monte_carlo_section_volume((1, 1, 0, 0), 4, samples=1_000_000, seed=7)
    assert abs(estimate - 8 * math.sqrt(2)) <= 4 * sigma
    estimate, sigma = monte_carlo_section_volume((1, 1, 1), 3, samples=500_000, seed=8)
    assert abs(estimate - 3 * math.sqrt(3)) <= 4 * sigma


def test_v_tau_frozen_and_scale_invariant():
    assert v_tau((1, 1, 1)) == Quad3(0, Fraction(3, 4))
    assert v_tau((2, 2, 2)) == v_tau((1, 1, 1))
    assert float(v_tau((1, 1, 1))) == pytest.approx(1.299038105676658, rel=1e-12)
    # Ball's extremal direction: two equal coordinates, the rest vanishing,
    # approached inside the positive orthant
    near_axis = v_tau((1, 1e-9, 1e-9))
    assert near_axis == pytest.approx(1.0, abs=1e-6)
    near_diag = v_tau((1, 1, 1e-9, 1e-9))
    assert near_diag == pytest.approx(math.sqrt(2), abs=1e-6)


@pytest.mark.parametrize(
    "direction, unscaled",
    [
        ((1e-300,) * 3, (1.0,) * 3),
        ((1e308, 1e308, 1.0), (1.0, 1.0, 1e-308)),
        (tuple(i * 1e300 for i in range(1, 7)), tuple(float(i) for i in range(1, 7))),
        ((1e300,) * 6, (1.0,) * 6),
    ],
)
def test_float_sections_at_extreme_scales(direction, unscaled):
    # float powers of these coordinates under- or overflow; the exact sums do not
    d = len(direction)
    volume = cube_section_volume(direction, d)
    assert volume == pytest.approx(cube_section_volume(unscaled, d), rel=1e-12)
    assert v_tau(direction) == pytest.approx(v_tau(unscaled), rel=1e-12)
    # the section-dual gauge of the cube is homogeneous of degree one
    cube = Parallelepiped.cube(d, kind="float")
    gauge = section_dual_gauge(cube, direction)
    assert math.isfinite(gauge)
    scale = direction[0] / unscaled[0]
    assert gauge == pytest.approx(section_dual_gauge(cube, unscaled) * scale, rel=1e-12)


def test_float_sections_are_the_exact_value_rounded_once():
    rng = random.Random(59)
    for d in range(2, 13):
        cube = Parallelepiped.cube(d, kind="float")
        for _ in range(3):
            a = [rng.uniform(0.05, 1.0) for _ in range(d)]
            v = v_tau(tuple(a))
            exact = v_tau_squared(tuple(map(Fraction, a)))
            assert abs(Fraction(v) ** 2 - exact) <= exact * Fraction(1, 2**50)
            volume = cube_section_volume(tuple(a), d)
            gauge = section_dual_gauge(cube, tuple(a))
            # one rounding of a permutation- and scale-invariant exact value
            shuffled = a[:]
            rng.shuffle(shuffled)
            assert v_tau(tuple(shuffled)) == v
            assert cube_section_volume(tuple(shuffled), d) == volume
            assert section_dual_gauge(cube, tuple(shuffled)) == gauge
            for k in (-40, -3, 5, 37):
                scaled = tuple(math.ldexp(x, k) for x in a)
                assert v_tau(scaled) == v
                assert cube_section_volume(scaled, d) == volume
                assert section_dual_gauge(cube, scaled) == math.ldexp(gauge, k)


def test_v_tau_at_degenerate_directions():
    # both extremal directions are reached exactly, not only in the limit
    assert v_tau((1, 0, 0)) == 1
    assert v_tau((0, 0, 3, 0)) == 1
    assert v_tau((1, 1, 0, 0)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert v_tau_squared((0, 1, 1)) == Fraction(2)
    assert v_tau_squared((1, 0, 0, 0)) == Fraction(1)
    with pytest.raises(ValueError):
        v_tau((0, 0, 0))
    with pytest.raises(ValueError):
        v_tau_squared((0.0, 0.0))


# 16 coordinates spread over 2^300: 2^16 sign patterns of 5-word integers
SPREAD_DIRECTION = tuple(math.ldexp(1.0 + i / 32, 20 * i) for i in range(16))


def test_section_work_counts_bits():
    # 2^18 patterns of one 64-bit word fit the budget; one more pattern, or
    # one more word, does not
    sections._check_work(18, 64)
    sections._check_work(14, 1024)
    for n, bits in ((19, 1), (18, 65), (14, 1025)):
        with pytest.raises(ValueError, match="over the budget of 2\\^18"):
            sections._check_work(n, bits)
    # the spread direction is refused before its sum starts, in every entry point
    cube = Parallelepiped.cube(16, kind="float")
    for call in (
        lambda: v_tau(SPREAD_DIRECTION),
        lambda: cube_section_volume(SPREAD_DIRECTION, 16),
        lambda: section_dual_gauge(cube, SPREAD_DIRECTION),
    ):
        with pytest.raises(ValueError, match="16 nonzero coordinates of up to 301 bits"):
            call()


def test_v_tau_within_vaaler_and_ball_bounds():
    rng = random.Random(47)
    for d in range(3, 9):
        for _ in range(170):
            tau = tuple(rng.uniform(1e-3, 1) for _ in range(d))
            v = v_tau(tau)
            assert v >= 1 - 1e-12
            assert v <= math.sqrt(2) + 1e-12


def test_integer_sums_match_the_fraction_reference():
    # the sum over half the sign patterns in the cleared integers gives the
    # full Fraction sum's value, of the same type, with zeros and repeated |a_i|
    rng = random.Random(83)
    pool = [Fraction(p, q) for p in range(1, 7) for q in (1, 2, 3, 5, 8)]
    for d in range(2, 11):
        directions = [(1,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2), (1,) * d]
        for _ in range(4):
            values = rng.sample(pool, max(1, d // 3))
            a = [rng.choice((1, -1)) * values[i % len(values)] for i in range(d)]
            for i in rng.sample(range(d), rng.randint(0, d - 1)):
                a[i] = 0
            directions.append(tuple(a))
        for a in directions:
            for direction in (tuple(a), tuple(map(float, a))):
                square = squared_section_volume(direction, d)
                expected = (square / 4 ** (d - 1), section_root(square / 4 ** (d - 1), direction),
                            section_root(square, direction))
                got = (v_tau_squared(direction), v_tau(direction), cube_section_volume(direction, d))
                assert got == expected
                assert list(map(type, got)) == list(map(type, expected))


def test_v_tau_squared_is_exact_rational():
    assert v_tau_squared((1, 1, 1)) == Fraction(27, 16)
    assert v_tau_squared((Fraction(4), Fraction(5), Fraction(5))) == Fraction(1056, 625)
    # squares agree with the float value
    for tau in ((1, 2, 3), (5, 1, 1, 2)):
        v2 = v_tau_squared(tau)
        assert isinstance(v2, Fraction)
        assert float(v2) == pytest.approx(v_tau(tuple(float(t) for t in tau)) ** 2, rel=1e-9)


def test_section_dual_gauge_boundary_points():
    b3 = Parallelepiped.cube(3)
    assert section_dual_gauge(b3, (Fraction(3, 4),) * 3) == 1
    assert section_dual_gauge(b3, (Fraction(16, 25), Fraction(4, 5), Fraction(4, 5))) == 1
    assert section_dual_gauge(b3, (1, 1, 1)) == Fraction(4, 3)
    assert section_dual_gauge(b3, (0, 0, 0)) == 0
    # a single nonzero coordinate reduces to its absolute value
    assert section_dual_gauge(b3, (Fraction(-5, 7), 0, 0)) == Fraction(5, 7)


def test_section_dual_gauge_homogeneous_and_even():
    rng = random.Random(3)
    b4 = Parallelepiped.cube(4)
    for _ in range(30):
        z = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4))
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        g = section_dual_gauge(b4, z)
        assert section_dual_gauge(b4, tuple(-x for x in z)) == g
        assert section_dual_gauge(b4, tuple(t * x for x in z)) == t * g


def test_section_dual_gauge_transform_equivariance():
    rng = random.Random(29)
    for _ in range(20):
        d = rng.randint(2, 4)
        h = random_unimodular(rng, d)
        eta = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        u = random_unimodular(rng, d)
        z = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
        moved = apply_linear(piped, u)
        z_moved = matvec(cofactor(u), z)
        assert section_dual_gauge(moved, z_moved) == section_dual_gauge(piped, z)


def test_section_dual_gauge_quasiconvex():
    rng = random.Random(83)
    piped = Parallelepiped(
        Matrix([[1.0, 0.5, 0.0], [0.0, 1.0, -0.25], [0.5, 0.0, 1.0]]),
        (1.0, 0.75, 1.25),
    )
    for _ in range(60):
        z1 = tuple(rng.uniform(-2, 2) for _ in range(3))
        z2 = tuple(rng.uniform(-2, 2) for _ in range(3))
        t = rng.random()
        mix = tuple(t * a + (1 - t) * b for a, b in zip(z1, z2))
        g = section_dual_gauge(piped, mix)
        assert g <= max(section_dual_gauge(piped, z1), section_dual_gauge(piped, z2)) + 1e-9


@pytest.mark.parametrize("kind", ["float", "rational"])
def test_sharp_vertex_identity_is_exact(kind):
    # gauge(raw)^2 v_tau(raw)^2 = sum raw^2 for every positive direction, by
    # algebra: the gauge is 2^(d-1) / ratio and v_tau^2 is
    # |raw|^2 ratio^2 / 4^(d-1). So the vertex of the sharp surface has gauge
    # exactly 1, and the family claims need not check it. Float directions
    # are read as the dyadic rationals they are; on the float cube their
    # gauge is the exact gauge rounded once.
    rng = random.Random(f"vertex-{kind}")
    for d in range(2, 7):
        if kind == "float":
            directions = sample_directions(rng, d, 10)
        else:
            directions = [tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(d)) for _ in range(10)]
        for raw in directions:
            exact = tuple(map(Fraction, raw))
            gauge = section_dual_gauge(Parallelepiped.cube(d), exact)
            assert gauge * gauge * v_tau_squared(exact) == sum(t * t for t in exact)
            if kind == "float":
                assert section_dual_gauge(Parallelepiped.cube(d, kind="float"), raw) == float(gauge)


@pytest.mark.parametrize("kind", ["float", "rational"])
def test_pseudo_compound_vertices_have_the_cube_gauge(kind):
    # on every body (H, eta), of any determinant and sign, the
    # pseudo-compound vertex H^T diag(eta*) sigma, eta*_i = prod eta /
    # (|det H| eta_i), pulls back to w = A^T z / det A = +-sigma, so every
    # vertex of every body has the cube's section-dual gauge g_d at
    # (1, ..., 1); check_claims decides C12 by this constant alone
    rng = random.Random(f"c12-{kind}")
    for d in range(2, 7):
        g = section_dual_gauge(Parallelepiped.cube(d), (1,) * d)
        one = 1.0 if kind == "float" else 1
        for _ in range(3):
            eta = tuple(Fraction(rng.randint(2, 8), 4) for _ in range(d))
            scales = diagonal([Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(d)])
            body = Parallelepiped(random_unimodular(rng, d).matmul(scales), eta)
            if kind == "float":
                body = to_float(body)
            vertex_map = body.forms.transpose().matmul(diagonal(pseudo_compound(body).bounds))
            for sigma in itertools.product((one, -one), repeat=d):
                gauge = section_dual_gauge(body, matvec(vertex_map, sigma))
                if kind == "float":
                    assert gauge == pytest.approx(float(g), rel=1e-12)
                else:
                    assert gauge == g
            (c12,) = check_claims(body, ["C12"], directions=())
            assert c12.status == "pass" and c12.margin == math.sqrt(d) - float(g)


def test_cube_vertices_within_sqrt_d_of_section_dual():
    for d in range(2, 8):
        bd = Parallelepiped.cube(d)
        for signs in itertools.product((1, -1), repeat=d):
            g = section_dual_gauge(bd, signs)
            assert g * g <= d


def test_first_minimum_section_dual_frozen():
    b3 = Parallelepiped.cube(3)
    assert first_minimum_section_dual(b3) == 1
    assert first_minimum_section_dual(b3.scale(Fraction(2))) == Fraction(1, 4)
    assert first_minimum_section_dual(Parallelepiped.cube(7)) == 1
    with pytest.raises(ValueError):
        first_minimum_section_dual(Parallelepiped.cube(1))


@pytest.mark.slow
def test_first_minimum_section_dual_matches_brute_force(monkeypatch):
    rng = random.Random(61)
    for _ in range(10):
        h = random_unimodular(rng, 3, ops=4)
        eta = tuple(Fraction(rng.randint(2, 5), rng.randint(2, 4)) for _ in range(3))
        piped = Parallelepiped(h, eta)
        value = first_minimum_section_dual(piped)
        brute = min(
            section_dual_gauge(piped, z)
            for z in itertools.product(range(-8, 9), repeat=3)
            if any(z)
        )
        assert value == brute
    # generic bodies, whose forms are not integral: the scan stops at the
    # first point whose sup norm reaches the smallest gauge so far, and on
    # some of them the first point of the box is not yet that point; each
    # value is the minimum over a box of the reduced coordinates that holds
    # the sup-norm dilate of the value, widened to at least 2 a side
    measured = []
    pullback = sections._pullback_gauge

    def counting(rows, z):
        measured.append(z)
        return pullback(rows, z)

    monkeypatch.setattr(sections, "_pullback_gauge", counting)
    scans = []
    rng = random.Random("section-dual-scan")
    for kind in ("rational", "float"):
        for d in (2, 3, 4):
            for _ in range(4):
                body = generic_body(rng, d, kind)
                measured.clear()
                value = first_minimum_section_dual(body)
                scans.append(len(measured))
                brute = _section_dual_brute_force(body, value, 2)
                assert type(value) is type(brute) and value == brute
    # every scan measures its radius; some measure points after the first
    assert min(scans) == 1 and max(scans) > 2


@pytest.mark.slow
def test_first_minimum_section_dual_matches_brute_force_at_d7():
    # the search runs at every dimension the claim engine takes, up to d=8
    rng = random.Random("section-dual-d7")
    for kind in ("rational", "float"):
        for _ in range(2):
            body = generic_body(rng, 7, kind)
            value = first_minimum_section_dual(body)
            brute = _section_dual_brute_force(body, value, 1)
            assert type(value) is type(brute) and value == brute


def _section_dual_brute_force(body, value, reach):
    """The least section-dual gauge over the box of the reduced coordinates
    that holds the sup-norm dilate of value, widened to at least reach a side."""
    rows = gauge_rows(pseudo_compound(body))
    basis = reduced_basis(rows)
    reduced = [[sum(map(operator.mul, row, v)) for v in basis] for row in rows]
    box = [max(b, reach) for b in dilate_box(reduced, value)]
    return min(
        section_dual_gauge(body, [sum(c * v[i] for c, v in zip(k, basis)) for i in range(len(basis))])
        for k in itertools.product(*(range(-b, b + 1) for b in box))
        if any(k)
    )
