import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dualpiped import minima, sections
from dualpiped.bodies import Lattice, Parallelepiped, det_normalized, pseudo_compound
from dualpiped.harness import TrialConfig, evaluate_trial, gen_instance
from dualpiped.linalg import Matrix
from dualpiped.minima import (
    EnumerationBudgetError,
    dilate_box,
    first_minimum,
    gauge_rows,
    lattice_points_in_dilate,
    reduced_basis,
    successive_minima,
)
from dualpiped.scalars import Quad3, scalar_floor
from dualpiped.sections import first_minimum_section_dual, section_dual_gauge
from dualpiped.transference import check_claims, sample_directions
from dualpiped.witness import FIRST_DILATE, SECOND_DILATE, build_witness

from oracle_utils import (
    SQRT3,
    apply_hyperbolic,
    apply_linear,
    brute_force_minima,
    diagonal,
    dilate_points_oracle,
    field_det,
    field_inverse,
    fraction_lll_unimodular,
    gauge,
    generic_body,
    matvec,
    orthogonal_sublattice,
    random_quad3_rows,
    to_float,
)


def test_cube_minima_are_all_one():
    for d in (2, 3, 4):
        piped = Parallelepiped.cube(d)
        profile = successive_minima(piped, Lattice.integers(d))
        assert profile.values == (Fraction(1),) * d
        # witnesses are independent coefficient vectors on the unit sphere
        # of the sup norm; ties are broken lexicographically, so they need
        # not be the standard basis vectors
        assert Matrix([[Fraction(x) for x in w] for w in profile.witnesses]).det() != 0
        for w in profile.witnesses:
            assert gauge(piped, w) == 1


def test_diagonal_lattice_minima():
    piped = Parallelepiped.cube(2)
    lat = Lattice(diagonal([Fraction(2), Fraction(3)]))
    profile = successive_minima(piped, lat)
    assert profile.values == (Fraction(2), Fraction(3))
    assert profile.witnesses == ((0, 1), (1, 0)) or profile.witnesses == ((1, 0), (0, 1))


def test_quad3_lattice_minima_exact():
    piped = Parallelepiped.cube(2)
    lat = Lattice(Matrix([[Quad3(1), SQRT3], [Quad3(0), Quad3(1)]]))
    profile = successive_minima(piped, lat)
    assert profile.values == (Quad3(1), Quad3(1))
    # gauge-1 representatives sorted lexicographically: (1,-1) then (1,0)
    assert profile.witnesses == ((1, -1), (1, 0))


def test_minima_match_brute_force_oracle():
    rng = random.Random(101)
    checked = 0
    while checked < 25:
        d = rng.choice((2, 3))
        h = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)])
        if h.det() == 0:
            continue
        eta = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        lat = Lattice.integers(d)
        # redraw when the box oracle cannot certify completeness: every
        # witness gauge is at most R = max_j gauge(e_j), and coefficients of
        # gauge-R points are bounded by the inverse row l1 norms times R
        c = diagonal([1 / e for e in eta]).matmul(h)
        radius = max(max(abs(c.rows[i][j]) for i in range(d)) for j in range(d))
        if any(sum(abs(x) for x in row) * radius > 6 for row in c.inverse().rows):
            continue
        profile = successive_minima(piped, lat)
        values, _ = brute_force_minima(piped, lat, d, box=6)
        assert list(profile.values) == values
        for mu, k in zip(profile.values, profile.witnesses):
            assert gauge(piped, matvec(lat.basis, k)) == mu
        checked += 1


def test_minima_profile_is_independent_and_sorted():
    rng = random.Random(55)
    piped = Parallelepiped(Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]), (Fraction(1), Fraction(1, 2), Fraction(2)))
    profile = successive_minima(piped, Lattice.integers(3))
    assert all(a <= b for a, b in zip(profile.values, profile.values[1:]))
    m = Matrix([[Fraction(x) for x in w] for w in profile.witnesses])
    assert m.det() != 0


def test_float_mode_matches_exact_values():
    piped = Parallelepiped(Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]), (Fraction(1), Fraction(1, 2), Fraction(2)))
    exact = successive_minima(piped, Lattice.integers(3))
    approx = successive_minima(to_float(piped), to_float(Lattice.integers(3)))
    for a, b in zip(exact.values, approx.values):
        assert float(a) == pytest.approx(b, rel=1e-12)


def test_float_gauges_are_correctly_rounded(monkeypatch):
    # the search measures float rows by the exact gauges of the dyadic rows,
    # and a float body's minima are those exact gauges rounded once
    searches = []

    def recording(c_rows, mu, basis):
        keys, points, den = dilate(c_rows, mu, basis)
        searches.append((c_rows, list(zip(keys, map(tuple, points))), den))
        return keys, points, den

    dilate = minima._dilate
    monkeypatch.setattr(minima, "_dilate", recording)
    checked = 0
    for d, seeds in ((3, 6), (4, 5), (5, 5)):
        for seed in range(seeds):
            piped = gen_instance(d, seed)
            for body in (det_normalized(piped), pseudo_compound(piped)):
                searches.clear()
                profile = successive_minima(body)
                ((c_rows, keyed, den),) = searches
                points = [(minima._gauge(key, den), tuple(map(int, k))) for key, k in keyed]
                mu = max(gauge for gauge, _ in points)
                assert points == lattice_points_in_dilate(c_rows, mu, minima.reduced_basis(c_rows))
                exact_rows = [[Fraction(x) for x in row] for row in c_rows]
                gauges = {}
                for gauge, k in points:
                    exact = max(abs(sum(c * x for c, x in zip(row, k))) for row in exact_rows)
                    assert type(gauge) is Fraction and gauge == exact
                    gauges[k] = gauge
                    checked += 1
                assert all(type(value) is float for value in profile.values)
                assert profile.values == tuple(float(gauges[k]) for k in profile.witnesses)
    assert checked > 1000


def twin_bodies():
    """Float bodies: harness bodies at d=3-5 with their compounds and one shift each, and generic bodies."""
    rng = random.Random("twins")
    for d in (3, 4, 5):
        for seed in range(2):
            body = det_normalized(gen_instance(d, 100 * d + seed))
            (raw,) = sample_directions(rng, d, 1)
            yield from (body, pseudo_compound(body), apply_hyperbolic(body, tuple(map(Fraction, raw))))
    for d in (2, 3, 4):
        yield generic_body(rng, d, "float")


def test_float_rows_are_searched_as_their_exact_twins():
    # a float is the dyadic rational it stores, so float rows search, keep,
    # order and measure their points as the same rows read as Fractions do;
    # only a float body's reported values are rounded, once
    for body in twin_bodies():
        assert body.kind == "float"
        d = body.dimension
        rows = gauge_rows(body)
        twin = [[Fraction(x) for x in row] for row in rows]
        basis = reduced_basis(rows)
        assert reduced_basis(twin) == basis
        profile = successive_minima(body)
        # a float radius is read exactly too, on either side of an exact minimum
        for mu in (profile.values[-1], Fraction(profile.values[-1]) * Fraction(2**52 + 1, 2**52)):
            points = lattice_points_in_dilate(rows, mu, basis)
            assert points == lattice_points_in_dilate(twin, Fraction(mu), basis)
            assert all(type(gauge) is Fraction for gauge, _ in points)
        # the twin body: a rational body whose gauge rows are exactly the twin rows
        exact = successive_minima(Parallelepiped(Matrix(twin), (Fraction(1),) * d))
        assert profile.witnesses == exact.witnesses
        assert profile.values == tuple(map(float, exact.values))
        # the section-dual minimum over the compound's gauge rows read
        # exactly, by its definition (the section-dual rows, up to one sign)
        section_rows = [[Fraction(x) for x in row] for row in gauge_rows(pseudo_compound(body))]
        cube = Parallelepiped.cube(d)

        def wedge(k):
            return section_dual_gauge(cube, [sum(x * y for x, y in zip(row, k)) for row in section_rows])

        section_basis = reduced_basis(section_rows)
        radius = min(map(wedge, section_basis))
        points = lattice_points_in_dilate(section_rows, radius, section_basis)
        value = first_minimum_section_dual(body)
        assert type(value) is float
        assert value == float(min(wedge(k) for _, k in points))


def test_first_minimum_with_unit_start():
    piped = Parallelepiped.cube(3)
    value, witness = first_minimum(piped, Lattice.integers(3))
    assert value == 1
    assert witness in {(0, 0, 1), (0, 1, 0), (1, 0, 0)}


def test_each_search_enumerates_once(monkeypatch):
    # the reduced basis sizes one dilate that already holds every witness,
    # and the same basis steers the enumeration, so each search reduces and
    # inverts its rows once (lattice_points_in_dilate, which the section-dual
    # search calls, reads the same enumeration); a body keeps its rows with
    # their reductions and inverse, so a repeated search of the same body, or
    # a search of the same rows from the same start, reduces and inverts 0 times
    calls = []
    reductions = []
    inverses = []

    def counting(c_rows, mu, basis):
        calls.append(mu)
        return dilate(c_rows, mu, basis)

    def counting_reduction(c_rows, start):
        reductions.append(c_rows)
        return reduction(c_rows, start)

    def counting_inverse(a, b):
        inverses.append(a)
        return inverse(a, b)

    dilate = minima._dilate
    reduction = minima._reduction_transform
    inverse = minima._inverse
    monkeypatch.setattr(minima, "_dilate", counting)
    monkeypatch.setattr(minima, "_reduction_transform", counting_reduction)
    monkeypatch.setattr(minima, "_inverse", counting_inverse)

    def enumerations(search, derived=1) -> int:
        calls.clear()
        reductions.clear()
        inverses.clear()
        search()
        assert (len(reductions), len(inverses)) == (derived, derived)
        return len(calls)

    bodies = []
    for d, mode in ((3, "float"), (4, "float"), (5, "float"), (3, "exact")):
        for seed in range(4):
            piped = gen_instance(d, seed, mode=mode)
            bodies += [det_normalized(piped), pseudo_compound(piped)]
    for body in bodies:
        assert enumerations(lambda: successive_minima(body)) == 1
        assert enumerations(lambda: successive_minima(body), derived=0) == 1
    w = build_witness(Fraction(1, 2))
    for body, lattice, k_max in (
        (w.body, w.lattice1, 1),
        (w.body, w.lattice2, 2),
        (w.dual_body, w.dual_lattice1, 1),
        (w.dual_body, w.dual_lattice2, 1),
        (w.z3_body_1, None, 2),
        (w.z3_body_2, None, 2),
        (pseudo_compound(w.z3_body_1), None, 1),
        (pseudo_compound(w.z3_body_2), None, 1),
    ):
        assert enumerations(lambda: successive_minima(body, lattice, k_max)) == 1
        # rows measured against a lattice are built anew for each search
        assert enumerations(lambda: successive_minima(body, lattice, k_max),
                            derived=int(lattice is not None)) == 1
    fresh = [gen_instance(d, 4, mode=mode) for d, mode in ((3, "float"), (5, "float"), (3, "exact"))]
    for body in fresh + [Parallelepiped.cube(3), build_witness(Fraction(1, 3)).z3_body_1]:
        assert enumerations(lambda: sections.first_minimum_section_dual(body)) == 1
        # the section-dual search reads the compound's own rows
        assert enumerations(lambda: successive_minima(pseudo_compound(body)), derived=0) == 1
        assert enumerations(lambda: sections.first_minimum_section_dual(body), derived=0) == 1


# H = diag(h, 1) and eta = (e, 1) whose quotient h / e overflows, or rounds to
# 0 although h does not: the search reads the rows as stored, so both are
# refused where the body's rows are built
@pytest.mark.parametrize("h, e", [(1e308, 1e-10), (1e-308, 1e300)], ids=["overflows", "underflows"])
def test_float_gauge_rows_beyond_the_float_range_are_refused(h, e):
    body = Parallelepiped(Matrix([[h, 0.0], [0.0, 1.0]]), (e, 1.0))
    message = "gauge row 0 leaves the float range: an entry over eta_0 overflows or rounds to 0"
    for search in (lambda: gauge_rows(body), lambda: successive_minima(body),
                   lambda: check_claims(body, directions=[(1.0, 2.0)])):
        with pytest.raises(ValueError, match=message):
            search()
    # rows measured against a lattice are refused alike
    with pytest.raises(ValueError, match=message):
        gauge_rows(body, Lattice.integers(2, kind="float"))
    # the same entry over a bound that keeps the quotient in range is searched
    assert successive_minima(Parallelepiped(Matrix([[1.0, 0.0], [0.0, h]]), (1.0, h))).values == (1.0, 1.0)


def test_float_gauge_rows_singular_as_rounded_are_refused():
    # H is invertible, but its gauge row 0 rounds into the subnormal range as
    # (1e-310, 1e-310), a multiple of row 1: the elimination of the reduced
    # rows finds them singular and refuses the body by name
    body = Parallelepiped(Matrix([[1e-10, 1e-10 * (1 + 2**-52)], [1.0, 1.0]]), (1e300, 1.0))
    assert gauge_rows(body)[0] == (1e-310, 1e-310)
    message = "the gauge rows h_ij / eta_i lose their rank in the float range"
    for search in (lambda: successive_minima(body), lambda: check_claims(body, directions=[(1.0, 2.0)])):
        with pytest.raises(ValueError, match=message):
            search()
    # rows given as plain sequences are the caller's: singular ones stay a ZeroDivisionError
    for rows in ([[1, 2], [2, 4]], [[1.0, 2.0], [2.0, 4.0]]):
        for search in (lambda: dilate_box(rows, 1), lambda: lattice_points_in_dilate(rows, 1, ((1, 0), (0, 1)))):
            with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                search()


def test_each_search_clears_its_rows_once(monkeypatch):
    # the reduction clears a float snapshot of exact rows, and the radius and
    # the enumeration share one clearing of the rows themselves: one
    # Z[sqrt3] clearing per search of Q(sqrt3) rows
    cleared = []

    def counting(rows):
        cleared.append(rows)
        return zsqrt3_rows(rows)

    zsqrt3_rows = minima.zsqrt3_rows
    monkeypatch.setattr(minima, "zsqrt3_rows", counting)
    w = build_witness(Fraction(1, 2))
    for body, lattice in (
        (w.body, w.lattice1),
        (w.dual_body, w.dual_lattice1),
        (w.z3_body_1, None),
        (pseudo_compound(w.z3_body_1), None),
    ):
        cleared.clear()
        successive_minima(body, lattice, 1)
        assert len(cleared) == 1


def test_integral_lll_matches_fraction_reference(monkeypatch):
    # the integral pass takes integer columns; the reference gets the same
    # columns as Fractions, or the unscaled rational columns the integers
    # clear (the transform is scale invariant)
    inputs = []

    def recording(cols):
        inputs.append([[Fraction(x) for x in c] for c in cols])
        return lll(cols)

    def cleared(cols):
        scale = math.lcm(*(x.denominator for c in cols for x in c))
        return [[x.numerator * (scale // x.denominator) for x in c] for c in cols]

    lll = minima._lll_unimodular
    monkeypatch.setattr(minima, "_lll_unimodular", recording)
    searches = []
    for d, mode, seeds in [(d, "float", range(6)) for d in (2, 3, 4, 5, 6)] + [(3, "exact", range(12))]:
        lattice = Lattice.integers(d, kind="float" if mode == "float" else "rational")
        for seed in seeds:
            piped = gen_instance(d, seed, mode=mode)
            for body in (piped, det_normalized(piped)):
                searches += [(body, lattice), (pseudo_compound(body), lattice)]
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)):
        w = build_witness(eps)
        integers = Lattice.integers(3)
        searches += [
            (w.body, w.lattice1),
            (w.body, w.lattice2),
            (w.dual_body, w.dual_lattice1),
            (w.dual_body, w.dual_lattice2),
            (w.z3_body_1, integers),
            (w.z3_body_2, integers),
            (pseudo_compound(w.z3_body_1), integers),
            (pseudo_compound(w.z3_body_2), integers),
        ]
    for body, lattice in searches:
        minima.reduced_basis(minima.gauge_rows(body, lattice))
    assert len(inputs) > 150
    # small dyadic entries hit exact half-integer mu (round-half-even ties)
    # and singular column sets
    rng = random.Random(2026)
    for _ in range(2400):
        n = rng.randint(2, 5)
        inputs.append(
            [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))) for _ in range(n)] for _ in range(n)]
        )
    results = [lll(cleared(cols)) for cols in inputs]
    assert results == [fraction_lll_unimodular(cols) for cols in inputs]
    assert sum(u is None for u in results) > 50
    assert sum(u is not None for u in results) > 1000


def test_lattice_points_in_dilate_canonical_reps():
    piped = Parallelepiped.cube(2)
    c_rows = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    pts = lattice_points_in_dilate(c_rows, Fraction(1), minima.reduced_basis(c_rows))
    ks = {k for _, k in pts}
    # one representative per +- pair, first nonzero entry positive
    assert ks == {(0, 1), (1, 0), (1, 1), (1, -1)}
    for g, k in pts:
        assert g <= 1


def _exact_gauge(c_rows, k):
    return max(abs(sum((c * x for c, x in zip(row, k) if x), Fraction(0))) for row in c_rows)


def _box_sweep(c_rows, mu):
    """Every canonical (gauge, k) of the unreduced box, by exact gauges."""
    box = minima.dilate_box(c_rows, mu)
    points = []
    for k in itertools.product(*(range(-b, b + 1) for b in box)):
        if next(filter(None, k), 0) > 0:
            gauge = _exact_gauge(c_rows, k)
            if gauge <= mu:
                points.append((gauge, k))
    return sorted(points)


def _boundary_cases():
    """Exact rows with mu the exact gauge of a lattice point, boxes kept small."""
    rng = random.Random(16)
    cases = []

    def add(c_rows, k, cap):
        if Matrix(c_rows).det() == 0 or not any(k):
            return
        mu = _exact_gauge(c_rows, k)
        if math.prod(2 * b + 1 for b in minima.dilate_box(c_rows, mu)) <= cap:
            cases.append((c_rows, mu))

    while len(cases) < 150:
        d = rng.randint(2, 4)
        c_rows = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)) for _ in range(d)
        )
        add(c_rows, tuple(rng.randint(-2, 2) for _ in range(d)), 3000)
    while len(cases) < 180:
        d = rng.randint(2, 3)
        c_rows = tuple(
            tuple(
                Quad3(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for _ in range(d)
            )
            for _ in range(d)
        )
        add(c_rows, tuple(rng.randint(-2, 2) for _ in range(d)), 600)
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
        w = build_witness(eps)
        integers = Lattice.integers(3)
        for body, lattice, mu in (
            (w.body, w.lattice1, FIRST_DILATE),
            (w.body, w.lattice2, Fraction(1)),
            (w.body, w.lattice2, SECOND_DILATE),
            (w.dual_body, w.dual_lattice1, Fraction(1)),
            (w.dual_body, w.dual_lattice2, Fraction(1)),
            (w.z3_body_1, integers, FIRST_DILATE),
            (w.z3_body_2, integers, SECOND_DILATE),
        ):
            cases.append((minima.gauge_rows(body, lattice), mu))
    return cases


def test_exact_rows_on_the_boundary_match_the_box_sweep(monkeypatch):
    # the search must keep every point whose exact gauge equals mu,
    # including those whose float gauge lands above mu; no box is walked,
    # so the grid decides every one
    monkeypatch.setattr(minima, "WALK_CELL_CAP", 0)
    above = 0
    for c_rows, mu in _boundary_cases():
        expected = _box_sweep(c_rows, mu)
        basis = minima.reduced_basis(c_rows)
        assert lattice_points_in_dilate(c_rows, mu, basis) == expected
        u = Matrix(list(zip(*basis)))
        snapshot = np.array([[float(x) for x in row] for row in Matrix(c_rows).matmul(u).rows])
        back = u.inverse()
        for gauge, k in expected:
            if gauge == mu:
                kp = np.array([float(x) for x in matvec(back, k)])
                above += float(np.abs(snapshot @ kp).max()) > float(mu)
    assert above > 0


def _reduced_box(c_rows, mu, basis):
    return minima.dilate_box([[sum(x * y for x, y in zip(row, v)) for v in basis] for row in c_rows], mu)


def _walk_cases():
    """Rational and float rows at d = 1-6 with mu from a column gauge, zero-width coordinates included."""
    rng = random.Random("walk")
    cases = []
    for d in range(1, 7):
        while sum(len(c_rows) == d for c_rows, _ in cases) < 8:
            c_rows = tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)) for _ in range(d)
            )
            if Matrix(c_rows).det() == 0:
                continue
            basis = minima.reduced_basis(c_rows)
            gauges = sorted(_exact_gauge(c_rows, k) for k in basis)
            mu = gauges[rng.randrange(d)] * rng.choice((1, Fraction(1, 2), Fraction(3, 2)))
            if math.prod(2 * b + 1 for b in _reduced_box(c_rows, mu, basis)) > 3000:
                continue  # the oracle sweeps every cell in Fractions
            cases.append((c_rows, mu))
            floats = tuple(tuple(float(x) for x in row) for row in c_rows)
            cases.append((floats, float(mu)))
            # every float entry subnormal, the rows and mu read exactly
            tiny = tuple(tuple(x * 2.0**-1050 for x in row) for row in floats)
            cases.append((tiny, float(mu) * 2.0**-1050))
    return cases


def test_walk_matches_the_grid(monkeypatch):
    # a small box is walked in ints: the same points, of the same types, as
    # the grid and the definition give, zero-width coordinates included;
    # walking every box (a cap of GRID_CELL_CAP) walks boxes of thousands of cells
    cases = _walk_cases() + _boundary_cases()[:150]
    widths = set()
    for c_rows, mu in cases:
        basis = minima.reduced_basis(c_rows)
        box = _reduced_box(c_rows, mu, basis)
        widths.add((min(box) == 0, math.prod(2 * b + 1 for b in box) <= minima.WALK_CELL_CAP))
        runs = []
        for cap in (minima.WALK_CELL_CAP, 0, minima.GRID_CELL_CAP):
            with monkeypatch.context() as patch:
                patch.setattr(minima, "WALK_CELL_CAP", cap)
                runs.append(lattice_points_in_dilate(c_rows, mu, basis))
        expected = dilate_points_oracle(c_rows, mu, basis)
        for points in runs:
            assert points == expected
            assert all(type(g) is Fraction and all(type(x) is int for x in k) for g, k in points)
    assert widths == {(True, True), (True, False), (False, True), (False, False)}


def test_array_decision_matches_its_definition(monkeypatch):
    # the products of the primitive rows g_i = a_i / gcd(a_i) run in int64
    # where sum_j |g_ij| max(b_j, 1) < 2^62 proves them exact, and in Python
    # ints otherwise: the body rows of these float d=5 instances (about 54
    # bits) run in int64, the same bodies moved by a float map within 2^-40
    # of the identity (entries near zero put the rows and their primitive
    # forms at about 94 bits) take the object path, and both match the per-candidate
    # definition; no box is walked, so the grid decides them
    searches = []
    dtypes = []

    def recording(c_rows, mu, basis):
        dtypes.clear()
        found = dilate(c_rows, mu, basis)
        searches.append((c_rows, mu, basis, set(dtypes)))
        return found

    def product(k, rows, box):
        out = exact_product(k, rows, box)
        dtypes.append(out.dtype)
        return out

    dilate = minima._dilate
    exact_product = minima.exact_product
    monkeypatch.setattr(minima, "WALK_CELL_CAP", 0)
    monkeypatch.setattr(minima, "_dilate", recording)
    monkeypatch.setattr(minima, "exact_product", product)
    objects = np.dtype(object)
    for seed in (0, 4):
        rng = random.Random(seed)
        body = det_normalized(gen_instance(5, seed))
        near = Matrix([[float(i == j) + 2.0**-40 * rng.gauss(0, 1) for j in range(5)] for i in range(5)])
        for body, wide in ((body, False), (apply_linear(body, near), True)):
            searches.clear()
            successive_minima(body)
            ((c_rows, mu, basis, kinds),) = searches
            assert (objects in kinds) == wide
            dtypes.clear()
            points = lattice_points_in_dilate(c_rows, mu, basis)
            assert set(dtypes) == kinds
            assert len(points) > 20
            assert points == dilate_points_oracle(c_rows, mu, basis)
            if not wide:
                # the same rows over a denominator of 2^62 or more divide
                # their keys in Python ints
                tiny = tuple(tuple(x * 2.0**-20 for x in row) for row in c_rows)
                assert minima._integer_rows(tiny)[2] >= 2**62
                points = lattice_points_in_dilate(tiny, mu * 2.0**-20, basis)
                assert points == dilate_points_oracle(tiny, mu * 2.0**-20, basis)
    # two primitive rows right at the bound: keys of 2^62 - 1 stay in int64,
    # and a bound of 2^62 takes the object path
    top = 2**61
    mu = Fraction(2**62 - 1)
    for rows, wide, count in ((((top, top - 1), (top - 1, -top)), False, 4),
                              (((top + 1, top - 1), (top - 1, -top - 1)), True, 2)):
        assert all(math.gcd(*row) == 1 for row in rows)
        c_rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        basis = minima.reduced_basis(c_rows)
        assert basis == [(1, 0), (0, 1)] and minima.dilate_box(c_rows, mu) == [1, 1]
        bound = max(sum(abs(x) for x in row) for row in rows)
        assert bound == 2**62 - (not wide)
        dtypes.clear()
        points = lattice_points_in_dilate(c_rows, mu, basis)
        assert (objects in dtypes) == wide
        assert len(points) == count
        assert points == dilate_points_oracle(c_rows, mu, basis)


def test_harness_grids_decide_every_canonical_cell_in_int64(monkeypatch):
    # every grid search of a harness trial hands all (N - 1) / 2 canonical
    # cells of its N-cell box to one exact product, which runs in int64: a
    # reduced row of an exact harness body is a multiple of a signed unit
    # row, however wide, and of a float body a multiple of a row of about
    # 53 bits
    grids = []
    products = []

    def half_box(box):
        grids.append((math.prod(2 * b + 1 for b in box), len(products)))
        return half(box)

    def product(k, rows, box):
        out = exact_product(k, rows, box)
        products.append((len(k), out.dtype))
        return out

    half = minima._half_box
    exact_product = minima.exact_product
    monkeypatch.setattr(minima, "_half_box", half_box)
    monkeypatch.setattr(minima, "exact_product", product)
    for mode, d, trials in (("float", 5, 20), ("exact", 5, 20), ("exact", 6, 10)):
        grids.clear()
        products.clear()
        config = TrialConfig(dimension=d, trials=trials, seed=42, mode=mode)
        for index in range(trials):
            assert evaluate_trial(config, index).error is None
        assert len(grids) >= 2 * trials
        for cells, first in grids:
            assert products[first] == ((cells - 1) // 2, np.dtype(np.int64))


@pytest.mark.parametrize(
    "box", [[0], [4], [0, 0], [2, 0], [0, 3], [1, 0, 2], [0, 1, 0], [0, 0, 1], [2, 1, 0, 1]]
)
def test_half_box_grid_is_the_canonical_half(box):
    # the grid's cells are every cell whose first nonzero coordinate is
    # positive, in row-major order, as a meshgrid sweep of the box finds them
    d = len(box)
    mesh = np.meshgrid(*(np.arange(-b, b + 1) for b in box), indexing="ij")
    cells = np.stack([m.ravel() for m in mesh], axis=1)
    lead = cells[np.arange(len(cells)), np.argmax(cells != 0, axis=1)]
    grid = minima._half_box(box)
    assert grid.shape == (math.prod(2 * b + 1 for b in box) // 2, d)
    assert grid.tolist() == cells[lead > 0].tolist()


def _field_box(rows, mu):
    return [scalar_floor(mu * sum((abs(x) for x in row), Fraction(0))) for row in field_inverse(rows)]


def test_integer_box_matches_the_field_inverse():
    # the fraction-free elimination of integer rows, row swaps included,
    # gives the box that inverting the same rows over Q gives
    rng = random.Random(9)
    checked = 0
    while checked < 300:
        d = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9) * rng.choice((1, 10**20)))) for _ in range(d)] for _ in range(d)]
        if Matrix(rows).det() == 0:
            continue
        mu = Fraction(rng.randint(1, 10**21), rng.randint(1, 7))
        field = [[Fraction(x) for x in row] for row in rows]
        assert minima.dilate_box(rows, mu) == minima.dilate_box(field, mu) == _field_box(field, mu)
        checked += 1


def test_quad3_box_matches_the_field_inverse():
    # Q(sqrt3) rows cleared into Z[sqrt3] over one denominator, zero leading
    # pivots and huge denominators included, give the box of the inverse of
    # the rows themselves, for rational and Q(sqrt3) dilates
    rng = random.Random(18)
    checked = 0
    while checked < 200:
        d = rng.randint(1, 4)
        rows = random_quad3_rows(rng, d)
        if field_det(rows) == 0:
            continue
        mu = Quad3(Fraction(rng.randint(0, 10**6), rng.randint(1, 7)), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        for dilate in (mu, mu.a + 1):
            if dilate > 0:
                assert minima.dilate_box(rows, dilate) == _field_box(rows, dilate)
        checked += 1


def test_boundary_points_survive_subnormal_scales():
    # the gauge is homogeneous, so rows and mu shrunk by 10^-310 keep the
    # points of the unit scale; every entry is then subnormal as a float
    tiny = Fraction(1, 10**310)
    cases = _boundary_cases()
    for c_rows, mu in cases[:30] + cases[150:160]:
        expected = [(gauge * tiny, k) for gauge, k in _box_sweep(c_rows, mu)]
        scaled = tuple(tuple(x * tiny for x in row) for row in c_rows)
        basis = minima.reduced_basis(c_rows)
        assert lattice_points_in_dilate(scaled, mu * tiny, basis) == expected
    forms = Matrix([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]])
    unit = successive_minima(Parallelepiped(forms, (Fraction(1),) * 2))
    assert unit.values == (Fraction(2), Fraction(2))
    far = successive_minima(Parallelepiped(forms, (1 / tiny,) * 2))
    assert far.values == tuple(x * tiny for x in unit.values)
    assert far.witnesses == unit.witnesses


def test_rational_forms_with_a_quad3_bound():
    # a Q(sqrt3) bound over rational forms gives rows that mix both kinds
    piped = Parallelepiped(Matrix.identity(2), (Fraction(1), SQRT3))
    assert successive_minima(piped).values == (Quad3(0, Fraction(1, 3)), Fraction(1))
    rng = random.Random(5)
    for _ in range(10):
        h = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)])
        if h.det() == 0:
            continue
        eta = (Fraction(rng.randint(1, 3)), SQRT3, Quad3(1, Fraction(1, 2)))
        # the twin with Q(sqrt3) forms has rows of one kind and the same gauge
        twin = Parallelepiped(Matrix([[Quad3(x) for x in row] for row in h.rows]), eta)
        assert successive_minima(Parallelepiped(h, eta)) == successive_minima(twin)


def test_budget_error(monkeypatch):
    # the unit square's box at mu = 1 has 3 x 3 cells; one cell over the cap
    # is refused before the grid is built
    def grid(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(minima, "GRID_CELL_CAP", 8)
    monkeypatch.setattr(minima, "_half_box", grid)
    for piped in (Parallelepiped.cube(2), Parallelepiped.cube(2, kind="float")):
        with pytest.raises(EnumerationBudgetError, match="has 9 cells; the grid supports at most 8"):
            successive_minima(piped)


def test_orthogonal_sublattice_frozen_cases():
    sub = orthogonal_sublattice((0, 0, 1))
    assert sub.basis_columns == ((1, 0, 0), (0, 1, 0))
    assert sub.covolume_squared == 1

    sub = orthogonal_sublattice((2, 3))
    assert sub.basis_columns == ((3, -2),)
    assert sub.covolume_squared == 13

    sub = orthogonal_sublattice((1, 1, 1))
    assert sub.covolume_squared == 3

    with pytest.raises(ValueError):
        orthogonal_sublattice((2, 4))
    with pytest.raises(ValueError):
        orthogonal_sublattice((0, 0))


def test_orthogonal_sublattice_covolume_is_vector_length():
    rng = random.Random(77)
    import math

    done = 0
    while done < 100:
        d = rng.randint(2, 6)
        v = tuple(rng.randint(-9, 9) for _ in range(d))
        if all(x == 0 for x in v) or math.gcd(*v) != 1:
            continue
        sub = orthogonal_sublattice(v)
        assert sub.covolume_squared == sum(x * x for x in v)
        # every basis column really is orthogonal to v
        for col in sub.basis_columns:
            assert sum(a * b for a, b in zip(col, v)) == 0
        done += 1
