"""End-to-end acceptance checks for the library and verification suite.

Seven gates, each with pinned tolerances: the exact three-dimensional
witness, the second-minimum constant table, the cube section formulas
against independent oracles, the randomized claim suite at seed 42 (float
d=3-5 and exact d=2-5, its first trials held to the closed forms of their
searches), the enumeration engine against brute force, the
exact structural identities, and the fixed points of the second-minimum
root.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from dualpiped.bodies import Lattice, Parallelepiped, pseudo_compound
from dualpiped.harness import TrialConfig, run_suite
from dualpiped.linalg import Matrix
from dualpiped.minima import successive_minima
from dualpiped.scalars import Quad3
from dualpiped.sections import cube_section_volume, v_tau
from dualpiped.transference import ALL_CLAIMS, REL_SLACK, c_d
from dualpiped.witness import sharpness_report

from oracle_utils import (
    brute_force_minima,
    diagonal,
    dual_lattice,
    family_minima_off_closed_form,
    harness_trial,
    hyperbolic_map,
    khintchine_pair,
    monte_carlo_section_volume,
    random_unimodular,
    searches_off_closed_form,
    section3_area,
    t2_root,
)


def test_witness_minima_exact_at_one_half():
    start = time.perf_counter()
    report = sharpness_report(Fraction(1, 2))
    elapsed = time.perf_counter() - start
    values = {entry.label: entry.value for entry in report.entries}
    # equalities in Q(sqrt3), zero tolerance
    assert values["first minimum, body against lattice one"] == Quad3(0, Fraction(2, 3))
    assert values["first minimum, body against lattice two"] == Fraction(1)
    assert values["second minimum, body against lattice two"] == Fraction(5, 4)
    assert values["first minimum, dual body against dual lattice one"] == Fraction(1)
    assert values["first minimum, dual body against dual lattice two"] == Fraction(1)
    assert elapsed < 5.0


def test_constant_table_bounds_and_asymptotics():
    start = time.perf_counter()
    assert abs(c_d(3) - math.sqrt(1 + math.sqrt(2))) <= 1e-12
    assert abs(c_d(4) - math.sqrt(2 * math.cos(math.pi / 9))) <= 1e-9
    for d in range(3, 65):
        lower = d ** (1 / (2 * (d - 1)))
        upper = d ** (1 / (2 * (d - 2)))
        value = c_d(d)
        assert lower < value < upper
    ratio = (c_d(1000) - 1) / (math.log(1000) / 2000)
    assert abs(ratio - 1) <= 0.05
    assert time.perf_counter() - start < 1.0


def test_section_volumes_against_oracles_and_sharp_bounds():
    rng = random.Random(4242)
    for _ in range(100):
        x = rng.random()
        general = cube_section_volume((x, 1.0, 1.0), 3)
        assert abs(general - section3_area(x)) <= 1e-10

    for d in range(3, 7):
        for i in range(20):
            a = tuple(rng.gauss(0.0, 1.0) or 1.0 for _ in range(d))
            volume = cube_section_volume(a, d)
            estimate, sigma = monte_carlo_section_volume(
                a, d, samples=1_000_000, seed=1000 * d + i
            )
            assert abs(volume - estimate) <= 4 * sigma

    root2 = math.sqrt(2)
    for d in range(3, 7):
        for _ in range(1000):
            tau = tuple(abs(rng.gauss(0.0, 1.0)) or 1.0 for _ in range(d))
            v = v_tau(tau)
            assert v >= 1 - 1e-12
            assert v <= root2 + 1e-12
        axis = (1.0,) + (0.0,) * (d - 1)
        assert abs(v_tau(axis) - 1.0) <= 1e-9
        face_diagonal = (1.0, 1.0) + (0.0,) * (d - 2)
        assert abs(v_tau(face_diagonal) - root2) <= 1e-9


@pytest.mark.slow
def test_randomized_claim_suite_zero_violations():
    assert REL_SLACK == 1e-9
    # the float legs, then the exact legs; on every leg an error in a trial
    # would turn into a skip with a note
    legs = [(3, 500, "float"), (4, 500, "float"), (5, 500, "float"),
            (2, 100, "exact"), (3, 300, "exact"), (4, 100, "exact"), (5, 50, "exact")]
    for d, trials, mode in legs:
        config = TrialConfig(dimension=d, trials=trials, seed=42, mode=mode, tau_samples=8)
        report = run_suite(config)
        assert tuple(summary.claim for summary in report.claims) == ALL_CLAIMS
        for summary in report.claims:
            assert summary.instances == trials
            assert summary.violations == 0, (d, summary.claim, summary.extremal_instance)
            assert summary.passes + summary.skips == trials
            assert summary.notes == (), (d, summary.claim, summary.notes[:3])
        # every search of a harness trial has a closed form; the first 40
        # trials of each leg are held to it
        for index in range(40):
            trial = harness_trial(d, 42, index, mode)
            assert family_minima_off_closed_form(trial) == [], (d, mode, index)
            assert searches_off_closed_form(trial) == [], (d, mode, index)


def test_enumeration_matches_brute_force():
    rng = random.Random(424242)
    done = 0
    while done < 50:
        d = rng.choice((2, 3))
        h = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)])
        if h.det() == 0:
            continue
        eta = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        lat = Lattice.integers(d)
        # the box oracle is exhaustive only when every witness provably fits:
        # the standard basis vectors give mu_d <= R, and any point of gauge
        # at most R has coefficients bounded by the l1 norms of the inverse
        # rows times R, so instances beyond the box are redrawn
        c = diagonal([1 / e for e in eta]).matmul(h)
        radius = max(max(abs(c.rows[i][j]) for i in range(d)) for j in range(d))
        if any(sum(abs(x) for x in row) * radius > 6 for row in c.inverse().rows):
            continue
        profile = successive_minima(piped, lat)
        values, _ = brute_force_minima(piped, lat, d, box=6)
        assert list(profile.values) == values
        done += 1


def test_structural_identities_exact():
    rng = random.Random(12321)
    for _ in range(100):
        d = rng.randint(2, 5)
        lat = Lattice(random_unimodular(rng, d))
        assert dual_lattice(dual_lattice(lat)).basis == lat.basis

    for _ in range(100):
        d = rng.randint(3, 5)
        eta = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(d))
        piped = Parallelepiped(random_unimodular(rng, d), eta)
        twice = pseudo_compound(pseudo_compound(piped))
        factor = Fraction(1)
        for e in eta:
            factor *= e
        factor = factor ** (d - 2)
        assert twice.forms == piped.forms
        assert twice.bounds == tuple(factor * e for e in eta)

    for _ in range(100):
        d = rng.randint(2, 5)
        h = random_unimodular(rng, d)
        eta = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        tau = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d))
        a = diagonal([1 / e for e in eta]).matmul(h)
        assert a.matmul(hyperbolic_map(piped, tau)).matmul(a.inverse()) == diagonal(tau)

    for _ in range(100):
        n = rng.randint(1, 4)
        theta = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
        f, g = khintchine_pair(theta)
        assert f.transpose().matmul(g) == Matrix.identity(n + 1)


def test_root_fixed_points():
    for d in range(3, 11):
        assert abs(t2_root(1.0, d) - c_d(d)) <= 1e-10
        start = d ** (1 / (2 * (d - 1)))
        assert abs(t2_root(start, d) - start) <= 1e-10
