"""Tests for the exact three-dimensional sharpness witnesses."""
import dataclasses
import random
from fractions import Fraction

import pytest

from dualpiped.bodies import Parallelepiped, pseudo_compound
from dualpiped.linalg import Matrix
from dualpiped.minima import first_minimum, successive_minima
from dualpiped.scalars import Quad3
from dualpiped.sections import section_dual_gauge
from dualpiped.witness import (
    CertificateError,
    build_witness,
    format_sharpness_report,
    sharpness_report,
    verify_example_points,
)

from oracle_utils import on_surface, tau_vertex, to_float, witness_sweep

NU1 = Quad3(0, Fraction(2, 3))
NU2 = Fraction(5, 4)

ORIGIN_ONLY = ((0, 0, 0),)
FIRST_PAIR = ((-1, 0, 0), (0, 0, 0), (1, 0, 0))
THIRD_PAIR = ((0, 0, -1), (0, 0, 0), (0, 0, 1))
SIX_POINTS = (
    (-1, 0, 0),
    (-1, 1, 0),
    (0, -1, 0),
    (0, 0, 0),
    (0, 1, 0),
    (1, -1, 0),
    (1, 0, 0),
)


def column(matrix, j):
    return tuple(row[j] for row in matrix.rows)


def test_build_witness_frozen_entries():
    w = build_witness(Fraction(1, 2))
    assert w.epsilon == Fraction(1, 2)
    assert column(w.basis_a, 2) == (Fraction(4, 3),) * 3
    assert column(w.dual_basis_a, 2) == (Fraction(1, 4),) * 3
    assert column(w.basis_a, 0) == (
        Quad3(0, Fraction(1, 6)),
        Quad3(0, Fraction(1, 6)),
        Quad3(0, Fraction(-1, 3)),
    )
    assert column(w.basis_b, 0) == (Fraction(1, 4), Fraction(1, 4), Fraction(-1, 2))
    assert column(w.basis_b, 1) == (Fraction(5, 8), Fraction(-3, 8), Fraction(-1, 4))
    assert column(w.dual_basis_b, 0) == (
        Fraction(1, 6),
        Fraction(7, 6),
        Fraction(-4, 3),
    )
    assert w.body.bounds == (Fraction(1, 2),) * 3
    assert w.dual_body.bounds == (Fraction(1, 4),) * 3


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 3), Fraction(5, 12)])
def test_build_witness_invariants(eps):
    w = build_witness(eps)
    assert abs(w.basis_a.det()) == 1
    assert abs(w.basis_b.det()) == 1
    ident_q = Matrix.identity(3, kind="quad3")
    ident_r = Matrix.identity(3, kind="rational")
    assert w.basis_a.transpose().matmul(w.dual_basis_a) == ident_q
    assert w.basis_b.transpose().matmul(w.dual_basis_b) == ident_r
    assert w.dual_body.bounds == (eps * eps,) * 3


def test_build_witness_validation():
    with pytest.raises(ValueError):
        build_witness(Fraction(3, 4))
    with pytest.raises(ValueError):
        build_witness(0)
    with pytest.raises(ValueError):
        build_witness(Fraction(-1, 3))
    with pytest.raises(TypeError):
        build_witness(0.25)


def test_certificate_at_one_half():
    cert = verify_example_points(build_witness(Fraction(1, 2)))
    assert cert.epsilon == Fraction(1, 2)
    assert len(cert.identities) == 5
    first, second, third, fourth, fifth = cert.identities

    assert first.dilate == NU1
    assert first.closed_points == SIX_POINTS
    assert first.interior_points == ORIGIN_ONLY
    assert first.bounds == (1, 1, 0)

    assert second.dilate == 1
    assert second.closed_points == FIRST_PAIR
    assert second.interior_points == ORIGIN_ONLY
    assert second.bounds == (1, 1, 0)

    assert third.dilate == NU2
    assert third.closed_points == SIX_POINTS
    assert third.interior_points == FIRST_PAIR
    assert third.bounds == (1, 1, 0)

    assert fourth.dilate == 1
    assert fourth.closed_points == THIRD_PAIR
    assert fourth.interior_points == ORIGIN_ONLY
    assert fourth.bounds == (0, 0, 1)

    assert fifth.dilate == 1
    assert fifth.closed_points == THIRD_PAIR
    assert fifth.interior_points == ORIGIN_ONLY
    assert fifth.bounds == (0, 0, 1)


def test_certificate_at_one_quarter():
    cert = verify_example_points(build_witness(Fraction(1, 4)))
    labels = [(i.body_name, i.lattice_name) for i in cert.identities]
    assert labels == [
        ("body", "lattice one"),
        ("body", "lattice two"),
        ("body", "lattice two"),
        ("dual body", "dual lattice one"),
        ("dual body", "dual lattice two"),
    ]
    assert cert.identities[0].closed_points == SIX_POINTS
    assert cert.identities[2].interior_points == FIRST_PAIR


def random_epsilons():
    rng = random.Random(53)
    for _ in range(10):
        num = rng.randint(1, 30)
        den = num * rng.randint(2, 8) + rng.randint(0, 5)
        yield Fraction(num, den)


def test_certificate_random_epsilons():
    for eps in random_epsilons():
        cert = verify_example_points(build_witness(eps))
        assert len(cert.identities) == 5


@pytest.mark.parametrize(
    "eps",
    [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 4), Fraction(3, 7), Fraction(5, 11)]
    + list(random_epsilons()),
)
def test_certificate_matches_blanket_sweep(eps):
    # the enumerator's boxes stay inside |k_i| <= 3, and a sweep of that
    # whole cube finds exactly the certified closed and interior sets
    w = build_witness(eps)
    pairings = (
        (w.body, w.basis_a),
        (w.body, w.basis_b),
        (w.body, w.basis_b),
        (w.dual_body, w.dual_basis_a),
        (w.dual_body, w.dual_basis_b),
    )
    cert = verify_example_points(w)
    for identity, (body, basis) in zip(cert.identities, pairings, strict=True):
        assert all(cap <= 3 for cap in identity.bounds)
        closed, interior = witness_sweep(body, basis, identity.dilate)
        assert identity.closed_points == closed
        assert identity.interior_points == interior


def test_certificate_rejects_tampered_basis():
    w = build_witness(Fraction(1, 2))
    rows = [list(row) for row in w.basis_b.rows]
    for row in rows:
        row[0] = 2 * row[0]
    tampered = dataclasses.replace(w, basis_b=Matrix(rows))
    with pytest.raises(CertificateError) as err:
        verify_example_points(tampered)
    triple = err.value.triple
    assert isinstance(triple, tuple) and len(triple) == 3
    assert all(isinstance(k, int) for k in triple)


def test_sharpness_report_exact_values():
    report = sharpness_report(Fraction(1, 2))
    values = [(e.label, e.value) for e in report.entries]
    assert values == [
        ("first minimum, body against lattice one", NU1),
        ("first minimum, body against lattice two", Fraction(1)),
        ("second minimum, body against lattice two", NU2),
        ("first minimum, dual body against dual lattice one", Fraction(1)),
        ("first minimum, dual body against dual lattice two", Fraction(1)),
    ]
    integer_values = [(e.label, e.value) for e in report.integer_forms]
    assert integer_values == [
        ("first minimum, integer form of body one", NU1),
        ("first minimum, integer form of body two", Fraction(1)),
        ("second minimum, integer form of body two", NU2),
        ("first minimum, compound of integer form one", Fraction(1)),
        ("first minimum, compound of integer form two", Fraction(1)),
    ]


def test_sharpness_report_text():
    text = format_sharpness_report(sharpness_report(Fraction(1, 2)))
    assert "2/3*sqrt3" in text
    assert "5/4" in text
    assert "epsilon = 1/2" in text
    assert "closed:" in text and "interior:" in text


def test_z3_bodies_at_one_half_kinds_and_first_minima():
    w = build_witness(Fraction(1, 2))
    assert w.z3_body_1.kind == "quad3"
    assert w.z3_body_2.kind == "rational"
    assert first_minimum(w.z3_body_2)[0] == 1
    value, _ = first_minimum(w.z3_body_1)
    assert value == Quad3(0, Fraction(2, 3))
    assert to_float(w.z3_body_2).kind == "float"


def test_integer_reformulation_matches_lattice_minima():
    w = build_witness(Fraction(1, 3))
    lattice_profile = successive_minima(w.body, w.lattice1, 2)
    integer_profile = successive_minima(w.z3_body_1, k_max=2)
    assert lattice_profile.values == integer_profile.values
    assert integer_profile.values[0] == NU1

    two_profile = successive_minima(w.z3_body_2, k_max=2)
    assert two_profile.values == (Fraction(1), NU2)

    compound_one = successive_minima(pseudo_compound(w.z3_body_1), k_max=1)
    compound_two = successive_minima(pseudo_compound(w.z3_body_2), k_max=1)
    assert compound_one.values[0] == 1
    assert compound_two.values[0] == 1


def test_witness_constants_sit_on_the_sharp_surface():
    tau_one = (NU1, NU1, NU1)
    tau_two = (Fraction(1), NU2, NU2)
    assert on_surface(tau_one, "sharp")
    assert on_surface(tau_two, "sharp")
    cube = Parallelepiped.cube(3, kind="quad3")
    assert section_dual_gauge(cube, tau_vertex(tau_one)) == 1
    assert section_dual_gauge(cube, tau_vertex(tau_two)) == 1
