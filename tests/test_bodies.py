import math
import random
from fractions import Fraction

import pytest

from dualpiped.bodies import (
    ExactnessError,
    Lattice,
    Parallelepiped,
    det_normalized,
    format_lattice,
    format_parallelepiped,
    parse_body_document,
    pseudo_compound,
)
from dualpiped.cli import main
from dualpiped.linalg import Matrix
from dualpiped.scalars import Quad3

from oracle_utils import (
    SINGULAR_FLOAT_ROWS,
    SQRT3,
    apply_linear,
    axis_box,
    contains,
    contains_interior,
    covolume,
    dual_lattice,
    random_unimodular,
)


def test_lattice_covolume_and_dual_of_integers():
    z3 = Lattice.integers(3)
    assert covolume(z3) == 1
    assert dual_lattice(z3).basis == z3.basis


def test_dual_lattice_gram_identity():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(2, 5)
        lat = Lattice(random_unimodular(rng, d))
        dual = dual_lattice(lat)
        gram = lat.basis.transpose().matmul(dual.basis)
        assert gram == Matrix.identity(d)


def test_dual_lattice_involution():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randint(2, 4)
        lat = Lattice(random_unimodular(rng, d))
        back = dual_lattice(dual_lattice(lat))
        assert back.basis == lat.basis


def test_gauge_frozen_cases():
    b3 = Parallelepiped.cube(3)
    assert b3.gauge((1, 0, 0)) == 1
    assert b3.gauge((0, 0, 0)) == 0
    half = axis_box([Fraction(1, 2)] * 3)
    assert half.gauge((Fraction(1, 2), 0, 0)) == 1
    # witness column a1 against the plain axis box: sup-norm (2 eps/sqrt3)/eps
    eps = Fraction(1, 2)
    a1 = (eps / 3 * SQRT3, eps / 3 * SQRT3, -2 * eps / 3 * SQRT3)
    assert half.gauge(a1) == Quad3(0, Fraction(2, 3))


def test_gauge_homogeneity():
    rng = random.Random(2)
    piped = Parallelepiped(Matrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]]), (Fraction(1), Fraction(2), Fraction(3)))
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert piped.gauge([t * xi for xi in x]) == abs(t) * piped.gauge(x)


def test_membership_closed_and_interior():
    b2 = Parallelepiped.cube(2)
    assert contains(b2, (1, 1))
    assert not contains_interior(b2, (1, 0))
    assert contains_interior(b2, (Fraction(99, 100), 0))


def test_volume():
    assert Parallelepiped.cube(3).volume() == 8
    assert axis_box([Fraction(1, 2)] * 3).volume() == 1
    rng = random.Random(13)
    for _ in range(20):
        d = rng.randint(2, 4)
        h = random_unimodular(rng, d)
        eta = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        # independent oracle: volume = |det| of the edge matrix 2 H^-1 diag(eta)
        edges = h.inverse().matmul(Matrix.diagonal(eta)).scale(Fraction(2))
        assert piped.volume() == abs(edges.det())


def test_pseudo_compound_cube_and_axis_box():
    b4 = Parallelepiped.cube(4)
    star = pseudo_compound(b4)
    assert star.forms == Matrix.identity(4)
    assert star.bounds == (Fraction(1),) * 4

    eps = Fraction(1, 2)
    pi = axis_box([eps] * 3)
    star = pseudo_compound(pi)
    assert star.bounds == (eps * eps,) * 3

    ab = axis_box([Fraction(2), Fraction(5)])
    assert pseudo_compound(ab).bounds == (Fraction(5), Fraction(2))


def test_pseudo_compound_normalization():
    # |det H| = 9 is a square, so d = 2 stays rational
    piped = Parallelepiped(Matrix([[3, 0], [0, 3]]), (Fraction(1), Fraction(2)))
    star = pseudo_compound(piped)
    assert star.forms.kind == "rational"
    # det 2 needs sqrt(2), outside Q and Q(sqrt3)
    bad = Parallelepiped(Matrix([[1, 1], [0, 2]]), (Fraction(1), Fraction(1)))
    with pytest.raises(ExactnessError):
        pseudo_compound(bad)
    # float mode is the documented escape hatch
    star_f = pseudo_compound(bad.to_float())
    assert star_f.forms.kind == "float"


def test_pseudo_compound_scaled_involution():
    rng = random.Random(21)
    for _ in range(100):
        d = rng.randint(3, 5)
        h = random_unimodular(rng, d)
        eta = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(d))
        piped = Parallelepiped(h, eta)
        twice = pseudo_compound(pseudo_compound(piped))
        prod = Fraction(1)
        for e in eta:
            prod *= e
        factor = prod ** (d - 2)
        assert twice.forms == piped.forms
        assert twice.bounds == tuple(factor * e for e in eta)


def test_apply_linear_and_scale():
    piped = Parallelepiped.cube(2)
    t = Matrix([[2, 1], [1, 1]])
    moved = apply_linear(piped, t)
    # T maps the cube onto the new body, so T(vertex) has gauge 1
    vertex = t.matvec((1, 1))
    assert moved.gauge(vertex) == 1
    doubled = piped.scale(Fraction(2))
    assert doubled.gauge((2, 0)) == 1


def test_document_round_trip_rational():
    piped = Parallelepiped(Matrix([[1, 2], [0, 1]]), (Fraction(1, 2), Fraction(3)))
    lat = Lattice(Matrix([[1, 1], [0, 2]]))
    text = format_parallelepiped(piped) + format_lattice(lat)
    doc = parse_body_document(text)
    assert doc["parallelepiped"] == piped
    assert doc["lattice"] == lat


def test_document_round_trip_quad3():
    piped = Parallelepiped(
        Matrix([[Quad3(1), SQRT3], [Quad3(0), Quad3(1)]]),
        (Quad3(0, Fraction(2, 3)), Quad3(1)),
    )
    doc = parse_body_document(format_parallelepiped(piped))
    assert doc["parallelepiped"] == piped
    assert doc["lattice"] is None


def test_float_and_exact_twins_are_distinct():
    cube = Parallelepiped.cube(3)
    float_cube = Parallelepiped.cube(3, kind="float")
    assert cube != float_cube
    assert hash(cube) != hash(float_cube)
    assert float_cube == cube.to_float()
    assert hash(float_cube) == hash(cube.to_float())
    z3 = Lattice.integers(3)
    assert z3 != Lattice.integers(3, kind="float")
    assert hash(z3) != hash(Lattice.integers(3, kind="float"))
    assert z3.to_float() == Lattice.integers(3, kind="float")
    # exact kinds still compare by value
    assert Matrix.identity(3, kind="quad3") == Matrix.identity(3)
    assert hash(Matrix.identity(3, kind="quad3")) == hash(Matrix.identity(3))


def test_parallelepiped_validation():
    with pytest.raises(ValueError):
        Parallelepiped(Matrix([[1, 2], [2, 4]]), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        Parallelepiped(Matrix.identity(2), (Fraction(1), Fraction(-1)))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Parallelepiped(Matrix.identity(2, kind="float"), (1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            Parallelepiped(Matrix([[1.0, bad], [0.0, 1.0]]), (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Lattice(Matrix([[1.0, bad], [0.0, 1.0]]))


def test_exactly_singular_float_forms_are_refused(tmp_path, capsys):
    # float elimination put the determinant of these rows at -1.8e-18, so the
    # body had a volume of 4.36e18; their exact determinant is 0
    forms = Matrix(SINGULAR_FLOAT_ROWS)
    with pytest.raises(ValueError, match="forms matrix must be invertible"):
        Parallelepiped(forms, (1.0, 1.0, 1.0))
    body_file = tmp_path / "singular.txt"
    rows = "\n".join(",".join(map(repr, row)) for row in SINGULAR_FLOAT_ROWS)
    body_file.write_text(f"dimension: 3\nscalar_kind: float\nH:\n{rows}\neta: 1.0,1.0,1.0\n")
    assert main(["minima", "--body", str(body_file)]) == 2
    assert "forms matrix must be invertible" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_float_determinants_beyond_the_float_range(scale):
    # det H = scale^2 rounds to 0 or overflows; the body is still measured
    # from the exact determinant
    forms = Matrix([[scale, 0.0], [0.0, scale]])
    normalized = det_normalized(Parallelepiped(forms, (1.0, 1.0)))
    assert normalized.forms.det() == 1.0
    assert normalized.bounds == (1 / scale, 1 / scale)
    # 2^2 scale^2 / scale^2, rounded once
    assert Parallelepiped(forms, (scale, scale)).volume() == 4.0
    # 4e400 and 4e-400 have no float
    with pytest.raises(ValueError, match="beyond the float range"):
        Parallelepiped(forms, (1.0, 1.0)).volume()
    # nor have the compound's bounds 1e400 and 1e-400 of the normalized body
    with pytest.raises(ValueError, match="pseudo-compound's bounds .* beyond the float range"):
        pseudo_compound(Parallelepiped(forms, (1.0, 1.0)))
