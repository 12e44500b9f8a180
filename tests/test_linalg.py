import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dualpiped import minima
from dualpiped.bodies import Parallelepiped
from dualpiped.harness import TrialConfig, evaluate_trial
from dualpiped.linalg import Matrix, RationalSpan, eliminate, monotone_root, zsqrt3_rows
from dualpiped.minima import successive_minima
from dualpiped.scalars import Quad3

from oracle_utils import (
    BareissSpan,
    SINGULAR_FLOAT_ROWS,
    SQRT3,
    cofactor,
    diagonal,
    field_det,
    field_inverse,
    fraction_rank,
    greedy_minima,
    matvec,
    random_quad3_rows,
)


def _random_exact_matrix(rng, d, lo=-5, hi=5):
    return Matrix([[Fraction(rng.randint(lo, hi)) for _ in range(d)] for _ in range(d)])


def _cofactor_by_minors(m):
    d = m.dim
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            minor = Matrix(
                [
                    [m.rows[r][c] for c in range(d) if c != j]
                    for r in range(d)
                    if r != i
                ]
            )
            sign = 1 if (i + j) % 2 == 0 else -1
            row.append(sign * minor.det())
        out.append(row)
    return Matrix(out)


def test_cofactor_identity():
    eye = Matrix.identity(3)
    assert cofactor(eye) == eye


def test_cofactor_diagonal():
    t1, t2, t3 = Fraction(2), Fraction(3), Fraction(5)
    m = diagonal([t1, t2, t3])
    assert cofactor(m) == diagonal([t2 * t3, t1 * t3, t1 * t2])


def test_cofactor_2x2_closed_form():
    a, b, c, d = Fraction(3), Fraction(-1), Fraction(4), Fraction(7)
    m = Matrix([[a, b], [c, d]])
    assert cofactor(m) == Matrix([[d, -c], [-b, a]])


def test_cofactor_matches_minor_expansion_and_handles_singular():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(2, 5)
        m = _random_exact_matrix(rng, d)
        assert cofactor(m) == _cofactor_by_minors(m)
    singular = Matrix([[1, 2], [2, 4]])
    assert cofactor(singular) == _cofactor_by_minors(singular)


def test_cofactor_product_identity():
    rng = random.Random(7)
    done = 0
    while done < 100:
        d = rng.randint(2, 6)
        m = _random_exact_matrix(rng, d)
        det = m.det()
        if det == 0:
            continue
        done += 1
        prod = m.matmul(cofactor(m).transpose())
        assert prod == Matrix.identity(d).scale(det)


def test_det_frozen_cases():
    assert Matrix([[1, 2], [3, 4]]).det() == -2
    assert Matrix([[2, 0, 1], [1, 1, 0], [0, 3, 1]]).det() == 5
    m = Matrix([[Quad3(1), SQRT3], [SQRT3, Quad3(1)]])
    assert m.det() == Quad3(-2)
    f = Matrix([[2.0, 0.0], [0.0, 0.5]])
    assert f.det() == pytest.approx(1.0)


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randint(2, 5)
        m = _random_exact_matrix(rng, d)
        if m.det() == 0:
            continue
        assert m.matmul(m.inverse()) == Matrix.identity(d)
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_quad3_matrix_inverse():
    m = Matrix([[Quad3(2), SQRT3], [Quad3(0), Quad3(1)]])
    inv = m.inverse()
    assert m.matmul(inv) == Matrix.identity(2, kind="quad3")


def test_exact_det_and_inverse_match_the_field():
    # the one elimination behind Matrix.det and the rational and float
    # Matrix.inverse, and the Q(sqrt3) inverse, against plain field
    # arithmetic, with row swaps and denominators up to 10^20: rational
    # parts alone check the rational kind, and their floats the float kind,
    # whose det and every inverse entry are the exact value rounded once
    rng = random.Random(17)
    singular = {"quad3": 0, "rational": 0, "float": 0}
    for _ in range(200):
        rows = random_quad3_rows(rng, rng.randint(1, 4))
        rational = [[x.a for x in row] for row in rows]
        for entries in (rows, rational, [[float(x) for x in row] for row in rational]):
            m = Matrix(entries)
            exact = [[Fraction(x) if isinstance(x, float) else x for x in row] for row in entries]
            det = field_det(exact)
            if m.kind == "float":
                assert m.det() == float(det) and type(m.det()) is float
            else:
                assert m.det() == det and type(m.det()) is type(m.rows[0][0])
            if det == 0:
                singular[m.kind] += 1
                with pytest.raises(ZeroDivisionError):
                    m.inverse()
            elif m.kind == "float":
                inverse = field_inverse(exact)
                assert m.inverse().rows == tuple(tuple(map(float, row)) for row in inverse)
            else:
                assert m.inverse() == Matrix(field_inverse(entries))
        # the elimination also inverts in Z[sqrt3]: adj N / det N, over D
        a, b, den = zsqrt3_rows(rows)
        field = field_det(rows)
        det, adj = eliminate(a, b, field != 0)
        assert Quad3(det.p, det.q) == field * den ** len(rows)
        if field:
            inverse = [[Quad3(x.p, x.q) * den / Quad3(det.p, det.q) for x in row] for row in adj]
            assert inverse == field_inverse(rows)
    assert min(singular.values()) > 0
    # rank one, so every minor of order two vanishes
    assert Matrix([[SQRT3, Quad3(3)], [Quad3(1), SQRT3]]).det() == 0
    m = Matrix(SINGULAR_FLOAT_ROWS)
    assert field_det([[Fraction(x) for x in row] for row in m.rows]) == 0
    assert m.det() == 0.0
    with pytest.raises(ZeroDivisionError):
        m.inverse()


def test_inverse_is_kept_on_the_matrix():
    # the inverse is computed once and kept: a second call returns the same
    # object, whose rows equal a fresh matrix's inverse bit for bit; a
    # singular matrix raises on every call, so no failure is kept
    rng = random.Random(23)
    kinds = set()
    for _ in range(40):
        rows = random_quad3_rows(rng, rng.randint(1, 4))
        rational = [[x.a for x in row] for row in rows]
        for entries in (rows, rational, [[float(x) for x in row] for row in rational]):
            m = Matrix(entries)
            if m.det() == 0:
                continue
            kinds.add(m.kind)
            inverse = m.inverse()
            assert m.inverse() is inverse
            # repr tells 0.0 from -0.0 and each scalar type from the others
            assert repr(inverse.rows) == repr(Matrix(m.rows).inverse().rows)
    assert kinds == {"quad3", "rational", "float"}
    for singular in (Matrix([[1, 2], [2, 4]]), Matrix(SINGULAR_FLOAT_ROWS)):
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                singular.inverse()


@pytest.mark.parametrize("dimension, mode", [(5, "float"), (3, "exact")])
def test_one_forms_inverse_per_trial(monkeypatch, dimension, mode):
    # the harness's calibration and the trial's pseudo-compound, whose gauge
    # rows WM's section-dual search reads too, share the body's forms
    # object, so ten trials compute ten inverses, one each
    inverse = Matrix.inverse
    computed = []

    def counting(m):
        if m._inverse is None:
            computed.append(m)
        return inverse(m)

    monkeypatch.setattr(Matrix, "inverse", counting)
    config = TrialConfig(dimension=dimension, trials=10, seed=1, mode=mode)
    for index in range(config.trials):
        assert evaluate_trial(config, index).error is None
    assert len(computed) == 10


def test_kind_inference_and_promotion():
    m = Matrix([[Fraction(1, 2), SQRT3], [Quad3(0), Quad3(1)]])
    assert m.kind == "quad3"
    assert all(isinstance(x, Quad3) for row in m.rows for x in row)
    with pytest.raises(TypeError):
        Matrix([[1.0, Fraction(1, 2)], [0, 1]])


def test_matvec_and_float_conversion():
    m = Matrix([[1, 2], [3, 4]])
    assert matvec(m, (Fraction(1), Fraction(1))) == (Fraction(3), Fraction(7))
    mf = m.to_float()
    assert mf.kind == "float"
    assert mf.rows[1][0] == 3.0


def test_rational_span_tracks_independence():
    span = RationalSpan(3)
    assert span.add((1, 0, 0))
    assert not span.add((2, 0, 0))
    assert span.add((1, 1, 0))
    assert not span.add((3, 5, 0))
    assert span.add((0, 0, -1))
    assert span.rank == 3


def test_rational_span_matches_fraction_rank():
    rng = random.Random(77)
    for trial in range(300):
        d = rng.randint(2, 6)
        exact = trial % 2 == 1

        def entry():
            if exact:
                return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            return rng.randint(-4, 4)

        span = RationalSpan(d)
        kept = []
        for _ in range(2 * d + 2):
            roll = rng.random()
            if kept and roll < 0.4:
                # a combination of accepted vectors: dependent by construction
                coeffs = [entry() for _ in kept]
                vec = [sum(c * v[i] for c, v in zip(coeffs, kept)) for i in range(d)]
            elif roll < 0.45:
                vec = [0 * entry()] * d
            else:
                vec = [entry() for _ in range(d)]
            expected = fraction_rank(kept + [vec]) > len(kept)
            assert span.add(tuple(vec)) == expected
            if expected:
                kept.append(vec)
            assert span.rank == len(kept)


def test_rational_span_matches_its_bareiss_version():
    rng = random.Random(2468)
    for trial in range(400):
        d = 1 + trial % 8
        exact = trial % 3 == 2

        def entry():
            if exact:
                return Fraction(rng.randint(-7, 7), rng.randint(1, 9))
            return rng.randint(-5, 5)

        span, reference = RationalSpan(d), BareissSpan(d)
        kept = []
        for _ in range(3 * d + 2):
            roll = rng.random()
            if kept and roll < 0.4:
                # a planted dependency: a combination of vectors fed before
                coeffs = [entry() for _ in kept]
                vec = [sum(c * v[i] for c, v in zip(coeffs, kept)) for i in range(d)]
            elif roll < 0.5:
                vec = [0 * entry()] * d
            else:
                vec = [entry() for _ in range(d)]
            accepted = span.add(tuple(vec))
            assert accepted == reference.add(tuple(vec))
            assert span.rank == reference.rank
            kept.append(vec)


def test_cube_profile_matches_the_bareiss_tracker():
    # all 3^10 - 1 nonzero points of the box have gauge 1, so the greedy
    # extraction runs through thousands of dependent points
    cube = Parallelepiped.cube(10)
    profile = successive_minima(cube)
    rows = minima.gauge_rows(cube)
    basis = minima.reduced_basis(rows)
    points = minima.lattice_points_in_dilate(rows, 1, basis)
    assert len(points) == (3**10 - 1) // 2
    values, witnesses = greedy_minima(points, 10)
    assert profile.values == tuple(values) == (1,) * 10
    assert profile.witnesses == tuple(witnesses)


def test_first_outside_matches_the_rank():
    # the first vector from start that raises the rank, for int64 arrays,
    # arrays of Python ints past 2^62 (the object path) and lists of tuples
    rng = random.Random(4321)
    found = set()
    for trial in range(300):
        d = rng.randint(1, 6)
        scale = (1, 2**40, 2**70)[trial % 3]
        span = RationalSpan(d)
        kept = []
        vecs = []
        dependent = (0.6, 0.95)[trial % 2]
        for _ in range(rng.randint(1, 60)):
            if kept and rng.random() < dependent:
                coeffs = [rng.randint(-2, 2) for _ in kept]
                vecs.append(tuple(sum(c * v[i] for c, v in zip(coeffs, kept)) for i in range(d)))
            else:
                vecs.append(tuple(rng.randint(-3, 3) * scale for _ in range(d)))
            if rng.random() < 0.3 and fraction_rank(kept + [vecs[-1]]) > len(kept):
                assert span.add(vecs[-1])
                kept.append(vecs[-1])
        start = rng.randrange(len(vecs))
        expected = next((i for i in range(start, len(vecs))
                         if fraction_rank(kept + [vecs[i]]) > len(kept)), None)
        forms = [vecs, np.array(vecs, dtype=object)]
        if scale < 2**62:
            forms.append(np.array(vecs, dtype=np.int64))
        for form in forms:
            assert span.first_outside(form, start) == expected
        # none, in the first block of 16 from start, or past it
        found.add(None if expected is None else expected - start >= 16)
    assert found == {None, False, True}


def test_monotone_root_float():
    root = monotone_root(lambda s: s * s - 2.0, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # decreasing function
    root = monotone_root(lambda s: 2.0 - s * s, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # c_3 as the root of s^2 - (1 + sqrt 2): frozen from the closed form
    root = monotone_root(lambda s: s * s - (1.0 + math.sqrt(2.0)), 1.0, 2.0)
    assert root == pytest.approx(1.5537739740300374, abs=1e-13)
    root = monotone_root(lambda s: s - 5.0, 0.0, 10.0)
    assert root == 5.0
    with pytest.raises(ValueError):
        monotone_root(lambda s: s * s + 1.0, 0.0, 1.0)
