"""Brute-force reference implementations used only by the test suite."""
import itertools
from fractions import Fraction

from dualpiped.linalg import Matrix, RationalSpan


def random_unimodular(rng, d, ops=None):
    """Integer matrix of determinant one from `ops` random row additions."""
    m = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(ops if ops is not None else 3 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for col in range(d):
            m[i][col] += c * m[j][col]
    return Matrix(m)


def gauges_in_box(piped, lattice, box):
    """All (gauge, k) for integer coefficient vectors 0 != |k_i| <= box."""
    d = piped.forms.dim
    out = []
    for k in itertools.product(range(-box, box + 1), repeat=d):
        if all(x == 0 for x in k):
            continue
        point = lattice.basis.matvec(k)
        out.append((piped.gauge(point), k))
    return out


def brute_force_minima(piped, lattice, k_max, box=6):
    """Exhaustive successive minima over the |k_i| <= box coefficient cube.

    Valid whenever the true minima witnesses fall inside the box; tests use
    generously small instances where that is guaranteed.
    """
    pts = sorted(gauges_in_box(piped, lattice, box), key=lambda t: (t[0], t[1]))
    span = RationalSpan(piped.forms.dim)
    values, witnesses = [], []
    for g, k in pts:
        if span.add([Fraction(x) for x in k]):
            values.append(g)
            witnesses.append(k)
            if len(values) == k_max:
                break
    return values, witnesses
