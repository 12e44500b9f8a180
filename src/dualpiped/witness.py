"""Exact three-dimensional sharpness witnesses over the field Q + Q*sqrt3.

One cube of radius epsilon is played against two unimodular lattices; the
companion cube of radius epsilon^2 against their duals. Every certificate
reduces to sign computations in the quadratic field: each point set comes
from the enumerator of `minima`, which proposes points in floats and decides
each one by its exact gauge, with Q(sqrt3) rows cleared into Z[sqrt3] ints
and every sign decided by comparing a^2 with 3 b^2. The coefficient box
printed with each certificate is the exact l1 norm of the inverse gauge
rows times the dilate (the same bounds the hand proof extracts).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bodies import Lattice, Parallelepiped, pseudo_compound
from .linalg import Matrix
from .minima import (
    dilate_box,
    gauge_rows,
    lattice_points_in_dilate,
    reduced_basis,
    successive_minima,
)
from .scalars import Quad3, Scalar, format_scalar

FIRST_DILATE = Quad3(0, Fraction(2, 3))
SECOND_DILATE = Fraction(5, 4)
# the widest numerator or denominator of epsilon that build_witness takes:
# 14,000 bits print in at most 4,215 digits, under Python's limit of 4,300
# on converting an int to str, and a report's time grows with the square of
# the bits, 0.7-0.9 s at 1e-4000 (13,288 bits) on a 2-core x86-64 host
EPSILON_MAX_BITS = 14_000


class CertificateError(ValueError):
    """A certified point set failed to match; carries the offending triple."""

    def __init__(self, message: str, triple: tuple[int, int, int]):
        super().__init__(message)
        self.triple = triple


@dataclass(frozen=True)
class WitnessInstance:
    """The two sharpness lattices and both cubes for one radius epsilon."""

    epsilon: Fraction
    body: Parallelepiped
    dual_body: Parallelepiped
    basis_a: Matrix
    basis_b: Matrix
    dual_basis_a: Matrix
    dual_basis_b: Matrix

    @property
    def lattice1(self) -> Lattice:
        return Lattice(self.basis_a)

    @property
    def lattice2(self) -> Lattice:
        return Lattice(self.basis_b)

    @property
    def dual_lattice1(self) -> Lattice:
        return Lattice(self.dual_basis_a)

    @property
    def dual_lattice2(self) -> Lattice:
        return Lattice(self.dual_basis_b)

    @property
    def z3_body_1(self) -> Parallelepiped:
        """The body pulled back so lattice one becomes the integer lattice."""
        return Parallelepiped(self.basis_a, self.body.bounds)

    @property
    def z3_body_2(self) -> Parallelepiped:
        return Parallelepiped(self.basis_b, self.body.bounds)


def build_witness(epsilon) -> WitnessInstance:
    """Construct the witness instance for 0 < epsilon <= 1/2, all entries exact.

    An epsilon whose numerator or denominator is wider than EPSILON_MAX_BITS
    is refused before any work, with ValueError.
    """
    if isinstance(epsilon, float):
        raise TypeError("epsilon must be an exact rational, not a float")
    eps = Fraction(epsilon)
    if max(eps.numerator.bit_length(), eps.denominator.bit_length()) > EPSILON_MAX_BITS:
        raise ValueError(
            f"epsilon's numerator and denominator may have at most {EPSILON_MAX_BITS} bits"
        )
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("epsilon must satisfy 0 < epsilon <= 1/2")
    root = eps / 3  # eps/sqrt3 = (eps/3) sqrt3
    tail = 1 / (3 * eps * eps)
    basis_a = Matrix(
        [
            [Quad3(0, root), Quad3(0, 2 * root), tail],
            [Quad3(0, root), Quad3(0, -root), tail],
            [Quad3(0, -2 * root), Quad3(0, -root), tail],
        ]
    )
    inv_root = Fraction(1, 3) / eps  # 1/(eps sqrt3) = (1/(3 eps)) sqrt3
    sq = eps * eps
    dual_basis_a = Matrix(
        [
            [Fraction(0), Quad3(0, inv_root), sq],
            [Quad3(0, inv_root), Quad3(0, -inv_root), sq],
            [Quad3(0, -inv_root), Fraction(0), sq],
        ]
    )
    basis_b = Matrix(
        [
            [eps / 2, 5 * eps / 4, tail],
            [eps / 2, -3 * eps / 4, tail],
            [-eps, -eps / 2, tail],
        ]
    )
    dual_basis_b = Matrix(
        [
            [1 / (12 * eps), 1 / (2 * eps), sq],
            [7 / (12 * eps), -1 / (2 * eps), sq],
            [-2 / (3 * eps), Fraction(0), sq],
        ]
    )
    body = Parallelepiped.cube(3, kind="rational").scale(eps)
    dual_body = Parallelepiped.cube(3, kind="rational").scale(sq)
    witness = WitnessInstance(
        eps, body, dual_body, basis_a, basis_b, dual_basis_a, dual_basis_b
    )
    for name, basis, dual in (
        ("first", basis_a, dual_basis_a),
        ("second", basis_b, dual_basis_b),
    ):
        det = basis.det()
        if not (det == 1 or det == -1):
            raise ValueError(f"the {name} basis must have determinant +-1")
        output = basis.transpose().matmul(dual)
        if output != Matrix.identity(3, kind=output.kind):
            raise ValueError(f"the {name} dual basis fails the duality identity")
    return witness


@dataclass(frozen=True)
class SetIdentity:
    """One certified intersection: which points of a lattice meet a dilate."""

    body_name: str
    lattice_name: str
    dilate: Scalar
    bounds: tuple
    closed_points: tuple
    interior_points: tuple


@dataclass(frozen=True)
class WitnessCertificate:
    epsilon: Fraction
    identities: tuple


def _symmetric(*vectors):
    points = {(0, 0, 0)}
    for v in vectors:
        points.add(v)
        points.add(tuple(-k for k in v))
    return tuple(sorted(points))


_FULL_HEXAGON = _symmetric((1, 0, 0), (0, 1, 0), (1, -1, 0))
_FIRST_PAIR = _symmetric((1, 0, 0))
_THIRD_PAIR = _symmetric((0, 0, 1))
_ORIGIN_ONLY = ((0, 0, 0),)


def _certify_identity(
    body: Parallelepiped,
    basis: Matrix,
    dilate,
    expected_closed,
    expected_interior,
    body_name: str,
    lattice_name: str,
) -> SetIdentity:
    place = f"{body_name} against {lattice_name}"
    rows = gauge_rows(body, Lattice(basis))
    caps = dilate_box(rows, dilate)
    points = lattice_points_in_dilate(rows, dilate, reduced_basis(rows))
    closed = _symmetric(*(k for _, k in points))
    interior = _symmetric(*(k for gauge, k in points if gauge < dilate))
    for computed, expected, which in (
        (closed, expected_closed, "closed"),
        (interior, expected_interior, "interior"),
    ):
        if computed != expected:
            offender = min(set(computed) ^ set(expected))
            raise CertificateError(
                f"{which} set mismatch for {place} at coefficients {offender}",
                offender,
            )
    return SetIdentity(
        body_name, lattice_name, dilate, tuple(caps), closed, interior
    )


def verify_example_points(witness: WitnessInstance) -> WitnessCertificate:
    """Certify all five intersection identities of the witness exactly."""
    identities = (
        _certify_identity(
            witness.body, witness.basis_a, FIRST_DILATE,
            _FULL_HEXAGON, _ORIGIN_ONLY, "body", "lattice one",
        ),
        _certify_identity(
            witness.body, witness.basis_b, Fraction(1),
            _FIRST_PAIR, _ORIGIN_ONLY, "body", "lattice two",
        ),
        _certify_identity(
            witness.body, witness.basis_b, SECOND_DILATE,
            _FULL_HEXAGON, _FIRST_PAIR, "body", "lattice two",
        ),
        _certify_identity(
            witness.dual_body, witness.dual_basis_a, Fraction(1),
            _THIRD_PAIR, _ORIGIN_ONLY, "dual body", "dual lattice one",
        ),
        _certify_identity(
            witness.dual_body, witness.dual_basis_b, Fraction(1),
            _THIRD_PAIR, _ORIGIN_ONLY, "dual body", "dual lattice two",
        ),
    )
    return WitnessCertificate(witness.epsilon, identities)


@dataclass(frozen=True)
class MinimaEntry:
    label: str
    value: Scalar


@dataclass(frozen=True)
class SharpnessReport:
    epsilon: Fraction
    certificate: WitnessCertificate
    entries: tuple
    integer_forms: tuple


def _checked_entry(label: str, value, computed) -> MinimaEntry:
    if computed != value:
        raise ValueError(
            f"enumeration cross-check for {label} found {format_scalar(computed)},"
            f" certificate says {format_scalar(value)}"
        )
    return MinimaEntry(label, value)


def sharpness_report(epsilon) -> SharpnessReport:
    """Exact minima of both witness pairings, cross-checked by enumeration.

    The certificate pins each value: an interior containing only the origin
    keeps the minimum at or above the dilate, a certified boundary point
    pulls it back down; the second minimum of the second pairing uses the
    rank-one interior at dilate 5/4 the same way.
    """
    witness = build_witness(epsilon)
    certificate = verify_example_points(witness)
    one_profile = successive_minima(witness.body, witness.lattice1, 1)
    two_profile = successive_minima(witness.body, witness.lattice2, 2)
    dual_one = successive_minima(witness.dual_body, witness.dual_lattice1, 1)
    dual_two = successive_minima(witness.dual_body, witness.dual_lattice2, 1)
    entries = (
        _checked_entry(
            "first minimum, body against lattice one",
            FIRST_DILATE, one_profile.values[0],
        ),
        _checked_entry(
            "first minimum, body against lattice two",
            Fraction(1), two_profile.values[0],
        ),
        _checked_entry(
            "second minimum, body against lattice two",
            SECOND_DILATE, two_profile.values[1],
        ),
        _checked_entry(
            "first minimum, dual body against dual lattice one",
            Fraction(1), dual_one.values[0],
        ),
        _checked_entry(
            "first minimum, dual body against dual lattice two",
            Fraction(1), dual_two.values[0],
        ),
    )
    form_one = successive_minima(witness.z3_body_1, k_max=2)
    form_two = successive_minima(witness.z3_body_2, k_max=2)
    compound_one = successive_minima(pseudo_compound(witness.z3_body_1), k_max=1)
    compound_two = successive_minima(pseudo_compound(witness.z3_body_2), k_max=1)
    integer_forms = (
        _checked_entry(
            "first minimum, integer form of body one",
            FIRST_DILATE, form_one.values[0],
        ),
        _checked_entry(
            "first minimum, integer form of body two",
            Fraction(1), form_two.values[0],
        ),
        _checked_entry(
            "second minimum, integer form of body two",
            SECOND_DILATE, form_two.values[1],
        ),
        _checked_entry(
            "first minimum, compound of integer form one",
            Fraction(1), compound_one.values[0],
        ),
        _checked_entry(
            "first minimum, compound of integer form two",
            Fraction(1), compound_two.values[0],
        ),
    )
    return SharpnessReport(witness.epsilon, certificate, entries, integer_forms)


def format_sharpness_report(report: SharpnessReport) -> str:
    """Plain-text document: every certified set identity, every exact value."""
    lines = [f"sharpness witness, epsilon = {report.epsilon}", ""]
    lines.append("certified intersections (integer coefficient triples):")
    for identity in report.certificate.identities:
        lines.append(
            f"  {identity.body_name} dilated by {format_scalar(identity.dilate)}"
            f" against {identity.lattice_name}"
        )
        caps = ", ".join(
            f"|k{j + 1}| <= {cap}" for j, cap in enumerate(identity.bounds)
        )
        lines.append(f"    coefficient box: {caps}")
        closed = " ".join(str(p) for p in identity.closed_points)
        interior = " ".join(str(p) for p in identity.interior_points)
        lines.append(f"    closed: {closed}")
        lines.append(f"    interior: {interior}")
    lines.append("")
    lines.append("exact minima:")
    for entry in report.entries:
        lines.append(f"  {entry.label}: {format_scalar(entry.value)}")
    lines.append("")
    lines.append("integer-lattice reformulation:")
    for entry in report.integer_forms:
        lines.append(f"  {entry.label}: {format_scalar(entry.value)}")
    lines.append("")
    return "\n".join(lines)
