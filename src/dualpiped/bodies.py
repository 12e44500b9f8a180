"""Lattices and parallelepipeds, the pseudo-compound, and a plain-text file format.

A parallelepiped is stored by its defining forms: row i of `forms` is the
linear form h_i and membership means |h_i(z)| <= bounds[i] for every i.
Lattice bases are stored column-wise: the columns generate. Each body
derives its pseudo-compound once, whose gauge rows are its section-dual rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .linalg import Matrix
from .scalars import (
    Quad3,
    Scalar,
    exact_nth_root,
    exact_scalar,
    float_nth_root,
    format_scalar,
    parse_scalar,
    scalar_sign,
)


class ExactnessError(ValueError):
    """The result left the exact scalar field; rerun the operation in float mode."""


def _normalize_scalars(values: Sequence[Scalar], kind: str) -> tuple:
    out = []
    for x in values:
        if isinstance(x, int):
            x = Fraction(x)
        if kind == "quad3" and isinstance(x, Fraction):
            x = Quad3(x)
        if (kind == "float") != isinstance(x, float):
            raise TypeError("float scalars cannot mix with exact scalars")
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Lattice:
    basis: Matrix

    def __post_init__(self) -> None:
        self.basis.dim  # rejects non-square bases
        if self.kind == "float" and not all(math.isfinite(x) for x in sum(self.basis.rows, ())):
            raise ValueError("float lattice basis entries must be finite")
        if scalar_sign(self.basis.exact_det()) == 0:
            raise ValueError("lattice basis is singular")

    @classmethod
    def integers(cls, d: int, kind: str = "rational") -> "Lattice":
        return cls(Matrix.identity(d, kind=kind))

    @property
    def dimension(self) -> int:
        return self.basis.dim

    @property
    def kind(self) -> str:
        return self.basis.kind


@dataclass(frozen=True)
class Parallelepiped:
    forms: Matrix
    bounds: tuple

    def __post_init__(self) -> None:
        d = self.forms.dim
        if len(self.bounds) != d:
            raise ValueError("bounds length must match dimension")
        object.__setattr__(self, "bounds", _normalize_scalars(self.bounds, self.forms.kind))
        if self.kind == "float":
            if not all(math.isfinite(x) for x in self.bounds + sum(self.forms.rows, ())):
                raise ValueError("float bounds and forms must be finite")
        if any(scalar_sign(e) <= 0 for e in self.bounds):
            raise ValueError("all bounds must be positive")
        if scalar_sign(self.forms.exact_det()) == 0:
            raise ValueError("forms matrix must be invertible")

    @classmethod
    def cube(cls, d: int, kind: str = "rational") -> "Parallelepiped":
        one = 1.0 if kind == "float" else Fraction(1)
        return cls(Matrix.identity(d, kind=kind), (one,) * d)

    @property
    def dimension(self) -> int:
        return self.forms.dim

    @property
    def kind(self) -> str:
        return self.forms.kind

    @cached_property
    def _compound(self) -> "Parallelepiped":
        """The pseudo-compound, derived once per body; see pseudo_compound."""
        exact = [exact_scalar(e) for e in self.bounds]
        scale = math.prod(exact) / abs(self.forms.exact_det())
        bounds = _of_kind(self.kind, [scale / e for e in exact],
                          "the pseudo-compound's bounds prod eta / (|det H| eta_i) lie")
        return Parallelepiped(self.forms.inverse().transpose(), bounds)

    def volume(self) -> Scalar:
        """2^d prod eta / |det H|, formed exactly and rounded once for a float body."""
        value = 2**self.dimension * math.prod(map(exact_scalar, self.bounds))
        return _of_kind(self.kind, [value / abs(self.forms.exact_det())], "the body's volume lies")[0]

    def scale(self, t: Scalar) -> "Parallelepiped":
        if scalar_sign(t) <= 0:
            raise ValueError("scale factor must be positive")
        return Parallelepiped(self.forms, tuple(t * e for e in self.bounds))


def _rounded(x: Fraction) -> float:
    """float(x), or an infinity of its sign where x overflows the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _of_kind(kind: str, values: list, what: str) -> tuple:
    """Exact values as the kind's scalars: floats rounded once, ValueError beyond their range."""
    if kind != "float":
        return tuple(values)
    rounded = tuple(map(_rounded, values))
    if not all(0 < x < math.inf for x in rounded):
        raise ValueError(f"{what} beyond the float range")
    return rounded


def det_normalized(piped: Parallelepiped) -> Parallelepiped:
    """The same body rewritten as (s H, s eta) with |det(s H)| = 1.

    Exact kinds require the scale s = |det H|^{-1/d} to stay in the field;
    otherwise ExactnessError asks for a float conversion.
    """
    d = piped.dimension
    adet = abs(piped.forms.exact_det())
    if piped.kind == "float":
        rounded = _rounded(adet)
        if rounded == 1:
            return piped
        # a det beyond the float range is rooted before it is rounded
        s = rounded ** (-1.0 / d) if 0 < rounded < math.inf else 1 / float_nth_root(adet, d)
    elif adet == 1:
        return piped
    else:
        s = exact_nth_root(1 / adet, d)
        if s is None:
            raise ExactnessError(
                f"|det H| = {format_scalar(adet)} has no exact {d}-th root; "
                "convert the instance to float mode first"
            )
    return Parallelepiped(piped.forms.scale(s), tuple(s * e for e in piped.bounds))


def pseudo_compound(piped: Parallelepiped) -> Parallelepiped:
    """The pseudo-compound (H^-T, prod eta / (|det H| eta_i)), derived once per body.

    No root of det H is taken, so an exact body has an exact compound; a
    float body's bounds are the exact values rounded once, or ValueError
    where they lie beyond the float range. Its gauge rows are the
    section-dual rows: with A = H^-1 diag(eta), A^T / det A is sign(det H)
    times them, row by row.
    """
    return piped._compound


# ---------------------------------------------------------------------------
# plain-text document format


def _format_matrix_block(m: Matrix) -> str:
    return "\n".join(",".join(format_scalar(x) for x in row) for row in m.rows)


def format_parallelepiped(piped: Parallelepiped) -> str:
    lines = [
        f"dimension: {piped.dimension}",
        f"scalar_kind: {piped.kind}",
        "H:",
        _format_matrix_block(piped.forms),
        "eta: " + ",".join(format_scalar(e) for e in piped.bounds),
    ]
    return "\n".join(lines) + "\n"


def format_lattice(lat: Lattice) -> str:
    lines = [
        f"dimension: {lat.dimension}",
        f"scalar_kind: {lat.kind}",
        "basis:",
        _format_matrix_block(lat.basis),
    ]
    return "\n".join(lines) + "\n"


def parse_body_document(text: str) -> dict:
    """Parse a document holding a parallelepiped and/or a lattice.

    Returns {"dimension", "scalar_kind", "parallelepiped", "lattice"} with
    None for absent parts. Exact kinds round-trip bit for bit.
    """
    dimension = None
    kind = None
    h_rows: list | None = None
    eta: tuple | None = None
    basis_rows: list | None = None
    pending: list | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if pending is not None and ":" not in line:
            pending.append(line)
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "dimension":
            val = int(value)
            if dimension is not None and val != dimension:
                raise ValueError("conflicting dimensions in document")
            dimension = val
        elif key == "scalar_kind":
            if kind is not None and value != kind:
                raise ValueError("conflicting scalar kinds in document")
            kind = value
        elif key == "H":
            h_rows = []
            pending = h_rows
        elif key == "basis":
            basis_rows = []
            pending = basis_rows
        elif key == "eta":
            eta = tuple(value.split(","))
            pending = None
        else:
            raise ValueError(f"unknown field {key!r}")
    if dimension is None or kind is None:
        raise ValueError("document must declare dimension and scalar_kind")

    def to_matrix(rows: list, field: str) -> Matrix:
        if len(rows) != dimension:
            raise ValueError("matrix block has wrong number of rows")
        return Matrix(
            [[parse_scalar(cell, kind, field) for cell in row.split(",")] for row in rows]
        )

    piped = None
    if h_rows is not None:
        if eta is None:
            raise ValueError("H block requires an eta line")
        piped = Parallelepiped(to_matrix(h_rows, "H"), tuple(parse_scalar(e, kind, "eta") for e in eta))
    lattice = Lattice(to_matrix(basis_rows, "basis")) if basis_rows is not None else None
    return {
        "dimension": dimension,
        "scalar_kind": kind,
        "parallelepiped": piped,
        "lattice": lattice,
    }
