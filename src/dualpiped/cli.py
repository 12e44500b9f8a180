"""Command-line interface: verify, witness, cd, section, minima.

Exit codes: 0 all checks passed, 1 at least one claim violation or failed
certificate, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .bodies import parse_body_document
from .harness import TrialConfig, VerificationReport, emit_report, run_suite
from .minima import EnumerationBudgetError, successive_minima
from .scalars import format_scalar
from .sections import cube_section_volume, v_tau
from .transference import ALL_CLAIMS, c_d
from .witness import CertificateError, format_sharpness_report, sharpness_report


def exit_code_for(report: VerificationReport) -> int:
    """0 when the suite saw no violations, 1 otherwise."""
    return 1 if any(s.violations for s in report.claims) else 0


def _write_output(document: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document if document.endswith("\n") else document + "\n")


def _cmd_verify(args) -> int:
    if args.claims:
        claims = tuple(c.strip() for c in args.claims.split(",") if c.strip())
    else:
        claims = ALL_CLAIMS
    config = TrialConfig(
        dimension=args.dim,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        claims=claims,
        tau_samples=args.tau_samples,
    )
    report = run_suite(config)
    _write_output(emit_report(report, args.format), args.out)
    return exit_code_for(report)


def _cmd_witness(args) -> int:
    report = sharpness_report(Fraction(args.epsilon))
    _write_output(format_sharpness_report(report), args.out)
    return 0


def _cmd_cd(args) -> int:
    if args.dmax < args.dmin:
        raise ValueError("--dmax must not be below --dmin")
    rows = []
    for d in range(args.dmin, args.dmax + 1):
        value = c_d(d)
        lower = d ** (1.0 / (2 * (d - 1)))
        upper = d ** (1.0 / (2 * (d - 2)))
        rows.append((d, value, lower, upper))
    if args.format == "csv":
        lines = ["dimension,c_d,lower,upper"]
        lines += [f"{d},{value!r},{lower!r},{upper!r}" for d, value, lower, upper in rows]
    else:
        lines = [
            f"c_{d} = {value!r}  (bounds {lower!r} .. {upper!r})"
            for d, value, lower, upper in rows
        ]
    _write_output("\n".join(lines) + "\n", None)
    return 0


def _parse_direction(text: str) -> tuple:
    """Comma-separated coordinates, all floats if one has a point or an exponent, else rationals.

    Every coordinate is read in that one kind and must be a finite number of
    it; the first that is not is named.
    """
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("--direction needs at least one coordinate")
    is_float = any("." in t or "e" in t.lower() for t in tokens)
    direction = []
    for i, token in enumerate(tokens, start=1):
        try:
            value = float(token) if is_float else Fraction(token)
            finite = not is_float or math.isfinite(value)
        except (ValueError, ZeroDivisionError):
            finite = False
        if not finite:
            kind = "float" if is_float else "rational"
            raise ValueError(f"--direction coordinate {i} is {token!r}, not a finite {kind}")
        direction.append(value)
    return tuple(direction)


def _cmd_section(args) -> int:
    direction = _parse_direction(args.direction)
    d = len(direction)
    if args.dim is not None and args.dim != d:
        raise ValueError("--dim disagrees with the direction length")
    volume = cube_section_volume(direction, d)
    lines = [
        f"dimension: {d}",
        f"direction: {', '.join(format_scalar(x) for x in direction)}",
        f"section volume: {format_scalar(volume)}",
    ]
    if all(x > 0 for x in direction):
        lines.append(f"v_tau: {format_scalar(v_tau(direction))}")
    else:
        lines.append("v_tau: not defined (requires a positive direction)")
    _write_output("\n".join(lines) + "\n", None)
    return 0


def _cmd_minima(args) -> int:
    with open(args.body, "r", encoding="utf-8") as handle:
        document = parse_body_document(handle.read())
    piped = document["parallelepiped"]
    if piped is None:
        raise ValueError("the body file has no parallelepiped block")
    lattice = document["lattice"]
    if args.lattice:
        with open(args.lattice, "r", encoding="utf-8") as handle:
            lattice_doc = parse_body_document(handle.read())
        lattice = lattice_doc["lattice"]
        if lattice is None:
            raise ValueError("the lattice file has no basis block")
    k_max = args.k if args.k is not None else piped.dimension
    profile = successive_minima(piped, lattice, k_max)
    lines = [
        f"mu_{i} = {format_scalar(value)}  witness {witness}"
        for i, (value, witness) in enumerate(
            zip(profile.values, profile.witnesses), start=1
        )
    ]
    _write_output("\n".join(lines) + "\n", None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpiped",
        description="Exact transference checks for parallelepipeds and lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the randomized claim suite")
    verify.add_argument("--dim", type=int, default=3)
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--mode", choices=("float", "exact"), default="float")
    verify.add_argument("--claims", default="",
                        help="comma-separated claim ids (default: all)")
    verify.add_argument("--tau-samples", type=int, default=8, dest="tau_samples")
    verify.add_argument("--out", default=None)
    verify.add_argument("--format", choices=("json", "csv", "text"), default="json")
    verify.set_defaults(handler=_cmd_verify)

    witness = sub.add_parser("witness", help="certify the sharpness example")
    witness.add_argument("--epsilon", default="1/2", help="rational in (0, 1/2]")
    witness.add_argument("--out", default=None)
    witness.set_defaults(handler=_cmd_witness)

    cd = sub.add_parser("cd", help="tabulate the two-minima constants")
    cd.add_argument("--dmin", type=int, default=3)
    cd.add_argument("--dmax", type=int, default=10)
    cd.add_argument("--format", choices=("csv", "text"), default="csv")
    cd.set_defaults(handler=_cmd_cd)

    section = sub.add_parser("section", help="cube section volume for a direction")
    section.add_argument("--dim", type=int, default=None)
    section.add_argument("--direction", required=True,
                         help="comma-separated coordinates, e.g. 1,1,0")
    section.set_defaults(handler=_cmd_section)

    minima = sub.add_parser("minima", help="successive minima of a stored body")
    minima.add_argument("--body", required=True)
    minima.add_argument("--lattice", default=None)
    minima.add_argument("--k", type=int, default=None)
    minima.set_defaults(handler=_cmd_minima)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CertificateError as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 1
    except (
        ValueError, ZeroDivisionError, OverflowError, OSError, EnumerationBudgetError
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
