"""End-to-end tests for the command-line interface."""
import json
import math
import time
from fractions import Fraction

import pytest

from dualpiped.bodies import (
    Lattice,
    Parallelepiped,
    format_lattice,
    format_parallelepiped,
)
from dualpiped import cli, minima
from dualpiped.cli import main
from dualpiped.harness import ClaimSummary, TrialConfig, VerificationReport
from dualpiped.cli import exit_code_for
from dualpiped.linalg import Matrix
from dualpiped.minima import EnumerationBudgetError
from dualpiped.transference import CD_MAX_DIM, c_d
from dualpiped.witness import EPSILON_MAX_BITS, build_witness


def test_verify_json_stdout(capsys):
    code = main([
        "verify", "--dim", "3", "--trials", "2", "--seed", "5",
        "--claims", "T3,MK2", "--format", "json",
    ])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert sorted(parsed.keys()) == [
        "claims", "config", "runtime_ms", "v_tau_range", "version",
    ]
    assert [row["claim"] for row in parsed["claims"]] == ["T3", "MK2"]
    assert parsed["config"]["seed"] == 5


def test_verify_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = main([
        "verify", "--dim", "2", "--trials", "1", "--seed", "3",
        "--claims", "T4", "--format", "csv", "--out", str(target),
    ])
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("claim,instances")
    assert lines[1].startswith("T4,1,")


def test_verify_determinism(capsys):
    args = ["verify", "--dim", "3", "--trials", "3", "--seed", "11",
            "--claims", "T3,T4,FAM"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("runtime_ms")
    second.pop("runtime_ms")
    assert first == second


def test_verify_rejects_unknown_claim(capsys):
    assert main(["verify", "--dim", "3", "--trials", "1", "--claims", "T9"]) == 2
    assert "claim" in capsys.readouterr().err


def test_verify_exact_mode_runs_at_the_largest_dimension(capsys):
    assert main(["verify", "--mode", "exact", "--dim", "8", "--trials", "1"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["config"]["mode"] == "exact"
    assert all(row["notes"] == [] for row in parsed["claims"])


def test_exit_code_flags_violations():
    config = TrialConfig(dimension=3, trials=1, seed=0, claims=("T3",))
    bad = VerificationReport(
        config,
        (ClaimSummary("T3", 1, 0, 0, 1, -0.5, "trial-0"),),
        None,
        0.0,
    )
    good = VerificationReport(
        config,
        (ClaimSummary("T3", 1, 1, 0, 0, 0.5, "trial-0"),),
        None,
        0.0,
    )
    assert exit_code_for(bad) == 1
    assert exit_code_for(good) == 0


def test_witness_command(tmp_path, capsys):
    assert main(["witness", "--epsilon", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "2/3*sqrt3" in out
    assert "5/4" in out

    target = tmp_path / "witness.txt"
    assert main(["witness", "--epsilon", "1/3", "--out", str(target)]) == 0
    assert "epsilon = 1/3" in target.read_text()

    assert main(["witness", "--epsilon", "3/4"]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_witness_certifies_epsilons_far_below_the_float_range(capsys):
    # the reduction reads the witness's Q(sqrt3) rows through a float
    # snapshot scaled into the float range, so an epsilon whose rows leave
    # that range unscaled is certified with the minima of epsilon = 1/2
    assert main(["witness", "--epsilon", "1/2"]) == 0
    minima_text = capsys.readouterr().out.split("exact minima:")[1]
    for epsilon in ("1e-400", "1e-4000"):
        assert main(["witness", "--epsilon", epsilon]) == 0
        out = capsys.readouterr().out
        assert f"epsilon = {Fraction(epsilon)}" in out
        assert out.split("exact minima:")[1] == minima_text


def test_witness_refuses_an_epsilon_wider_than_its_bound(capsys):
    # the work grows with the square of epsilon's bits and the report prints
    # epsilon in decimal, which Python limits to 4,300 digits; past the
    # bound the command exits 2 before any work, and 1e-4000 (13,288 bits)
    # still fits
    assert EPSILON_MAX_BITS == 14_000
    for epsilon in ("1e-40000", "1e-4250"):
        started = time.perf_counter()
        assert main(["witness", "--epsilon", epsilon]) == 2
        assert time.perf_counter() - started < 1.0
        assert "at most 14000 bits" in capsys.readouterr().err
    assert main(["witness", "--epsilon", "1e-4000"]) == 0
    assert "epsilon = 1/1" in capsys.readouterr().out
    # the bound is on bits: a denominator of 14,000 bits is built
    witness = build_witness(Fraction(1, 2**13999))
    assert witness.epsilon.denominator.bit_length() == 14_000
    with pytest.raises(ValueError, match="at most 14000 bits"):
        build_witness(Fraction(1, 2**14000))


def test_cd_command(capsys):
    assert main(["cd", "--dmin", "3", "--dmax", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dimension,c_d,lower,upper"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[0] == "3"
    assert row[1].startswith("1.55377397403")
    for line in lines[1:]:
        _, value, lower, upper = line.split(",")
        assert float(lower) < float(value) < float(upper)

    assert main(["cd", "--dmin", "5", "--dmax", "4"]) == 2
    assert main(["cd", "--dmin", "2", "--dmax", "3"]) == 2


def test_cd_refuses_a_range_past_its_bound_before_the_first_row(capsys):
    # the bound is checked before any row is computed: a range of 10^8
    # dimensions would otherwise bisect for about 40 minutes first
    message = f"c_d supports dimensions 3 through {CD_MAX_DIM}"
    capsys.readouterr()
    assert main(["cd", "--dmin", "3", "--dmax", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    with pytest.raises(ValueError, match=message):
        c_d(CD_MAX_DIM + 1)
    # the last supported dimension answers, within its bounds
    assert main(["cd", "--dmin", str(CD_MAX_DIM), "--dmax", str(CD_MAX_DIM)]) == 0
    _, value, lower, upper = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(lower) < float(value) < float(upper)


def test_cd_text_format(capsys):
    assert main(["cd", "--dmin", "3", "--dmax", "3", "--format", "text"]) == 0
    assert "c_3" in capsys.readouterr().out


def test_section_command(capsys):
    assert main(["section", "--direction", "1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "3*sqrt3" in out
    assert "3/4*sqrt3" in out

    assert main(["section", "--direction", "0,1,1"]) == 0
    out = capsys.readouterr().out
    assert "not defined" in out

    assert main(["section", "--dim", "4", "--direction", "1,1,1"]) == 2
    assert main(["section", "--direction", "0,0"]) == 2
    assert main(["section", "--direction", "1e999,1,1"]) == 2
    # every coordinate is read by one rule, and the one that fails is named
    capsys.readouterr()
    for direction, message in (
        ("1/0,1", "coordinate 1 is '1/0', not a finite rational"),
        ("1,inf", "coordinate 2 is 'inf', not a finite rational"),
        ("1.0,1,nan", "coordinate 3 is 'nan', not a finite float"),
        ("1,1e999", "coordinate 2 is '1e999', not a finite float"),
        ("0.5,1/2", "coordinate 2 is '1/2', not a finite float"),
    ):
        assert main(["section", "--direction", direction]) == 2
        assert message in capsys.readouterr().err
    # 2^40 sign patterns: refused before any work starts
    assert main(["section", "--direction", ",".join(["1"] * 40)]) == 2
    # 2^16 sign patterns of 301-bit integers: refused by their bits
    spread = ",".join(repr(math.ldexp(1.0 + i / 32, 20 * i)) for i in range(16))
    capsys.readouterr()
    assert main(["section", "--direction", spread]) == 2
    assert "16 nonzero coordinates of up to 301 bits" in capsys.readouterr().err


def test_section_float_direction(capsys):
    assert main(["section", "--direction", "0.8,1.0,1.0"]) == 0
    out = capsys.readouterr().out
    assert "section volume:" in out and "v_tau:" in out

    assert main(["section", "--direction", "1e300,2e300,3e300,4e300,5e300,6e300"]) == 0
    assert "v_tau: 1.31996782598" in capsys.readouterr().out


def test_minima_command(tmp_path, capsys):
    piped = Parallelepiped(
        Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]),
        (1, Fraction(1, 2), 2),
    )
    body_file = tmp_path / "body.txt"
    body_file.write_text(format_parallelepiped(piped))
    assert main(["minima", "--body", str(body_file), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "mu_1 =" in out and "mu_2 =" in out

    lattice_file = tmp_path / "lattice.txt"
    lattice_file.write_text(format_lattice(Lattice(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))))
    assert main([
        "minima", "--body", str(body_file), "--lattice", str(lattice_file),
    ]) == 0
    assert "mu_3 =" in capsys.readouterr().out

    assert main(["minima", "--body", str(tmp_path / "missing.txt")]) == 2

    body_file.write_text("dimension: 2\nscalar_kind: float\nH:\n1.0,0.0\n0.0,1.0\neta: 1.0,inf\n")
    assert main(["minima", "--body", str(body_file)]) == 2
    assert "finite" in capsys.readouterr().err

    cubes = {}
    for kind in ("float", "rational", "quad3"):
        cubes[kind] = tmp_path / f"{kind}_cube.txt"
        cubes[kind].write_text(format_parallelepiped(Parallelepiped.cube(2, kind=kind)))
    lattice_file.write_text("dimension: 2\nscalar_kind: float\nbasis:\n1.0,0.0\n0.0,inf\n")
    assert main(["minima", "--body", str(cubes["float"]), "--lattice", str(lattice_file)]) == 2
    assert "finite" in capsys.readouterr().err

    # a float body against an exact lattice, and exact bodies against a float one
    exact_lattice = tmp_path / "exact_lattice.txt"
    exact_lattice.write_text(format_lattice(Lattice(Matrix([[1, 1], [0, 2]]))))
    float_lattice = tmp_path / "float_lattice.txt"
    float_lattice.write_text(format_lattice(Lattice.integers(2, kind="float")))
    for body, lattice in (
        (cubes["float"], exact_lattice),
        (cubes["rational"], float_lattice),
        (cubes["quad3"], float_lattice),
    ):
        assert main(["minima", "--body", str(body), "--lattice", str(lattice)]) == 2
        assert "cannot be measured against" in capsys.readouterr().err


@pytest.mark.parametrize("entry, expected", [("1e-200", "1e-200"), ("1e200", "1e+200")])
def test_minima_decides_invertibility_on_the_exact_determinant(tmp_path, capsys, entry, expected):
    # det = entry^2 rounds to 0.0 or overflows as a float; the exact one is nonzero
    body_file = tmp_path / "body.txt"
    body_file.write_text(
        f"dimension: 2\nscalar_kind: float\nH:\n{entry},0.0\n0.0,{entry}\neta: 1.0,1.0\n"
    )
    assert main(["minima", "--body", str(body_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines] == [expected, expected]


def test_minima_refuses_an_oversized_box(monkeypatch, tmp_path, capsys):
    # the unit cube of dimension 14 needs a box of 3^14 cells, over the cap
    body_file = tmp_path / "cube14.txt"
    body_file.write_text(format_parallelepiped(Parallelepiped.cube(14)))
    assert main(["minima", "--body", str(body_file)]) == 2
    assert "has 4782969 cells; the grid supports at most 2000000" in capsys.readouterr().err
    # a small body under a lowered cap is refused the same way
    monkeypatch.setattr(minima, "GRID_CELL_CAP", 8)
    body_file.write_text(format_parallelepiped(Parallelepiped.cube(2)))
    assert main(["minima", "--body", str(body_file)]) == 2
    assert "has 9 cells; the grid supports at most 8" in capsys.readouterr().err


@pytest.mark.parametrize("h, e", [(1e308, 1e-10), (1e-308, 1e300)])
def test_minima_refuses_float_gauge_rows_beyond_the_float_range(tmp_path, capsys, h, e):
    # h / e overflows, or rounds to 0 although H is invertible
    body_file = tmp_path / "body.txt"
    body_file.write_text(format_parallelepiped(Parallelepiped(Matrix([[h, 0.0], [0.0, 1.0]]), (e, 1.0))))
    assert main(["minima", "--body", str(body_file)]) == 2
    err = capsys.readouterr().err
    assert "gauge row 0 leaves the float range: an entry over eta_0 overflows or rounds to 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [EnumerationBudgetError("too many nodes"), OverflowError("too big")])
def test_budget_and_overflow_errors_exit_two(monkeypatch, tmp_path, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "successive_minima", fail)
    body_file = tmp_path / "body.txt"
    body_file.write_text(format_parallelepiped(Parallelepiped.cube(2)))
    assert main(["minima", "--body", str(body_file)]) == 2
    assert str(error) in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
