"""Tests of the benchmark itself: every check rejects a deliberately wrong value.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from dualpiped.scalars import Quad3  # noqa: E402
from tracer import Tracer  # noqa: E402


def _records(workload, rounds=1):
    out = []
    for r in range(rounds):
        for op in workload.round_ops(r):
            try:
                out.append(workloads.Record(r, op, op.fn(), None))
            except (ArithmeticError, ValueError) as exc:
                out.append(workloads.Record(r, op, None, exc))
    return out


# -- oracles ------------------------------------------------------------------------


def test_brute_force_finds_the_first_minimum_and_rejects_another():
    rows = checks.gauge_rows([[2, 1], [0, 1]], [Fraction(3), Fraction(1, 2)])
    brute = checks.brute_first_minimum(rows, Fraction(2), exact=True)
    # k = (0, 1) has gauge max(|1|/3, |1|/(1/2)) = 2; k = (1, -1): max(1/3, 2) = 2;
    # k = (1, 0): 2/3 is the smallest
    assert brute == Fraction(2, 3)
    assert checks.first_minimum_problems("t", Fraction(2, 3), brute, exact=True) == []
    assert checks.first_minimum_problems("t", Fraction(1), brute, exact=True)
    float_rows = [[float(x) for x in row] for row in rows]
    brute_f = checks.brute_first_minimum(float_rows, 2.0, exact=False)
    assert math.isclose(brute_f, 2 / 3)
    assert checks.first_minimum_problems("t", 2 / 3 * (1 + 1e-6), brute_f, exact=False)


def test_minkowski_rejects_products_outside_the_theorem():
    volume = Fraction(4)  # the unit square [-1, 1]^2
    assert checks.minkowski_problems("t", (Fraction(1), Fraction(1)), volume, exact=True) == []
    assert checks.minkowski_problems("t", (Fraction(1), Fraction(2)), volume, exact=True)
    assert checks.minkowski_problems("t", (0.5, 0.9), 4.0, exact=False)
    assert checks.body_volume([[1, 1], [0, 1]], [Fraction(1), Fraction(2)], exact=True) == 8


def test_report_check_rejects_violations_and_miscounts():
    row = {"claim": "T3", "instances": 4, "passes": 3, "skips": 1, "violations": 0}
    assert checks.report_problems({"claims": [row]}, 4) == []
    assert checks.report_problems({"claims": [dict(row, violations=1, passes=2)]}, 4)
    assert checks.report_problems({"claims": [row]}, 5)


def test_witness_check_needs_the_paper_values():
    good = [Quad3(0, Fraction(2, 3)), Fraction(1), Fraction(5, 4), Fraction(1), Fraction(1)]
    assert checks.witness_problems("t", good) == []
    assert checks.witness_problems("t", good[:4] + [Fraction(5, 4)])
    assert checks.witness_problems("t", [2 / math.sqrt(3)] + good[1:])
    assert checks.witness_problems("t", good[:4])


def test_convolution_oracle_matches_closed_forms():
    assert checks.v_tau_squared_oracle([1, 0, 0]) == 1
    assert checks.v_tau_squared_oracle([1, 1, 0]) == 2
    # the regular hexagon: area 3 sqrt3 of [-1, 1]^3 orthogonal to (1, 1, 1)
    assert checks.v_tau_squared_oracle([1, 1, 1]) == Fraction(27, 16)
    v = Quad3(0, Fraction(3, 4))
    assert checks.oracle_problems("t", v, Fraction(27, 16)) == []
    assert checks.oracle_problems("t", Quad3(0, Fraction(1, 2)), Fraction(27, 16))
    assert checks.oracle_problems("t", 1.2990381056766578, Fraction(27, 16)) == []
    assert checks.oracle_problems("t", 1.2990381, Fraction(27, 16))


def test_section_checks_reject_wrong_values():
    assert checks.v_tau_range_problems("t", 0.0)
    assert checks.v_tau_range_problems("t", 1.5)
    assert checks.v_tau_range_problems("t", Fraction(3, 2))
    assert checks.v_tau_range_problems("t", Fraction(1)) == []
    assert checks.volume_problems("t", Fraction(8), Fraction(1), 4) == []
    assert checks.volume_problems("t", Fraction(9), Fraction(1), 4)
    assert checks.same_value_problems("t", Fraction(1), Fraction(1)) == []
    assert checks.same_value_problems("t", 1.0, 1.0 + 1e-8, 1e-9)


# -- workloads ----------------------------------------------------------------------


def test_sections_round_passes_and_counts_the_scale_fault():
    workload = workloads.SectionsWorkload(3)
    records = _records(workload)
    assert workload.check(records) == []
    extremes = [rec for rec in records if "base" in rec.meta]
    assert len(extremes) == len(workloads._SCALE_EXTREMES)
    assert all(rec.failed for rec in extremes)
    assert not any(rec.failed for rec in records if "base" not in rec.meta)
    victim = next(rec for rec in records if rec.meta["twin_of"] is not None)
    volume, v = victim.result
    victim.result = (volume * 1.001, v * 1.001)
    assert workload.check(records)


def test_verify_check_rejects_an_errored_trial_and_a_changed_outcome():
    workload = workloads.VerifyWorkload(7, 3, "exact", 2)
    records = _records(workload)
    assert workload.check(records) == []
    bad = records[1]
    bad.result = dataclasses.replace(bad.result, error="boom")
    assert any("boom" in p for p in workload.check(records))


def test_witness_check_rejects_a_tampered_report():
    workload = workloads.WitnessWorkload(1)
    op = workload.round_ops(0)[0]
    record = workloads.Record(0, op, op.fn(), None)
    assert workload.check([record]) == []
    report, text = record.result
    entries = list(report.entries)
    entries[2] = dataclasses.replace(entries[2], value=Fraction(1))
    record.result = (dataclasses.replace(report, entries=tuple(entries)), text)
    assert workload.check([record])


def test_rounds_are_reproducible_from_the_seed():
    a = [op.meta["direction"] for op in workloads.SectionsWorkload(5).round_ops(2)]
    b = [op.meta["direction"] for op in workloads.SectionsWorkload(5).round_ops(2)]
    c = [op.meta["direction"] for op in workloads.SectionsWorkload(6).round_ops(2)]
    assert a == b and a != c
    assert workloads.WitnessWorkload(4).pool == workloads.WitnessWorkload(4).pool


# -- the benchmark contract -----------------------------------------------------------


def test_tracer_reports_exactly_the_declared_layers():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    added_by_run = {"trace.overhead_pct", "process.peak_rss_mb"}
    assert set(Tracer().metrics(1, 1.0)) == declared - added_by_run


def test_tracer_restores_the_library():
    from dualpiped import harness, linalg, minima, transference

    before = (harness.gen_instance, transference.successive_minima,
              minima.lattice_points_in_dilate, linalg.Matrix.det)
    tracer = Tracer()
    tracer.install()
    assert transference.successive_minima is not before[1]
    tracer.uninstall()
    after = (harness.gen_instance, transference.successive_minima,
             minima.lattice_points_in_dilate, linalg.Matrix.det)
    assert after == before


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-exact-d3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_builds_its_first_round(name):
    assert workloads.WORKLOADS[name](1).round_ops(0)
