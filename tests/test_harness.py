"""Tests for instance generation, suite orchestration, and report emission."""
import dataclasses
import gc
import json
import random
from fractions import Fraction

import pytest

from dualpiped import linalg, minima, sections, transference
from dualpiped.bodies import pseudo_compound
from dualpiped.harness import (
    TrialConfig,
    aggregate_outcomes,
    emit_report,
    evaluate_trial,
    gen_instance,
    run_suite,
)
from dualpiped.minima import first_minimum
from dualpiped.transference import check_claims, sample_directions
from dualpiped.witness import build_witness

from oracle_utils import to_float


def test_trial_config_validation():
    TrialConfig(dimension=3, trials=2, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(dimension=1, trials=2, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(dimension=3, trials=-1, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(dimension=3, trials=2, seed=0, mode="decimal")
    # exact mode admits every dimension that float mode admits
    for d in range(2, 9):
        TrialConfig(dimension=d, trials=2, seed=0, mode="exact")
    with pytest.raises(ValueError):
        TrialConfig(dimension=9, trials=2, seed=0, mode="exact")
    with pytest.raises(ValueError):
        TrialConfig(dimension=3, trials=2, seed=0, claims=("T3", "XX"))
    with pytest.raises(ValueError):
        TrialConfig(dimension=3, trials=2, seed=0, tau_samples=0)


def test_gen_instance_errors():
    with pytest.raises(ValueError):
        gen_instance(1, 0)
    with pytest.raises(ValueError):
        gen_instance(3, 0, mode="decimal")


def test_gen_instance_seed42_calibration():
    inst = gen_instance(3, 42)
    value, _ = first_minimum(pseudo_compound(inst))
    assert abs(value - 1.0) <= 1e-9


def test_gen_instance_calibration_sweep():
    checked = 0
    for d in (3, 4, 5):
        for seed in range(34 if d == 3 else 33):
            inst = gen_instance(d, 1000 * d + seed)
            value, _ = first_minimum(pseudo_compound(inst))
            assert abs(value - 1.0) <= 1e-9
            checked += 1
    assert checked == 100


def test_gen_instance_exact_mode_calibration():
    for seed in range(5):
        inst = gen_instance(3, seed, mode="exact")
        assert inst.kind == "rational"
        value, _ = first_minimum(pseudo_compound(inst))
        assert value <= 1
        assert abs(float(value) - 1.0) <= 1e-9


def test_run_suite_zero_violations_and_determinism():
    config = TrialConfig(dimension=3, trials=10, seed=7)
    report = run_suite(config)
    assert report.config == config
    assert len(report.claims) == len(config.claims)
    for summary in report.claims:
        assert summary.instances == 10
        assert summary.passes + summary.skips + summary.violations == 10
        assert summary.violations == 0
    lo, hi = report.v_tau_range
    assert 1.0 - 1e-12 <= lo <= hi <= 2**0.5 + 1e-12
    assert report.runtime_ms >= 0

    again = run_suite(config)
    flat = dataclasses.replace(report, runtime_ms=0.0)
    flat_again = dataclasses.replace(again, runtime_ms=0.0)
    assert emit_report(flat, "json") == emit_report(flat_again, "json")


def test_dimension_two_suite_evaluates_every_claim_but_t7():
    report = run_suite(TrialConfig(dimension=2, trials=6, seed=42))
    for summary in report.claims:
        assert summary.notes == ()
        assert summary.violations == 0
        if summary.claim == "T7":
            assert summary.skips == 6
        else:
            assert summary.passes > 0, summary.claim


def test_run_suite_empty():
    config = TrialConfig(dimension=3, trials=0, seed=1)
    report = run_suite(config)
    assert report.v_tau_range is None
    for summary in report.claims:
        assert summary.instances == 0
        assert summary.worst_margin is None
        assert summary.extremal_instance is None
    document = emit_report(dataclasses.replace(report, runtime_ms=0.0), "json")
    parsed = json.loads(document)
    assert parsed["config"]["trials"] == 0
    assert parsed["claims"]


def test_aggregation_is_order_insensitive():
    config = TrialConfig(dimension=3, trials=6, seed=13, claims=("T3", "T4", "FAM"))
    outcomes = [evaluate_trial(config, t) for t in range(config.trials)]
    forward = aggregate_outcomes(config, outcomes, runtime_ms=0.0)
    backward = aggregate_outcomes(config, list(reversed(outcomes)), runtime_ms=0.0)
    assert forward == backward


def test_t7_skips_on_second_witness_form():
    piped = build_witness(Fraction(1, 2)).z3_body_2
    directions = sample_directions(random.Random(0), 3, 8)
    (report,) = check_claims(piped, ("T7",), directions=directions)
    assert report.status == "skip"
    assert report.hypothesis is False


@pytest.mark.parametrize("form, statuses, margins", [
    ("z3_body_1", ("pass",) * 3, (0.5774, 0.1614, 0.3991)),
    ("z3_body_2", ("pass", "pass", "skip"), (0.7321, 0.3161, None)),
])
def test_t5_to_t7_decide_the_witness_forms_and_their_float_twins(form, statuses, margins):
    # the first form (Q(sqrt3)) meets every hypothesis of T5-T7; the second
    # (rational) has mu_1 = 1 exactly, so T7's strict mu_1 > 1 fails for its
    # float twin too: the slack never lifts 1 above 1
    body = getattr(build_witness(Fraction(1, 2)), form)
    by_kind = [check_claims(piped, ("T5", "T6", "T7"), directions=())
               for piped in (body, to_float(body))]
    for reports in by_kind:
        assert tuple(r.status for r in reports) == statuses
        assert tuple(None if r.margin is None else round(r.margin, 4) for r in reports) == margins
        assert not any(r.slack_pass for r in reports)
    exact, floats = by_kind
    assert [r.margin for r in exact] == [r.margin for r in floats]


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_trial_derives_its_values_once(monkeypatch):
    # 8 section ratios serve both FAMSHARP and the v_tau range; C12 takes one
    # and WM one, its radius: on harness bodies the first point of its box
    # already has a sup norm at that radius, so its scan ends there; a claim
    # filter makes only the profile searches that its claims read
    ratios = counting(monkeypatch, sections, "_section_ratio")
    searches = counting(monkeypatch, transference, "successive_minima")
    # the family claims decide all eight shifts in one batched call, with no
    # fallback search of a shifted body
    batches = counting(monkeypatch, transference, "first_minima_in_basis")
    shift_searches = counting(monkeypatch, transference, "first_minimum")
    # three row sets are searched: the calibration's compound, the body and
    # its compound; each is cleared once, reduced once per start and
    # inverted once, and WM's section-dual search reads the compound's, from
    # the same start as its profile search, so it clears, reduces and
    # inverts nothing; the forms are cleared for their det, their inverse and
    # the det of its transpose, which the calibration's compound and the
    # trial's share
    reductions = counting(monkeypatch, minima, "_lll_unimodular")
    clearings = counting(monkeypatch, linalg, "integer_rows")
    clearings_of_rows = counting(monkeypatch, minima, "integer_rows")
    # each enumeration of a dilate is a walk of its small box or a grid, in
    # call order: the calibration, the two profiles, then WM's search
    enumerations = []

    def enumerating(label, original):
        def enumerate_box(*args):
            enumerations.append(label)
            return original(*args)
        return enumerate_box

    monkeypatch.setattr(minima, "_walked_points", enumerating("walk", minima._walked_points))
    monkeypatch.setattr(minima, "_grid_points", enumerating("grid", minima._grid_points))
    # the eliminations of the forms (linalg) and of the reduced rows (minima),
    # in call order; the batched call reads the body's, made by its profile search
    eliminations = []
    batched = transference.first_minima_in_basis

    def marked(*args):
        eliminations.append("batch")
        try:
            return batched(*args)
        finally:
            eliminations.append("end")

    def recorded(module, eliminate):
        def recording(*args, **options):
            eliminations.append((module, options.get("inverse", False)))
            return eliminate(*args, **options)
        return recording

    monkeypatch.setattr(transference, "first_minima_in_basis", marked)
    for module in (linalg, minima):
        monkeypatch.setattr(module, "eliminate", recorded(module.__name__, module.eliminate))
    for mode, dimension in (("float", 5), ("exact", 3)):
        for claims, ratio_calls, search_calls, batch_calls, row_sets, fixed in (
            (None, 10, 2, 1, 3, 4), (("FAM",), 8, 1, 1, 2, 2), (("FAMSHARP",), 8, 1, 1, 2, 2),
            (("C12",), 9, 0, 0, 1, 1),
        ):
            options = {} if claims is None else {"claims": claims}
            config = TrialConfig(dimension=dimension, trials=3, seed=1, mode=mode, **options)
            for index in range(config.trials):
                for calls in (ratios, searches, batches, shift_searches, reductions, clearings,
                              clearings_of_rows, enumerations, eliminations):
                    calls.clear()
                outcome = evaluate_trial(config, index)
                assert outcome.error is None
                assert (len(ratios), len(searches)) == (ratio_calls, search_calls)
                # each profile search is made on the body alone, as the benchmark's trace expects
                assert all(len(args) == 1 for args in searches)
                assert (len(batches), len(shift_searches)) == (batch_calls, 0)
                assert all(len(directions) == config.tau_samples for _, directions, _ in batches)
                assert (len(reductions), len(enumerations)) == (row_sets, fixed)
                assert (len(clearings), len(clearings_of_rows)) == (3, row_sets)
                forms = [("dualpiped.linalg", False), ("dualpiped.linalg", True),
                         ("dualpiped.linalg", False)]
                inverses = [("dualpiped.minima", True)] * row_sets
                assert [e for e in eliminations if e not in ("batch", "end")] == forms + inverses
                if batch_calls:
                    inside = eliminations[eliminations.index("batch") + 1:eliminations.index("end")]
                    assert inside == []
                # the calibration's and WM's boxes are small: walked, with no grid
                assert enumerations[0] == "walk"
                if claims is None:
                    assert enumerations[-1] == "walk"
    monkeypatch.undo()
    # the v_tau range reads the square that FAMSHARP reads, rounded once
    for mode, dimension in (("float", 5), ("exact", 3)):
        config = TrialConfig(dimension=dimension, trials=2, seed=1, mode=mode)
        for index in range(config.trials):
            outcome = evaluate_trial(config, index)
            rng = random.Random((config.seed * 1_000_003 + index) ^ 0x5DEECE66D)
            directions = sample_directions(rng, dimension, config.tau_samples)
            expected = tuple(float(sections.v_tau(tuple(raw))) for raw in directions)
            assert outcome.v_values == expected


def test_trials_leave_no_cyclic_garbage():
    # the search state that bodies, gauge rows and matrices keep links no
    # object back to its owner, so trials run with the collector off free
    # everything by reference counting
    gc.collect()
    gc.disable()
    try:
        for mode, dimension in (("float", 5), ("exact", 3)):
            config = TrialConfig(dimension=dimension, trials=20, seed=1, mode=mode)
            for index in range(config.trials):
                assert evaluate_trial(config, index).error is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_emit_report_formats():
    config = TrialConfig(dimension=3, trials=3, seed=5, claims=("T3", "MK2"))
    report = dataclasses.replace(run_suite(config), runtime_ms=0.0)

    document = emit_report(report, "json")
    parsed = json.loads(document)
    assert sorted(parsed.keys()) == [
        "claims", "config", "runtime_ms", "v_tau_range", "version",
    ]
    assert json.dumps(parsed, sort_keys=True, indent=2) == document
    assert [row["claim"] for row in parsed["claims"]] == ["T3", "MK2"]

    csv_doc = emit_report(report, "csv")
    lines = csv_doc.strip().splitlines()
    assert lines[0] == (
        "claim,instances,passes,skips,violations,worst_margin,extremal_instance"
    )
    assert len(lines) == 3

    text_doc = emit_report(report, "text")
    assert "T3" in text_doc and "MK2" in text_doc

    with pytest.raises(ValueError):
        emit_report(report, "xml")
