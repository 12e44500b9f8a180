"""Pinned sha256 digests of verification report payloads.

Enumeration and section changes must leave every reported float bit where it
was. The enumerator's float gauges and the section values are exact values
rounded once, so they do not depend on the search path (the last test checks
that) or on summation order; a float computed along another code path
elsewhere can still move in its last bit.
These pins hold the JSON payload (with runtime_ms fixed at zero) of seven
standard suites of 8 trials each; the two at seed 1 are the slices that the
benchmark's verify workloads run, and d=2 is where T7 is skipped by design.
A change that moves float bits on purpose updates the pins and declares the
change in CHANGES.md. The pins were taken with numpy 2.4 on x86-64; float
bits may differ under another BLAS build.
"""
import hashlib
from fractions import Fraction

import pytest

from dualpiped import minima
from dualpiped.harness import TrialConfig, aggregate_outcomes, emit_report, evaluate_trial
from dualpiped.witness import format_sharpness_report, sharpness_report

PINS = [
    (3, "float", 42, "27940c848a715881c27f466d1ddde138f49fd96848f2430d02225caa43ac287a"),
    (4, "float", 42, "99e796f3f42841ff53236c53cc43e96ee9bd6c62187c1244cbe3b15262d9feb8"),
    (5, "float", 42, "097367562b2da1f9f08cdb64e7f201ddb2be6254cf815290cd30110947edb585"),
    (3, "exact", 7, "4da789848af7f2c5b720bc04fc9f6bdc07d1f8fcd2b1d1197f3ceffc484c9bef"),
    (5, "float", 1, "2472c3852599baacba714ffb74bf59324f063bf93eaf4aa336679873d9fab947"),
    (3, "exact", 1, "898e9acd1c7eb90180dcda436f582882b8bb3bb26f99df3507565f294a0358d8"),
    (2, "float", 42, "324f21e67ed0bba224e4015a12c58093214e7bb533041db0234f6b28297fd2ef"),
]


def payload(dimension, mode, seed) -> str:
    config = TrialConfig(dimension=dimension, trials=8, seed=seed, mode=mode)
    outcomes = [evaluate_trial(config, index) for index in range(config.trials)]
    return emit_report(aggregate_outcomes(config, outcomes, runtime_ms=0.0), "json")


@pytest.mark.parametrize("dimension, mode, seed, digest", PINS)
def test_report_payload_digest(dimension, mode, seed, digest):
    assert hashlib.sha256(payload(dimension, mode, seed).encode()).hexdigest() == digest


# the sharpness witness report text, certified boxes and point sets included
WITNESS_PINS = [
    (Fraction(1, 2), "2c58f7eba5feddec0372652544555927573530e105e721b51339131518239714"),
    (Fraction(1, 3), "04350821377bcea619823021dc1bca860cb99cff22fb5bd34ba333ccf6a7a060"),
    (Fraction(2, 7), "a691dd4e26731df57e8ac0f25099de69ed017852007994655bc51e14e46b2330"),
    (Fraction(1, 4), "ce1586de3c00abffe39121fa749ef4889628a164fe06638bcabc146aecefff61"),
    (Fraction(3, 7), "5b94bcff5d769d94e64832d2325d6196eac1ecf9dbb363a3712ae652a5c090e9"),
    (Fraction(5, 11), "ee14f4151a10e72bfa2cd2e38b1b83354749f878228d34eb7e5566265dfd7e59"),
]


@pytest.mark.parametrize("epsilon, digest", WITNESS_PINS)
def test_witness_report_digest(epsilon, digest):
    document = format_sharpness_report(sharpness_report(epsilon))
    assert hashlib.sha256(document.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "dimension, mode, seed",
    [(3, "float", 42), (4, "float", 42), (5, "float", 42), (3, "exact", 7)],
    ids=["3", "4", "5", "3-exact-7"],
)
def test_report_payload_does_not_depend_on_the_search_path(monkeypatch, dimension, mode, seed):
    grid = payload(dimension, mode, seed)
    # no box fits the grid, so every search takes the branch path
    monkeypatch.setattr(minima, "GRID_CELL_CAP", 0)
    assert payload(dimension, mode, seed) == grid
