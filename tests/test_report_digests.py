"""Pinned sha256 digests of verification report payloads.

Enumeration and section changes must leave every reported float bit where it
was. The enumerator's float gauges are exact dyadic gauges rounded once, so
they do not depend on the search path (the last test checks that); a float
computed along another code path elsewhere can still move in its last bit.
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
    (3, "float", 42, "2131a7af39afe5a57e15dfc54bf6835270c18f0d034c8c11c9d70dc9035f2d33"),
    (4, "float", 42, "75dfa527662db05e40fe54f9631414fa926ffa5f282e8877a98add35de19b9be"),
    (5, "float", 42, "c3e2fe6d0e7527f0fce7af8c5239bc1f72542933aa8bd44918694cde4b74691d"),
    (3, "exact", 7, "de95522ef0038f6cf029c8d7237fd94571f68f6512e3567ba210badb2a115972"),
    (5, "float", 1, "4b0aead01be0ba3a7257f986a9d12c826331682f59aed928a6e91ab49e77455f"),
    (3, "exact", 1, "1b4a56b4db512f2c2b691080ffdf2663a55c5124865620f240f65903323cee73"),
    (2, "float", 42, "559d390f62daff0c21897cf4ed307aea6bca6c2ab12fa1096563271aa7230c90"),
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


@pytest.mark.parametrize("dimension", [3, 4, 5])
def test_report_payload_does_not_depend_on_the_search_path(monkeypatch, dimension):
    grid = payload(dimension, "float", 42)
    # no box fits the grid, so every float search takes the branch path
    monkeypatch.setattr(minima, "GRID_CELL_CAP", 0)
    assert payload(dimension, "float", 42) == grid
