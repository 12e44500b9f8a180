"""Pinned sha256 digests of verification report payloads.

Enumeration and section changes must leave every reported float bit where it
was; a float that is computed along another code path can move in its last
bit. These pins hold the JSON payload (with runtime_ms fixed at zero) of seven
standard suites of 8 trials each; the two at seed 1 are the slices that the
benchmark's verify workloads run, and d=2 is where T7 is skipped by design.
A change that moves float bits on purpose, such as a canonical fixed-order
gauge, updates the pins and declares the change in CHANGES.md. The pins were
taken with numpy 2.4 on x86-64; float bits may differ under another BLAS
build.
"""
import hashlib
from fractions import Fraction

import pytest

from dualpiped.harness import TrialConfig, aggregate_outcomes, emit_report, evaluate_trial
from dualpiped.witness import format_sharpness_report, sharpness_report

PINS = [
    (3, "float", 42, "245131d3aa44038c0b932213a8cf87976574d1e652c2b9c10d4323bab5261429"),
    (4, "float", 42, "68e266718766f706c23d7eb24913aedaa13801de2f3c67d549069269e9d51566"),
    (5, "float", 42, "34ca3d43bf97a99580e9baaba817be55cd2e3a6ca608d1ca2c3907e59efd7eea"),
    (3, "exact", 7, "de95522ef0038f6cf029c8d7237fd94571f68f6512e3567ba210badb2a115972"),
    (5, "float", 1, "438a7e338808e87f48ae7bc4cb35b2daae154c7e80bb5ef8f29d5f01c24d460a"),
    (3, "exact", 1, "1b4a56b4db512f2c2b691080ffdf2663a55c5124865620f240f65903323cee73"),
    (2, "float", 42, "c59e43542f06849cdcefb6236f3600c40191efa46cdf4cf542662c7c5231160c"),
]


@pytest.mark.parametrize("dimension, mode, seed, digest", PINS)
def test_report_payload_digest(dimension, mode, seed, digest):
    config = TrialConfig(dimension=dimension, trials=8, seed=seed, mode=mode)
    outcomes = [evaluate_trial(config, index) for index in range(config.trials)]
    document = emit_report(aggregate_outcomes(config, outcomes, runtime_ms=0.0), "json")
    assert hashlib.sha256(document.encode()).hexdigest() == digest


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
