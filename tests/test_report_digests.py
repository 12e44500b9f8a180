"""Pinned sha256 digests of verification report payloads.

Enumeration and section changes must leave every reported float bit where it
was; a float that is computed along another code path can move in its last
bit. These pins hold the JSON payload (with runtime_ms fixed at zero) of six
standard suites of 8 trials each; the two at seed 1 are the slices that the
benchmark's verify workloads run. A change that moves float bits on purpose,
such as a canonical fixed-order gauge, updates the pins and declares the
change in CHANGES.md. The pins were taken with numpy 2.4 on x86-64; float
bits may differ under another BLAS build.
"""
import hashlib

import pytest

from dualpiped.harness import TrialConfig, aggregate_outcomes, emit_report, evaluate_trial

PINS = [
    (3, "float", 42, "245131d3aa44038c0b932213a8cf87976574d1e652c2b9c10d4323bab5261429"),
    (4, "float", 42, "68e266718766f706c23d7eb24913aedaa13801de2f3c67d549069269e9d51566"),
    (5, "float", 42, "34ca3d43bf97a99580e9baaba817be55cd2e3a6ca608d1ca2c3907e59efd7eea"),
    (3, "exact", 7, "de95522ef0038f6cf029c8d7237fd94571f68f6512e3567ba210badb2a115972"),
    (5, "float", 1, "438a7e338808e87f48ae7bc4cb35b2daae154c7e80bb5ef8f29d5f01c24d460a"),
    (3, "exact", 1, "1b4a56b4db512f2c2b691080ffdf2663a55c5124865620f240f65903323cee73"),
]


@pytest.mark.parametrize("dimension, mode, seed, digest", PINS)
def test_report_payload_digest(dimension, mode, seed, digest):
    config = TrialConfig(dimension=dimension, trials=8, seed=seed, mode=mode)
    outcomes = [evaluate_trial(config, index) for index in range(config.trials)]
    document = emit_report(aggregate_outcomes(config, outcomes, runtime_ms=0.0), "json")
    assert hashlib.sha256(document.encode()).hexdigest() == digest
