"""Pinned sha256 digests of verification report payloads.

Enumeration and section changes must leave every reported float bit where it
was. The enumerator's float gauges and the section values are exact values
rounded once, so they do not depend on the float search or on summation
order; a float computed along another code path elsewhere can still move in
its last bit.
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

from dualpiped.harness import TrialConfig, aggregate_outcomes, emit_report, evaluate_trial
from dualpiped.witness import format_sharpness_report, sharpness_report

PINS = [
    (3, "float", 42, "2510f579aaaf7b3b90536dae48eeff42415a997ac596f6f817a5ccd905f591b6"),
    (4, "float", 42, "5d9316ef9eaba1120d0665d506acd926787ea57c3881e795041d3bdab8b8600c"),
    (5, "float", 42, "8f39771fac1c37decd64035c1617ae2521c580b27ef20cfbe1a65758351c5233"),
    (3, "exact", 7, "2623d00f3cf533c110068e07abe44b351500744f4549a3230fa0174bc6b50f28"),
    (5, "float", 1, "3f5e83e91e311450876fdc31da5b4aeb3426a3871b7582ec12f8fe831e7b9326"),
    (3, "exact", 1, "33706c2592c433730f3351e2280e5b69834f9cf50fc8b65738b9576a42b5062f"),
    (2, "float", 42, "49729492d26ca866a1637138350c60cdebd8d5e238a2251f76b8d1f09e0bc760"),
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

