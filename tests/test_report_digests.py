"""Pinned sha256 digests of verification report payloads.

Enumeration and section changes must leave every reported float bit where it
was. The enumerator's float gauges, the section values and every float
determinant and inverse are exact values rounded once, so they do not depend
on the float search, on pivoting or on summation order; a float computed
along another code path elsewhere can still move in its last bit.
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

from dualpiped import harness
from dualpiped.bodies import det_normalized
from dualpiped.harness import TrialConfig, aggregate_outcomes, emit_report, evaluate_trial
from dualpiped.witness import format_sharpness_report, sharpness_report

PINS = [
    (3, "float", 42, "0609c56d6ba7b1ae03e3a4cd6fb23212e2b9de0fa5d910de6fd6183e3edd480d"),
    (4, "float", 42, "1e839568a50d2604add2ed6eb2f054296e5b7358ad6300e14d25c94964086759"),
    (5, "float", 42, "efc5e83fad70c1373c18eb9cf077c87d000110c79602383e6e454c607921d7ab"),
    (3, "exact", 7, "4ac4b992601db9d977b1d37501f418cff7362ec57f78a332421b995d44741743"),
    (5, "float", 1, "e67af2b95bf732bf96826ab33d1d32d98bab9618de190e4e56f9ff6cb80e5702"),
    (3, "exact", 1, "8ac026a68e922157109d22a23d8c1ea2a95da21c579499aeb14acbc09e13f1bf"),
    (2, "float", 42, "0bae587151188606733595499b22dca7f15c2fb5cebcdec4d103c598324acf00"),
]


def payload(dimension, mode, seed) -> str:
    config = TrialConfig(dimension=dimension, trials=8, seed=seed, mode=mode)
    outcomes = [evaluate_trial(config, index) for index in range(config.trials)]
    return emit_report(aggregate_outcomes(config, outcomes, runtime_ms=0.0), "json")


# the ids leave the digest out, so a pin that moves keeps its test's name
@pytest.mark.parametrize("dimension, mode, seed, digest", PINS, ids=[f"{d}-{m}-{s}" for d, m, s, _ in PINS])
def test_report_payload_digest(dimension, mode, seed, digest):
    assert hashlib.sha256(payload(dimension, mode, seed).encode()).hexdigest() == digest


def test_pinned_float_bodies_have_unit_determinant(monkeypatch):
    # harness forms are unimodular integer matrices and a float det is the
    # exact value rounded once, so det_normalized returns each body unchanged
    bodies = []

    def recording(piped, claims, *, directions):
        bodies.append(piped)
        return ()

    monkeypatch.setattr(harness, "check_claims", recording)
    for dimension, mode, seed, _ in PINS:
        if mode == "float":
            for index in range(8):
                evaluate_trial(TrialConfig(dimension=dimension, trials=8, seed=seed), index)
    assert len(bodies) == 40
    for piped in bodies:
        assert piped.forms.det() in (1.0, -1.0)
        assert det_normalized(piped) is piped


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

