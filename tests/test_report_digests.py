"""Pinned sha256 digests of verification report payloads.

Enumeration and section changes must leave every reported float bit where it
was. The enumerator's float gauges, the section values and every float
determinant and inverse are exact values rounded once, so they do not depend
on the float search, on pivoting or on summation order; a float computed
along another code path elsewhere can still move in its last bit.
These pins hold the JSON payload (with runtime_ms fixed at zero) of ten
standard suites of 8 trials each; the two at seed 1 are the slices that the
benchmark's verify workloads run, d=2 is where T7 is skipped by design, and
the exact suites cover every dimension from 2 to 5.
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
    (3, "float", 42, "1686146f84a129219794dc5b95353d0d6c6a06123ea9bddcea9435ea976be7ea"),
    (4, "float", 42, "3a25256e2e5ee40027da433b4448aaf5b43ebca4fd50dbef2f0e90a360e1ca67"),
    (5, "float", 42, "2af5d28b6ac846b823b73585f53a9644142e5316d55d9f72758d563cb849ca43"),
    (3, "exact", 7, "ca0d169214d7f80d10b1c752ea17678b91d4ebfcf369f2f0a16bcee3e27cf125"),
    (5, "float", 1, "8355e6cede18f674d8341e00c32ae48f55c195f56bc41354e34d3f412d73406e"),
    (3, "exact", 1, "30cc8fe74cfea3ee2f8710a63fff3822bb43dddf07212460baa4119dcd5f4197"),
    (2, "float", 42, "39a7b41dfc6f200a4b3a8a5ef49a173bf6856a5069c8c4e307688c702ea4ca4c"),
    (2, "exact", 42, "baabd965290ee225303988d5f4e2e03abcf3e6e628281b64b21aad88953db36e"),
    (4, "exact", 42, "06600e67551125d15860a71bf8b85ee598f4409cc5e21637065e72f60082b519"),
    (5, "exact", 42, "15b36fabb869ae525c06afd66c56d1d5ce5140ea82b8b22ffc2beeb4544b50a6"),
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

