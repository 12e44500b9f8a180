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
The repr of the 8 TrialOutcomes of each benchmark slice is pinned too: it
holds every margin, status, witness and slack flag of each trial, which the
payload reports only as aggregates.
The minima of seeded generic Q(sqrt3) bodies are pinned as well: their
boxes reach 30,625 cells, where the witness's searches meet 3 or 9.
A change that moves float bits on purpose updates the pins and declares the
change in CHANGES.md. The pins were taken with numpy 2.4 on x86-64; float
bits may differ under another BLAS build.
"""
import hashlib
import random
from fractions import Fraction

import pytest

from dualpiped import harness
from dualpiped.bodies import Parallelepiped, det_normalized
from dualpiped.harness import TrialConfig, aggregate_outcomes, emit_report, evaluate_trial
from dualpiped.linalg import Matrix
from dualpiped.minima import successive_minima
from dualpiped.scalars import Quad3
from dualpiped.witness import format_sharpness_report, sharpness_report

PINS = [
    (3, "float", 42, "f99469af9b85fdbd2f3f47b6d2efc9514345273955c1e4e6eb8ec1eadb979be6"),
    (4, "float", 42, "be7699203a7e4cc781b4024cb4cc9033507459b19b7f2ea99378bb0257af0e0f"),
    (5, "float", 42, "ee10a3cc333f1003fc8c471b1549f45aaad419e48c31d9aa7a72b342ea7849d7"),
    (3, "exact", 7, "ca0d169214d7f80d10b1c752ea17678b91d4ebfcf369f2f0a16bcee3e27cf125"),
    (5, "float", 1, "259d0647f7975466ee1cfe59674b2b6e0e1ebedc1fa68363780d23c35131568b"),
    (3, "exact", 1, "30cc8fe74cfea3ee2f8710a63fff3822bb43dddf07212460baa4119dcd5f4197"),
    (2, "float", 42, "e28bf80f90709e7cdcc9ecde49a38d924dc05c1b807266e3662e60c202c6f1ff"),
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


OUTCOME_PINS = [
    (5, "float", 1, "721a31c9b7474271dd38537f5bc054302b9577138d7b86fcc18b8000fc706510"),
    (3, "exact", 1, "319f6b039ffbbc72d83fb9981e250affda7a545ab215529f20105cb276665623"),
]


@pytest.mark.parametrize("dimension, mode, seed, digest", OUTCOME_PINS,
                         ids=[f"{d}-{m}-{s}" for d, m, s, _ in OUTCOME_PINS])
def test_trial_outcome_digest(dimension, mode, seed, digest):
    config = TrialConfig(dimension=dimension, trials=8, seed=seed, mode=mode)
    outcomes = [evaluate_trial(config, index) for index in range(config.trials)]
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == digest


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



def _quad3_body(rng, d):
    """An invertible body with Q(sqrt3) forms and bounds, both parts small rationals."""
    def part(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, 3))

    while True:
        forms = Matrix([[Quad3(part(3), part(2)) for _ in range(d)] for _ in range(d)])
        if forms.det() != 0:
            break
    eta = tuple(Quad3(rng.randint(1, 4), Fraction(rng.randint(0, 2), rng.randint(1, 3))) for _ in range(d))
    return Parallelepiped(forms, eta)


def test_generic_quad3_minima_digest():
    rng = random.Random(37)
    found = []
    for d in range(2, 7):
        for _ in range(6):
            profile = successive_minima(_quad3_body(rng, d))
            found.append((profile.values, profile.witnesses))
    digest = "2bd206dd696ce50b8f7123b705f8a8de0bbe416a1d9adef1c857c47d180bd16d"
    assert hashlib.sha256(repr(found).encode()).hexdigest() == digest
