"""Random instance generation, suite orchestration, and report emission.

A suite evaluates the claim engine over seeded random instances. Per-trial
seeds derive from the master seed and the trial index, so trials are
independent of evaluation order and two runs with the same config produce
the same report (wall-clock runtime aside, which tests normalize to zero
before comparing emissions). Every instance is a random calibrated body, and
the report records the one float tolerance policy of `transference`, and
for each claim the passes that needed it.
"""
from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import __version__
from .bodies import Parallelepiped, pseudo_compound
from .linalg import Matrix
from .minima import first_minimum
from .transference import ALL_CLAIMS, REL_SLACK, check_claims, sample_directions

_MODES = ("float", "exact")


@dataclass(frozen=True)
class TrialConfig:
    """One reproducible suite: same config, same report."""

    dimension: int
    trials: int
    seed: int
    mode: str = "float"
    claims: tuple = ALL_CLAIMS
    tau_samples: int = 8

    def __post_init__(self) -> None:
        if not 2 <= self.dimension <= 8:
            raise ValueError("dimension must be between 2 and 8")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        object.__setattr__(self, "claims", tuple(self.claims))
        unknown = [c for c in self.claims if c not in ALL_CLAIMS]
        if unknown or not self.claims:
            raise ValueError(f"claim filter must name known claims, got {list(self.claims)}")
        if self.tau_samples < 1:
            raise ValueError("tau_samples must be positive")


def _random_unimodular(rng: random.Random, d: int) -> Matrix:
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        i = rng.randrange(d)
        j = rng.randrange(d)
        while j == i:
            j = rng.randrange(d)
        c = rng.randint(-2, 2)
        if c:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix(rows)


def gen_instance(d: int, seed: int, *, mode: str = "float") -> Parallelepiped:
    """One random calibrated test body.

    The form matrix is unimodular, from bounded elementary row operations,
    and the bounds are log-uniform in [1/2, 2]. The body is then rescaled so
    the first minimum of the pseudo-compound sits at 1: scaling the body by s
    scales the compound by s^(d-1) and the minimum is inverse-homogeneous.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    rng = random.Random(seed)
    forms = _random_unimodular(rng, d)
    spread = math.log(2.0)
    raw_bounds = [math.exp(rng.uniform(-spread, spread)) for _ in range(d)]
    if mode == "float":
        piped = Parallelepiped(forms.to_float(), tuple(raw_bounds))
        minimum, _ = first_minimum(pseudo_compound(piped))
        return piped.scale(float(minimum) ** (1.0 / (d - 1)))
    bounds = tuple(
        min(max(Fraction(x).limit_denominator(8), Fraction(1, 2)), Fraction(2))
        for x in raw_bounds
    )
    piped = Parallelepiped(forms, bounds)
    minimum, _ = first_minimum(pseudo_compound(piped))
    # round the irrational root up to a nearby rational so the rescaled
    # compound minimum lands at 1 or a hair below, never above
    scale = Fraction(float(minimum) ** (1.0 / (d - 1))).limit_denominator(10**12)
    while scale ** (d - 1) < minimum:
        scale = scale * (1 + Fraction(1, 10**10))
    return piped.scale(scale)


@dataclass(frozen=True)
class TrialOutcome:
    """Everything one trial contributes to the aggregate, order-free."""

    index: int
    identifier: str
    reports: tuple | None
    error: str | None
    v_values: tuple


def evaluate_trial(config: TrialConfig, index: int) -> TrialOutcome:
    trial_seed = config.seed * 1_000_003 + index
    identifier = f"trial-{index}"
    rng = random.Random(trial_seed ^ 0x5DEECE66D)
    try:
        piped = gen_instance(config.dimension, trial_seed, mode=config.mode)
        directions = sample_directions(rng, config.dimension, config.tau_samples)
        # v_tau rounded once, from the square that FAMSHARP reads too
        v_values = tuple(math.sqrt(raw.v_squared) for raw in directions)
        reports = tuple(check_claims(piped, config.claims, directions=directions))
        return TrialOutcome(index, identifier, reports, None, v_values)
    except (ValueError, RuntimeError) as exc:
        return TrialOutcome(index, identifier, None, str(exc), ())


@dataclass(frozen=True)
class ClaimSummary:
    claim: str
    instances: int
    passes: int
    skips: int
    violations: int
    worst_margin: float | None
    extremal_instance: str | None
    notes: tuple = ()
    slack_passes: int = 0


@dataclass(frozen=True)
class VerificationReport:
    config: TrialConfig
    claims: tuple
    v_tau_range: tuple | None
    runtime_ms: float
    version: str = __version__


def aggregate_outcomes(
    config: TrialConfig, outcomes: Sequence[TrialOutcome], *, runtime_ms: float
) -> VerificationReport:
    """Fold trial outcomes into per-claim summaries; commutative by design."""
    by_claim = {cid: [] for cid in config.claims}
    notes = {cid: set() for cid in config.claims}
    for outcome in outcomes:
        if outcome.reports is None:
            for cid in config.claims:
                by_claim[cid].append((outcome.identifier, "skip", None, False))
                notes[cid].add(f"{outcome.identifier}: {outcome.error}")
            continue
        for report in outcome.reports:
            by_claim[report.claim].append(
                (outcome.identifier, report.status, report.margin, report.slack_pass)
            )

    summaries = []
    for cid in config.claims:
        rows = by_claim[cid]
        count = Counter(status for _, status, _, _ in rows)
        worst = min(
            ((margin, ident) for ident, _, margin, _ in rows if margin is not None),
            default=(None, None),
        )
        summaries.append(
            ClaimSummary(
                claim=cid,
                instances=len(rows),
                passes=count["pass"],
                skips=count["skip"],
                violations=count["violation"],
                worst_margin=worst[0],
                extremal_instance=worst[1],
                notes=tuple(sorted(notes[cid])),
                slack_passes=sum(slack for *_, slack in rows),
            )
        )

    v_values = [v for outcome in outcomes for v in outcome.v_values]
    v_range = (min(v_values), max(v_values)) if v_values else None
    return VerificationReport(config, tuple(summaries), v_range, runtime_ms)


def run_suite(config: TrialConfig) -> VerificationReport:
    """Evaluate every trial of the config and aggregate the claim outcomes."""
    start = time.perf_counter()
    outcomes = [evaluate_trial(config, index) for index in range(config.trials)]
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return aggregate_outcomes(config, outcomes, runtime_ms=runtime_ms)


def _report_payload(report: VerificationReport) -> dict:
    config = report.config
    return {
        "config": {
            "dimension": config.dimension,
            "trials": config.trials,
            "seed": config.seed,
            "mode": config.mode,
            "claims": list(config.claims),
            "tau_samples": config.tau_samples,
            "tolerance": {"rel_slack": REL_SLACK},
        },
        "claims": [
            {
                "claim": s.claim,
                "instances": s.instances,
                "passes": s.passes,
                "skips": s.skips,
                "violations": s.violations,
                "worst_margin": s.worst_margin,
                "extremal_instance": s.extremal_instance,
                "notes": list(s.notes),
                "slack_passes": s.slack_passes,
            }
            for s in report.claims
        ],
        "v_tau_range": list(report.v_tau_range) if report.v_tau_range else None,
        "runtime_ms": report.runtime_ms,
        "version": report.version,
    }


def emit_report(report: VerificationReport, format: str) -> str:
    """Serialize a report as canonical json, one-row-per-claim csv, or text."""
    if format == "json":
        return json.dumps(_report_payload(report), sort_keys=True, indent=2)
    if format == "csv":
        lines = ["claim,instances,passes,skips,violations,worst_margin,extremal_instance"]
        for s in report.claims:
            margin = "" if s.worst_margin is None else repr(s.worst_margin)
            extremal = s.extremal_instance or ""
            lines.append(
                f"{s.claim},{s.instances},{s.passes},{s.skips},{s.violations},"
                f"{margin},{extremal}"
            )
        return "\n".join(lines) + "\n"
    if format == "text":
        config = report.config
        lines = [
            f"verification suite: dimension {config.dimension}, "
            f"{config.trials} trials, seed {config.seed}, {config.mode} mode",
            "claims:",
        ]
        for s in report.claims:
            margin = "none" if s.worst_margin is None else f"{s.worst_margin:.6g}"
            where = f" ({s.extremal_instance})" if s.extremal_instance else ""
            lines.append(
                f"  {s.claim}: {s.instances} instances, {s.passes} passes, "
                f"{s.skips} skips, {s.violations} violations, "
                f"{s.slack_passes} slack passes, worst margin {margin}{where}"
            )
            for note in s.notes:
                lines.append(f"    note: {note}")
        if report.v_tau_range is not None:
            lo, hi = report.v_tau_range
            lines.append(f"v_tau range: [{lo:.12g}, {hi:.12g}]")
        lines.append(f"runtime: {report.runtime_ms:.1f} ms")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")
