"""The four workloads: seeded inputs, operations, and their output checks.

A workload hands out rounds of operations. Round r is built from the seed
and r alone, outside the timed region, and no operation repeats within a
run, so the reduction cache in `minima` is met as `dualpiped verify` meets
it: cold for every new instance. A run attempts whole rounds only.

Operations call the library through module attributes (`harness.evaluate_trial`),
so that the traced run's wrappers are seen.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from dualpiped import bodies, harness, minima, sections, witness

import checks

MINIMUM_OPS = 100  # p90 needs ten samples beyond it


class Op:
    """One timed call and what its check needs to know about it."""

    __slots__ = ("fn", "meta")

    def __init__(self, fn, **meta) -> None:
        self.fn = fn
        self.meta = meta


class Record:
    """An attempted operation: its inputs, result or error, and failure flag."""

    __slots__ = ("round", "meta", "result", "failed")

    def __init__(self, round_index: int, op: Op, result, error) -> None:
        self.round = round_index
        self.meta = op.meta
        self.result = result
        self.failed = error is not None


# -- verify-float-d5 and verify-exact-d3 -------------------------------------------


class VerifyWorkload:
    """Trials of harness.evaluate_trial, all ten claims, as `dualpiped verify` runs them."""

    # trials whose instances are re-derived for the brute-force and
    # Minkowski checks; brute force stops after BRUTE_INSTANCES of them
    SCAN_TRIALS = 6
    BRUTE_INSTANCES = 3

    def __init__(self, seed: int, dimension: int, mode: str, round_size: int,
                 minimum_ops: int = MINIMUM_OPS) -> None:
        self.config = harness.TrialConfig(dimension=dimension, trials=0, seed=seed, mode=mode)
        self.round_size = round_size
        self.minimum_ops = minimum_ops
        self.exact = mode == "exact"

    def round_ops(self, r: int) -> list:
        config = self.config
        return [
            Op(lambda i=i: harness.evaluate_trial(config, i), index=i)
            for i in range(r * self.round_size, (r + 1) * self.round_size)
        ]

    def _payload(self, outcomes) -> str:
        config = harness.TrialConfig(
            dimension=self.config.dimension, trials=len(outcomes),
            seed=self.config.seed, mode=self.config.mode,
        )
        report = harness.aggregate_outcomes(config, outcomes, runtime_ms=0.0)
        return harness.emit_report(report, "json")

    def report(self, records) -> dict:
        """The aggregated report, as the CLI emits it, and a digest of round 0's."""
        outcomes = [rec.result for rec in records if not rec.failed]
        first = [rec.result for rec in records if rec.round == 0 and not rec.failed]
        return {
            "payload": json.loads(self._payload(outcomes)),
            "digest0": hashlib.sha256(self._payload(first).encode()).hexdigest(),
            "trials": len(outcomes),
        }

    def check(self, records) -> list:
        problems = []
        for rec in records:
            if rec.failed:
                continue
            if rec.result.error is not None:
                problems.append(f"trial {rec.meta['index']}: error {rec.result.error}")
        summary = self.report(records)
        problems += checks.report_problems(summary["payload"], summary["trials"])
        problems += self._check_instances(records)
        return problems

    def _check_instances(self, records) -> list:
        """Re-derive the first trials' instances and check their minima independently."""
        problems = []
        brute_done = 0
        d = self.config.dimension
        for rec in records[: self.SCAN_TRIALS]:
            if rec.failed:
                continue
            index = rec.meta["index"]
            captured = []
            original = harness.gen_instance

            def capture(*args, **kwargs):
                piped = original(*args, **kwargs)
                captured.append(piped)
                return piped

            harness.gen_instance = capture
            try:
                again = harness.evaluate_trial(self.config, index)
            finally:
                harness.gen_instance = original
            label = f"trial {index}"
            if again != rec.result:
                problems.append(f"{label}: a second evaluation gives another outcome")
            if len(captured) != 1:
                problems.append(f"{label}: instance not captured")
                continue
            body = bodies.det_normalized(captured[0])
            star = bodies.pseudo_compound(body)
            profile = minima.successive_minima(body)
            profile_star = minima.successive_minima(star)
            for name, piped, prof in (("body", body, profile), ("compound", star, profile_star)):
                volume = checks.body_volume(piped.forms.rows, piped.bounds, self.exact)
                problems += checks.minkowski_problems(f"{label} {name}", prof.values, volume,
                                                      self.exact)
            t3 = next(r for r in rec.result.reports if r.claim == "T3")
            if not checks.close(float(d - 1) - t3.margin, float(profile.values[0]), 1e-12):
                problems.append(f"{label}: T3 margin disagrees with successive_minima")
            if brute_done == self.BRUTE_INSTANCES:
                continue
            c_rows = checks.gauge_rows(body.forms.rows, body.bounds)
            mu1 = profile.values[0]
            if checks.box_cells(checks.brute_box(c_rows, mu1, self.exact)) > checks.BRUTE_CELL_CAP:
                continue
            brute = checks.brute_first_minimum(c_rows, mu1, self.exact)
            problems += checks.first_minimum_problems(f"{label} body", mu1, brute, self.exact)
            brute_done += 1
        if brute_done == 0:
            problems.append("no instance small enough for the brute-force check")
        return problems

    def check_profiles(self, profiles) -> list:
        """Minkowski's second theorem for every profile check_claims computed."""
        problems = []
        for i, (piped, prof) in enumerate(profiles):
            volume = checks.body_volume(piped.forms.rows, piped.bounds, self.exact)
            problems += checks.minkowski_problems(f"profile {i}", prof.values, volume, self.exact)
        return problems


# -- witness-certify ----------------------------------------------------------------


class WitnessWorkload:
    """`dualpiped witness`: sharpness_report plus its text, for distinct rationals eps."""

    ROUND = 10
    minimum_ops = MINIMUM_OPS

    def __init__(self, seed: int) -> None:
        pool = sorted({Fraction(p, q) for q in range(2, 61) for p in range(1, q)
                       if Fraction(1, 4) <= Fraction(p, q) <= Fraction(1, 2)})
        random.Random(f"witness-{seed}").shuffle(pool)
        self.pool = pool

    def round_ops(self, r: int) -> list:
        chosen = self.pool[r * self.ROUND:(r + 1) * self.ROUND]
        if len(chosen) < self.ROUND:
            raise RuntimeError("the epsilon pool is exhausted; lower --seconds")
        return [Op(lambda eps=eps: _witness_op(eps), epsilon=eps) for eps in chosen]

    def check(self, records) -> list:
        problems = []
        for rec in records:
            if rec.failed:
                continue
            eps = rec.meta["epsilon"]
            report, text = rec.result
            label = f"epsilon {eps}"
            if report.epsilon != eps:
                problems.append(f"{label}: report carries epsilon {report.epsilon}")
            problems += checks.witness_problems(label, [e.value for e in report.entries])
            problems += checks.witness_problems(f"{label} integer forms",
                                                [e.value for e in report.integer_forms])
            if len(report.certificate.identities) != 5:
                problems.append(f"{label}: {len(report.certificate.identities)} identities")
            if not text.startswith(f"sharpness witness, epsilon = {eps}\n"):
                problems.append(f"{label}: unexpected report text")
        return problems


def _witness_op(eps):
    report = witness.sharpness_report(eps)
    return report, witness.format_sharpness_report(report)


# -- sections-highdim ----------------------------------------------------------------

# one round's seeded directions as (dimension, repeated |a_i|); the others
# have all |a_i| distinct. With the two float twins at d=8 a round times 14
# operations: the median falls in the middle of the d=9 block (29-71% of
# them) and p90 inside the d=10 block (71-100%), never on a jump between two
# kinds of operation. Within a run the host's speed drifts by 25% over
# seconds, so a quantile at the edge of a block would be noisy.
_EXACT_DIRECTIONS = (
    (8, False), (8, True),
    (9, False), (9, True), (9, False), (9, True), (9, False), (9, True),
    (10, False), (10, True), (10, False), (10, True),
)
# exact directions also run as floats up to this dimension. Above it the
# float sign-pattern sum loses more than the 1e-9 relative slack the
# program promises, on some directions only (1.3e-9 seen at d=9, 5e-9 at
# d=11), so those operations would fail on some seeds and not others
_FLOAT_MAX_DIM = 8
# fixed directions (1, 2, ..., d) * scale: v_tau is scale invariant, but the
# sums raise unscaled coordinates to the power d-1 and under- or overflow
_SCALE_EXTREMES = ((6, 1e-300), (8, 1e-300), (6, 1e300), (8, 1e300))
_RATIONALS = sorted({Fraction(p, q) for p in range(1, 13) for q in range(1, 13)})


def _section_op(direction):
    d = len(direction)
    return sections.cube_section_volume(direction, d), sections.v_tau(direction)


def _direction(rng: random.Random, d: int, repeated: bool) -> tuple:
    if repeated:
        values = rng.sample(_RATIONALS, d // 3)
        out = [values[i % len(values)] for i in range(d)]
    else:
        out = rng.sample(_RATIONALS, d)
    rng.shuffle(out)
    return tuple(out)


class SectionsWorkload:
    """`dualpiped section`: cube_section_volume and v_tau at d = 8..10."""

    minimum_ops = 270  # 15 rounds

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round_ops(self, r: int) -> list:
        rng = random.Random(f"sections-{self.seed}-{r}")
        ops = []
        for d, repeated in _EXACT_DIRECTIONS:
            exact = _direction(rng, d, repeated)
            key = len(ops)
            ops.append(Op(lambda a=exact: _section_op(a), direction=exact, twin_of=None, key=key))
            if d <= _FLOAT_MAX_DIM:
                twin = tuple(float(x) for x in exact)
                ops.append(Op(lambda a=twin: _section_op(a), direction=twin, twin_of=key,
                              key=key + 1))
        for d, scale in _SCALE_EXTREMES:
            a = tuple(scale * (i + 1) for i in range(d))
            ops.append(Op(lambda a=a: _section_op(a), direction=a, twin_of=None,
                          key=len(ops), base=tuple(float(i + 1) for i in range(d))))
        return ops

    def check(self, records) -> list:
        problems = []
        by_round: dict = {}
        for rec in records:
            by_round.setdefault(rec.round, {})[rec.meta["key"]] = rec
        for r, recs in by_round.items():
            for rec in recs.values():
                problems += self._check_one(r, rec, recs)
        problems += self._check_first_round(by_round.get(0, {}))
        problems += self._check_identities()
        return problems

    def _check_one(self, r, rec, recs) -> list:
        a = rec.meta["direction"]
        d = len(a)
        label = f"round {r} d={d} {'exact' if checks.is_exact(a[0]) else 'float'} {a[:3]}..."
        if "base" in rec.meta:
            # the known scale fault: fails unless v_tau is scale invariant
            if not rec.failed:
                _, v = rec.result
                expected = sections.v_tau(rec.meta["base"])
                rec.failed = bool(checks.v_tau_range_problems(label, v)
                                  or checks.same_value_problems(label, v, expected, checks.FLOAT_REL))
            return []
        if rec.failed:
            return []
        volume, v = rec.result
        problems = checks.v_tau_range_problems(label, v)
        problems += checks.volume_problems(label, volume, v, d)
        twin_of = rec.meta["twin_of"]
        if twin_of is not None and not recs[twin_of].failed:
            problems += checks.same_value_problems(label + " float vs exact", v,
                                                   recs[twin_of].result[1], checks.FLOAT_REL)
        return problems

    def _check_first_round(self, recs) -> list:
        """Permutation invariance and the convolution oracle on round 0."""
        problems = []
        for rec in recs.values():
            if rec.failed or "base" in rec.meta:
                continue
            a = rec.meta["direction"]
            d = len(a)
            v = rec.result[1]
            label = f"round 0 d={d} {a[:3]}..."
            if d <= 9:
                problems += checks.same_value_problems(label + " reversed", v,
                                                       sections.v_tau(a[::-1]),
                                                       checks.FLOAT_REL)
            if d <= 9:
                exact = a if checks.is_exact(a[0]) else recs[rec.meta["twin_of"]].meta["direction"]
                problems += checks.oracle_problems(label, v, checks.v_tau_squared_oracle(exact))
        return problems

    def _check_identities(self) -> list:
        """v_tau(e_1) = 1 and v_tau(1, 1, 0, ..., 0) = sqrt2 in every dimension used."""
        problems = []
        for d in sorted({d for d, _ in _EXACT_DIRECTIONS}):
            for one in (Fraction(1), 1.0):
                zero = one - one
                e1 = (one,) + (zero,) * (d - 1)
                pair = (one, one) + (zero,) * (d - 2)
                problems += checks.same_value_problems(f"d={d} v_tau(e1)", sections.v_tau(e1), one)
                problems += checks.same_value_problems(f"d={d} v_tau(1,1,0..)",
                                                       sections.v_tau(pair), math.sqrt(2.0))
        return problems


WORKLOADS = {
    "verify-float-d5": lambda seed: VerifyWorkload(seed, 5, "float", 5),
    "verify-exact-d3": lambda seed: VerifyWorkload(seed, 3, "exact", 10, minimum_ops=150),
    "witness-certify": WitnessWorkload,
    "sections-highdim": SectionsWorkload,
}
