"""Outside-in layer trace: spans around the public functions of dualpiped.

Every wrapped call opens a span; a span's self time is its duration minus
the time of the spans it encloses, so the self times of one operation add up
to the operation's time. Wrappers are installed on every module attribute
and class attribute that holds the original function, which catches calls
made through `from .minima import successive_minima` as well as calls inside
the defining module. A few call sites get a span of their own:

- `transference.profiles`: `successive_minima` called by `check_claims`;
- `transference.family`: `first_minimum` called by the FAM and FAMSHARP
  evaluators (the `successive_minima` it makes folds into this span);
- `witness.successive_minima`: `successive_minima` called by `witness`.

`minima.successive_minima` counts the remaining calls, e.g. from
`gen_instance`. Nothing under `src/` is changed; the wrappers live only in
the traced process.
"""
from __future__ import annotations

import gc
import sys
import time
from collections import Counter

# spans whose direct lattice_points_in_dilate children are doubling rounds
_MINIMA_SPANS = frozenset({
    "minima.successive_minima",
    "transference.profiles",
    "transference.family",
    "witness.successive_minima",
})


class Tracer:
    """Self time, calls and counters per span name, recorded inside ops only."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.profiles: list = []
        self.gc_ns = 0
        self._gc_start = None
        self._patched: list = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, *, fold=frozenset(), on_result=None):
        stack = self.stack
        self_ns = self.self_ns
        incl_ns = self.incl_ns
        calls = self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if parent is None or parent in fold:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, parent, args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[name] += elapsed - frame[1]
                incl_ns[name] += elapsed
                calls[name] += 1
                stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def op(self, fn):
        """Run fn as the root span of one operation."""
        self.stack.append(["op", 0])
        try:
            return fn()
        finally:
            self.stack.pop()

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        for module in _dualpiped_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self) -> None:
        from dualpiped import bodies, harness, linalg, minima, sections, transference, witness

        sm = minima.successive_minima
        fm = minima.first_minimum
        plain = [
            (harness.gen_instance, "harness.gen_instance", {}),
            (harness.aggregate_outcomes, "harness.report", {}),
            (harness.emit_report, "harness.report", {}),
            (transference.check_claims, "transference.check_claims", {}),
            (transference.normalize_tau, "transference.normalize_tau", {}),
            (sm, "minima.successive_minima",
             {"fold": frozenset({"transference.family"}), "on_result": _count_kept}),
            (minima.lattice_points_in_dilate, "minima.lattice_points_in_dilate",
             {"on_result": _count_points}),
            (bodies.det_normalized, "bodies.det_normalized", {}),
            (bodies.pseudo_compound, "bodies.pseudo_compound", {}),
            (sections.first_minimum_section_dual, "sections.first_minimum_section_dual", {}),
            (sections.section_dual_gauge, "sections.section_dual_gauge", {}),
            (sections.cube_section_volume, "sections.cube_section_volume", {}),
            (sections.v_tau, "sections.v_tau", {}),
            (witness.build_witness, "witness.build_witness", {}),
            (witness.verify_example_points, "witness.verify_example_points", {}),
        ]
        # call-site spans first, so the blanket replacement below skips them
        self._replace(transference, "successive_minima", self.wrap(
            "transference.profiles", sm, on_result=_count_profile))
        self._replace(transference, "first_minimum", self.wrap(
            "transference.family", fm, on_result=_count_family))
        self._replace(witness, "successive_minima", self.wrap(
            "witness.successive_minima", sm, on_result=_count_kept))
        for fn, name, options in plain:
            self._replace_everywhere(fn, self.wrap(name, fn, **options))
        for cls, attr, name, options in (
            (linalg.RationalSpan, "add", "linalg.RationalSpan.add", {"on_result": _count_accepted}),
            (linalg.Matrix, "inverse", "linalg.Matrix.inverse", {}),
            (linalg.Matrix, "det", "linalg.Matrix.det", {}),
        ):
            self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], **options))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start is not None:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self._gc_start = None

    # -- report -------------------------------------------------------------

    def metrics(self, ops: int, ms_factor: float) -> dict:
        """Per-operation figures; ms_factor maps raw ms to normalised ms."""

        def ms(name):
            return self.self_ns[name] / 1e6 * ms_factor / ops

        def per_op(value):
            return value / ops

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        minima_calls = sum(self.calls[n] for n in _MINIMA_SPANS)
        out = {
            "harness.gen_instance.ms": ms("harness.gen_instance"),
            "harness.gen_instance.calls": per_op(self.calls["harness.gen_instance"]),
            "harness.report.ms": ms("harness.report"),
            "transference.check_claims.ms": ms("transference.check_claims"),
            "transference.profiles.ms": ms("transference.profiles"),
            "transference.profiles.calls": per_op(self.calls["transference.profiles"]),
            "transference.family.ms": ms("transference.family"),
            "transference.family.calls": per_op(self.calls["transference.family"]),
            "transference.normalize_tau.ms": ms("transference.normalize_tau"),
            "minima.successive_minima.ms": ms("minima.successive_minima"),
            "minima.successive_minima.calls": per_op(self.calls["minima.successive_minima"]),
            "minima.lattice_points_in_dilate.ms": ms("minima.lattice_points_in_dilate"),
            "minima.lattice_points_in_dilate.calls":
                per_op(self.calls["minima.lattice_points_in_dilate"]),
            "minima.lattice_points_in_dilate.points": per_op(c["points"]),
            "minima.rounds_per_call": ratio(c["rounds"], minima_calls),
            "minima.useful_ratio": ratio(c["kept"], c["round_points"]),
            "linalg.RationalSpan.add.ms": ms("linalg.RationalSpan.add"),
            "linalg.RationalSpan.add.calls": per_op(self.calls["linalg.RationalSpan.add"]),
            "linalg.RationalSpan.accepted_ratio":
                ratio(c["accepted"], self.calls["linalg.RationalSpan.add"]),
            "linalg.Matrix.inverse.ms": ms("linalg.Matrix.inverse"),
            "linalg.Matrix.inverse.calls": per_op(self.calls["linalg.Matrix.inverse"]),
            "linalg.Matrix.det.ms": ms("linalg.Matrix.det"),
            "linalg.Matrix.det.calls": per_op(self.calls["linalg.Matrix.det"]),
            "bodies.det_normalized.ms": ms("bodies.det_normalized"),
            "bodies.pseudo_compound.ms": ms("bodies.pseudo_compound"),
            "sections.first_minimum_section_dual.ms": ms("sections.first_minimum_section_dual"),
            "sections.first_minimum_section_dual.calls":
                per_op(self.calls["sections.first_minimum_section_dual"]),
            "sections.section_dual_gauge.ms": ms("sections.section_dual_gauge"),
            "sections.section_dual_gauge.calls":
                per_op(self.calls["sections.section_dual_gauge"]),
            "sections.cube_section_volume.ms": ms("sections.cube_section_volume"),
            "sections.v_tau.ms": ms("sections.v_tau"),
            "sections.v_tau.calls": per_op(self.calls["sections.v_tau"]),
            "witness.build_witness.ms": ms("witness.build_witness"),
            "witness.verify_example_points.ms": ms("witness.verify_example_points"),
            "witness.successive_minima.ms": ms("witness.successive_minima"),
            "process.gc.ms": self.gc_ns / 1e6 * ms_factor / ops,
        }
        # inclusive time of the two call-site views of the enumeration
        for name in ("transference.profiles", "transference.family"):
            out[name + ".incl_ms"] = self.incl_ns[name] / 1e6 * ms_factor / ops
        return out


def _dualpiped_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dualpiped" or name.startswith("dualpiped."))]


def _count_points(tracer: Tracer, parent, args, result) -> None:
    tracer.counts["points"] += len(result)
    if parent in _MINIMA_SPANS:
        tracer.counts["rounds"] += 1
        tracer.counts["round_points"] += len(result)


def _count_kept(tracer: Tracer, parent, args, result) -> None:
    tracer.counts["kept"] += len(result.values)


def _count_profile(tracer: Tracer, parent, args, result) -> None:
    _count_kept(tracer, parent, args, result)
    # check_claims passes Z^d implicitly; keep the pair for Minkowski's check
    if len(args) == 1:
        tracer.profiles.append((args[0], result))


def _count_family(tracer: Tracer, parent, args, result) -> None:
    tracer.counts["kept"] += 1


def _count_accepted(tracer: Tracer, parent, args, result) -> None:
    if result:
        tracer.counts["accepted"] += 1
