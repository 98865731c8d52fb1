"""Outside-in tracing of the ``ars`` package for the benchmark's traced run.

Nothing in ``src/ars`` knows about this module.  :meth:`Tracer.install`
replaces public functions and methods with timing wrappers.  A module that
did ``from .symcore import lie_bracket`` holds its own reference to the
function, so every ``ars.*`` module attribute bound to the original object
is replaced, not only the attribute in the defining module.

Each wrapper records one span per call.  A span's self time is its duration
minus the durations of the traced calls made inside it, so the self times
of all spans add up to the traced time and each layer is charged only for
its own work.  Brackets are also attributed to the innermost enclosing
caller span, which is what ``liealg.brackets.*`` and ``grading.brackets``
report.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (span key, owner, attribute).  The owner is a module name, or
# "module:Class" for a method.  Several targets may share a key: the
# key's self time then sums over them.
TARGETS = (
    ("parser.parse_frame", "ars.parser", "parse_frame"),
    ("symcore.lie_bracket", "ars.symcore", "lie_bracket"),
    ("symcore.vf_apply", "ars.symcore", "vf_apply"),
    ("symcore.Polynomial.shifted", "ars.symcore:Polynomial", "shifted"),
    ("linalg.SpanBasis.insert", "ars.linalg:SpanBasis", "insert"),
    ("linalg.SpanBasis.reduce", "ars.linalg:SpanBasis", "reduce"),
    ("linalg.SpanBasis.contains", "ars.linalg:SpanBasis", "contains"),
    ("linalg.SpanBasis.coordinates", "ars.linalg:SpanBasis", "coordinates"),
    ("linalg.SpanBasis.rows", "ars.linalg:SpanBasis", "rows"),
    ("linalg.SpanBasis.leading_keys", "ars.linalg:SpanBasis", "leading_keys"),
    ("linalg.dense", "ars.linalg", "rank"),
    ("linalg.dense", "ars.linalg", "det"),
    ("linalg.dense", "ars.linalg", "solve_combination"),
    ("grading.growth_vector", "ars.grading", "growth_vector"),
    ("grading.coordinate_orders", "ars.grading", "coordinate_orders"),
    ("approx.build_approximation", "ars.approx", "build_approximation"),
    ("liealg.lie_closure", "ars.liealg", "lie_closure"),
    ("liealg.ideal_closure", "ars.liealg", "ideal_closure"),
    ("liealg.from_span", "ars.liealg:LieBasis", "from_span"),
    ("liealg.series", "ars.liealg", "nilpotent_step"),
    ("liealg.series", "ars.liealg", "is_solvable"),
    ("liealg.adjoint_matrix", "ars.liealg", "adjoint_matrix"),
    ("liealg.graded_frame", "ars.liealg", "graded_frame"),
    ("liealg.classify_fields", "ars.liealg", "classify_fields"),
    ("locus.frame_determinant", "ars.locus", "frame_determinant"),
    ("locus.stratify_samples", "ars.locus", "stratify_samples"),
    ("locus.corank_at", "ars.locus", "corank_at"),
    ("flows.completeness_probe", "ars.flows", "completeness_probe"),
    ("flows.rk4_flow", "ars.flows", "rk4_flow"),
    ("pipeline.analyze", "ars.pipeline", "analyze"),
    ("pipeline.to_json", "ars.pipeline:Report", "to_json"),
)

# Spans a bracket is charged to; the innermost open one wins.
BRACKET_CALLERS = {
    "grading.growth_vector": "grading.brackets",
    "liealg.lie_closure": "liealg.brackets.lie_closure",
    "liealg.from_span": "liealg.brackets.from_span",
    "liealg.ideal_closure": "liealg.brackets.ideal_closure",
    "liealg.series": "liealg.brackets.series",
    "liealg.adjoint_matrix": "liealg.brackets.adjoint_matrix",
}
UNATTRIBUTED_BRACKETS = "liealg.brackets.other"


def _coeff_bits(field) -> int:
    bits = 0
    for comp in field.components:
        for c in comp.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Span and counter sink fed by wrappers around ``ars`` functions.

    While ``active`` is false the wrappers call straight through, so one
    installation serves both the traced and the untraced passes of a run.
    """

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list] = []  # [key, child_ns] per open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()

    def _peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    # -- bookkeeping done after a call returns, outside every span's time --

    def _after_lie_bracket(self, result) -> None:
        for key, _ in reversed(self._stack):
            if key in BRACKET_CALLERS:
                self.counts[BRACKET_CALLERS[key]] += 1
                break
        else:
            self.counts[UNATTRIBUTED_BRACKETS] += 1
        if not result.is_zero:
            self._peak("symcore.peak_degree", result.total_degree())
            self._peak("symcore.peak_coeff_bits", _coeff_bits(result))

    def _after_insert(self, grew) -> None:
        if grew:
            self.counts["linalg.SpanBasis.insert.grew"] += 1

    def _after_lie_closure(self, L) -> None:
        self._peak("liealg.dim_L", len(L.basis))

    def _after_completeness_probe(self, probe) -> None:
        self.counts["flows.blowups"] += probe.blowup_count

    def _after_to_json(self, text) -> None:
        self.counts["pipeline.report_bytes"] += len(text.encode())

    AFTER = {
        "symcore.lie_bracket": _after_lie_bracket,
        "linalg.SpanBasis.insert": _after_insert,
        "liealg.lie_closure": _after_lie_closure,
        "flows.completeness_probe": _after_completeness_probe,
        "pipeline.to_json": _after_to_json,
    }

    def _wrap(self, key: str, fn):
        after = self.AFTER.get(key)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            span = [key, 0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_ns[key] += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                t0 = clock()
                after(self, result)
                if stack:
                    # hide the bookkeeping from the enclosing span's self time
                    stack[-1][1] += clock() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the currently imported ``ars`` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ars" or name.startswith("ars.")]
        for key, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = sys.modules[mod_name]
            if cls_name:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(key, raw.__func__))
                else:
                    wrapped = self._wrap(key, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(key, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._stack.clear()
        self.active = False

    def brackets_by_caller(self) -> dict[str, int]:
        keys = list(BRACKET_CALLERS.values()) + [UNATTRIBUTED_BRACKETS]
        return {k: self.counts[k] for k in keys}
