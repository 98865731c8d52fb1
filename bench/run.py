"""End-to-end and per-layer benchmark of ``ars analyze``.

One op is what a single ``ars analyze`` call does, without interpreter
start-up: parse the frame text, run ``analyze`` and serialise the report
with ``Report.to_json``.  The benchmark is a closed loop with one client in
one process and one thread: the next op starts when the previous one has
returned.  A pass runs every op of the workload once, in an order drawn
from the seed; a run is a whole number of passes, so every run of a
workload does the same work and reports the same sample count.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

``--trace 0`` times ops untraced and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics per pass, plus the tracing overhead.  Times are normalised to a
reference machine speed (see speed.py).  ``--smoke`` runs one pass of
every workload with all output checks and validates the traced bracket
counts.  The last line of a measuring run is one JSON object; the program
is always imported from ``src/`` next to this directory.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

# Passes per second of --seconds.  A run plans round(seconds * rate)
# passes, so a workload's sample count is fixed by --seconds and stays the
# same when the program gets faster or slower.  With --seconds 25 a run
# measures 21-30 s on a 2-core sandbox, and each workload's median and
# tail fall inside the samples of one shape.  A run that has taken
# OVERRUN times --seconds starts no further pass.
PASSES_PER_S = {
    "paper_frames": 5.6,      # 140 passes of 9 ops
    "bracket_scaling": 0.28,  # 7 passes of 7 ops
    "high_degree": 0.28,      # 7 passes of 5 ops
    "probes": 0.08,           # 2 passes of 12 ops and the deadline op
}
OVERRUN = 1.5
SETUP_REPEATS = 15
TAIL_BEYOND = 10

# Bracket counts per analyze call, from the ROADMAP baseline.  The E3 rows
# are by innermost caller.
BASELINE_BRACKETS = {
    "E3": {
        "grading.brackets": 25,
        "liealg.brackets.lie_closure": 55,
        "liealg.brackets.from_span": 185,
        "liealg.brackets.ideal_closure": 88,
        "liealg.brackets.adjoint_matrix": 16,
        "liealg.brackets.series": 282,
        "liealg.brackets.other": 0,
    },
    "grushin_pow(9)": {"total": 13954},
}


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that ran past its deadline.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded


class Program:
    """The ``ars`` modules an op calls, looked up at call time so that the
    tracer's replacements take effect."""

    def __init__(self) -> None:
        self.parser = sys.modules["ars.parser"]
        self.pipeline = sys.modules["ars.pipeline"]
        self.grading = sys.modules["ars.grading"]


def import_program() -> Program:
    """Import ``ars`` afresh from ``src/``, never from an installed copy."""
    for name in [m for m in sys.modules if m == "ars" or m.startswith("ars.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    ars = importlib.import_module("ars")
    if not Path(ars.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ars was imported from {ars.__file__}, not from {SRC}")
    return Program()


def setup(workload: str, seed: int, repeats: int):
    """Import the program and generate the inputs, ``repeats`` times.

    Returns the normalised set-up times, the program, the workload and the
    speed samples taken so far.
    """
    speed = Speed()
    spans = []
    for _ in range(repeats):
        gc.collect()  # free the previous import outside the timed span
        speed.sample()
        t0 = time.perf_counter()
        program = import_program()
        wl = W.WORKLOADS[workload](seed)
        spans.append((t0, time.perf_counter()))
    speed.sample()
    # let lazy set-up finish before anything is timed
    run_op(program, W.Op("warm-up", W.GRUSHIN_TEXT))
    times = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    return times, program, wl, speed


@dataclass
class Result:
    start: float
    seconds: float
    outcome: int | None = None
    output: str = ""
    error: str | None = None     # unexpected exception
    missed_deadline: bool = False


def run_op(program: Program, op: W.Op) -> Result:
    options = program.pipeline.AnalyzeOptions(**op.options)
    rank_failure = program.grading.RankConditionFailure
    not_privileged = program.pipeline.NotPrivileged
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    t0 = time.perf_counter()
    try:
        doc = program.parser.parse_frame(op.text)
        try:
            report = program.pipeline.analyze(doc, options)
            output = report.to_json()
            degenerate = report.approximation is not None and report.approximation.degenerate
            outcome = W.DEGENERATE if degenerate else W.REPORT
        except rank_failure as exc:
            output = f"rank_condition_failure: {exc}\n" + exc.report.to_json()
            outcome = W.RANK_FAILURE
        except not_privileged as exc:
            output = f"not_privileged: {exc}\n" + exc.report.to_json()
            outcome = W.NOT_PRIVILEGED
        return Result(t0, time.perf_counter() - t0, outcome, output)
    except DeadlineExceeded:
        return Result(t0, time.perf_counter() - t0, missed_deadline=True)
    except Exception as exc:  # an op failure to count, not a benchmark crash
        return Result(t0, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Loop:
    """Runs passes in a closed loop; collects latencies, checks and failures."""

    def __init__(self, program: Program, wl: W.Workload, seed: int, speed: Speed) -> None:
        self.program = program
        self.wl = wl
        self.speed = speed
        self.order_rng = random.Random(f"order/{wl.name}/{seed}")
        self.first_digest: dict[str, str] = {}
        # (pass, start, end, seconds charged, ok) per op; a failed op is
        # charged at least its deadline, since it missed any latency limit
        self.records: list[tuple[int, float, float, float, bool]] = []
        self.passes = 0
        self.attempted = 0
        self.failed: Counter = Counter()   # "op: reason" -> count
        self.deadline_met = 0
        self.deadline_missed = 0
        self.problems: list[str] = []      # wrong outputs outside the op count

    def _verdict(self, op: W.Op, res: Result) -> str | None:
        if res.missed_deadline:
            return f"missed its {op.deadline_s:g} s deadline"
        if res.error:
            return res.error
        try:
            why = W.check_output(op, res.outcome, res.output)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            why = f"unreadable report: {type(exc).__name__}: {exc}"
        if why:
            return why
        d = W.digest(res.output)
        if self.first_digest.setdefault(op.name, d) != d:
            return "report bytes differ from this op's first output"
        return None

    def run_pass(self) -> tuple[float, float, float]:
        """Run one pass; returns its start and end and the seconds spent
        inside the program."""
        ops = list(self.wl.ops)
        self.order_rng.shuffle(ops)
        start = time.perf_counter()
        spent = 0.0
        for op in ops:
            self.speed.maybe_sample()
            res = run_op(self.program, op)
            spent += res.seconds
            self.attempted += 1
            why = self._verdict(op, res)
            if why:
                self.failed[f"{op.name}: {why}"] += 1
            charged = max(res.seconds, op.deadline_s) if why else res.seconds
            self.records.append((self.passes, res.start, res.start + res.seconds, charged,
                                 not why))
        end = time.perf_counter()
        self.speed.sample()
        self.passes += 1
        return start, end, spent

    def latencies(self) -> list[float]:
        """Normalised seconds charged to each op, in the order run."""
        return [c * self.speed.scale(s, e) for _, s, e, c, _ in self.records]

    def reports_per_s(self) -> float:
        """Median over passes of correct ops per normalised busy second."""
        ok, busy = [0] * self.passes, [0.0] * self.passes
        for (i, *_, good), lat in zip(self.records, self.latencies()):
            ok[i] += good
            busy[i] += lat
        return statistics.median(k / b for k, b in zip(ok, busy))

    def run_deadline_op(self, tracer: Tracer | None = None) -> None:
        op = self.wl.deadline_op
        if op is None:
            return
        active = tracer is not None and tracer.active
        if active:
            tracer.active = False  # where it stops depends on the clock
        res = run_op(self.program, op)
        if active:
            tracer.active = True
        if res.missed_deadline:
            self.deadline_missed += 1
            return
        why = self._verdict(op, res)
        if why:
            self.problems.append(f"{op.name}: {why}")
        else:
            self.deadline_met += 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems


def planned_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds * PASSES_PER_S[workload]))


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    s = sorted(samples)
    idx = max(len(s) - TAIL_BEYOND - 1, 0)
    return 100.0 * (idx + 1) / len(s), s[idx]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def failure_lines(loop: Loop) -> list[str]:
    lines = [f"  FAILED {reason} (x{n})" for reason, n in sorted(loop.failed.items())]
    if not loop.failed:
        lines.append("  failed ops: none")
    op = loop.wl.deadline_op
    if op is not None:
        lines.append(
            f"  DEADLINE OP {op.name!r} ({op.deadline_s:g} s, once per pass, outside the "
            f"latency samples): missed {loop.deadline_missed}/{loop.passes},"
            f" met {loop.deadline_met}"
            + (" -- known defect: the locus sampler hangs" if loop.deadline_missed else ""))
    return lines + [f"  WRONG {p}" for p in loop.problems]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Loop, list[str]]:
    setup_times, program, wl, speed = setup(workload, seed, SETUP_REPEATS)
    loop = Loop(program, wl, seed, speed)
    passes = planned_passes(workload, seconds)
    start = time.perf_counter()
    done = 0
    while done < passes and (done == 0 or time.perf_counter() - start < OVERRUN * seconds):
        loop.run_pass()
        loop.run_deadline_op()
        done += 1
    wall = time.perf_counter() - start
    latencies = loop.latencies()
    n = len(latencies)
    correct_ops = loop.attempted - loop.n_failed
    pct, tail_s = tail(latencies)
    metrics = {
        "analyze_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "analyze_tail_ms": metric(tail_s * 1e3, "ms"),
        "reports_per_s": metric(loop.reports_per_s(), "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_p50 = statistics.median(charged for _, _, _, charged, _ in loop.records)
    lines = [
        f"{workload}: analyze_p50_ms={metrics['analyze_p50_ms']['value']:.3f} ms (n={n})"
        f" | analyze_tail_ms={tail_s * 1e3:.3f} ms (p{pct:.1f}, n={n},"
        f" {min(TAIL_BEYOND, n - 1)} beyond)"
        f" | reports_per_s={metrics['reports_per_s']['value']:.4f} 1/s"
        f" (median of n={done} passes; {correct_ops} correct ops in {sum(latencies):.2f} s)"
        f" | ops_failed_frac={loop.n_failed / loop.attempted:.4f}"
        f" ({loop.n_failed}/{loop.attempted})"
        f" | setup_s={metrics['setup_s']['value']:.5f} s (median of n={len(setup_times)})"
        f" | peak_rss_mb={metrics['peak_rss_mb']['value']:.2f} MB (n=1)",
        f"  {done} of {passes} planned passes in {wall:.1f} s wall; times normalised by"
        f" {len(speed.times)} speed samples; unnormalised p50 {raw_p50 * 1e3:.3f} ms",
    ]
    return metrics, loop, lines + failure_lines(loop)


# -- traced run --------------------------------------------------------------

def layer_snapshot(tr: Tracer, scale: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Self times are multiplied by ``scale``, the pass's speed normalisation.
    """
    ms = lambda *keys: sum(tr.self_ns[k] for k in keys) / 1e6 * scale  # noqa: E731
    span_keys = [k for k in tr.self_ns if k.startswith("linalg.SpanBasis.")]
    inserts = tr.calls["linalg.SpanBasis.insert"]
    out = {
        "parser.parse_frame.self_ms": (ms("parser.parse_frame"), "ms"),
        "symcore.lie_bracket.calls": (tr.calls["symcore.lie_bracket"], "count"),
        "symcore.lie_bracket.self_ms": (ms("symcore.lie_bracket"), "ms"),
        "symcore.vf_apply.calls": (tr.calls["symcore.vf_apply"], "count"),
        "symcore.vf_apply.self_ms": (ms("symcore.vf_apply"), "ms"),
        "symcore.Polynomial.shifted.self_ms": (ms("symcore.Polynomial.shifted"), "ms"),
        "symcore.peak_degree": (tr.peaks["symcore.peak_degree"], "degree"),
        "symcore.peak_coeff_bits": (tr.peaks["symcore.peak_coeff_bits"], "bits"),
        "linalg.SpanBasis.insert.calls": (inserts, "count"),
        "linalg.SpanBasis.insert.grew_ratio": (
            tr.counts["linalg.SpanBasis.insert.grew"] / inserts if inserts else 0.0, "ratio"),
        "linalg.SpanBasis.coordinates.calls": (tr.calls["linalg.SpanBasis.coordinates"], "count"),
        "linalg.SpanBasis.self_ms": (ms(*span_keys), "ms"),
        "linalg.dense.self_ms": (ms("linalg.dense"), "ms"),
        "grading.growth_vector.self_ms": (ms("grading.growth_vector"), "ms"),
        "grading.coordinate_orders.self_ms": (ms("grading.coordinate_orders"), "ms"),
        "grading.brackets": (tr.counts["grading.brackets"], "count"),
        "approx.build_approximation.self_ms": (ms("approx.build_approximation"), "ms"),
    }
    for fn in ("lie_closure", "ideal_closure", "from_span", "series", "adjoint_matrix",
               "graded_frame", "classify_fields"):
        out[f"liealg.{fn}.self_ms"] = (ms(f"liealg.{fn}"), "ms")
    for caller in ("lie_closure", "from_span", "ideal_closure", "series", "adjoint_matrix"):
        out[f"liealg.brackets.{caller}"] = (tr.counts[f"liealg.brackets.{caller}"], "count")
    out.update({
        "liealg.dim_L": (tr.peaks["liealg.dim_L"], "count"),
        "locus.frame_determinant.calls": (tr.calls["locus.frame_determinant"], "count"),
        "locus.frame_determinant.self_ms": (ms("locus.frame_determinant"), "ms"),
        "locus.stratify_samples.self_ms": (ms("locus.stratify_samples"), "ms"),
        "locus.corank_at.calls": (tr.calls["locus.corank_at"], "count"),
        "flows.completeness_probe.self_ms": (ms("flows.completeness_probe"), "ms"),
        "flows.rk4_flow.calls": (tr.calls["flows.rk4_flow"], "count"),
        "flows.rk4_flow.self_ms": (ms("flows.rk4_flow"), "ms"),
        "flows.blowups": (tr.counts["flows.blowups"], "count"),
        "pipeline.analyze.self_ms": (ms("pipeline.analyze"), "ms"),
        "pipeline.to_json.self_ms": (ms("pipeline.to_json"), "ms"),
        "pipeline.report_bytes": (tr.counts["pipeline.report_bytes"], "bytes"),
    })
    return out


def trace_run(workload: str, seed: int, seconds: float) -> tuple[dict, Loop, list[str]]:
    _, program, wl, speed = setup(workload, seed, 1)
    loop = Loop(program, wl, seed, speed)
    tracer = Tracer()
    tracer.install()
    plain, traced, snaps = [], [], []
    start = time.perf_counter()
    try:
        while True:
            t_pair = time.perf_counter()
            plain.append(loop.run_pass())
            loop.run_deadline_op()
            tracer.reset()
            tracer.active = True
            traced.append(loop.run_pass())
            missed_before = loop.deadline_missed
            loop.run_deadline_op(tracer)
            tracer.active = False
            t0, t1, _ = traced[-1]
            snap = layer_snapshot(tracer, speed.scale(t0, t1))
            snap["locus.stratify_samples.deadline_missed"] = (
                loop.deadline_missed - missed_before, "count")
            snaps.append(snap)
            now = time.perf_counter()
            if now - start + (now - t_pair) > seconds:
                break
    finally:
        tracer.uninstall()
    for key, (value, unit) in snaps[0].items():
        if unit != "ms" and any(s[key][0] != value for s in snaps[1:]):
            loop.problems.append(f"per-layer count {key} differs between traced passes")
    metrics = {}
    for key, (value, unit) in snaps[0].items():
        if unit == "ms":
            value = statistics.median(s[key][0] for s in snaps)
        metrics[key] = metric(value, unit)

    def pass_s(passes):
        return statistics.median(spent * speed.scale(t0, t1) for t0, t1, spent in passes)

    metrics["trace.overhead_ms"] = metric((pass_s(traced) - pass_s(plain)) * 1e3, "ms")
    lines = [f"{workload}: per-layer metrics per pass ({len(wl.ops)} ops),"
             f" n={len(snaps)} traced passes; self_ms is the median over passes"]
    lines += [f"  {k:44s} {m['value']:>14.3f} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"  tracing overhead: traced {pass_s(traced):.3f} s"
                 f" - untraced {pass_s(plain):.3f} s per pass")
    return metrics, loop, lines + failure_lines(loop)


# -- smoke mode ----------------------------------------------------------------

def validate_bracket_counts(program: Program) -> list[str]:
    """Traced bracket counts of E3 and grushin_pow(9) against the baseline."""
    problems = []
    tracer = Tracer()
    tracer.install()
    try:
        for name, text in (("E3", W.E3_TEXT), ("grushin_pow(9)", W.grushin_pow(9, [1] * 8))):
            tracer.reset()
            tracer.active = True
            res = run_op(program, W.Op(name, text))
            tracer.active = False
            by_caller = tracer.brackets_by_caller()
            got = dict(by_caller, total=tracer.calls["symcore.lie_bracket"])
            if res.outcome != W.REPORT or sum(by_caller.values()) != got["total"]:
                problems.append(f"{name}: traced run failed or lost brackets ({res.error})")
            for key, want in BASELINE_BRACKETS[name].items():
                if got[key] != want:
                    problems.append(f"{name}: {key} = {got[key]}, baseline {want}")
            print(f"  brackets {name}: total {got['total']}, by caller "
                  + ", ".join(f"{k} {v}" for k, v in by_caller.items()))
    finally:
        tracer.uninstall()
    return problems


def smoke() -> int:
    ok = True
    program = None
    for name in W.WORKLOADS:
        times, program, wl, speed = setup(name, 0, 1)
        loop = Loop(program, wl, 0, speed)
        loop.run_pass()
        loop.run_deadline_op()
        lat = loop.latencies()
        print(f"{name}: {len(lat)} ops, median {statistics.median(lat) * 1e3:.1f} ms,"
              f" max {max(lat) * 1e3:.1f} ms, setup {times[0]:.4f} s")
        print("\n".join(failure_lines(loop)))
        ok &= loop.correct
    problems = validate_bracket_counts(program)
    for p in problems:
        print(f"  BRACKET COUNT MISMATCH {p}")
    ok &= not problems
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required unless --smoke is given")
        run = trace_run if args.trace else measure
        metrics, loop, lines = run(args.workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
