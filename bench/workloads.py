"""Seeded workloads and independent output checks for the analyze benchmark.

A workload is a list of ops; one pass runs every op once, in an order drawn
from the seed.  The seed also draws every nonzero rational coefficient,
every off-locus base point and the probe seed of each generated frame.  The
shape of each op (family, dimension, degree) is fixed, so runs with
different seeds do the same amount of work and their counts agree.

No expected value here comes from the code under test.  Generated families
are checked against closed forms derived by hand (growth vector, weights,
dim L, ideal dimension, nilpotency step, labels, determinant), fixtures
against their expected outcome class and a report digest recorded when the
benchmark was written, and every op against its own first output on each
repeat.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

# Outcome classes, numbered like the CLI's exit codes.
REPORT, RANK_FAILURE, NOT_PRIVILEGED, DEGENERATE = 0, 3, 4, 5

# Normal ops must finish well inside this; only a hang reaches it.
OP_DEADLINE_S = 30.0
# The x^40 --stratify op: the analysis before stratification takes about
# 1.3 s on a 2-core sandbox; a fixed locus sampler should end under 2 s.
DEADLINE_OP_S = 3.0

# Copies of the fixture texts in tests/conftest.py, kept here so that an
# edit to the test fixtures does not silently change the benchmark.
E1_TEXT = """\
vars x y z
field X1 = d/dx
field X2 = x d/dy
field X3 = y^2 d/dz
"""
E2_TEXT = """\
vars x y z w
field X1 = d/dx
field X2 = d/dy + x d/dz
field X3 = y d/dw
field X4 = x d/dz + 1/2 y^2 d/dw
"""
E3_TEXT = """\
vars x y z w t
field X1 = d/dx
field X2 = d/dy + x d/dz + w d/dt
field X3 = d/dw + x d/dt
field X4 = x d/dy + 1/2 x^2 d/dz
field X5 = y d/dx + 1/2 y^2 d/dz
"""
AFFINE_TEXT = """\
vars x y
field X1 = d/dx
field X2 = d/dx + x d/dy
"""
DEGENERATE_TEXT = """\
vars x y z w t
field X1 = d/dx
field X2 = d/dy + x d/dz + w d/dt
field X3 = d/dw + x d/dt
field X4 = x d/dy + 1/2 x^2 d/dz
field X5 = x d/dy + 1/2 x^2 d/dz + z^2 d/dt
"""
NOT_PRIVILEGED_TEXT = """\
vars x y
field X1 = d/dx + d/dy
field X2 = x d/dy
"""
RANK_FAIL_TEXT = """\
vars x y
field X1 = d/dx
field X2 = x d/dx
"""
GRUSHIN_TEXT = """\
vars x y
field X1 = d/dx
field X2 = x d/dy
"""
TANGENTIAL_TEXT = """\
vars x y
field X1 = d/dx
field X2 = y d/dy - x^2 d/dy
"""

# (name, text, outcome class, sha256 of the op output with default options)
# The digests were recorded from the parent commit of the benchmark.
PAPER_FIXTURES = (
    ("E1", E1_TEXT, REPORT,
     "f1711ae5129726ca0e0ddea385bc33896f3c4b5c2a6f78e6d7b37f0ad1ae5e68"),
    ("E2", E2_TEXT, REPORT,
     "bbaf49f140aeb2f2685e4c1ac607fdf774eba01f2af772c2170a0a397e58e35a"),
    ("E3", E3_TEXT, REPORT,
     "8bc67bb00932decf4257c7a5cb9925edd027cb03a8c286a81f4e0da749d57d6d"),
    ("affine", AFFINE_TEXT, REPORT,
     "f05050557fb5c56e9ed220fb2363347085f44a55ce44b0b9c7bc048d87c87eb0"),
    ("degenerate", DEGENERATE_TEXT, DEGENERATE,
     "a54913eb55fd2eab9558b8dbfc832c5dfa470675984e84c854db991aaae49875"),
    ("not_privileged", NOT_PRIVILEGED_TEXT, NOT_PRIVILEGED,
     "e68962720da735db5efed25251fa02e1a93c7830a328011a2d29058ebbab1195"),
    ("rank_failure", RANK_FAIL_TEXT, RANK_FAILURE,
     "c4f8173c02cc3805cc8d0b34b722b7cb6d4eb07c1f9f1c84deea9ee0887ec832"),
    ("grushin", GRUSHIN_TEXT, REPORT,
     "1bc8fb6d90d0ffc18aeac6517196084b4a7ec50d900417d6b73c1f29901b700a"),
    ("tangential", TANGENTIAL_TEXT, REPORT,
     "d2933eae7ca357cdd641e957858dff6dd4c7fd5e58fb3d43319856684028aa6d"),
)

# sha256 of E1-E3 with probe_flows, stratify and probe seed 0.
PROBE_FIXTURE_DIGESTS = {
    "E1": "8a76fe6e11a9850456171eeb824dd362899db49b58862b4df8f3ab3bacf17ef8",
    "E2": "7988ed030d7d7b58a7ad4ad6fe8b1f6a669431214665e04cccbef60dd72e7005",
    "E3": "9e44d5163f826344c407d2665c95d6df67d36b65d0b5b01ce9b8b44bc84f9cff",
}

# Worked-example values that tests/test_acceptance.py asserts for E1-E3.
PAPER_INVARIANTS = {
    "E1": {"weights": [1, 2, 5], "lie_dim": 9, "ideal_dim": 5,
           "labels": ["invariant", "linear", "linear"]},
    "E2": {"weights": [1, 1, 2, 2]},
    "E3": {"weights": [1, 1, 2, 1, 2]},
}


@dataclass
class Op:
    """One unit of work: parse ``text``, analyze with ``options``, serialise."""

    name: str
    text: str
    options: dict = field(default_factory=dict)
    outcome: int = REPORT
    digest: str = ""          # recorded sha256 of the output, if any
    expect: dict = field(default_factory=dict)  # closed-form report values
    deadline_s: float = OP_DEADLINE_S


@dataclass
class Workload:
    name: str
    ops: list[Op]
    deadline_op: Op | None = None  # runs once per pass, outside the stats


# -- seeded draws ----------------------------------------------------------

def _coefficient(rng: random.Random) -> Fraction:
    """Nonzero rational +-p/q with p != q drawn from 7, 8, 9.

    Every draw has the same size, so no seed gets cheaper arithmetic.
    """
    p, q = rng.sample((7, 8, 9), 2)
    return Fraction(rng.choice((-1, 1)) * p, q)


def _term(c: Fraction, monomial: str, var: str) -> str:
    return f"{c} {monomial} d/d{var}"


def _power(var: str, k: int) -> str:
    return var if k == 1 else f"{var}^{k}"


# -- generated families ----------------------------------------------------

def grushin_pow(n: int, coeffs) -> str:
    """X1 = d/dx1, Xi = c_i x1^(i-1) d/dxi."""
    names = [f"x{i}" for i in range(1, n + 1)]
    lines = ["vars " + " ".join(names), "field X1 = d/dx1"]
    for i in range(2, n + 1):
        lines.append(f"field X{i} = " + _term(coeffs[i - 2], _power("x1", i - 1), names[i - 1]))
    return "\n".join(lines) + "\n"


def chain(n: int, coeffs) -> str:
    """X1 = d/dx1, Xi = c_i x(i-1) d/dxi."""
    names = [f"x{i}" for i in range(1, n + 1)]
    lines = ["vars " + " ".join(names), "field X1 = d/dx1"]
    for i in range(2, n + 1):
        lines.append(f"field X{i} = " + _term(coeffs[i - 2], names[i - 2], names[i - 1]))
    return "\n".join(lines) + "\n"


def x_power(k: int, c) -> str:
    """X1 = d/dx, X2 = c x^k d/dy."""
    return f"vars x y\nfield X1 = d/dx\nfield X2 = {c} {_power('x', k)} d/dy\n"


def _monomial(n: int, exps: dict) -> tuple:
    return tuple(exps.get(j, 0) for j in range(n))


def grushin_pow_expect(n: int, coeffs) -> dict:
    # L = <d/dx1, x1^j d/dxi (j < i)>; the ideal of d/dx1 drops j = i-1.
    return {
        "dims": list(range(1, n + 1)), "step": n, "weights": list(range(1, n + 1)),
        "lie_dim": n * (n + 1) // 2, "ideal_dim": 1 + n * (n - 1) // 2,
        "nilpotent_step": n - 1, "solvable": True,
        "labels": ["invariant"] + ["linear"] * (n - 1),
        "det": {_monomial(n, {0: n * (n - 1) // 2}): math.prod(coeffs)},
    }


def chain_expect(n: int, coeffs) -> dict:
    # L = <d/dxi, xa d/dxb (a < b)>; the ideal of d/dx1 is the translations.
    return {
        "dims": list(range(1, n + 1)), "step": n, "weights": list(range(1, n + 1)),
        "lie_dim": n * (n + 1) // 2, "ideal_dim": n,
        "nilpotent_step": 1, "solvable": True,
        "labels": ["invariant"] + ["linear"] * (n - 1),
        "det": {_monomial(n, {j: 1 for j in range(n - 1)}): math.prod(coeffs)},
    }


def x_power_expect(k: int, c: Fraction) -> dict:
    # L = <d/dx, x^j d/dy (j <= k)>; the ideal of d/dx drops x^k d/dy and
    # its lower central series loses one x^j d/dy per step.
    return {
        "dims": [1] * k + [2], "step": k + 1, "weights": [1, k + 1],
        "lie_dim": k + 2, "ideal_dim": k + 1, "nilpotent_step": k, "solvable": True,
        "labels": ["invariant", "linear"], "det": {(k, 0): c},
    }


def x_power_off_locus_expect(k: int, c: Fraction, point) -> dict:
    # At x0 != 0 both fields are independent: the approximation is the
    # abelian frame d/dx, c x0^k d/dy, and in the shifted coordinates the
    # determinant is c (x + x0)^k, expanded by the binomial theorem.
    x0 = point[0]
    return {
        "dims": [2], "step": 1, "weights": [1, 1],
        "lie_dim": 2, "ideal_dim": 2, "nilpotent_step": 1, "solvable": True,
        "labels": ["invariant", "invariant"],
        "base_point": [str(v) for v in point],
        "det": {(j, 0): c * math.comb(k, j) * x0 ** (k - j) for j in range(k + 1)},
    }


# -- workloads -------------------------------------------------------------

def paper_frames(seed: int) -> Workload:
    ops = [Op(name, text, {}, outcome, digest, dict(PAPER_INVARIANTS.get(name, {})))
           for name, text, outcome, digest in PAPER_FIXTURES]
    return Workload("paper_frames", ops)


def bracket_scaling(seed: int) -> Workload:
    rng = random.Random(f"bracket_scaling/{seed}")
    ops = []
    for n in range(5, 9):
        cs = [_coefficient(rng) for _ in range(n - 1)]
        ops.append(Op(f"grushin_pow({n})", grushin_pow(n, cs), expect=grushin_pow_expect(n, cs)))
    # chain(8) is left out: with seven shapes, each at least 1.5x the cost
    # of the next around the 4th and the 6th, the median and the tail fall
    # inside one shape's samples.
    for n in range(5, 8):
        cs = [_coefficient(rng) for _ in range(n - 1)]
        ops.append(Op(f"chain({n})", chain(n, cs), expect=chain_expect(n, cs)))
    return Workload("bracket_scaling", ops)


# Interleaved so that the five shapes differ in cost by about 2x each,
# which keeps the median and the tail inside one shape's samples.
HIGH_DEGREE_ORIGIN_K = (16, 24, 40)
HIGH_DEGREE_SHIFTED_K = (100, 300)


def high_degree(seed: int) -> Workload:
    rng = random.Random(f"high_degree/{seed}")
    ops = []
    for k in HIGH_DEGREE_ORIGIN_K:
        c = _coefficient(rng)
        ops.append(Op(f"x^{k} d/dy", x_power(k, c), expect=x_power_expect(k, c)))
    for k in HIGH_DEGREE_SHIFTED_K:
        c = _coefficient(rng)
        point = (_coefficient(rng), _coefficient(rng))
        ops.append(Op(f"x^{k} d/dy @off-locus", x_power(k, c),
                      {"point": point}, expect=x_power_off_locus_expect(k, c, point)))
    return Workload("high_degree", ops)


PROBE_OPTIONS = {"probe_flows": True, "stratify": True}


def probes(seed: int) -> Workload:
    rng = random.Random(f"probes/{seed}")
    ops = [Op(name, text, dict(PROBE_OPTIONS), REPORT, PROBE_FIXTURE_DIGESTS[name],
              dict(PAPER_INVARIANTS[name]))
           for name, text in (("E1", E1_TEXT), ("E2", E2_TEXT), ("E3", E3_TEXT))]
    # Six small frames of nearly equal cost, each cheaper than E1: the
    # median and the tail fall among their samples, not between shapes.
    for i in (1, 2):
        for k in (1, 2):
            c = _coefficient(rng)
            ops.append(Op(f"probe x^{k} d/dy #{i}", x_power(k, c),
                          dict(PROBE_OPTIONS, seed=rng.randrange(1 << 16)),
                          expect=x_power_expect(k, c)))
        c1, c2 = _coefficient(rng), _coefficient(rng)
        text = f"vars x y\nfield X1 = d/dx\nfield X2 = {c1} y d/dy + {c2} x^2 d/dy\n"
        # weights (1, 3): the order -1 part of X2 is c2 x^2 d/dy, so L and the
        # ideal are those of x^2 d/dy; the determinant is X2's d/dy coefficient.
        expect = dict(x_power_expect(2, c2), det={(0, 1): c1, (2, 0): c2})
        ops.append(Op(f"probe tangential #{i}", text,
                      dict(PROBE_OPTIONS, seed=rng.randrange(1 << 16)), expect=expect))
    # Three one-dimensional frames at half the cost of the small frames put
    # the median in the middle of the small frames' samples.
    for i in (1, 2, 3):
        c = _coefficient(rng)
        expect = {"dims": [1], "step": 1, "weights": [1], "lie_dim": 1, "ideal_dim": 1,
                  "nilpotent_step": 1, "solvable": True, "labels": ["invariant"],
                  "det": {(0,): c}}
        ops.append(Op(f"probe line #{i}", f"vars x\nfield X1 = {c} d/dx\n",
                      dict(PROBE_OPTIONS, seed=rng.randrange(1 << 16)), expect=expect))
    # ROADMAP defect: locus._rational_roots trial-divides integers near 1e50.
    deadline = Op("x^40 --stratify", x_power(40, 1), {"stratify": True, "samples": 50},
                  expect=x_power_expect(40, Fraction(1)), deadline_s=DEADLINE_OP_S)
    return Workload("probes", ops, deadline)


WORKLOADS = {
    "paper_frames": paper_frames,
    "bracket_scaling": bracket_scaling,
    "high_degree": high_degree,
    "probes": probes,
}


# -- checks ----------------------------------------------------------------

_TERM = re.compile(r"^(-)?\s*(\d+(?:/\d+)?)?\s*(.*)$")


def parse_polynomial(text: str, names) -> dict:
    """Coefficients of a polynomial printed as 'c x^2 y - 1/2 z + 3'."""
    if text == "0":
        return {}
    index = {name: j for j, name in enumerate(names)}
    terms: dict = {}
    for raw in text.replace(" - ", " + -").split(" + "):
        sign, coef, rest = _TERM.match(raw.strip()).groups()
        exps = [0] * len(names)
        for factor in rest.split():
            var, _, power = factor.partition("^")
            exps[index[var]] += int(power) if power else 1
        c = Fraction(coef) if coef else Fraction(1)
        terms[tuple(exps)] = -c if sign else c
    return terms


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def check_output(op: Op, outcome: int, output: str) -> str | None:
    """Why the op's output is wrong, or None when it passes every check."""
    if outcome != op.outcome:
        return f"outcome class {outcome}, expected {op.outcome}"
    if op.digest and digest(output) != op.digest:
        return "report digest differs from the recorded one"
    if not op.expect:
        return None
    report = json.loads(output[output.index("{"):])
    lie = report.get("lie_algebra", {})
    got = {
        "dims": report.get("growth", {}).get("dims"),
        "step": report.get("growth", {}).get("step"),
        "weights": report.get("weights"),
        "lie_dim": lie.get("dim"),
        "ideal_dim": lie.get("ideal_dim"),
        "nilpotent_step": lie.get("ideal_nilpotent_step"),
        "solvable": lie.get("solvable"),
        "labels": lie.get("classification", {}).get("labels"),
        "base_point": report.get("base_point"),
    }
    for key, want in op.expect.items():
        if key == "det":
            have = parse_polynomial(report["determinant"]["polynomial"], report["vars"])
            if have != want:
                return "determinant differs from its closed form"
        elif got[key] != want:
            return f"{key} = {got[key]}, expected {want}"
    if op.options.get("probe_flows"):
        # approximating fields are triangular, hence complete: no blowups
        for entry in report["flow_probe"]:
            if not entry["triangular"] or entry["blowups"]:
                return f"flow probe verdict {entry}"
    if op.options.get("stratify"):
        strata = report["stratification"]
        if not strata or any(s["predicted_codim"] != s["r"] ** 2 for s in strata):
            return "stratification table malformed"
    return None
