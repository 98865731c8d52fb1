"""Singular locus of a frame: determinant, corank strata, tangency tests.

The singular locus Z is the zero set of the determinant of the matrix whose
columns are the frame fields.  Z splits into strata Z_r by corank; for a
generic frame Z_r has codimension r^2, and the pure-arithmetic consequences
of that picture (largest corank, reachable dimensions, feasibility windows
for tangency defects) are tabulated by :func:`genericity_codims`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .symcore import ArsError, Frame, Point, Polynomial, as_point, frame_rank_at


class NotOnZ1(ArsError):
    """The point does not have corank exactly one."""


class DegenerateZ1(ArsError):
    """The determinant is not a submersion there; Z_1 is not a manifold near the point."""


@dataclass(frozen=True)
class StratumHit:
    """A sample found on a stratum; exact hits carry rational coordinates."""

    point: tuple
    exact: bool


@dataclass(frozen=True)
class StratumReport:
    r: int
    sample_count: int
    hits: tuple[StratumHit, ...]
    estimated_codim: int | None
    predicted_codim: int


def frame_determinant(frame: Frame) -> Polynomial:
    """Determinant of the matrix whose columns are the frame fields.

    Computed by expansion over column subsets, one row at a time, with the
    minors cached; exact over Q.
    """
    n = frame.dim
    # entry (row i, column j) = component i of field j
    entries = [[frame.fields[j].components[i] for j in range(n)] for i in range(n)]
    cache: dict[tuple[int, ...], Polynomial] = {}

    def minor(row: int, cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return Polynomial.constant(n, 1)
        cached = cache.get(cols)
        if cached is not None:
            return cached
        total = Polynomial.zero(n)
        for idx, col in enumerate(cols):
            entry = entries[row][col]
            if entry.is_zero:
                continue
            sub = minor(row + 1, cols[:idx] + cols[idx + 1 :])
            term = entry * sub
            total = total + term if idx % 2 == 0 else total - term
        cache[cols] = total
        return total

    return minor(0, tuple(range(n)))


def corank_at(frame: Frame, point: Sequence) -> int:
    """n minus the rank of the evaluated frame."""
    return frame.dim - frame_rank_at(frame.fields, point)


def determinant_gradient(frame: Frame) -> tuple[Polynomial, ...]:
    d = frame_determinant(frame)
    return tuple(d.diff(j) for j in range(frame.dim))


def det_submersion_check(frame: Frame, point: Sequence) -> bool:
    """True iff the determinant has a nonzero gradient at a corank-1 point."""
    pt = as_point(point, frame.dim)
    if corank_at(frame, pt) != 1:
        raise NotOnZ1(f"corank at {pt} is not 1")
    return any(g.evaluate(pt) != 0 for g in determinant_gradient(frame))


def tangency_check(frame: Frame, point: Sequence) -> bool:
    """True iff the frame's span at the point equals the tangent space of Z_1.

    Z_1 is cut out by the determinant near a submersion point, so its
    tangent space is the kernel of the determinant's gradient; with corank
    one the span has the kernel's dimension and inclusion in the kernel is
    equality.
    """
    pt = as_point(point, frame.dim)
    if corank_at(frame, pt) != 1:
        raise NotOnZ1(f"corank at {pt} is not 1")
    grad = [g.evaluate(pt) for g in determinant_gradient(frame)]
    if all(c == 0 for c in grad):
        raise DegenerateZ1(f"the determinant is singular at {pt}")
    for f in frame.fields:
        v = f.evaluate(pt)
        if sum(a * b for a, b in zip(grad, v)) != 0:
            return False
    return True


def default_sampler(rng: random.Random, dim: int) -> Point:
    """Random rational point with small numerators and denominators."""
    return tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(dim))


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a univariate polynomial with Fraction coefficients."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    if g:
        ints = [c // g for c in ints]
    # strip zero roots
    roots = []
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    if shift:
        roots.append(Fraction(0))
    if not ints or len(ints) == 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(v: int) -> list[int]:
        out = []
        d = 1
        while d * d <= v:
            if v % d == 0:
                out.append(d)
                out.append(v // d)
            d += 1
        return sorted(set(out))

    # a reduced root p/q has p | a0 and q | an; q^n P(p/q) = sum c_i p^i q^(n-i)
    # is evaluated by Horner's rule in integers
    low_first = ints[:-1][::-1]
    for q in divisors(an):
        q_powers = [q**i for i in range(1, len(ints))]
        for p in divisors(a0):
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                val = ints[-1]
                for c, qp in zip(low_first, q_powers):
                    val = val * num + c * qp
                if val == 0:
                    roots.append(Fraction(num, q))
    return sorted(roots)


def _float_roots(coeffs: list[Fraction], known: list[Fraction], span: float = 40.0) -> list[float]:
    """Real roots found by sign-change bisection, excluding known rationals."""
    cs = [float(c) for c in coeffs]
    if len(cs) < 2:
        return []

    def val(t: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    grid = 400
    found: list[float] = []
    prev_t = -span
    prev_v = val(prev_t)
    for i in range(1, grid + 1):
        t = -span + 2 * span * i / grid
        v = val(t)
        if prev_v == 0.0:
            found.append(prev_t)
        elif prev_v * v < 0:
            lo, hi, flo = prev_t, t, prev_v
            for _ in range(80):
                mid = (lo + hi) / 2
                fm = val(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            found.append((lo + hi) / 2)
        prev_t, prev_v = t, v
    out = []
    for t in found:
        if all(abs(t - float(r)) > 1e-7 for r in known):
            out.append(t)
    return out


def stratify_samples(
    frame: Frame,
    budget: int,
    seed: int = 0,
    sampler: Callable[[random.Random], Point] | None = None,
    line_search: bool = True,
) -> tuple[StratumReport, ...]:
    """Corank histogram over sampled points, plus on-locus line sections.

    Random points almost never land on the locus, so when line_search is on
    the determinant is restricted to random rational lines and its rational
    roots give exact corank >= 1 samples; irrational roots are bisected in
    floating point and flagged approximate.  Deterministic for a fixed seed.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n = frame.dim
    rng = random.Random(seed)
    draw = (lambda: sampler(rng)) if sampler is not None else (lambda: default_sampler(rng, n))

    exact_hits: dict[int, list[StratumHit]] = {}
    sample_count = 0
    for _ in range(budget):
        pt = as_point(draw(), n)
        sample_count += 1
        r = corank_at(frame, pt)
        if r >= 1:
            exact_hits.setdefault(r, []).append(StratumHit(pt, True))

    random_hit_coranks = set(exact_hits)

    line_hit = False
    if line_search:
        detp = frame_determinant(frame)
        attempts = max(4, min(24, budget // 10))
        for _ in range(attempts):
            base = as_point(draw(), n)
            direction = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
            if all(d == 0 for d in direction):
                continue
            # restrict the determinant to base + t*direction
            line_poly = detp.affine_substituted(base, direction, [0] * n, 1)
            max_deg = max((e[0] for e in line_poly.terms), default=-1)
            if max_deg < 0:
                continue  # the whole line lies in the locus
            coeffs = [line_poly.terms.get((d,), Fraction(0)) for d in range(max_deg + 1)]
            rroots = _rational_roots(list(coeffs))
            for t0 in rroots:
                pt = tuple(b + t0 * d for b, d in zip(base, direction))
                sample_count += 1
                r = corank_at(frame, pt)
                if r >= 1:
                    line_hit = True
                    exact_hits.setdefault(r, []).append(StratumHit(pt, True))
            for tf in _float_roots(list(coeffs), rroots):
                pt_f = tuple(float(b) + tf * float(d) for b, d in zip(base, direction))
                sample_count += 1
                line_hit = True
                exact_hits.setdefault(1, []).append(StratumHit(pt_f, False))

    max_generic = int(math.isqrt(n))
    coranks = sorted(set(range(1, max_generic + 1)) | set(exact_hits))
    reports = []
    for r in coranks:
        hits = tuple(exact_hits.get(r, []))
        estimated: int | None = None
        if r in random_hit_coranks:
            # positive-measure hits from plain sampling
            estimated = 0
        elif r == 1 and line_hit and hits:
            estimated = 1
        reports.append(
            StratumReport(
                r=r,
                sample_count=sample_count,
                hits=hits,
                estimated_codim=estimated,
                predicted_codim=r * r,
            )
        )
    return tuple(reports)


def genericity_codims(n: int) -> dict:
    """Pure arithmetic of the generic stratification for dimension n.

    For each corank r with r^2 <= n: the predicted codimension r^2 of Z_r,
    the largest reachable dimension m(n, r) = min(n, 2n - r^2 - r) of
    T_p(Z_r) + Delta_p, and for each defect s the feasibility condition for
    the set where the defect is attained (empty as soon as s^2 > r).
    """
    if n < 2:
        raise ValueError("the stratification table needs n >= 2")
    table: dict = {"n": n, "R": int(math.isqrt(n)), "strata": []}
    for r in range(1, int(math.isqrt(n)) + 1):
        entry: dict = {
            "r": r,
            "codim": r * r,
            "dim": n - r * r,
            "m": min(n, 2 * n - r * r - r),
        }
        if r == 1:
            entry["tangential_points"] = "isolated"
        else:
            conditions = []
            min_n = r * r + r - (r - 1) // 2
            conditions.append({"s": 1, "min_n": min_n, "feasible": n >= min_n})
            s = 2
            while s * s <= r:
                lo = r * r + r - (r - s * s) // (s - 1)
                hi = r * r + r + (r - s * s) // (s + 1)
                conditions.append(
                    {"s": s, "min_n": lo, "max_n": hi, "feasible": lo <= n <= hi}
                )
                s += 1
            entry["defect_conditions"] = conditions
            entry["defect_empty_when"] = f"s^2 > {r}"
        table["strata"].append(entry)
    return table
