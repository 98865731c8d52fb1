"""Singular locus of a frame: determinant, corank strata, tangency tests.

The singular locus Z is the zero set of the determinant of the matrix whose
columns are the frame fields.  Z splits into strata Z_r by corank; for a
generic frame Z_r has codimension r^2, and the pure-arithmetic consequences
of that picture (largest corank, reachable dimensions, feasibility windows
for tangency defects) are tabulated by :func:`genericity_codims`.

The submersion and tangency tests read the determinant's gradient at a
point of the corank-1 stratum Z_1.  :func:`stratify_samples` reads corank 0
off the determinant, ranks only its zero set, and adds one sample per root
of the determinant on each random line: exact at a rational root, and
approximate (floats, on Z_1) at an irrational one.
"""

from __future__ import annotations

import functools
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
    """The hits on the corank-r stratum Z_r and their codimension estimate.

    ``sample_count`` is the budget plus one sample per line root, the same
    for every stratum of a run.  ``estimated_codim`` is 0 when random
    samples hit Z_r, 1 when only line roots hit Z_1, and None otherwise.
    Each hit is exact (rational coordinates) or approximate (floats).
    """

    r: int
    sample_count: int
    hits: tuple[StratumHit, ...]
    estimated_codim: int | None
    predicted_codim: int


def frame_determinant(frame: Frame) -> Polynomial:
    """Determinant of the matrix whose columns are the frame fields.

    Computed by expansion along the rows over column subsets, each minor
    once; exact over Q.
    """
    n = frame.dim

    @functools.cache
    def minor(cols: tuple[int, ...]) -> Polynomial:
        """The minor on the last len(cols) rows and the columns cols; entry (i, j) is component i of field j."""
        if not cols:
            return Polynomial.constant(n, 1)
        row = n - len(cols)
        total = Polynomial.zero(n)
        for idx, col in enumerate(cols):
            entry = frame.fields[col].components[row]
            if entry.is_zero:
                continue
            term = entry * minor(cols[:idx] + cols[idx + 1 :])
            total = total + term if idx % 2 == 0 else total - term
        return total

    return minor(tuple(range(n)))


def corank_at(frame: Frame, point: Sequence) -> int:
    """n minus the rank of the evaluated frame."""
    return frame.dim - frame_rank_at(frame.fields, point)


def _point_text(pt: Point) -> str:
    """A point as ``(1/2, 0)``, not as a tuple of Fraction reprs."""
    return "(" + ", ".join(map(str, pt)) + ")"


def _z1_gradient(frame: Frame, point: Sequence) -> tuple[Point, list[Fraction]]:
    """The point and the determinant's gradient there; NotOnZ1 unless the corank is 1."""
    pt = as_point(point, frame.dim)
    if corank_at(frame, pt) != 1:
        raise NotOnZ1(f"corank at {_point_text(pt)} is not 1")
    det = frame_determinant(frame)
    return pt, [det.diff(j)._evaluate(pt) for j in range(frame.dim)]


def det_submersion_check(frame: Frame, point: Sequence) -> bool:
    """True iff the determinant has a nonzero gradient at a corank-1 point."""
    return any(_z1_gradient(frame, point)[1])


def tangency_check(frame: Frame, point: Sequence) -> bool:
    """True iff the frame's span at the point equals the tangent space of Z_1.

    Z_1 is cut out by the determinant near a submersion point, so its
    tangent space is the kernel of the determinant's gradient; with corank
    one the span has the kernel's dimension and inclusion in the kernel is
    equality.
    """
    pt, grad = _z1_gradient(frame, point)
    if not any(grad):
        raise DegenerateZ1(f"the determinant is singular at {_point_text(pt)}")
    return all(sum(a * b for a, b in zip(grad, f._evaluate(pt))) == 0 for f in frame.fields)


def default_sampler(rng: random.Random, dim: int) -> Point:
    """Random rational point with small numerators and denominators."""
    return tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(dim))


def _divmod(f: list[Fraction], g: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of f by g over Q; coefficients lowest degree first, g[-1] nonzero."""
    rem, quot = list(f), [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    for s in reversed(range(len(quot))):
        c = quot[s] = rem[s + len(g) - 1] / g[-1]
        for i, b in enumerate(g):
            rem[s + i] -= c * b
    rem = rem[: len(g) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a univariate polynomial with Fraction coefficients.

    The candidates are tested on the square-free part f / gcd(f, f'), which
    has the same roots, each once: a power such as (b + d t)^40 is reduced
    to its base before the divisors of its constant term are enumerated.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    if len(coeffs) > 2:
        gcd, rest = coeffs, [k * c for k, c in enumerate(coeffs) if k]
        while rest:
            gcd, rest = rest, _divmod(gcd, rest)[1]
        coeffs = _divmod(coeffs, gcd)[0]
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    g = math.gcd(*ints)
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

    A sample has corank 0 exactly where the determinant is nonzero, so the
    corank is read off the determinant there and the rank is computed only
    on its zero set.  Random points almost never land on the locus, so when
    line_search is on the determinant is restricted to random rational lines
    and its rational roots give exact corank >= 1 samples; irrational roots
    are bisected in floating point and flagged approximate.  Deterministic
    for a fixed seed.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n = frame.dim
    rng = random.Random(seed)
    draw = (lambda: sampler(rng)) if sampler is not None else (lambda: default_sampler(rng, n))
    detp = frame_determinant(frame)

    hits: dict[int, list[StratumHit]] = {}
    for _ in range(budget):
        pt = as_point(draw(), n)
        if detp._evaluate(pt) == 0:
            # an n x n matrix has full rank exactly where its determinant is nonzero
            hits.setdefault(corank_at(frame, pt), []).append(StratumHit(pt, True))
    random_hit_coranks = set(hits)

    line_roots: list[StratumHit] = []
    for _ in range(max(4, min(24, budget // 10)) if line_search else 0):
        base = as_point(draw(), n)
        direction = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        if any(direction):
            # the determinant on base + t*direction; a zero restriction has no coefficients
            line_poly = detp.affine_substituted(base, direction, [0] * n, 1)
            coeffs = [line_poly.terms.get((d,), Fraction(0)) for d in range(line_poly.total_degree() + 1)]
            rroots = _rational_roots(list(coeffs))
            # a Fraction root gives an exact point, a float root an approximate one
            for t in rroots + _float_roots(list(coeffs), rroots):
                point = tuple(b + t * d for b, d in zip(base, direction))
                line_roots.append(StratumHit(point, isinstance(t, Fraction)))
    # the determinant vanishes at a rational root, so its corank is at least 1
    for hit in line_roots:
        hits.setdefault(corank_at(frame, hit.point) if hit.exact else 1, []).append(hit)

    return tuple(
        StratumReport(
            r=r,
            sample_count=budget + len(line_roots),
            hits=tuple(hits.get(r, [])),
            estimated_codim=0 if r in random_hit_coranks else 1 if r == 1 and r in hits else None,
            predicted_codim=r * r,
        )
        for r in sorted(set(range(1, math.isqrt(n) + 1)) | set(hits))
    )


def genericity_codims(n: int) -> dict:
    """Pure arithmetic of the generic stratification for dimension n.

    For each corank r with r^2 <= n: the predicted codimension r^2 of Z_r,
    the largest reachable dimension m(n, r) = min(n, 2n - r^2 - r) of
    T_p(Z_r) + Delta_p, and for each defect s the feasibility condition for
    the set where the defect is attained (empty as soon as s^2 > r).
    """
    if n < 2:
        raise ValueError("the stratification table needs n >= 2")
    table: dict = {"n": n, "R": math.isqrt(n), "strata": []}
    for r in range(1, math.isqrt(n) + 1):
        entry: dict = {
            "r": r,
            "codim": r * r,
            "dim": n - r * r,
            "m": min(n, 2 * n - r * r - r),
        }
        if r == 1:
            entry["tangential_points"] = "isolated"
        else:
            min_n = r * r + r - (r - 1) // 2
            conditions = [{"s": 1, "min_n": min_n, "feasible": n >= min_n}]
            for s in range(2, math.isqrt(r) + 1):
                lo = r * r + r - (r - s * s) // (s - 1)
                hi = r * r + r + (r - s * s) // (s + 1)
                conditions.append({"s": s, "min_n": lo, "max_n": hi, "feasible": lo <= n <= hi})
            entry["defect_conditions"] = conditions
            entry["defect_empty_when"] = f"s^2 > {r}"
        table["strata"].append(entry)
    return table
