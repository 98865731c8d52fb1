"""Singular locus of a frame: determinant, corank strata, tangency tests.

The singular locus Z is the zero set of the determinant of the matrix whose
columns are the frame fields.  Z splits into strata Z_r by corank; for a
generic frame Z_r has codimension r^2, and the pure-arithmetic consequences
of that picture (largest corank, reachable dimensions, feasibility windows
for tangency defects) are tabulated by :func:`genericity_codims`.

The submersion and tangency tests read the determinant's gradient at a point of
the corank-1 stratum Z_1.  :func:`stratify_samples` reads corank 0 off the
determinant and corank 1 off the (n - 1)-minors, the entries of the adjugate,
ranks only where all of those vanish too, and adds one sample per root of the
determinant on each random line: exact at a rational root, approximate
(floats, on Z_1) at an irrational one.  A nonzero constant determinant has no
zero, and nothing is drawn.  The determinant and the minors come from one
Laplace expansion, each minor computed once.

The sampler works in Python integers.  The determinant and the minors are
held once per call as integer terms over one denominator, so a sample p/q is
tested by integer sums, and a line restriction is built from the integer
polynomials p_i + t q_i d_i, whose coefficients over one denominator give the
floats of the bisection, bit for bit those of ``float(Fraction)``, or all
divided by one power of two where one of those would leave float range.
Samples and line directions are drawn from ``getrandbits`` exactly as
``randrange`` draws them, so the points of a seed do not change.
Rational roots of degree <= 2 (after the square-free reduction) are solved in
closed form with ``math.isqrt``; above, the divisors of the constant term are
tried only up to Fujiwara's root bound, so no search runs past the roots' size.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .symcore import ArsError, Frame, Point, Polynomial, VectorField, as_point, frame_rank_at, vf_apply


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


def _minors(frame: Frame) -> Callable[[tuple[int, ...], tuple[int, ...]], Polynomial]:
    """The minors of the matrix whose columns are the frame fields, each computed once.

    ``minor(rows, cols)`` expands along its first row, so it shares its
    smaller minors with every other minor the same function is asked for:
    the determinant's and all the (n - 1)-minors come from one cache.  A
    single entry is its own minor and the empty minor is 1; a constant entry
    scales its minor, and the entry 1 leaves it as it is.  Exact over Q.
    """
    n, constant = frame.dim, (0,) * frame.dim

    @functools.cache
    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        """The minor on the rows and the columns cols; entry (i, j) is component i of field j."""
        if len(cols) < 2:
            return frame.fields[cols[0]].components[rows[0]] if cols else Polynomial.constant(n, 1)
        row, below = rows[0], rows[1:]
        total = Polynomial.zero(n)
        for idx, col in enumerate(cols):
            entry = frame.fields[col].components[row]
            if entry.is_zero:
                continue
            sub = minor(below, cols[:idx] + cols[idx + 1 :])
            c = entry.terms.get(constant) if len(entry.terms) == 1 else None
            term = entry * sub if c is None else sub if c == 1 else sub * c
            total = total + term if idx % 2 == 0 else total - term
        return total

    return minor


def frame_determinant(frame: Frame) -> Polynomial:
    """Determinant of the matrix whose columns are the frame fields, expanded by :func:`_minors`."""
    every = tuple(range(frame.dim))
    return _minors(frame)(every, every)


def corank_at(frame: Frame, point: Sequence) -> int:
    """n minus the rank of the evaluated frame."""
    return frame.dim - frame_rank_at(frame.fields, point)


def _point_text(pt: Point) -> str:
    """A point as ``(1/2, 0)``, not as a tuple of Fraction reprs."""
    return "(" + ", ".join(map(str, pt)) + ")"


def _gradient(det: Polynomial) -> list[Polynomial]:
    """The partial derivatives d det/dx_j, j = 0, ..., n - 1."""
    return [vf_apply(VectorField.coordinate(det.dim, j), det) for j in range(det.dim)]


def _z1_gradient(frame: Frame, point: Sequence) -> tuple[Point, list[Fraction]]:
    """The point and the determinant's gradient there; NotOnZ1 unless the corank is 1."""
    pt = as_point(point, frame.dim)
    if corank_at(frame, pt) != 1:
        raise NotOnZ1(f"corank at {_point_text(pt)} is not 1")
    return pt, [g._evaluate(pt) for g in _gradient(frame_determinant(frame))]


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


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """What ``rng.randrange(n)`` returns for n > 0, given ``rng.getrandbits``, without randrange's two calls.

    CPython's randrange(a, a + n) is a + _randbelow(n), which draws
    k = n.bit_length() bits and draws again while the value is >= n; so 41
    takes 6 bits and 8 takes 4, and the generator's state moves as it would.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _default_ratios(rng: random.Random, dim: int) -> list[tuple[int, int]]:
    """The coordinates of a default sample as (numerator, denominator) pairs, not in lowest terms.

    The draws of (rng.randrange(-20, 21), rng.randrange(1, 9)) per coordinate.
    """
    bits = rng.getrandbits
    return [(_below(bits, 41) - 20, _below(bits, 8) + 1) for _ in range(dim)]


def default_sampler(rng: random.Random, dim: int) -> Point:
    """Random rational point with small numerators and denominators."""
    return tuple(Fraction(p, q) for p, q in _default_ratios(rng, dim))


class _IntegerForm:
    """A polynomial over Q on one denominator: p = (1/scale) * sum of a_e x^e, a_e integers.

    ``tops[i]`` is the largest power of x_i in p.  At a point whose
    coordinates are ratios p_i/q_i of integers, q_i > 0 and not necessarily
    in lowest terms, sum a_e prod p_i^e_i q_i^(tops[i] - e_i) is p's value
    times the positive integer scale * prod q_i^tops[i]; so the sampler
    decides p = 0 and restricts p to lines without forming a Fraction.
    """

    def __init__(self, poly: Polynomial):
        self.scale = math.lcm(*(c.denominator for c in poly.terms.values()))
        self.tops = [max((e[i] for e in poly.terms), default=0) for i in range(poly.dim)]
        self.degree = poly.total_degree()
        active = [i for i, top in enumerate(self.tops) if top]
        # each term as its integer coefficient and (i, e_i, tops[i] - e_i) per variable of p
        self.terms = [
            (c.numerator * (self.scale // c.denominator), [(i, e[i], self.tops[i] - e[i]) for i in active])
            for e, c in poly.terms.items()
        ]

    def vanishes_at(self, ratios: Sequence[tuple[int, int]]) -> bool:
        """True iff p is 0 at the point whose coordinates are the ratios p_i/q_i, q_i > 0."""
        total = 0
        for a, powers in self.terms:
            for i, k, rest in powers:
                p, q = ratios[i]
                a *= p**k * q**rest
            total += a
        return total == 0

    def on_line(self, base: Sequence[tuple[int, int]], direction: Sequence[int]) -> tuple[list[int], int]:
        """Integers A_k, lowest degree first, and S > 0 with p(base + t*direction) = sum (A_k / S) t^k.

        The base point's coordinates are the ratios p_i/q_i, q_i > 0.  The
        restriction is built from the integer polynomials p_i + t q_i d_i;
        the zero restriction has no coefficients.
        """

        @functools.cache
        def power(i: int, k: int, rest: int) -> list[int]:
            """(p_i + t q_i d_i)^k q_i^rest, lowest degree first."""
            p, q = base[i]
            s = q * direction[i]
            return [math.comb(k, j) * p ** (k - j) * s**j * q**rest for j in range(k + 1)]

        coeffs = [0] * (self.degree + 1)
        for a, powers in self.terms:
            poly = [a]
            for key in powers:
                factor = power(*key)
                prod = [0] * (len(poly) + len(factor) - 1)
                for j, x in enumerate(poly):
                    for m, y in enumerate(factor):
                        prod[j + m] += x * y
                poly = prod
            for j, c in enumerate(poly):
                coeffs[j] += c
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs, self.scale * math.prod(q**top for (_, q), top in zip(base, self.tops))


def _adjugate(minor: Callable[[tuple[int, ...], tuple[int, ...]], Polynomial], n: int) -> list[_IntegerForm]:
    """The (n - 1)-minors of the frame's matrix that are not identically zero, row by row, as integer forms.

    Up to sign they are the entries of adj(M), and rank M >= n - 1 exactly
    where adj(M) != 0 (Horn and Johnson, Matrix Analysis, 0.8): at a zero of
    the determinant the corank is 1 exactly where one of them is nonzero.
    """
    every = tuple(range(n))
    drop = [every[:i] + every[i + 1 :] for i in every]
    return [_IntegerForm(m) for rows in drop for cols in drop if not (m := minor(rows, cols)).is_zero]


def _primitive(coeffs: Sequence) -> list[int]:
    """The rational coefficients as coprime integers with the same roots; zero leading terms dropped."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    g = math.gcd(*ints) or 1
    ints = [c // g for c in ints]
    while ints and ints[-1] == 0:
        ints.pop()
    return ints


def _pseudo_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a^k f by g over Z, a = g[-1] != 0, k = deg f - deg g + 1; lowest degree first.

    The remainder keeps its zero leading terms.
    """
    rem, quot = list(f), [0] * max(len(f) - len(g) + 1, 0)
    for s in reversed(range(len(quot))):
        c = rem[s + len(g) - 1]
        quot = [x * g[-1] for x in quot]
        quot[s] = c
        rem = [x * g[-1] for x in rem]
        for i, b in enumerate(g):
            rem[s + i] -= c * b
    return quot, rem[: len(g) - 1]


def _root_bound(ints: list[int]) -> int:
    """A power of two B >= |r| for every root r of the integer coefficients, lowest degree first.

    Fujiwara's bound 2 max_i |a_(n-i) / a_n|^(1/i), with each ratio below
    2^b, b the bit length of its floor plus one, and so its i-th root below
    2^ceil(b / i).
    """
    n, an = len(ints) - 1, abs(ints[-1])
    return 2 << max(-(-(abs(ints[n - i]) // an + 1).bit_length() // i) for i in range(1, n + 1))


def _divisors(v: int, limit: int) -> list[int]:
    """The divisors of v > 0 up to limit, by trial division up to min(sqrt(v), limit)."""
    out = set()
    for d in range(1, min(math.isqrt(v), limit) + 1):
        if v % d == 0:
            out.update(x for x in (d, v // d) if x <= limit)
    return sorted(out)


def _rational_roots(coeffs: Sequence) -> list[Fraction]:
    """All rational roots, sorted and each once, of a univariate polynomial with rational coefficients.

    Up to degree 2 the roots are solved in closed form.  Above, they are
    read off the square-free part f / gcd(f, f'), computed over Z, which
    has the same roots each once: a power such as (b + d t)^40 is reduced to
    its base, whose roots are again solved in closed form.

    A square-free part of degree >= 3 has its reduced roots p/q among
    p | a_0 and q | a_n.  Fujiwara's bound B on the roots and B' on their
    inverses, the roots of the reversed polynomial, give p <= B q and
    q <= B' p, so only the divisors of a_0 up to B a_n and of a_n up to
    B' a_0 are tried, and only with the signs that Descartes' rule of signs
    allows: none when neither f(t) nor f(-t) has a sign change.
    """
    ints = _primitive(coeffs)
    if len(ints) > 3:
        # gcd(f, f') by primitive pseudo-remainders; a^k f / gcd has the roots of f / gcd
        gcd, rest = ints, [k * c for k, c in enumerate(ints) if k]
        while rest:
            gcd, rest = rest, _primitive(_pseudo_divmod(gcd, rest)[1])
        ints = _primitive(_pseudo_divmod(ints, gcd)[0])
    if len(ints) == 2:
        return [Fraction(-ints[0], ints[1])]
    if len(ints) == 3:
        c, b, a = ints
        disc = b * b - 4 * a * c
        root = math.isqrt(disc) if disc >= 0 else -1
        return sorted({Fraction(-b - root, 2 * a), Fraction(-b + root, 2 * a)}) if root * root == disc else []
    if len(ints) < 2:
        return []
    # square-free of degree >= 3: 0 is at most a simple root
    roots = [Fraction(0)] if ints[0] == 0 else []
    ints = ints[1:] if ints[0] == 0 else ints
    # Descartes: a root of sign s needs a sign change among the nonzero c_i s^i
    nonzero = [(i, c) for i, c in enumerate(ints) if c]
    signs = [s for s in (1, -1) if any(a * b * s ** (i + k) < 0 for (i, a), (k, b) in zip(nonzero, nonzero[1:]))]
    if not signs:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    bound, co_bound = _root_bound(ints), _root_bound(ints[::-1])
    numerators = _divisors(a0, bound * an)
    # q^n P(p/q) = sum c_i p^i q^(n-i) is evaluated by Horner's rule in integers
    low_first = ints[:-1][::-1]
    for q in _divisors(an, co_bound * a0):
        q_powers = [q**i for i in range(1, len(ints))]
        for p in numerators:
            if p > bound * q or q > co_bound * p or math.gcd(p, q) != 1:
                continue
            for num in (s * p for s in signs):
                val = ints[-1]
                for c, qp in zip(low_first, q_powers):
                    val = val * num + c * qp
                if val == 0:
                    roots.append(Fraction(num, q))
    return sorted(roots)


# the 401 points of the sign-change grid on [-40, 40]
_GRID = tuple(-40.0 + 2 * 40.0 * i / 400 for i in range(401))


def _float_coefficients(coeffs: Sequence[int], denom: int) -> list[float]:
    """The floats c / denom, or all c / (denom << k) when one of those would leave float range.

    A quotient of integers of a and b bits is below 2^(a - b + 1), so k read
    off the bit lengths keeps every quotient below 2^1023, and it is 0 when
    every quotient is below 2^1022.  A common positive factor changes the
    sign of no Horner value, so the bisection looks for the same roots.
    """
    top = max((abs(c).bit_length() for c in coeffs), default=0)
    k = max(0, top - denom.bit_length() - 1022)
    scale = denom << k
    return [c / scale for c in coeffs]


def _float_roots(cs: list[float], known: list[Fraction]) -> list[float]:
    """Real roots in [-40, 40] found by sign-change bisection, excluding known rationals.

    The grid is evaluated in one Horner pass.  Bisection stops when the
    midpoint equals an endpoint: from there on no step changes the interval's
    midpoint, which is the root returned.  Below a width of 2e-7 it also stops
    once both ends are within 1e-7 of one known root r: rounding is monotone,
    so the root it would return is as near r, and dropped.
    """
    if len(cs) < 2:
        return []
    # a known root beyond 41 is never within 1e-7 of the grid, and may be beyond float range
    near = [float(r) for r in known if abs(r) < 41]

    def val(t: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    values = [cs[-1]] * len(_GRID)
    for c in reversed(cs[:-1]):
        values = [v * t + c for v, t in zip(values, _GRID)]
    found: list[float] = []
    for prev_t, t, prev_v, v in zip(_GRID, _GRID[1:], values, values[1:]):
        if prev_v == 0.0:
            found.append(prev_t)
        elif prev_v * v < 0:
            lo, hi, flo = prev_t, t, prev_v
            for _ in range(80):
                mid = (lo + hi) / 2
                if mid == lo or mid == hi:
                    break
                if hi - lo < 2e-7 and any(abs(lo - r) <= 1e-7 and abs(hi - r) <= 1e-7 for r in near):
                    break
                fm = val(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            found.append((lo + hi) / 2)
    return [t for t in found if all(abs(t - r) > 1e-7 for r in near)]


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

    An exact zero is ranked only where every (n - 1)-minor vanishes too: where
    one does not, adj(M) != 0 and the corank is 1.  The minors come from the
    determinant's own expansion, cleared of denominators at the first zero.
    A nonzero constant determinant has no zero: nothing is drawn or searched,
    and the reports hold no hit and count the budget.

    The default samples and the line directions are drawn by ``_below``, the
    same bits as ``rng.randrange``, so a seed gives the same points.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n = frame.dim
    rng = random.Random(seed)
    # each sample as (numerator, denominator) pairs; a Fraction is formed only at a hit
    draw = (
        (lambda: [(x.numerator, x.denominator) for x in as_point(sampler(rng), n)])
        if sampler is not None
        else (lambda: _default_ratios(rng, n))
    )
    every = tuple(range(n))
    minor = _minors(frame)
    detp = _IntegerForm(minor(every, every))
    zero_free = detp.degree == 0
    hits: dict[int, list[StratumHit]] = {}
    adjugate = functools.cache(lambda: _adjugate(minor, n))

    def add_zero(ratios: list[tuple[int, int]]) -> None:
        """Record the zero of the determinant at the ratios p_i/q_i as an exact hit."""
        pt = tuple(Fraction(p, q) for p, q in ratios)
        r = corank_at(frame, pt) if all(c.vanishes_at(ratios) for c in adjugate()) else 1
        hits.setdefault(r, []).append(StratumHit(pt, True))

    for _ in range(0 if zero_free else budget):
        sample = draw()
        if detp.vanishes_at(sample):
            add_zero(sample)
    random_hit_coranks = set(hits)

    line_roots = 0
    for _ in range(max(4, min(24, budget // 10)) if line_search and not zero_free else 0):
        base = draw()
        # the draws of rng.randrange(-5, 6) per coordinate
        direction = [_below(rng.getrandbits, 11) - 5 for _ in range(n)]
        if any(direction):
            # the determinant on base + t*direction, as integers over one denominator
            coeffs, denom = detp.on_line(base, direction)
            rroots = _rational_roots(coeffs)
            froots = _float_roots(_float_coefficients(coeffs, denom), rroots)
            line_roots += len(rroots) + len(froots)
            line = [(p, q, d) for (p, q), d in zip(base, direction)]
            for a, b in map(Fraction.as_integer_ratio, rroots):
                # at t = a/b coordinate i is (p_i b + q_i a d_i) / (q_i b)
                add_zero([(p * b + q * a * d, q * b) for p, q, d in line])
            for t in froots:
                # int / int is correctly rounded, as float(Fraction) is
                hits.setdefault(1, []).append(StratumHit(tuple(p / q + t * d for p, q, d in line), False))

    return tuple(
        StratumReport(
            r=r,
            sample_count=budget + line_roots,
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
