"""Independent brute-force implementations used only to cross-check tests.

Everything here is deliberately naive and avoids the package's span and
determinant machinery: fields are dict-of-dicts, ranks come from dense
Gaussian elimination over Fractions, determinants from first-row cofactor
recursion, and derivatives from direct term manipulation.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from ars.symcore import Polynomial, VectorField

# ---------------------------------------------------------------------------
# naive polynomial/vector-field plumbing (dict based)


def poly_to_dict(p: Polynomial) -> dict:
    return dict(p.terms)


def dict_to_poly(dim: int, d: dict) -> Polynomial:
    return Polynomial(dim, d)


def naive_diff(d: dict, j: int) -> dict:
    out: dict = {}
    for e, c in d.items():
        if e[j] == 0:
            continue
        ne = list(e)
        ne[j] -= 1
        key = tuple(ne)
        out[key] = out.get(key, Fraction(0)) + c * e[j]
    return {k: v for k, v in out.items() if v != 0}


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def naive_substitute(d: dict, offsets, slopes, targets, dim: int) -> dict:
    """d with x_j -> offsets[j] + slopes[j] * y_targets[j], by repeated multiplication."""
    out: dict = {}
    for e, c in d.items():
        part = {(0,) * dim: c}
        for j, k in enumerate(e):
            unit = tuple(int(i == targets[j]) for i in range(dim))
            linear = naive_add({(0,) * dim: Fraction(offsets[j])}, {unit: Fraction(slopes[j])})
            for _ in range(k):
                part = naive_mul(part, linear)
        out = naive_add(out, part)
    return out


def naive_homogeneous_parts(X: VectorField, weights) -> dict:
    """X split by weighted order, component by component: {order: nonzero part}, orders ascending."""
    by_order: dict = {}
    for j, comp in enumerate(X.components):
        for e, c in comp.terms.items():
            degree = sum(a * w for a, w in zip(e, weights))
            by_order.setdefault(degree - weights[j], {}).setdefault(j, {})[e] = c
    return {
        s: VectorField([Polynomial(X.dim, by_order[s].get(j, {})) for j in range(X.dim)])
        for s in sorted(by_order)
    }


def naive_apply(X: VectorField, f: dict) -> dict:
    out: dict = {}
    for j, comp in enumerate(X.components):
        # a zero component or a zero f adds nothing; every other term is formed
        if comp.terms and f:
            out = naive_add(out, naive_mul(poly_to_dict(comp), naive_diff(f, j)))
    return out


def naive_bracket(X: VectorField, Y: VectorField) -> VectorField:
    n = X.dim
    comps = []
    for j in range(n):
        term = naive_add(
            naive_apply(X, poly_to_dict(Y.components[j])),
            {k: -v for k, v in naive_apply(Y, poly_to_dict(X.components[j])).items()},
        )
        comps.append(dict_to_poly(n, term))
    return VectorField(comps)


# ---------------------------------------------------------------------------
# reference printers: the per-component loops the term-map printers replaced


def _reference_sorted_terms(p: Polynomial) -> list:
    return sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def _reference_factors(names, exps) -> list[str]:
    return [name if k == 1 else f"{name}^{k}" for name, k in zip(names, exps) if k]


def reference_poly_format(p: Polynomial, names=None) -> str:
    if p.is_zero:
        return "0"
    names = list(names) if names is not None else [f"x{i+1}" for i in range(p.dim)]
    parts = []
    for e, c in _reference_sorted_terms(p):
        factors = _reference_factors(names, e)
        body = " ".join(factors if factors and abs(c) == 1 else [str(abs(c))] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def reference_field_format(X: VectorField, names=None) -> str:
    if X.is_zero:
        return "0"
    names = list(names) if names is not None else [f"x{i+1}" for i in range(X.dim)]
    parts = []
    for j, comp in enumerate(X.components):
        for e, c in _reference_sorted_terms(comp):
            coef = [str(abs(c))] if abs(c) != 1 else []
            body = " ".join(coef + _reference_factors(names, e) + [f"d/d{names[j]}"])
            if not parts:
                parts.append(("- " if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# dense rank over a fixed monomial enumeration


def field_rows(fields: list[VectorField]) -> list[list[Fraction]]:
    keys = sorted({(j, e) for f in fields for j, c in enumerate(f.components) for e in c.terms})
    rows = []
    for f in fields:
        row = []
        for j, e in keys:
            row.append(f.components[j].terms.get(e, Fraction(0)))
        rows.append(row)
    return rows


def dense_rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def highest_first_reduce(rows: list[dict], vec: dict) -> dict:
    """Remainder of vec against fully reduced rows with pivot 1, clearing leading keys highest first."""
    v = dict(vec)
    for row in sorted(rows, key=max, reverse=True):
        c = v.get(max(row), 0)
        if c:
            v = {k: v.get(k, 0) - c * row.get(k, 0) for k in set(v) | set(row)}
            v = {k: x for k, x in v.items() if x != 0}
    return v


def fields_rank(fields: list[VectorField]) -> int:
    if not fields:
        return 0
    return dense_rank(field_rows(fields))


def field_in_span(X: VectorField, fields: list[VectorField]) -> bool:
    return fields_rank(list(fields)) == fields_rank(list(fields) + [X])


def spans_equal(a: list[VectorField], b: list[VectorField]) -> bool:
    ra, rb = fields_rank(a), fields_rank(b)
    return ra == rb == fields_rank(a + b)


# ---------------------------------------------------------------------------
# brute-force closures


def closure_fields(generators: list[VectorField], max_rounds: int = 40) -> list[VectorField]:
    """All-pairs bracket closure with dense rank bookkeeping."""
    basis = []
    for g in generators:
        if not g.is_zero and not field_in_span(g, basis):
            basis.append(g)
    for _ in range(max_rounds):
        added = False
        for a in list(basis):
            for b in list(basis):
                br = naive_bracket(a, b)
                if not br.is_zero and not field_in_span(br, basis):
                    basis.append(br)
                    added = True
        if not added:
            return basis
    raise AssertionError("oracle closure did not stabilize")


def ideal_fields(algebra: list[VectorField], generators: list[VectorField], max_rounds: int = 40) -> list[VectorField]:
    """All-pairs bracket ideal closure inside a given algebra basis."""
    basis = []
    for g in generators:
        if not g.is_zero and not field_in_span(g, basis):
            basis.append(g)
    for _ in range(max_rounds):
        added = False
        for a in algebra:
            for b in list(basis):
                br = naive_bracket(a, b)
                if not br.is_zero and not field_in_span(br, basis):
                    basis.append(br)
                    added = True
        if not added:
            return basis
    raise AssertionError("oracle ideal closure did not stabilize")


def _independent(fields: list[VectorField]) -> list[VectorField]:
    """The fields, in order, that are independent of the ones before them.

    One dense row per nonzero field over a shared monomial enumeration; each
    row is reduced against the pivot rows kept so far, so every candidate
    costs one elimination pass, not two ranks of the whole list.
    """
    nonzero = [f for f in fields if not f.is_zero]
    pivots: list[tuple[int, list[Fraction]]] = []
    basis: list[VectorField] = []
    for f, row in zip(nonzero, field_rows(nonzero)):
        for col, pivot_row in pivots:
            if row[col] != 0:
                factor = row[col]
                row = [a - factor * b for a, b in zip(row, pivot_row)]
        col = next((c for c, x in enumerate(row) if x != 0), None)
        if col is not None:
            pivots.append((col, [x / row[col] for x in row]))
            basis.append(f)
    return basis


def _series_dims(basis: list[VectorField], derived: bool) -> list[int]:
    dims = [fields_rank(list(basis))]
    current = _independent(list(basis))
    while dims[-1] > 0:
        left = current if derived else basis
        current = _independent([naive_bracket(a, b) for a in left for b in current])
        dims.append(len(current))
        if dims[-1] == dims[-2]:
            break
    return dims


def lower_central_dims(basis: list[VectorField]) -> list[int]:
    """dim C^1 >= dim C^2 >= ..., C^(k+1) = [L, C^k], until it vanishes or stalls."""
    return _series_dims(basis, derived=False)


def derived_dims(basis: list[VectorField]) -> list[int]:
    """dim L >= dim [L, L] >= ..., until the derived series vanishes or stalls."""
    return _series_dims(basis, derived=True)


def naive_poly_eval(f: Polynomial, point) -> Fraction:
    """Value of f at the point: every monomial is formed, none is skipped."""
    return sum((c * math.prod(Fraction(p) ** k for p, k in zip(point, e)) for e, c in f.terms.items()), Fraction(0))


def naive_eval(X: VectorField, point) -> list[Fraction]:
    return [naive_poly_eval(comp, point) for comp in X.components]


def _dense_solve(columns: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """c with sum(c_a * columns[a]) == target for independent columns, by Gauss-Jordan on [A | t]."""
    m = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    pivots = []
    for col in range(len(columns)):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    if any(row[-1] != 0 for row in m[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * len(columns)
    for r, col in enumerate(pivots):
        coeffs[col] = m[r][-1]
    return coeffs


def naive_graded_frame(G, weights) -> tuple[VectorField, ...] | None:
    """The graded frame level by level and coordinate by coordinate, in dense Fractions; None without one.

    For each weight s, the candidates are G's basis elements whose monomials
    all have order -s; their values on the weight-s coordinates are kept
    greedily, earliest first, when they raise the dense rank, and d/dx_j is
    solved on the kept values alone.  None when some element is not
    homogeneous or some d/dx_j has no solution.
    """
    n = G.dim
    origin = [Fraction(0)] * n
    orders = [{sum(a * w for a, w in zip(e, weights)) - weights[j] for j, e in b.terms} for b in G.basis]
    if any(len(s) != 1 for s in orders):
        return None
    result: list[VectorField | None] = [None] * n
    for level in sorted(set(weights)):
        coords = [j for j in range(n) if weights[j] == level]
        candidates = [b for b, s in zip(G.basis, orders) if s == {-level}]
        kept: list[tuple[VectorField, list[Fraction]]] = []
        for b in candidates:
            at_origin = naive_eval(b, origin)
            value = [at_origin[j] for j in coords]
            if dense_rank([v for _, v in kept] + [value]) > len(kept):
                kept.append((b, value))
        for idx, j in enumerate(coords):
            coeffs = _dense_solve([v for _, v in kept], [Fraction(int(i == idx)) for i in range(len(coords))])
            if coeffs is None:
                return None
            field = VectorField.zero(n)
            for c, (b, _) in zip(coeffs, kept):
                field = field + b * c
            result[j] = field
    return tuple(result)  # type: ignore[arg-type]


def structure(L) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Dense structure constants c[i][j][k] of a LieBasis, read off its sparse table:
    [b_i, b_j] = sum_k c[i][j][k] b_k."""
    size, zero, empty = len(L.basis), Fraction(0), {}
    return tuple(
        tuple(tuple(row.get(j, empty).get(k, zero) for k in range(size)) for j in range(size))
        for row in L._table
    )


def all_pairs_structure(basis: list[VectorField]) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Dense structure constants c[i][j][k] of a canonical reduced basis, from every ordered pair.

    Each [b_i, b_j] is formed with naive_bracket: no support filter, no
    antisymmetry.  Its coordinates are its coefficients at the leading keys
    (b_k has 1 at its own and 0 at every other), and summing them back must
    give the bracket.
    """
    leads = [max(b.terms) for b in basis]
    for b, lead in zip(basis, leads):
        assert b.terms[lead] == 1 and sum(lead in other.terms for other in basis) == 1
    table = []
    for X in basis:
        row = []
        for Y in basis:
            terms = dict(naive_bracket(X, Y).terms)
            coords = tuple(terms.get(lead, Fraction(0)) for lead in leads)
            back: dict = {}
            for c, b in zip(coords, basis):
                back = naive_add(back, {key: c * a for key, a in b.terms.items()})
            assert back == terms, "the bracket leaves the span of the basis"
            row.append(coords)
        table.append(tuple(row))
    return tuple(table)


def naive_flag_dims(fields: list[VectorField], point, depth: int) -> list[int]:
    """Rank at the point of all left-normed bracket words of length <= s, s = 1..depth.

    Every word [..[[X_i1, X_i2], X_i3].., X_is] is formed, in every order,
    with no pruning of dependent words and no support test.
    """
    dims: list[int] = []
    values: list[list[Fraction]] = []
    level = list(fields)
    for s in range(1, depth + 1):
        if s > 1:
            level = [naive_bracket(w, f) for w in level for f in fields]
        values.extend(naive_eval(w, point) for w in level)
        dims.append(dense_rank(values))
    return dims


def _dict_value(d: dict, point) -> Fraction:
    return sum((c * math.prod(Fraction(p) ** k for p, k in zip(point, e)) for e, c in d.items()), Fraction(0))


def naive_coordinate_orders(frame, point, max_length: int) -> list[int | None]:
    """Order of each x_j - p_j at the point: the shortest frame word up to max_length with a nonzero value there.

    Every word X_i1 X_i2 ... X_is is applied to each coordinate function on
    its own, with no pruning of dependent derivatives and no support test;
    only words whose derivative is already the zero polynomial are dropped,
    since every longer word through them is zero too.  None marks an order
    beyond max_length.
    """
    n = frame.dim
    pt = [Fraction(p) for p in point]
    orders: list[int | None] = []
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        level = [naive_add({unit: Fraction(1)}, {(0,) * n: -pt[j]})]
        order = None
        for length in range(1, max_length + 1):
            level = [d for f in level for X in frame.fields if (d := naive_apply(X, f))]
            if any(_dict_value(d, pt) != 0 for d in level):
                order = length
                break
        orders.append(order)
    return orders


def naive_series_flow(X: VectorField, point, t, cutoff: int) -> tuple[tuple[Fraction, ...], bool]:
    """Endpoint sum_s t^s/s! (X^s x_j)(p) of each coordinate on its own, and whether a series was cut.

    The series of x_j stops at the first s with X^s x_j = 0, or after
    ``cutoff`` terms, which counts as cut when X^(cutoff + 1) x_j is nonzero.
    """
    n = X.dim
    pt = [Fraction(p) for p in point]
    t = Fraction(t)
    endpoint, cut = [], False
    for j in range(n):
        g = {tuple(int(i == j) for i in range(n)): Fraction(1)}
        total = pt[j]
        for s in range(1, cutoff + 2):
            g = naive_apply(X, g)
            if not g:
                break
            if s > cutoff:
                cut = True
                break
            total += t**s / math.factorial(s) * _dict_value(g, pt)
        endpoint.append(total)
    return tuple(endpoint), cut


def naive_sample_coranks(frame, budget: int, seed: int, sampler=None) -> dict:
    """Corank > 0 samples by stratum, ranking every sample densely.

    Draws the points that ``stratify_samples`` draws before its line search:
    ``budget`` calls of ``sampler`` (``default_sampler`` when None) on
    ``random.Random(seed)``.  Returns {r: [points of corank r]}, in draw order.
    """
    from ars.locus import default_sampler

    rng = random.Random(seed)
    n = frame.dim
    hits: dict = {}
    for _ in range(budget):
        pt = tuple(Fraction(x) for x in (sampler(rng) if sampler is not None else default_sampler(rng, n)))
        r = n - dense_rank([naive_eval(f, pt) for f in frame.fields])
        if r:
            hits.setdefault(r, []).append(pt)
    return hits


# ---------------------------------------------------------------------------
# determinant oracles


def naive_float_roots(coeffs: list[Fraction], known: list[Fraction], span: float = 40.0) -> list[float]:
    """Real roots of the Fraction coefficients (lowest degree first) by sign-change bisection, excluding known rationals.

    The sampler's original loop: each grid point and midpoint is evaluated
    by its own Horner pass over float(c), and every bisection runs its 80
    steps unless it meets an exact zero.
    """
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
    return [t for t in found if all(abs(t - float(r)) > 1e-7 for r in known)]


def cofactor_det(entries: list[list[Polynomial]]) -> Polynomial:
    """First-row cofactor expansion, no caching."""
    n = len(entries)
    dim = entries[0][0].dim
    if n == 1:
        return entries[0][0]
    total = Polynomial.zero(dim)
    for j in range(n):
        sub = [[entries[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = entries[0][j] * cofactor_det(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def leibniz_det(rows: list[list[Fraction]]) -> Fraction:
    """Permutation-sum determinant of a square rational matrix."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


def frame_cofactor_det(frame) -> Polynomial:
    n = frame.dim
    entries = [[frame.fields[j].components[i] for j in range(n)] for i in range(n)]
    return cofactor_det(entries)


# ---------------------------------------------------------------------------
# numeric directional derivative and the reference RK4 loop


def finite_difference_apply(X: VectorField, f: Polynomial, point: list[float], h: float = 1e-6) -> float:
    """(Xf)(p) by central differences along the field direction."""
    v = X.evaluate_float(point)
    up = [p + h * d for p, d in zip(point, v)]
    dn = [p - h * d for p, d in zip(point, v)]
    return (f.evaluate_float(up) - f.evaluate_float(dn)) / (2 * h)


def naive_rk4(X: VectorField, point, t: float, steps: int, blowup_threshold: float = 1e12):
    """Interpreted fixed-step RK4 on ``VectorField.evaluate_float``.

    Returns (endpoint, blowup, step_count) with the blowup rule of
    ``flows.rk4_flow``; an overflow in ``float ** k`` propagates as
    OverflowError.
    """
    state = [float(x) for x in point]
    h = float(t) / steps

    def ok(values: list[float]) -> bool:
        return all(math.isfinite(v) and abs(v) <= blowup_threshold for v in values)

    for _ in range(steps):
        k1 = X.evaluate_float(state)
        k2 = X.evaluate_float([x + h / 2 * d for x, d in zip(state, k1)])
        k3 = X.evaluate_float([x + h / 2 * d for x, d in zip(state, k2)])
        k4 = X.evaluate_float([x + h * d for x, d in zip(state, k3)])
        candidate = [
            x + h / 6 * (a + 2 * b + 2 * c + d)
            for x, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        if not ok(candidate):
            return tuple(state), True, steps
        state = candidate
    return tuple(state), False, steps


def random_rational_point(rng: random.Random, dim: int, span: int = 6) -> list[Fraction]:
    return [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(dim)]
