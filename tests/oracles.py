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


def naive_apply(X: VectorField, f: dict) -> dict:
    out: dict = {}
    for j, comp in enumerate(X.components):
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
    basis: list[VectorField] = []
    for f in fields:
        if not f.is_zero and not field_in_span(f, basis):
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


# ---------------------------------------------------------------------------
# determinant oracles


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
