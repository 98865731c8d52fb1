"""Lie algebras of polynomial vector fields: closure, ideals, classification.

A :class:`LieBasis` stores a finite-dimensional algebra as a canonical
reduced basis over the monomial-coefficient vector space together with its
sparse structure constants.  Fields are bracketed only to find the algebra,
by the walk :func:`ars.grading.bracket_rounds`, and to tabulate it, by the
one table builder :meth:`LieBasis.from_span`, which serves both L and its
ideal G.  The ideal closure, the series and the derivation check run on
coordinate vectors with the table's nonzero entries, and the first term
[L, L] of both series is the span of those entries.  A pair of fields is
bracketed only when the support test allows a nonzero result: if neither
field has a direction that the other's coefficients depend on, the bracket
is zero and is never formed (:func:`ars.symcore.commute_by_support`).
Spans, memberships and series computations are all exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .approx import ApproximationSet, DegenerateApproximation
from .grading import DegreeBoundExceeded, bracket_rounds, check_weights, homogeneous_component, homogeneous_orders
from .linalg import SpanBasis, rank, solve_combination
from .symcore import (
    ArsError,
    VectorField,
    _accumulate,
    as_point,
    commute_by_support,
    lie_bracket,
    linear_combination,
    max_degree_cap,
)


class NotInvariant(ArsError):
    """The field does not normalize the given algebra."""


class GradedFrameUnavailable(ArsError):
    """No homogeneous echelon frame exists (rank deficit or inhomogeneous span)."""


class LieBasis:
    """Vector-space basis of a Lie algebra with sparse structure constants.

    ``basis`` is the canonical reduced basis of the span.  The table lists
    only the nonzero brackets: ``_table[i][j] = {k: c}`` with every c nonzero
    and [b_i, b_j] = sum_k c b_k; a missing j means [b_i, b_j] = 0.
    ``structure`` is the dense view c[i][j][k], built on each access.
    Elements are also handled as coordinate vectors: sparse dicts from basis
    index to coefficient, bracketed with the table alone; :meth:`ad` reads
    the brackets of one vector with the whole basis from the nonzero entries.
    """

    __slots__ = ("dim", "basis", "_span", "_table")

    def __init__(self, dim: int, basis: Sequence[VectorField], table: list[dict], span: SpanBasis):
        self.dim = dim
        self.basis = tuple(basis)
        self._span = span
        self._table = table

    @classmethod
    def from_span(cls, dim: int, span: SpanBasis) -> "LieBasis":
        """Bracket the canonical basis once per pair i < j; antisymmetry fills the rest.

        Pairs that commute by support are not bracketed.  Only nonzero
        brackets get an entry, with their coordinates in the basis.
        """
        basis = [VectorField.from_terms(dim, row) for row in span.rows()]
        table: list[dict] = [{} for _ in basis]
        for i, X in enumerate(basis):
            for j in range(i + 1, len(basis)):
                if commute_by_support(X, basis[j]):
                    continue
                coords = span.coordinates(lie_bracket(X, basis[j]).terms)
                if coords is None:
                    raise ArsError("internal error: span is not closed under brackets")
                entry = {k: c for k, c in enumerate(coords) if c}
                if entry:
                    table[i][j] = entry
                    table[j][i] = {k: -c for k, c in entry.items()}
        return cls(dim, basis, table, span)

    @property
    def structure(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Dense structure constants c[i][j][k], derived from the sparse table."""
        size, zero, empty = len(self.basis), Fraction(0), {}
        return tuple(
            tuple(tuple(row.get(j, empty).get(k, zero) for k in range(size)) for j in range(size))
            for row in self._table
        )

    def __len__(self) -> int:
        return len(self.basis)

    def contains(self, X: VectorField) -> bool:
        return self._span.contains(X.terms)

    def member(self, X: VectorField) -> tuple[Fraction, ...] | None:
        """Coordinates of X in ``basis``, or None when X is outside the span."""
        coords = self._span.coordinates(X.terms)
        return tuple(coords) if coords is not None else None

    def same_span(self, fields: Iterable[VectorField]) -> bool:
        other = SpanBasis()
        for f in fields:
            other.insert(f.terms)
        return other == self._span

    def _coords(self, X: VectorField) -> dict:
        """Sparse coordinate vector of X; ValueError when X is outside the algebra."""
        coords = self.member(X)
        if coords is None:
            raise ValueError(f"{X} does not lie in the algebra")
        return {k: c for k, c in enumerate(coords) if c}

    def _bracket(self, u: dict, v: dict) -> dict:
        """Bracket of two coordinate vectors, read from the structure constants."""
        table = self._table
        return _accumulate(
            (k, a * b * c)
            for i, a in u.items() for j, b in v.items() if j in table[i] for k, c in table[i][j].items()
        )

    def ad(self, v: dict) -> list[dict]:
        """The nonzero brackets [v, b_i] of a coordinate vector with the basis.

        [v, b_i] = sum_j v_j [b_j, b_i], so only the nonzero entries of the
        table's rows j in v are visited.
        """
        columns: dict = {}
        for j, a in v.items():
            for i, entry in self._table[j].items():
                columns.setdefault(i, []).extend((k, a * c) for k, c in entry.items())
        return [w for w in map(_accumulate, columns.values()) if w]

    def __repr__(self) -> str:
        return f"LieBasis(dim={len(self.basis)}, ambient={self.dim})"


@dataclass(frozen=True)
class Classification:
    """Labels of the approximating fields on the homogeneous space.

    ``order`` permutes the approximating fields so that labels come as
    invariant (1..l), then linear or affine (l+1..m), then linear (m+1..n).
    """

    labels: tuple[str, ...]
    k: int
    l: int
    m: int
    lie_dim: int
    ideal_dim: int
    ideal_nilpotent_step: int | None
    solvable: bool
    order: tuple[int, ...]


def lie_closure(generators: Sequence[VectorField], max_degree: int | None = None) -> LieBasis:
    """Smallest Lie algebra containing the generators, as a closed basis.

    Runs :func:`ars.grading.bracket_rounds` to its end.  The degree cap
    (ARS_MAX_DEGREE by default) catches generator sets that do not produce a
    finite-dimensional algebra: DegreeBoundExceeded.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("lie_closure needs at least one nonzero generator")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("generators must share a dimension")
    cap = max_degree if max_degree is not None else max_degree_cap()

    span = SpanBasis()
    for _ in bracket_rounds(gens, span, cap):
        pass
    return LieBasis.from_span(dim, span)


def ideal_closure(L: LieBasis, generators: Sequence[VectorField]) -> LieBasis:
    """Smallest ideal of L containing the generators.

    The ideal is the smallest subspace of L's coordinates that contains the
    generators and is invariant under every ad(b_i), found without
    bracketing a field: each vector that grows the span contributes its
    brackets [v, b_i].  Its rows are then mapped to fields, and
    :meth:`LieBasis.from_span` tabulates the ideal as it does L.
    """
    coords = SpanBasis()
    todo = [L._coords(g) for g in generators]
    while todo:
        v = todo.pop()
        if coords.insert(v):
            todo.extend(L.ad(v))
    span = SpanBasis()
    for row in coords.rows():
        span.insert(linear_combination(((c, L.basis[k]) for k, c in row.items()), L.dim).terms)
    return LieBasis.from_span(L.dim, span)


def _series(L: LieBasis, derived: bool) -> int | None:
    """Bracketings until the lower central (or derived) series vanishes; None when it stalls.

    Runs on L's structure constants: the terms are coordinate subspaces.
    Both series start with [L, L], the span of the table's nonzero entries.
    The next lower central term [L, C] is spanned by ad(v) of C's rows, the
    next derived term [D, D] by the brackets of pairs of D's rows.
    """
    brackets: Iterable[dict] = (entry for i, row in enumerate(L._table) for j, entry in row.items() if i < j)
    size, step = len(L), 0
    while size:
        span = SpanBasis()
        for w in brackets:
            span.insert(w)
        step += 1
        # the series is decreasing, so an equal dimension means it stalled
        if span.dim == size:
            return None
        current = span.rows()
        size = len(current)
        brackets = _next_brackets(L, current, derived)
    return step


def _next_brackets(L: LieBasis, current: list[dict], derived: bool) -> Iterable[dict]:
    """Brackets spanning the series term after the one spanned by ``current``.

    A derived pair (u, v) is bracketed only when v has a coordinate that the
    table rows of u reach; otherwise every term of [u, v] is zero.
    """
    if derived:
        reach = [set().union(*(L._table[i] for i in u)) for u in current]
        return (
            L._bracket(u, v)
            for p, u in enumerate(current) for v in current[p + 1:] if not reach[p].isdisjoint(v)
        )
    return (w for v in current for w in L.ad(v))


def nilpotent_step(L: LieBasis) -> int | None:
    """Length of the lower central series; None when it stabilizes nonzero.

    The step is the smallest number of bracketings after which everything
    vanishes: an abelian algebra has step 1, the zero algebra step 0.
    """
    return _series(L, derived=False)


def is_solvable(L: LieBasis) -> bool:
    """True iff the derived series reaches zero."""
    return _series(L, derived=True) is not None


def adjoint_matrix(X: VectorField, G: LieBasis) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix D of ad(X) on G's basis: [X, b_j] = sum_i D[i][j] b_i.

    Raises NotInvariant when some bracket leaves the span of G.
    """
    columns = []
    for b in G.basis:
        coords = G.member(lie_bracket(X, b))
        if coords is None:
            raise NotInvariant(f"[X, b] leaves the algebra for b = {b}")
        columns.append(coords)
    size = len(G.basis)
    return tuple(tuple(columns[j][i] for j in range(size)) for i in range(size))


def rank_condition_at_zero(G: LieBasis, point: Sequence) -> bool:
    """True iff the evaluations of G's basis at the point span R^n."""
    pt = as_point(point, G.dim)
    return rank([b.evaluate(pt) for b in G.basis]) == G.dim


def classify_fields(A: ApproximationSet, L: LieBasis, G: LieBasis) -> Classification:
    """Classify approximating fields as invariant, linear or affine.

    Membership in the ideal means the field projects from an invariant
    field; otherwise it acts on the ideal as a derivation and projects from
    a linear field, or from an affine one when the recorded transform had
    removed an invariant part from it.  Fields are reordered so the
    invariant ones come first.
    """
    if A.degenerate:
        raise DegenerateApproximation("cannot classify a degenerate approximating set")
    k, m, n = A.k, A.m, A.dim
    adjusted = A.adjusted_flags()
    fields = A.fields

    in_ideal: list[int] = []
    outside: list[int] = []
    for pos in range(k, m):
        (in_ideal if G.contains(fields[pos]) else outside).append(pos)
    order = list(range(k)) + in_ideal + outside + list(range(m, n))
    l = k + len(in_ideal)

    # derivation check, the contract for non-ideal fields, in L-coordinates
    ideal = SpanBasis()
    for b in G.basis:
        ideal.insert(L._coords(b))
    labels: list[str] = []
    for new_pos, pos in enumerate(order):
        if new_pos < l:
            labels.append("invariant")
            continue
        x = L._coords(fields[pos])
        if not all(ideal.contains(L._bracket(x, g)) for g in ideal.rows()):
            raise NotInvariant(f"[X, G] leaves the ideal for X = {fields[pos]}")
        if pos < m and adjusted[pos]:
            labels.append("affine")
        else:
            labels.append("linear")

    return Classification(
        labels=tuple(labels),
        k=k,
        l=l,
        m=m,
        lie_dim=len(L.basis),
        ideal_dim=len(G.basis),
        ideal_nilpotent_step=nilpotent_step(G),
        solvable=is_solvable(L),
        order=tuple(order),
    )


def graded_frame(G: LieBasis, weights: Sequence[int]) -> tuple[VectorField, ...]:
    """Echelonized homogeneous frame witnessing transitivity.

    Returns one field per coordinate: field i is homogeneous of order -w_i,
    equals d/dx_i plus terms supported on strictly heavier coordinates, so
    the frame matrix is unit triangular under weight ordering and has full
    rank everywhere.
    """
    w = check_weights(weights, G.dim)
    n = G.dim
    origin = [Fraction(0)] * n

    by_order: dict[int, list[VectorField]] = {}
    for b in G.basis:
        for s in homogeneous_orders(b, w):
            h = homogeneous_component(b, s, w)
            if not G.contains(h):
                raise GradedFrameUnavailable(
                    "the algebra is not spanned by homogeneous elements"
                )
            by_order.setdefault(s, []).append(h)

    result: list[VectorField | None] = [None] * n
    for level in sorted(set(w)):
        coords = [j for j in range(n) if w[j] == level]
        candidates = by_order.get(-level, [])
        values = [[v[j] for j in coords] for v in (h.evaluate(origin) for h in candidates)]
        for idx, j in enumerate(coords):
            # a candidate dependent on earlier ones is dependent at the origin
            # too, so the greedy solve gives it coefficient zero
            coeffs = solve_combination(values, [Fraction(int(i == idx)) for i in range(len(coords))])
            if coeffs is None:
                raise GradedFrameUnavailable(
                    f"no homogeneous element of order {-level} hits coordinate {j} at the origin"
                )
            result[j] = linear_combination(zip(coeffs, candidates), n)
    return tuple(result)  # type: ignore[arg-type]
