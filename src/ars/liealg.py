"""Lie algebras of polynomial vector fields: closure, ideals, classification.

A :class:`LieBasis` stores a finite-dimensional algebra as a canonical
reduced basis over the monomial-coefficient vector space together with its
structure constants.  Fields are bracketed only to find the algebra and its
table; ideals, series and the derivation check run on coordinate vectors
with the structure constants.  Spans, memberships and series computations
are all exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .approx import ApproximationSet, DegenerateApproximation
from .grading import check_weights, homogeneous_component, homogeneous_orders
from .linalg import SpanBasis, rank, solve_combination
from .symcore import (
    ArsError,
    VectorField,
    _accumulate,
    as_point,
    lie_bracket,
    max_degree_cap,
)


class DegreeBoundExceeded(ArsError):
    """A bracket grew past the polynomial degree bound; check the generators."""


class NotInvariant(ArsError):
    """The field does not normalize the given algebra."""


class GradedFrameUnavailable(ArsError):
    """No homogeneous echelon frame exists (rank deficit or inhomogeneous span)."""


def _antisymmetric_table(size: int, coords) -> tuple:
    """Structure constants from ``coords(i, j)`` for i < j only; [b_j, b_i] = -[b_i, b_j]."""
    table = [[(Fraction(0),) * size] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            c = coords(i, j)
            if c is None:
                raise ArsError("internal error: span is not closed under brackets")
            table[i][j] = tuple(c)
            table[j][i] = tuple(-x for x in c)
    return tuple(map(tuple, table))


class LieBasis:
    """Vector-space basis of a Lie algebra with structure constants.

    ``basis`` is the canonical reduced basis of the span; ``structure``
    holds rationals c[i][j][k] with [b_i, b_j] = sum_k c[i][j][k] b_k.
    Elements are also handled as coordinate vectors: sparse dicts from basis
    index to coefficient, bracketed with the table alone.
    """

    __slots__ = ("dim", "basis", "structure", "_span", "_table")

    def __init__(self, dim: int, basis: Sequence[VectorField], structure, span: SpanBasis):
        self.dim = dim
        self.basis = tuple(basis)
        self.structure = structure
        self._span = span
        self._table = [[{k: c for k, c in enumerate(cs) if c} for cs in row] for row in structure]

    @classmethod
    def from_span(cls, dim: int, span: SpanBasis) -> "LieBasis":
        """Bracket the canonical basis once per pair i < j; antisymmetry fills the rest."""
        basis = [VectorField.from_terms(dim, row) for row in span.rows()]
        table = _antisymmetric_table(
            len(basis), lambda i, j: span.coordinates(lie_bracket(basis[i], basis[j]).terms)
        )
        return cls(dim, basis, table, span)

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
            (k, a * b * c) for i, a in u.items() for j, b in v.items() for k, c in table[i][j].items()
        )

    def _subalgebra(self, rows: Iterable[dict]) -> "LieBasis":
        """Subalgebra spanned by coordinate vectors, on its canonical field basis.

        Its table comes from this one by change of basis.
        """
        field_rows = self._span.rows()

        def field_vec(u: dict) -> dict:
            return _accumulate((key, a * c) for k, a in u.items() for key, c in field_rows[k].items())

        span = SpanBasis()
        for row in rows:
            span.insert(field_vec(row))
        basis = [VectorField.from_terms(self.dim, row) for row in span.rows()]
        inner = [self._coords(b) for b in basis]
        table = _antisymmetric_table(
            len(basis), lambda p, q: span.coordinates(field_vec(self._bracket(inner[p], inner[q])))
        )
        return LieBasis(self.dim, basis, table, span)

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


def _check_degrees(X: VectorField, cap: int) -> None:
    if X.total_degree() > cap:
        raise DegreeBoundExceeded(
            f"bracket components reached degree {X.total_degree()} > cap {cap}"
        )


def lie_closure(generators: Sequence[VectorField], max_degree: int | None = None) -> LieBasis:
    """Smallest Lie algebra containing the generators, as a closed basis.

    Brackets are explored breadth-first, shortest words first: each pair of
    independent generators once, then every generator against the brackets
    that grew the span in the previous round.  The degree cap
    (ARS_MAX_DEGREE by default) catches generator sets that do not produce a
    finite-dimensional algebra.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("lie_closure needs at least one nonzero generator")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("generators must share a dimension")
    cap = max_degree if max_degree is not None else max_degree_cap()

    span = SpanBasis()
    gens = [g for g in gens if span.insert(g.terms)]
    pairs = [(g, f) for i, g in enumerate(gens) for f in gens[i + 1:]]
    while pairs:
        frontier: list[VectorField] = []
        for g, f in pairs:
            b = lie_bracket(g, f)
            if b.is_zero:
                continue
            _check_degrees(b, cap)
            if span.insert(b.terms):
                frontier.append(b)
        pairs = [(g, f) for g in gens for f in frontier]
    return LieBasis.from_span(dim, span)


def ideal_closure(L: LieBasis, generators: Sequence[VectorField]) -> LieBasis:
    """Smallest ideal of L containing the generators.

    The ideal is the smallest subspace of L's coordinates that contains the
    generators and is invariant under every ad(b_i); no field is bracketed.
    """
    units = [{i: Fraction(1)} for i in range(len(L))]
    span = SpanBasis()
    todo = [L._coords(g) for g in generators]
    while todo:
        v = todo.pop()
        if span.insert(v):
            todo.extend(L._bracket(e, v) for e in units)
    return L._subalgebra(span.rows())


def _series(L: LieBasis, derived: bool) -> int | None:
    """Bracketings until the lower central (or derived) series vanishes; None when it stalls.

    Runs on L's structure constants: the terms are coordinate subspaces.
    """
    units = [{i: Fraction(1)} for i in range(len(L))]
    current = units
    step = 0
    while current:
        span = SpanBasis()
        for u in current if derived else units:
            for v in current:
                span.insert(L._bracket(u, v))
        step += 1
        # the series is decreasing, so an equal dimension means it stalled
        if span.dim == len(current):
            return None
        current = span.rows()
    return step


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
            if h.is_zero:
                continue
            if not G.contains(h):
                raise GradedFrameUnavailable(
                    "the algebra is not spanned by homogeneous elements"
                )
            by_order.setdefault(s, []).append(h)

    result: list[VectorField | None] = [None] * n
    for level in sorted(set(w)):
        coords = [j for j in range(n) if w[j] == level]
        candidates = by_order.get(-level, [])
        # deduplicate while keeping deterministic order
        span = SpanBasis()
        pool: list[VectorField] = []
        for h in candidates:
            if span.insert(h.terms):
                pool.append(h)
        values = [[h.evaluate(origin)[j] for j in coords] for h in pool]
        for idx, j in enumerate(coords):
            target = [Fraction(1 if jj == idx else 0) for jj in range(len(coords))]
            coeffs = None
            if pool:
                coeffs = solve_combination(values, target)
            if coeffs is None:
                raise GradedFrameUnavailable(
                    f"no homogeneous element of order {-level} hits coordinate {j} at the origin"
                )
            Y = VectorField.zero(n)
            for c, h in zip(coeffs, pool):
                if c != 0:
                    Y = Y + c * h
            result[j] = Y
    return tuple(result)  # type: ignore[arg-type]
