"""Lie algebras of polynomial vector fields: closure, ideals, classification.

A :class:`LieBasis` is a canonical reduced basis of a finite-dimensional
algebra with its sparse structure constants.  Fields are bracketed only by
the one walk :class:`ars.grading.BracketWalk`, which the flag starts and
:func:`lie_closure` finishes, and by :meth:`LieBasis.from_span`, which
tabulates L; pairs come from an index that yields only those that may
bracket nonzero (:func:`_overlapping_pairs`).  G and L_0 are spans of L's
coordinate rows, tabulated off L's table (:meth:`LieBasis.subalgebra`);
all else runs exactly on sparse coordinate vectors {basis index: c} with
the table's nonzero entries, and ad(w) on the basis has one reader,
:meth:`LieBasis._ad`.  L is generated by elements of orders -1 and 0,
so it is graded with orders <= 0 (:meth:`LieBasis.orders`): L_{<0} is a
nilpotent ideal with quotient L_0, and L is solvable exactly when L_0 is, so
the derived series runs on L_0 only.
The lower central series of G is read off the iterated brackets of a
complement of [G, G], which generates G when G is nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .approx import ApproximationSet, DegenerateApproximation
from .grading import BracketWalk, DegreeBoundExceeded, check_weights, homogeneous_parts
from .linalg import SpanBasis, solve_combination
from .symcore import (
    ArsError,
    VectorField,
    _accumulate,
    lie_bracket,
    linear_combination,
    mask_bits,
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
    Elements are also handled as coordinate vectors: sparse dicts from basis
    index to coefficient, bracketed with the table's nonzero entries alone.
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

        Only pairs where a direction of one field is a variable of the other
        are visited; the rest commute by support.  A field's keys are its
        direction bits d and ~v for its variable bits v, so the keys of X meet
        the keys ~k of Y exactly for those pairs.  Nonzero brackets get entries.
        """
        basis = [VectorField.from_terms(dim, row) for row in span.rows()]
        keys = [mask_bits(d) + [~b for b in mask_bits(v)] for d, v in (X.support for X in basis)]
        pairs = _overlapping_pairs(keys, [[~key for key in row] for row in keys])
        entries = ((i, j, span.coordinates(lie_bracket(basis[i], basis[j]).terms)) for i, j in pairs)
        return cls(dim, basis, _antisymmetric(len(basis), entries), span)

    def __len__(self) -> int:
        return len(self.basis)

    def contains(self, X: VectorField) -> bool:
        return self._span.contains(X.terms)

    def orders(self, weights: Sequence[int]) -> tuple[int, ...]:
        """Order of each basis element under the weights: the one record of the grading.

        The canonical basis is homogeneous exactly when the span is graded, as
        it is when homogeneous fields generate the algebra; otherwise this
        raises GradedFrameUnavailable, an ArsError.  A homogeneous element's
        order is the one key of its split.
        """
        w = check_weights(weights, self.dim)
        orders = [homogeneous_parts(b, w) for b in self.basis]
        if any(len(s) != 1 for s in orders):
            raise GradedFrameUnavailable("the algebra is not spanned by homogeneous elements")
        return tuple(s for s, in orders)

    def subalgebra(self, span: SpanBasis) -> "LieBasis":
        """The subalgebra that a span of coordinate rows spans; the span must be closed under brackets.

        Take R, the span's canonical rows.  The field sum_k r_k b_k of a row
        r has L's leading key of b_(max r), with coefficient 1, and no other
        row's leading key, since b_k has keys up to its own leading key
        only.  So these fields are the canonical reduced basis of the span
        of the rows' fields, and the bracket w of two rows has the
        subalgebra coordinates w at the rows' leading indices: the table is
        read off this one with no field bracketed and no second echelon.
        Conversely, the L-coordinates of a canonical reduced basis of a
        subspace of L are canonical rows.
        """
        coords, leads = span.rows(), {k: p for p, k in enumerate(span.leading_keys())}
        basis = [linear_combination(((c, self.basis[k]) for k, c in r.items()), self.dim) for r in coords]
        entries = ((p, q, {leads[k]: c for k, c in w.items() if k in leads}) for p, q, w in self._pair_brackets(coords))
        return LieBasis(self.dim, basis, _antisymmetric(len(basis), entries), SpanBasis.from_reduced(b.terms for b in basis))

    def _coords(self, X: VectorField) -> dict:
        """Sparse coordinate vector of X; ValueError when X is outside the algebra."""
        coords = self._span.coordinates(X.terms)
        if coords is None:
            raise ValueError(f"{X} does not lie in the algebra")
        return coords

    def _bracket(self, u: dict, v: dict) -> dict:
        """Bracket of two coordinate vectors, read from the structure constants."""
        table = self._table
        return _accumulate(
            (k, a * b * c)
            for i, a in u.items() for j, b in v.items() if j in table[i] for k, c in table[i][j].items()
        )

    def _ad(self, w: dict, skip: Iterable = ()) -> Iterable[dict]:
        """[w, b_v] for each v, ascending, that w's table rows reach and ``skip`` does not hold."""
        table = self._table
        for v in sorted({v for i in w for v in table[i]}.difference(skip)):
            yield _accumulate((k, a * c) for i, a in w.items() if v in table[i] for k, c in table[i][v].items())

    def _pair_brackets(self, rows: Sequence[dict], others: Sequence[dict] | None = None) -> Iterable[tuple]:
        """(p, q, [u_p, v_q]) for the pairs of coordinate vectors whose bracket may be nonzero.

        u runs over ``rows``, v over ``others`` or over ``rows`` with p < q.  A
        pair is bracketed only when v_q has a coordinate that the table rows
        of u_p reach, found through an index of the v by coordinate.
        """
        upper, others = others is None, rows if others is None else others
        pairs = _overlapping_pairs([set().union(*(self._table[i] for i in u)) for u in rows], others, upper)
        return ((p, q, self._bracket(rows[p], others[q])) for p, q in pairs)

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


def lie_closure(generators: Sequence[VectorField], walk: BracketWalk | None = None) -> LieBasis:
    """Smallest Lie algebra containing the generators, as a closed basis.

    Runs a :class:`ars.grading.BracketWalk` to its end: ``walk`` when it is
    on the same nonzero generators, as the flag's walk (``GrowthVector.walk``)
    is for a frame that is its own approximation, else a new one; each round
    ends in the same span either way.  The walk's degree cap, ARS_MAX_DEGREE,
    catches generator sets that do not produce a finite-dimensional algebra:
    DegreeBoundExceeded.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("lie_closure needs at least one nonzero generator")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("generators must share a dimension")
    if walk is None or walk.fields != tuple(gens):
        walk = BracketWalk(gens)
    for _ in walk.rounds:
        pass
    return LieBasis.from_span(dim, walk.span)


def ideal_closure(L: LieBasis, generators: Sequence[VectorField]) -> LieBasis:
    """Smallest ideal of L containing the generators.

    It is the smallest subspace of L's coordinates that holds the generators
    and is invariant under every ad(b_i): each layer of vectors that grew the
    span adds their brackets with the basis (:meth:`LieBasis._ad`).
    :meth:`LieBasis.subalgebra` tabulates it.
    """
    coords = SpanBasis()
    grew = [v for v in map(L._coords, generators) if coords.insert(v)]
    while grew:
        grew = [w for v in grew for w in L._ad(v) if w and coords.insert(w)]
    return L.subalgebra(coords)


def _antisymmetric(size: int, entries: Iterable[tuple]) -> list[dict]:
    """Sparse table of the entries (i, j, [b_i, b_j]), i < j, and their negatives; None leaves the span."""
    table: list[dict] = [{} for _ in range(size)]
    for i, j, entry in entries:
        if entry is None:
            raise ArsError("internal error: span is not closed under brackets")
        if entry:
            table[i][j] = entry
            table[j][i] = {k: -c for k, c in entry.items()}
    return table


def _overlapping_pairs(left: Sequence[Iterable], right: Sequence[Iterable], upper: bool = True) -> list[tuple[int, int]]:
    """The pairs (p, q) where left[p] and right[q] share a key, p < q when ``upper``, in (p, q) order.

    right is indexed by key once, so each p visits only the q that share a key with it.
    """
    index: dict = {}
    for q, keys in enumerate(right):
        for key in keys:
            index.setdefault(key, []).append(q)
    pairs = {(p, q) for p, keys in enumerate(left) for key in keys for q in index.get(key, ()) if q > p or not upper}
    return sorted(pairs)


def _derived(L: LieBasis) -> SpanBasis:
    """[L, L]: the span of the table's nonzero entries."""
    return SpanBasis(entry for i, row in enumerate(L._table) for j, entry in row.items() if i < j)


def nilpotent_step(L: LieBasis) -> int | None:
    """Length of the lower central series; None when it stabilizes nonzero.

    An abelian algebra has step 1, the zero algebra step 0.  The series is
    read off V, the basis indices that are not leading keys of D = [L, L],
    so V + D = L.  With W_1 = V and W_(j+1) = [V, W_j], Jacobi gives
    [W_k, W_j] in W_(k+j); so when T = sum W_j is L, C^i = sum_(j >= i) W_j
    and the step is the first c with W_(c+1) = 0.  T + C^k = L for every k,
    so a nilpotent L is generated by V and T != L certifies it is not.
    """
    size, derived = len(L), _derived(L)
    if derived.dim in (0, size):
        return None if derived.dim else min(size, 1)  # abelian 1, zero 0
    table, leads = L._table, set(derived.leading_keys())
    # W_2 = [V, V] is spanned by table entries, and is D when no entry involves a leading key
    direct = not any(table[d] for d in leads)
    step, parts, current = 1, [], (derived if direct else SpanBasis(
        table[u][v] for u in range(size) if u not in leads for v in table[u] if u < v and v not in leads)).rows()
    while current and step < size:
        step, parts = step + 1, parts + current
        # [w, b_v] for the v in V that w's table rows reach
        current = SpanBasis(b for w in current for b in L._ad(w, leads)).rows()
    # the W_j with j >= 2 lie in D, and rows with distinct leading keys are independent
    spans = not current and (direct or len({max(w) for w in parts}) == derived.dim or SpanBasis(parts).dim == derived.dim)
    return step if spans else None


def is_solvable(L: LieBasis) -> bool:
    """True iff the derived series reaches zero.

    Runs on L's structure constants: the terms are coordinate subspaces,
    and the next term [D, D] is spanned by the brackets of pairs of D's rows.
    """
    size, span = len(L), _derived(L)
    while size:
        # the series is decreasing, so an equal dimension means it stalled
        if span.dim == size:
            return False
        current = span.rows()
        size, span = len(current), SpanBasis(w for _, _, w in L._pair_brackets(current))
    return True


def adjoint_matrix(X: VectorField, G: LieBasis) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix D of ad(X) on G's basis: [X, b_j] = sum_i D[i][j] b_i.

    Raises NotInvariant when some bracket leaves the span of G.
    """
    columns = [G._span.coordinates(lie_bracket(X, b).terms) for b in G.basis]
    if None in columns:
        raise NotInvariant(f"[X, b] leaves the algebra for b = {G.basis[columns.index(None)]}")
    return tuple(tuple(column.get(i, 0) for column in columns) for i in range(len(G.basis)))


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
    k, m, n, fields, adjusted = A.k, A.m, A.dim, A.fields, A.adjusted_flags()
    # G's basis is canonical, so its L-coordinates are canonical rows
    ideal, coords = SpanBasis.from_reduced(L._coords(b) for b in G.basis), {pos: L._coords(fields[pos]) for pos in range(k, n)}
    in_ideal = [pos for pos in range(k, m) if ideal.contains(coords[pos])]
    outside = [pos for pos in range(k, m) if pos not in in_ideal]
    order = list(range(k)) + in_ideal + outside + list(range(m, n))
    l = k + len(in_ideal)

    # derivation check, the contract for non-ideal fields, in L-coordinates:
    # x is bracketed only with the ideal rows that its table rows reach
    xs = [coords[pos] for pos in order[l:]]
    failed = [p for p, _, w in L._pair_brackets(xs, ideal.rows()) if not ideal.contains(w)]
    if failed:
        raise NotInvariant(f"[X, G] leaves the ideal for X = {fields[order[l + failed[0]]]}")
    labels = ["invariant"] * l + ["affine" if pos < m and adjusted[pos] else "linear" for pos in order[l:]]

    # the fields have orders -1 and 0, so L_{<0} is a nilpotent ideal and
    # L / L_{<0} is L_0: L is solvable exactly when L_0 is
    L0 = L.subalgebra(SpanBasis.from_reduced({i: 1} for i, s in enumerate(L.orders(A.weights)) if s == 0))
    return Classification(
        labels=tuple(labels), k=k, l=l, m=m, lie_dim=len(L.basis), ideal_dim=len(G.basis),
        ideal_nilpotent_step=nilpotent_step(G), solvable=is_solvable(L0), order=tuple(order),
    )


def graded_frame(G: LieBasis, weights: Sequence[int]) -> tuple[VectorField, ...]:
    """Echelonized homogeneous frame witnessing transitivity.

    Returns one field per coordinate: field i is homogeneous of order -w_i,
    equals d/dx_i plus terms supported on strictly heavier coordinates, so
    the frame matrix is unit triangular under weight ordering and has full
    rank everywhere.  G's basis must be homogeneous (:meth:`LieBasis.orders`).
    A homogeneous element of order -s is nonzero at the origin only along the
    coordinates of weight s, so one elimination of the values of the basis
    elements that are nonzero there solves every d/dx_j at once, and the
    greedy solution for d/dx_j uses elements of order -w_j only.  It exists
    for every j exactly when those values span R^n.
    """
    w = check_weights(weights, G.dim)
    n = G.dim
    G.orders(w)  # raises GradedFrameUnavailable unless the basis is homogeneous
    constant = (0,) * n  # a field's value at the origin is its constant terms
    values = [[b.terms.get((j, constant), 0) for j in range(n)] for b in G.basis]
    hits = [i for i, v in enumerate(values) if any(v)]
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    solutions = solve_combination([values[i] for i in hits], units)
    missing = [j for j, coeffs in enumerate(solutions) if coeffs is None]
    if missing:
        j = min(missing, key=lambda j: (w[j], j))
        raise GradedFrameUnavailable(f"no homogeneous element of order {-w[j]} hits coordinate {j} at the origin")
    fields = [G.basis[i] for i in hits]
    return tuple(linear_combination(zip(coeffs, fields), n) for coeffs in solutions)  # type: ignore[arg-type]
