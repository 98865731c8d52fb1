"""Weighted grading of coordinates and vector fields.

Weights are positive integers attached to the coordinates; the weighted
degree of a monomial x^a is sum(a_j * w_j), and the term x^a d/dx_j has
order sum(a_j * w_j) - w_j.  :func:`homogeneous_parts` splits a field by
that order, and every question about orders reads the split: a field's
(nonholonomic) order is its least key.  Candidate weights at the frame's
``base_point`` are read off its bracket flag and matched to coordinates
through the orders of the coordinate functions; :func:`ars.pipeline.stages`
alone decides whether those orders equal the weights (privileged coordinates).

:func:`bracket_rounds` is the one breadth-first bracket walk of the
package, and one walk serves both the flag and the Lie algebra: the flag
reads its first level off the fields' values at the point and, only below
full rank, consumes a :class:`BracketWalk` round by round and stops at full
rank; :func:`ars.liealg.lie_closure` of the same fields finishes that walk
and its span instead of starting a second one.  It reads the degree cap and
holds the single degree-cap test, which raises :class:`DegreeBoundExceeded`.
At a point where the frame has full rank (a regular point) the flag makes
no walk, so the degree cap is first read by :func:`ars.liealg.lie_closure`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import mul
from typing import Iterator, Sequence

from .linalg import SpanBasis
from .symcore import (
    ArsError,
    Frame,
    VectorField,
    _values,
    as_integers,
    commute_by_support,
    lie_bracket,
    max_degree_cap,
    vf_apply,
)

Weights = tuple[int, ...]


class RankConditionFailure(ArsError):
    """The iterated-bracket flag does not reach the full tangent space."""


class DegreeBoundExceeded(ArsError):
    """A bracket grew past the polynomial degree bound; check the generators."""


@dataclass(frozen=True)
class GrowthVector:
    """Flag dimensions at a point, one entry per bracket length.

    ``orders`` are the coordinate orders at the point up to the bound
    ``step``, which every order reaches once the flag has full rank.
    ``walk`` is the flag's bracket walk, stopped at full rank, or None when
    the generators' values alone have full rank and no walk was made.
    """

    dims: tuple[int, ...]
    step: int
    orders: tuple[int | None, ...]
    walk: "BracketWalk | None" = field(default=None, compare=False, repr=False)


def check_weights(weights: Sequence[int], dim: int) -> Weights:
    w = as_integers(weights, "weights")
    if len(w) != dim:
        raise ValueError(f"expected {dim} weights, got {len(w)}")
    if any(x < 1 for x in w):
        raise ValueError("weights must be positive integers")
    return w


def homogeneous_parts(X: VectorField, weights: Weights) -> dict[int, VectorField]:
    """Split X by weighted order: the nonzero part of each order s, keys ascending.

    The term x^e d/dx_j has order sum_i e_i w_i - w_j, so part s keeps the
    monomials of component j of weighted degree w_j + s, and the parts sum
    to X.  The least key is the order of X; a zero field has no part.  The
    weights are taken as :func:`check_weights` returns them.
    """
    parts: defaultdict[int, dict] = defaultdict(dict)
    for (j, e), c in X.terms.items():
        parts[sum(map(mul, e, weights)) - weights[j]][j, e] = c
    return {s: VectorField.from_terms(X.dim, part) for s, part in sorted(parts.items())}


def bracket_rounds(generators: Sequence[VectorField], span: SpanBasis) -> Iterator[list[VectorField]]:
    """Breadth-first bracket walk, shortest words first, one round at a time.

    Inserts the generators into ``span`` and yields those that grew it; then
    each round yields the brackets that grew the span.  Round 1 brackets each
    pair of independent generators once, every later round each generator
    against the previous round's new brackets.  Pairs that commute by support
    are skipped, and a zero bracket never grows the span.  Stops after a
    round that grows nothing.  Raises DegreeBoundExceeded when a bracket's
    total degree exceeds ARS_MAX_DEGREE, read once as the walk starts.
    """
    max_degree = max_degree_cap()
    gens = [g for g in generators if span.insert(g.terms)]
    yield gens
    pairs = [(g, f) for i, g in enumerate(gens) for f in gens[i + 1:]]
    while pairs:
        grew: list[VectorField] = []
        for g, f in pairs:
            if commute_by_support(g, f):
                continue
            b = lie_bracket(g, f)
            if b.total_degree() > max_degree:
                raise DegreeBoundExceeded(
                    f"bracket components reached degree {b.total_degree()} > cap {max_degree}"
                )
            if span.insert(b.terms):
                grew.append(b)
        yield grew
        pairs = [(g, f) for g in gens for f in grew]


class BracketWalk:
    """:func:`bracket_rounds` on the nonzero fields, resumable between rounds.

    ``span`` holds the span of every field the walk has met so far.
    """

    __slots__ = ("fields", "span", "rounds")

    def __init__(self, fields: Sequence[VectorField]):
        self.fields = tuple(f for f in fields if not f.is_zero)
        self.span = SpanBasis()
        self.rounds = bracket_rounds(self.fields, self.span)


def _flag_levels(frame: Frame, max_depth: int):
    """Ranks of the bracket flag at the frame's base point, one per bracket length.

    Round 0 is read off the fields' own values at the point: where they have
    full rank the flag is (n) and no walk is made.  Below full rank a
    :class:`BracketWalk` makes the brackets; its round 0, whose values are
    already in, is consumed unread, and each later round adds the values of
    the brackets that grew the walk's span.  Stops at full rank, returning
    the walk stopped there, or raises at stabilization or at the depth cap.
    """
    n, point = frame.dim, frame.base_point

    def value(f: VectorField) -> dict:
        return {i: c for i, c in enumerate(f._evaluate(point)) if c != 0}

    values = SpanBasis(map(value, frame.fields))
    dims = [values.dim]
    if values.dim == n:
        return dims, 1, None
    walk = BracketWalk(frame.fields)
    grew = next(walk.rounds)  # the nonzero generators, whose values are in already
    while grew:
        if len(dims) >= max_depth:
            raise RankConditionFailure(
                f"bracket flag still has rank {values.dim} < {n} after depth {max_depth}"
            )
        grew = next(walk.rounds, [])
        for f in grew:
            values.insert(value(f))
        dims.append(values.dim)
        if values.dim == n:
            return dims, len(dims), walk
    raise RankConditionFailure(
        f"bracket flag stabilized at rank {values.dim} < {n} at point {point}"
    )


def coordinate_orders(frame: Frame, *, max_length: int) -> list[int | None]:
    """Nonholonomic order of each coordinate function at the frame's base point p.

    The order of x_j - p_j is the length of the shortest word X_I of frame
    derivatives with (X_I x_j)(p) != 0.  X_I applied to the coordinate
    functions is one field, whose component j is X_I x_j, so one
    breadth-first walk over fields finds every order.  The words of length 1
    are the frame's fields; the next level drops from each field g the
    components whose order is known and applies every frame field X with
    dir(X) & var(g) != 0 (otherwise X g = 0).  Words are explored up to
    max_length, which the caller must state, since an order can be
    infinite; None marks an order beyond the bound.  A level is read first
    and pruned to a basis of its span only when a next level is built from
    it: a field that is a combination of others at its level stays that
    combination, component by component, after every later word, so pruning
    it keeps each level finite without changing the first nonzero length.
    The last level is never pruned, so at a point where the frame has full
    rank (every order 1) no span is formed.
    """
    n = frame.dim
    orders: list[int | None] = [None] * n
    directions = [(X, X.support[0]) for X in frame.fields]
    level = frame.fields
    for length in range(1, max_length + 1):
        # component j of level[i] is polynomial i * n + j of one evaluation pass
        terms = [((i * n + j, e), c) for i, g in enumerate(level) for (j, e), c in g.terms.items()]
        values = _values(frame.base_point, terms, len(level) * n)
        for (slot, _), _ in terms:
            if orders[slot % n] is None and values[slot]:
                orders[slot % n] = length
        if None not in orders or length == max_length:
            break
        if len(level) > 1:  # a lone field is its level's basis, or zero and without successors
            span = SpanBasis()
            level = [g for g in level if span.insert(g.terms)]
        next_level = []
        for g in level:
            g = VectorField.from_terms(n, {k: c for k, c in g.terms.items() if orders[k[0]] is None})
            var = g.support[1]
            next_level += [vf_apply(X, g) for X, d in directions if d & var]
        level = next_level
    return orders


def growth_vector(frame: Frame, *, max_depth: int | None = None) -> tuple[GrowthVector, Weights]:
    """Flag dimensions and candidate coordinate weights at the frame's base point.

    Weights are assigned per flag level (dims[s] - dims[s-1] coordinates of
    weight s) and matched to coordinates by the orders of the coordinate
    functions; :func:`ars.pipeline.stages` decides whether they match
    exactly.  The growth vector carries the flag's walk, which
    :func:`ars.liealg.lie_closure` of the frame's own fields finishes.  The
    depth cap defaults to 2n times the fields' top total degree (at least 1).

    Raises RankConditionFailure when the flag cannot reach full rank,
    DegreeBoundExceeded when a bracket exceeds the degree cap ARS_MAX_DEGREE,
    and ValueError when max_depth is below 1.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    depth = max_depth or 2 * frame.dim * max(1, max(f.total_degree() for f in frame.fields))
    dims, step, walk = _flag_levels(frame, depth)
    orders = coordinate_orders(frame, max_length=step)
    growth = GrowthVector(tuple(dims), step, tuple(orders), walk)
    # multiset of weights dictated by the flag, ascending
    level_weights: list[int] = []
    prev = 0
    for s, d in enumerate(dims, start=1):
        level_weights.extend([s] * (d - prev))
        prev = d
    by_order = sorted(range(frame.dim), key=lambda j: (orders[j] if orders[j] is not None else step + 1, j))
    weights = [0] * frame.dim
    for pos, j in enumerate(by_order):
        weights[j] = level_weights[pos]
    return growth, tuple(weights)
