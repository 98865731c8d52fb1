"""Weighted grading of coordinates and vector fields.

Weights are positive integers attached to the coordinates; the weighted
degree of a monomial x^a is sum(a_j * w_j).  A vector field's
(nonholonomic) order is the minimum over components j of the weighted
valuation of component j minus w_j.  Candidate weights at a point are read
off the bracket flag of the frame and matched to coordinates through the
orders of the coordinate functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .linalg import SpanBasis
from .symcore import (
    ArsError,
    Frame,
    Point,
    Polynomial,
    VectorField,
    as_point,
    lie_bracket,
    max_degree_cap,
    vf_apply,
)

Weights = tuple[int, ...]

INFINITE_ORDER = math.inf


class RankConditionFailure(ArsError):
    """The iterated-bracket flag does not reach the full tangent space."""


@dataclass(frozen=True)
class GrowthVector:
    """Flag dimensions at a point, one entry per bracket length."""

    dims: tuple[int, ...]
    step: int


def check_weights(weights: Sequence[int], dim: int) -> Weights:
    w = tuple(int(x) for x in weights)
    if len(w) != dim:
        raise ValueError(f"expected {dim} weights, got {len(w)}")
    if any(x < 1 for x in w):
        raise ValueError("weights must be positive integers")
    return w


def monomial_weighted_degree(exps: Sequence[int], weights: Weights) -> int:
    return sum(a * w for a, w in zip(exps, weights))


def weighted_valuation(f: Polynomial, weights: Sequence[int]):
    """Minimum weighted degree over the monomials of f; +inf for zero."""
    w = check_weights(weights, f.dim)
    if f.is_zero:
        return INFINITE_ORDER
    return min(monomial_weighted_degree(e, w) for e in f.terms)


def nonholonomic_order_vf(X: VectorField, weights: Sequence[int]):
    """Order of a field: min_j (valuation of component j minus w_j)."""
    return min(homogeneous_orders(X, weights), default=INFINITE_ORDER)


def homogeneous_component(X: VectorField, s: int, weights: Sequence[int]) -> VectorField:
    """Part of X that is weighted-homogeneous of order s.

    Component j keeps exactly the monomials of weighted degree w_j + s.
    Summing over all s reconstructs X.
    """
    w = check_weights(weights, X.dim)
    return VectorField.from_terms(
        X.dim,
        {(j, e): c for (j, e), c in X.terms.items() if monomial_weighted_degree(e, w) - w[j] == s},
    )


def homogeneous_orders(X: VectorField, weights: Sequence[int]) -> list[int]:
    """Sorted list of orders s with a nonzero homogeneous component."""
    w = check_weights(weights, X.dim)
    return sorted({monomial_weighted_degree(e, w) - w[j] for j, e in X.terms})


def _flag_levels(frame: Frame, point: Point, max_depth: int, max_degree: int):
    """Ranks of the bracket flag at a point, level by level.

    The flag is maintained as a Q-vector space of fields; each level adds
    brackets of the generators with the previous level's new elements.
    Stops at full rank, at stabilization, or at the depth/degree caps.
    """
    n = frame.dim
    span = SpanBasis()
    values = SpanBasis()
    frontier: list[VectorField] = []
    for f in frame.fields:
        if span.insert(f.terms):
            frontier.append(f)
            values.insert({i: c for i, c in enumerate(f.evaluate(point)) if c != 0})
    dims = [values.dim]
    depth = 1
    while values.dim < n:
        if not frontier:
            raise RankConditionFailure(
                f"bracket flag stabilized at rank {values.dim} < {n} at point {point}"
            )
        if depth >= max_depth:
            raise RankConditionFailure(
                f"bracket flag still has rank {values.dim} < {n} after depth {max_depth}"
            )
        new_frontier = []
        for g in frame.fields:
            for f in frontier:
                b = lie_bracket(g, f)
                if b.is_zero:
                    continue
                if b.total_degree() > max_degree:
                    raise RankConditionFailure(
                        f"bracket components exceeded the degree cap {max_degree}"
                    )
                if span.insert(b.terms):
                    new_frontier.append(b)
                    values.insert({i: c for i, c in enumerate(b.evaluate(point)) if c != 0})
        frontier = new_frontier
        depth += 1
        dims.append(values.dim)
    return dims, depth


def coordinate_orders(frame: Frame, point: Sequence | None = None, max_length: int | None = None) -> list[int | None]:
    """Nonholonomic order of each coordinate function at a point.

    The order of x_j - p_j is the length of the shortest word of frame
    derivatives whose value at p is nonzero.  Words are explored
    breadth-first up to max_length; None marks an order beyond the bound.
    Derivatives linearly dependent on ones already seen are pruned, which
    keeps each level finite without changing the first nonzero length.
    """
    pt = as_point(point, frame.dim) if point is not None else frame.base_point
    bound = max_length if max_length is not None else frame.dim * max(1, frame.max_component_degree()) * 2
    n = frame.dim
    orders: list[int | None] = [None] * n
    for j in range(n):
        f = Polynomial.variable(n, j) - Polynomial.constant(n, pt[j])
        if f.evaluate(pt) != 0:
            orders[j] = 0
            continue
        seen = SpanBasis()
        seen.insert(f.terms)
        level = [f]
        for length in range(1, bound + 1):
            next_level = []
            found = False
            for g in level:
                for X in frame.fields:
                    d = vf_apply(X, g)
                    if d.is_zero:
                        continue
                    if d.evaluate(pt) != 0:
                        found = True
                        break
                    if seen.insert(d.terms):
                        next_level.append(d)
                if found:
                    break
            if found:
                orders[j] = length
                break
            if not next_level:
                break
            level = next_level
    return orders


def growth_vector(
    frame: Frame,
    point: Sequence | None = None,
    max_depth: int | None = None,
    max_degree: int | None = None,
) -> tuple[GrowthVector, Weights]:
    """Flag dimensions and candidate coordinate weights at a point.

    Weights are assigned per flag level (dims[s] - dims[s-1] coordinates of
    weight s) and matched to coordinates by the orders of the coordinate
    functions; whether the match is exact is the business of
    :func:`check_privileged`.

    Raises RankConditionFailure when the flag cannot reach full rank.
    """
    pt = as_point(point, frame.dim) if point is not None else frame.base_point
    depth = max_depth if max_depth is not None else 2 * frame.dim * max(1, frame.max_component_degree())
    cap = max_degree if max_degree is not None else max_degree_cap()
    dims, step = _flag_levels(frame, pt, depth, cap)
    growth = GrowthVector(tuple(dims), step)

    orders = coordinate_orders(frame, pt, max_length=step)
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


def check_privileged(frame: Frame, point: Sequence | None, weights: Sequence[int]) -> bool:
    """True iff every coordinate function has order exactly w_j at the point."""
    w = check_weights(weights, frame.dim)
    pt = as_point(point, frame.dim) if point is not None else frame.base_point
    orders = coordinate_orders(frame, pt, max_length=max(w))
    return all(o == wj for o, wj in zip(orders, w))
