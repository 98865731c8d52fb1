"""Nilpotent/solvable approximation of a frame at its base point.

Given privileged weights, each field is cut down to its homogeneous part of
order -1 (its nilpotent approximation).  Fields are then reordered and
adjusted by constant linear combinations so that the first k have
independent values at the origin, the next m-k vanish at the origin but are
independent as fields, and the remainder are replaced by their order-0
homogeneous parts.  Every linear combination applied along the way is
recorded in an invertible matrix over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .grading import Weights, check_weights, homogeneous_component, homogeneous_orders
from .linalg import SpanBasis, det, solve_combination
from .symcore import ArsError, Frame, VectorField


class DegenerateApproximation(ArsError):
    """The approximating fields are linearly dependent (sub-Riemannian case)."""


@dataclass(frozen=True)
class ApproximationSet:
    """Result of the approximation procedure.

    hat_fields are the order -1 approximations kept in steps 1-2 (nonzero at
    the origin for the first k, vanishing there for the rest); tilde_fields
    are the order-0 components substituted in step 3.  transform maps the
    original frame to the fields the approximations were taken of:
    approximating field i is the order -1 (i <= m) or order 0 (i > m) part
    of sum_j transform[i][j] * original_j.
    """

    hat_fields: tuple[VectorField, ...]
    tilde_fields: tuple[VectorField, ...]
    k: int
    m: int
    transform: tuple[tuple[Fraction, ...], ...]
    degenerate: bool
    weights: Weights
    source_order: tuple[int, ...]

    @property
    def fields(self) -> tuple[VectorField, ...]:
        return self.hat_fields + self.tilde_fields

    @property
    def dim(self) -> int:
        return len(self.transform)

    def adjusted_flags(self) -> tuple[bool, ...]:
        """Per output field: did step 2 mix in previously selected fields?

        Read off the transform rows: anything besides the field's own source
        column means an invariant part was removed (and can be re-added).
        """
        flags = []
        for i, row in enumerate(self.transform):
            src = self.source_order[i]
            flags.append(any(c != 0 for j, c in enumerate(row) if j != src))
        return tuple(flags)


def nilpotent_approx(X: VectorField, weights: Sequence[int]) -> VectorField:
    """Homogeneous component of order -1; zero when X has order >= 0."""
    return homogeneous_component(X, -1, weights)


def order_zero_component(X: VectorField, weights: Sequence[int]) -> VectorField:
    """Homogeneous component of order 0."""
    return homogeneous_component(X, 0, weights)


def check_triangular_complete(X: VectorField, weights: Sequence[int]) -> bool:
    """True iff every monomial of component j has weighted degree <= w_j.

    Such a field depends at most linearly on the coordinates of weight w_j
    and not at all on heavier ones, so its flow equation is triangular and
    all solutions extend to the whole real line.
    """
    return all(s <= 0 for s in homogeneous_orders(X, weights))


def build_approximation(frame: Frame, weights: Sequence[int]) -> ApproximationSet:
    """Run the approximation procedure on a frame centered at the origin.

    The caller is expected to have verified the rank condition and the
    privileged-ness of the coordinates for these weights.  A linearly
    dependent outcome is reported through the ``degenerate`` flag rather
    than an exception, since the set may still be inspected.
    """
    w = check_weights(weights, frame.dim)
    n = frame.dim
    if any(c != 0 for c in frame.base_point):
        raise ValueError("build_approximation expects a frame centered at the origin; translate first")
    origin = frame.base_point

    originals = list(frame.fields)
    hats = [nilpotent_approx(X, w) for X in originals]

    # step 1: greedily pick fields whose order -1 parts are independent at 0
    values = SpanBasis()
    selected: list[int] = []
    for i, h in enumerate(hats):
        vec = {j: c for j, c in enumerate(h.evaluate(origin)) if c != 0}
        if vec and values.insert(vec):
            selected.append(i)
    k = len(selected)
    rest = [i for i in range(n) if i not in selected]
    order = selected + rest

    # transform rows track the current field as a combination of originals
    rows: list[list[Fraction]] = []
    current: list[VectorField] = []
    current_hats: list[VectorField] = []
    for i in order:
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        rows.append(row)
        current.append(originals[i])
        current_hats.append(hats[i])

    # step 2: cancel values at the origin using the selected fields only
    sel_values = [hats[i].evaluate(origin) for i in selected]
    for pos in range(k, n):
        val = current_hats[pos].evaluate(origin)
        if any(c != 0 for c in val):
            coeffs = solve_combination(sel_values, val)
            if coeffs is None:
                raise ArsError("selected fields do not span a remaining value at the origin")
            for a, c in enumerate(coeffs):
                if c != 0:
                    current[pos] = current[pos] - c * current[a]
                    current_hats[pos] = current_hats[pos] - c * current_hats[a]
                    rows[pos] = [x - c * y for x, y in zip(rows[pos], rows[a])]

    # step 2 continued: keep a maximal set of field-independent order -1 parts
    span = SpanBasis()
    for pos in range(k):
        span.insert(current_hats[pos].terms)
    kept: list[int] = []
    dropped: list[int] = []
    for pos in range(k, n):
        h = current_hats[pos]
        if not h.is_zero and span.insert(h.terms):
            kept.append(pos)
        else:
            dropped.append(pos)
    m = k + len(kept)

    final_positions = list(range(k)) + kept + dropped
    hat_fields = [current_hats[pos] for pos in range(k)] + [current_hats[pos] for pos in kept]
    tilde_fields = [order_zero_component(current[pos], w) for pos in dropped]
    transform = tuple(tuple(rows[pos]) for pos in final_positions)
    source_order = tuple(order[pos] for pos in final_positions)

    outputs = hat_fields + tilde_fields
    out_span = SpanBasis()
    degenerate = False
    for f in outputs:
        if f.is_zero or not out_span.insert(f.terms):
            degenerate = True
            break

    if det(transform) == 0:
        raise ArsError("internal error: transform matrix is singular")

    return ApproximationSet(
        hat_fields=tuple(hat_fields),
        tilde_fields=tuple(tilde_fields),
        k=k,
        m=m,
        transform=transform,
        degenerate=degenerate,
        weights=w,
        source_order=source_order,
    )
