"""Nilpotent/solvable approximation of a frame at its base point.

The procedure chooses a constant invertible matrix over Q, the transform,
and reads the approximating fields off it: field i is the homogeneous part
of order -1 (its nilpotent approximation), or of order 0, of
sum_j transform[i][j] X_j.  The rows are chosen so that the first k fields
have independent values at the origin, the next m-k vanish at the origin but
are independent as fields, and the remainder are the order-0 parts of the
fields whose order -1 parts were dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .grading import Weights, check_weights, homogeneous_component, homogeneous_orders
from .linalg import SpanBasis, det, solve_combination
from .symcore import ArsError, Frame, VectorField, linear_combination


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
    transform: tuple[tuple[int | Fraction, ...], ...]
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
    """Choose the transform for a frame centered at the origin; read the fields off it.

    Step 1 greedily selects the fields whose order -1 parts are independent
    at the origin.  Step 2 gives every other field a transform row: its own
    column, minus the selected fields that cancel its order -1 value at the
    origin.  Its order -1 part is the row applied to the order -1 parts,
    since truncation is linear, and it is kept when it is independent of the
    fields kept so far.  Step 3 replaces each field not kept by the order-0
    part of its row applied to the originals.  The caller is expected to
    have verified the rank condition and the privileged-ness of the
    coordinates for these weights.  A linearly dependent outcome is reported
    through the ``degenerate`` flag rather than an exception, since the set
    may still be inspected.
    """
    w = check_weights(weights, frame.dim)
    n = frame.dim
    if any(c != 0 for c in frame.base_point):
        raise ValueError("build_approximation expects a frame centered at the origin; translate first")

    hats = [nilpotent_approx(X, w) for X in frame.fields]
    at_origin = [h.evaluate(frame.base_point) for h in hats]

    # step 1: greedily pick fields whose order -1 parts are independent at 0
    values = SpanBasis()
    selected = [i for i, v in enumerate(at_origin) if values.insert({j: c for j, c in enumerate(v) if c})]
    sel_values = [at_origin[i] for i in selected]

    # step 2: row i of the transform combines the originals into field i
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    hat_fields = [hats[i] for i in selected]
    span = SpanBasis()
    for h in hat_fields:
        span.insert(h.terms)
    rest = [i for i in range(n) if i not in selected]
    # the other fields' nonzero values at the origin are solved in one call, or in none
    moved = [i for i in rest if any(at_origin[i])]
    for i, coeffs in zip(moved, solve_combination(sel_values, [at_origin[i] for i in moved]) if moved else []):
        if coeffs is None:
            raise ArsError("selected fields do not span a remaining value at the origin")
        for s, c in zip(selected, coeffs):
            rows[i][s] -= c
    kept: list[int] = []
    dropped: list[int] = []
    for i in rest:
        h = linear_combination(zip(rows[i], hats), n)
        if span.insert(h.terms):
            kept.append(i)
            hat_fields.append(h)
        else:
            dropped.append(i)

    # step 3: the fields not kept are replaced by their order-0 parts
    tilde_fields = [order_zero_component(linear_combination(zip(rows[i], frame.fields), n), w) for i in dropped]
    source_order = tuple(selected + kept + dropped)
    transform = tuple(tuple(rows[i]) for i in source_order)

    # span holds the hat fields, which are independent by construction
    degenerate = not all(span.insert(t.terms) for t in tilde_fields)

    if det(transform) == 0:
        raise ArsError("internal error: transform matrix is singular")

    return ApproximationSet(
        hat_fields=tuple(hat_fields),
        tilde_fields=tuple(tilde_fields),
        k=len(selected),
        m=len(hat_fields),
        transform=transform,
        degenerate=degenerate,
        weights=w,
        source_order=source_order,
    )
