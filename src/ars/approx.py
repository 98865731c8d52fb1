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

from .grading import Weights, check_weights, homogeneous_parts
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


def check_triangular_complete(X: VectorField, weights: Sequence[int]) -> bool:
    """True iff every monomial of component j has weighted degree <= w_j.

    Such a field depends at most linearly on the coordinates of weight w_j
    and not at all on heavier ones, so its flow equation is triangular and
    all solutions extend to the whole real line: its largest order is <= 0.
    """
    return max(homogeneous_parts(X, check_weights(weights, X.dim)), default=0) <= 0


def build_approximation(frame: Frame, weights: Sequence[int]) -> ApproximationSet:
    """Choose the transform for a frame centered at the origin; read the fields off it.

    Steps 1-2 solve each field's order -1 value at the origin against all of
    them, greedily (:func:`~ars.linalg.solve_combination`): a field whose
    solution is its own unit vector is selected, and every other field gets
    a transform row, its own column minus its solution.  That row's order
    -1 part is the row applied to the order -1 parts, since truncation is
    linear, and it is kept when it is independent of the fields kept so
    far.  Step 3 replaces each field not kept by the order-0 part of its row
    applied to the originals, which is the row applied to their order-0
    parts.  Each field is split by order once
    (:func:`~ars.grading.homogeneous_parts`).  The caller is expected to
    have verified the rank condition and the privileged-ness of the
    coordinates for these weights.  A linearly dependent outcome is reported
    through the ``degenerate`` flag rather than an exception, since the set
    may still be inspected.
    """
    w = check_weights(weights, frame.dim)
    n = frame.dim
    if any(c != 0 for c in frame.base_point):
        raise ValueError("build_approximation expects a frame centered at the origin; translate first")

    # each field split once: its order -1 part is its hat, its order-0 part feeds step 3
    zero = VectorField.zero(n)
    parts = [homogeneous_parts(X, w) for X in frame.fields]
    hats = [p.get(-1, zero) for p in parts]
    # a field's value at the origin is its constant terms
    constant = (0,) * n
    at_origin = [[h.terms.get((j, constant), 0) for j in range(n)] for h in hats]

    # steps 1-2: row i of the transform combines the originals into field i
    solutions = solve_combination(at_origin, at_origin)
    selected = [i for i in range(n) if solutions[i][i]]
    rest = [i for i in range(n) if not solutions[i][i]]
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in rest:
        rows[i] = [r - c if c else r for r, c in zip(rows[i], solutions[i])]
    hat_fields = [hats[i] for i in selected]
    span = SpanBasis(h.terms for h in hat_fields)
    kept: list[int] = []
    dropped: list[int] = []
    for i in rest:
        h = linear_combination(zip(rows[i], hats), n)
        if span.insert(h.terms):
            kept.append(i)
            hat_fields.append(h)
        else:
            dropped.append(i)

    # step 3: the fields not kept are replaced by their order-0 parts, again by linearity
    zeros = [p.get(0, zero) for p in parts]
    tilde_fields = [linear_combination(zip(rows[i], zeros), n) for i in dropped]
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
