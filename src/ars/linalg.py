"""Exact linear algebra over the rationals.

Entries are exact rationals, an ``int`` when integral and a
``fractions.Fraction`` otherwise, as :func:`ars.symcore.as_coefficient`
gives them, so that rank, membership and solving decisions are never
subject to rounding; the one division, by a pivot, is the exact
:func:`ars.symcore.quotient`.
:class:`SpanBasis` is the one elimination kernel: it reduces sparse vectors
keyed by comparable keys (a monomial of one component for vector fields, an
index for coordinate vectors), and gives coordinates in its basis sparse,
{row index: c}, through a leading key -> row index map built once per basis.
``SpanBasis(vectors)`` inserts the vectors in order, and only canonical rows
skip that (:meth:`SpanBasis.from_reduced`); the dense routines run on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .symcore import as_coefficient, quotient


def _row_vec(row: Iterable[Fraction], tag: int | None = None) -> dict:
    """Sparse form of a dense row, keyed by column or by ``(tag, column)``.

    Entries become coefficients here, so the dense routines stay exact on ints
    and refuse floats.
    """
    return {i if tag is None else (tag, i): as_coefficient(x) for i, x in enumerate(row) if x != 0}


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a matrix given as an iterable of rows."""
    return SpanBasis(map(_row_vec, rows)).dim


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix.

    Inserting the rows in order divides the determinant by each reduced
    pivot and leaves a permutation matrix, so the determinant is the product
    of the pivots times the sign of the permutation of leading keys.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    span = SpanBasis()
    result = Fraction(1)
    leads = []
    for row in rows:
        v = span.reduce(_row_vec(row))
        if not v:
            return Fraction(0)
        leads.append(max(v))
        result *= v[leads[-1]]
        span.insert(v)
    inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
    return -result if inversions % 2 else result


def solve_combination(
    vectors: Sequence[Sequence[Fraction]], targets: Iterable[Sequence[Fraction]]
) -> list[list[Fraction] | None]:
    """Per target, coefficients c with sum(c_a * vectors[a]) == target, or None.

    The vectors are eliminated once and every target is reduced against that
    one span.  They need not be independent; each solution uses the greedily
    independent vectors (earliest first) and sets the other coefficients to
    zero.  Each vector is tagged with a unit key ``(0, a)`` that sorts below
    the data keys ``(1, i)``: a dependent vector then reduces to a relation
    led by its own tag, and the remainder of a target carries minus the
    coefficients of the independent vectors on their tags.
    """
    span = SpanBasis({**_row_vec(vec, tag=1), (0, a): 1} for a, vec in enumerate(vectors))
    zero = Fraction(0)  # one object for every coefficient a solution leaves out
    rests = [span.reduce(_row_vec(target, tag=1)) for target in targets]
    return [
        None if any(key[0] == 1 for key in rest)
        else [-Fraction(rest[(0, a)]) if (0, a) in rest else zero for a in range(len(vectors))]
        for rest in rests
    ]


class SpanBasis:
    """Reduced echelon basis of a span of sparse rational vectors.

    Vectors are dicts mapping comparable keys to nonzero ints and Fractions.
    Rows are kept fully reduced (each leading key occurs in exactly one row,
    with coefficient the int 1, and a new row is divided by its pivot through
    :func:`ars.symcore.quotient`), so the stored basis is canonical for the
    span, and membership coordinates are read off directly.
    """

    def __init__(self, vectors: Iterable[dict] = ()) -> None:
        self._rows: dict[Hashable, dict] = {}
        self._index: dict[Hashable, int] | None = None
        for v in vectors:
            self.insert(v)

    @classmethod
    def from_reduced(cls, rows: Iterable[dict]) -> "SpanBasis":
        """The span of rows that already are a fully reduced basis, each with pivot 1, taken as they are."""
        span = cls()
        span._rows = {max(r): dict(r) for r in rows}
        return span

    @property
    def dim(self) -> int:
        return len(self._rows)

    def rows(self) -> list[dict]:
        """Basis rows sorted by leading key."""
        return [dict(self._rows[k]) for k in sorted(self._rows)]

    def leading_keys(self) -> list[Hashable]:
        return sorted(self._rows)

    @staticmethod
    def _subtract(v: dict, coef: Fraction, row: dict) -> None:
        """v -= coef * row in place, dropping entries that cancel."""
        for k, c in row.items():
            nv = v[k] - coef * c if k in v else -coef * c
            if nv:
                v[k] = nv
            else:
                del v[k]

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec after subtracting its span component.

        Rows are fully reduced, so a row holds no other row's leading key and
        subtracting it leaves vec's other leading coefficients as they were:
        each leading key present in vec is cleared once, in any order.  vec
        is copied, not coerced: its values must be nonzero ints or Fractions.
        """
        v = dict(vec)
        for lead in [k for k in v if k in self._rows]:
            self._subtract(v, v[lead], self._rows[lead])
        return v

    def insert(self, vec: dict) -> bool:
        """Add vec to the span. Returns True when the dimension grew."""
        v = self.reduce(vec)
        if not v:
            return False
        lead = max(v)
        pivot = v[lead]
        row = {k: quotient(c, pivot) for k, c in v.items()}
        # keep full reduction: eliminate the new leading key from old rows
        for other in self._rows.values():
            if lead in other:
                self._subtract(other, other[lead], row)
        self._rows[lead] = row
        self._index = None
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def coordinates(self, vec: dict) -> dict[int, Fraction] | None:
        """Sparse coordinates {row index: c} of vec in the basis returned by rows(), or None.

        With full reduction each leading key occurs in exactly one row, so
        the coordinate along a row is the coefficient of its leading key,
        found through a leading key -> row index map built once per basis.
        """
        if self.reduce(vec):
            return None
        if self._index is None:
            self._index = {k: i for i, k in enumerate(self.leading_keys())}
        return {self._index[k]: c for k, c in vec.items() if k in self._index}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanBasis):
            return NotImplemented
        return self._rows == other._rows

    def __len__(self) -> int:
        return len(self._rows)
