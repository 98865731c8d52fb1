"""Exact multivariate polynomials over Q and polynomial vector fields.

A coefficient is stored as an ``int`` when it is integral and as a
``fractions.Fraction`` otherwise: :func:`as_coefficient` narrows each value
a constructor is given, and :func:`quotient` divides exactly, so arithmetic
on integers stays on ints (a Fraction result of arithmetic is not narrowed
again).  Points and values are Fractions.  No floating point enters any
exact computation in this module.

A polynomial and a vector field are both one sparse term map from keys to
nonzero coefficients: exponent vectors for a polynomial, (component,
exponents) for a field.  Their shared base defines the sum, difference,
negation, scalar multiple, equality, hash and trusted constructor
``from_terms`` once.  Both printers follow one rule (:func:`_signed_sum`)
over terms in descending graded lexicographic order, a field's grouped by
component.  :func:`vf_apply` is the one derivative, of a polynomial or of
a field component by component: a partial derivative is
``vf_apply(VectorField.coordinate(n, j), f)``, and X applied to the
coordinate functions x_1, ..., x_n is the field X itself.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, repeat
from operator import add, mul
from typing import Hashable, Iterable, Mapping, Sequence

Exponents = tuple[int, ...]
Point = tuple[Fraction, ...]


class ArsError(Exception):
    """Base class for structured failures raised by this package."""
    report = None  # the partial report of a failed ars.pipeline.analyze


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '1/2' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_coefficient(value) -> int | Fraction:
    """Coerce like :func:`as_fraction`, then narrow: an int when the value is integral."""
    c = as_fraction(value)
    return c.numerator if c.denominator == 1 else c


def quotient(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """Exact a / b as a coefficient; on two ints it divides exactly, never to a float."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_coefficient(a / b)


def as_integers(values: Sequence, what: str) -> tuple[int, ...]:
    """The values as ints through operator.index, which refuses 1.5 and "2" where int() takes them."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {tuple(values)}") from None


def as_point(values: Sequence, dim: int) -> Point:
    pt = tuple(as_fraction(v) for v in values)
    if len(pt) != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {len(pt)}")
    return pt


def max_degree_cap() -> int:
    """Safety cap on polynomial total degree, from ARS_MAX_DEGREE (default 64).

    Raises ValueError, naming the variable, unless the value is an integer >= 1.
    """
    raw = os.environ.get("ARS_MAX_DEGREE", "64")
    message = f"ARS_MAX_DEGREE must be an integer >= 1, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if cap < 1:
        raise ValueError(message)
    return cap


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


def _monomial_factors(names: Sequence[str], exps: Exponents) -> list[str]:
    """Printed factors of a monomial, e.g. ['x', 'y^2']; empty for a constant."""
    return [name if k == 1 else f"{name}^{k}" for name, k in zip(names, exps) if k]


def _values(pt: Point, terms: Iterable[tuple[tuple[int, Exponents], Fraction]], size: int) -> list[Fraction]:
    """Values at ``pt`` of ``size`` polynomials given by one pass over the terms ((slot, e), c).

    A monomial with a positive power of a zero coordinate vanishes and is left
    at its first zero factor, so at the origin only the constant terms are read.
    """
    marked = [x or None for x in pt]
    values = [Fraction(0)] * size
    for (j, e), c in terms:
        for x, k in zip(marked, e):
            if k:
                if x is None:
                    break
                c *= x**k
        else:
            values[j] += c
    return values


def _accumulate(pairs: Iterable[tuple[Hashable, Fraction]]) -> dict:
    """Sum the values of equal keys, kept in first-seen order; zero sums are dropped."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            out[key] += value
        else:
            out[key] = value
    return {k: v for k, v in out.items() if v}


def _signed_sum(terms: Iterable[tuple[int | Fraction, list[str]]], first_minus: str) -> str:
    """Print terms (c, factors) as 'a - b + c', or '0' when there are none.

    A unit coefficient is printed only in a term without factors.  Later
    terms join with '+ ' or '- '; a negative first term opens with ``first_minus``.
    """
    parts = []
    for c, factors in terms:
        body = " ".join(factors if factors and abs(c) == 1 else [str(abs(c)), *factors])
        if c < 0:
            parts.append(("- " if parts else first_minus) + body)
        else:
            parts.append(("+ " if parts else "") + body)
    return " ".join(parts) or "0"


class _TermMap:
    """A sparse map ``terms`` from keys to nonzero coefficients on R^dim.

    The shared base of :class:`Polynomial` (keyed by exponents) and
    :class:`VectorField` (keyed by (component, exponents)): both are added,
    negated, scaled, compared and hashed as term maps.  Instances are
    immutable by convention; the hash is cached on first use.
    """

    __slots__ = ("dim", "terms", "_hash")

    @classmethod
    def from_terms(cls, dim: int, terms: dict):
        """Instance owning ``terms``, which must already be a valid term map on R^dim."""
        out = object.__new__(cls)
        out.dim = dim
        out.terms = terms
        return out

    @classmethod
    def zero(cls, dim: int):
        return cls.from_terms(dim, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_same_dim(self, other: "_TermMap") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_same_dim(other)
        return self.from_terms(self.dim, _accumulate(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.from_terms(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """Scalar multiple by an int or a Fraction."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = as_coefficient(other)
        return self.from_terms(self.dim, {k: c * v for k, v in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def evaluate(self, point: Sequence):
        """Exact value at a rational point."""
        return self._evaluate(as_point(point, self.dim))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
            return self._hash

    def __str__(self) -> str:
        return self.format()


class Polynomial(_TermMap):
    """Sparse polynomial in ``dim`` variables with rational coefficients.

    ``terms`` maps exponent vectors (length ``dim``) to nonzero coefficients;
    the zero polynomial has an empty term map.
    """

    __slots__ = ()

    def __init__(self, dim: int, terms: Mapping[Exponents, Fraction] | None = None):
        if dim < 1:
            raise ValueError("polynomial dimension must be at least 1")

        def exponents(exps) -> Exponents:
            e = as_integers(exps, "exponents")
            if len(e) != dim:
                raise ValueError(f"exponent vector {e} does not have length {dim}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            return e

        self.dim = dim
        self.terms = _accumulate((exponents(e), as_coefficient(c)) for e, c in (terms or {}).items())

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exps = [0] * dim
        exps[index] = 1
        return cls(dim, {tuple(exps): 1})

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return super().__mul__(other)
        self._check_same_dim(other)
        other_terms = other.terms.items()
        pairs = ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in other_terms)
        return Polynomial.from_terms(self.dim, _accumulate(pairs))

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Polynomial.constant(self.dim, 1)
        for _ in range(power):
            result = result * self
        return result

    def _evaluate(self, pt: Point) -> Fraction:
        """Exact value at ``pt``, which must already be a point of Fractions."""
        return _values(pt, (((0, e), c) for e, c in self.terms.items()), 1)[0]

    def evaluate_float(self, point: Sequence[float]) -> float:
        if len(point) != self.dim:
            raise ValueError(f"expected a point of dimension {self.dim}")
        total = 0.0
        for e, c in self.terms.items():
            val = float(c)
            for x, k in zip(point, e):
                if k:
                    val *= float(x) ** k
            total += val
        return total

    def affine_substituted(
        self, offsets: Sequence, slopes: Sequence, targets: Sequence[int], dim: int
    ) -> "Polynomial":
        """Substitute x_j -> offsets[j] + slopes[j] * y_targets[j] for all j.

        The result is a polynomial in ``dim`` variables y.  Each power
        (a + b y)^k that occurs is expanded once, by the binomial theorem.
        """
        offs, scales = ([as_coefficient(x) for x in as_point(v, self.dim)] for v in (offsets, slopes))
        targets = tuple(targets)
        if len(targets) != self.dim or not all(0 <= t < dim for t in targets):
            raise ValueError(f"expected {self.dim} target indices in range({dim})")

        @cache
        def expansion(j: int, k: int) -> list[tuple[int, Fraction]]:
            a_pows = list(accumulate(repeat(offs[j], k), mul, initial=1))
            b_pows = list(accumulate(repeat(scales[j], k), mul, initial=1))
            binoms = accumulate(range(k), lambda m, i: m * (k - i) // (i + 1), initial=1)
            return [(i, c) for i, m in enumerate(binoms) if (c := m * b_pows[i] * a_pows[k - i])]

        def image(e: Exponents, c: Fraction) -> Iterable[tuple[Exponents, Fraction]]:
            part = {(0,) * dim: c}
            for j, k in enumerate(e):
                if k:
                    t = targets[j]
                    part = _accumulate(
                        (y[:t] + (y[t] + i,) + y[t + 1 :], v * b)
                        for y, v in part.items()
                        for i, b in expansion(j, k)
                    )
            return part.items()

        pairs = chain.from_iterable(image(e, c) for e, c in self.terms.items())
        return Polynomial.from_terms(dim, _accumulate(pairs))

    def shifted(self, offsets: Sequence) -> "Polynomial":
        """Substitute x_j -> x_j + offsets[j]."""
        offs = as_point(offsets, self.dim)
        if all(c == 0 for c in offs):
            return self
        return self.affine_substituted(offs, [1] * self.dim, range(self.dim), self.dim)

    def format(self, names: Sequence[str] | None = None) -> str:
        """Terms in descending graded lexicographic order, e.g. 'x^2 + y - 3'."""
        names = list(names) if names is not None else [f"x{i+1}" for i in range(self.dim)]
        order = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        return _signed_sum(((c, _monomial_factors(names, e)) for e, c in order), "-")

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, {self.format()!r})"


class VectorField(_TermMap):
    """Polynomial vector field on R^dim.

    ``terms`` maps ``(j, exponents)`` to the nonzero coefficient of
    x^exponents d/dx_j; it is also the sparse vector that ``SpanBasis``
    reduces.  ``components`` (component j multiplies d/dx_j) is derived.
    ``support`` is the pair of bitmasks (dir, var): bit j of dir is set when
    the field has a component along d/dx_j, bit i of var when a coefficient
    depends on x_i.  :func:`commute_by_support` and the pair index of
    :meth:`ars.liealg.LieBasis.from_span` read them to skip brackets that
    vanish for want of overlap.  Both are computed on first use.
    """

    __slots__ = ("_components", "_support")

    def __init__(self, components: Sequence[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        dim = comps[0].dim
        if len(comps) != dim or any(c.dim != dim for c in comps):
            raise ValueError("component count and dimensions must all match")
        self.dim = dim
        self.terms = {(j, e): c for j, comp in enumerate(comps) for e, c in comp.terms.items()}
        self._components = comps

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "VectorField":
        """The coordinate field d/dx_index."""
        if not 0 <= index < dim:
            raise ValueError(f"coordinate index {index} out of range for dim {dim}")
        return cls.from_terms(dim, {(index, (0,) * dim): 1})

    @property
    def components(self) -> tuple[Polynomial, ...]:
        try:
            return self._components
        except AttributeError:
            per: list[dict] = [{} for _ in range(self.dim)]
            for (j, e), c in self.terms.items():
                per[j][e] = c
            self._components = tuple(Polynomial.from_terms(self.dim, t) for t in per)
            return self._components

    @property
    def support(self) -> tuple[int, int]:
        """Bitmasks (dir, var) of the directions and the variables of the field."""
        try:
            return self._support
        except AttributeError:
            directions = 0
            for j, _ in self.terms:
                directions |= 1 << j
            self._support = (directions, variables_mask(e for _, e in self.terms))
            return self._support

    def _evaluate(self, pt: Point) -> Point:
        """Exact value at ``pt``, which must already be a point of Fractions; one pass over ``terms``."""
        return tuple(_values(pt, self.terms.items(), self.dim))

    def evaluate_float(self, point: Sequence[float]) -> tuple[float, ...]:
        return tuple(c.evaluate_float(point) for c in self.components)

    def total_degree(self) -> int:
        """Maximum total degree over all components; -1 for the zero field."""
        return max((sum(e) for _, e in self.terms), default=-1)

    def shifted(self, offsets: Sequence) -> "VectorField":
        return VectorField([c.shifted(offsets) for c in self.components])

    def format(self, names: Sequence[str] | None = None) -> str:
        """Expression in the frame description language, e.g. 'x d/dy'.

        Terms are ordered by component, then in descending graded lexicographic order.
        """
        names = list(names) if names is not None else [f"x{i+1}" for i in range(self.dim)]
        order = sorted(self.terms.items(), key=lambda t: (-t[0][0], *_grlex_key(t[0][1])), reverse=True)
        return _signed_sum(((c, [*_monomial_factors(names, e), f"d/d{names[j]}"]) for (j, e), c in order), "- ")

    def __repr__(self) -> str:
        return f"VectorField({self.format()!r})"


class Frame:
    """An orthonormal frame candidate: n fields on R^n with a base point."""

    __slots__ = ("dim", "var_names", "fields", "base_point")

    def __init__(
        self,
        var_names: Sequence[str],
        fields: Sequence[VectorField],
        base_point: Sequence | None = None,
    ):
        names = tuple(var_names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        dim = len(names)
        flds = tuple(fields)
        if len(flds) != dim:
            raise ValueError(f"a frame on R^{dim} needs exactly {dim} fields, got {len(flds)}")
        if any(f.dim != dim for f in flds):
            raise ValueError("all fields must share the frame dimension")
        self.dim = dim
        self.var_names = names
        self.fields = flds
        if base_point is None:
            self.base_point = tuple(Fraction(0) for _ in range(dim))
        else:
            self.base_point = as_point(base_point, dim)

    def translated_to_origin(self) -> "Frame":
        """Re-center coordinates so the base point becomes the origin."""
        if all(c == 0 for c in self.base_point):
            return self
        fields = [f.shifted(self.base_point) for f in self.fields]
        return Frame(self.var_names, fields, [0] * self.dim)

    def max_component_degree(self) -> int:
        return max(f.total_degree() for f in self.fields)

    def __repr__(self) -> str:
        return f"Frame(vars={self.var_names}, fields={[f.format(self.var_names) for f in self.fields]})"


def variables_mask(exponents: Iterable[Exponents]) -> int:
    """Bitmask of the variables that occur in the given monomials."""
    mask = 0
    for e in exponents:
        for i, k in enumerate(e):
            if k:
                mask |= 1 << i
    return mask


def mask_bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first: the coordinates that a support mask names."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _applied(X: VectorField, terms: Iterable[tuple[tuple[int, Exponents], Fraction]], negate: bool = False):
    """Unsummed pairs ``((j, e), c)`` of X, or -X when ``negate``, applied to each term ``((j, f), a)``.

    X(a x^f) is the sum over X's terms (i, g) -> b of a b f_i x^(f + g - unit_i);
    the tag j passes through.
    """
    lowered = [(i, g[:i] + (g[i] - 1,) + g[i + 1 :], -b if negate else b) for (i, g), b in X.terms.items()]
    for (j, f), a in terms:
        for i, g, b in lowered:
            k = f[i]
            if k:
                yield (j, tuple(map(add, g, f))), a * b * k


def vf_apply(X: VectorField, f: Polynomial | VectorField) -> Polynomial | VectorField:
    """Directional derivative Xf = sum_j X_j df/dx_j, of a polynomial or of each component of a field."""
    if X.dim != f.dim:
        raise ValueError(f"dimension mismatch: {X.dim} vs {f.dim}")
    if isinstance(f, VectorField):
        return VectorField.from_terms(f.dim, _accumulate(_applied(X, f.terms.items())))
    pairs = _applied(X, (((0, e), c) for e, c in f.terms.items()))
    return Polynomial.from_terms(f.dim, {e: c for (_, e), c in _accumulate(pairs).items()})


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y]; component j is X(Y_j) - Y(X_j)."""
    if X.dim != Y.dim:
        raise ValueError(f"dimension mismatch: {X.dim} vs {Y.dim}")
    pairs = chain(_applied(X, Y.terms.items()), _applied(Y, X.terms.items(), negate=True))
    return VectorField.from_terms(X.dim, _accumulate(pairs))


def commute_by_support(X: VectorField, Y: VectorField) -> bool:
    """True when [X, Y] = 0 follows from the supports alone.

    [X, Y]_j = X(Y_j) - Y(X_j), and X(Y_j) vanishes unless X has a direction
    that Y's coefficients depend on.  So dir(X) & var(Y) = dir(Y) & var(X) = 0
    forces [X, Y] = 0; a False answer says nothing.
    """
    (dx, vx), (dy, vy) = X.support, Y.support
    return not (dx & vy or dy & vx)


def linear_combination(pairs: Iterable[tuple[Fraction, VectorField]], dim: int) -> VectorField:
    """The field sum c X over the pairs (c, X) on R^dim, summed in one pass; zero c are skipped."""
    return VectorField.from_terms(dim, _accumulate((key, c * a) for c, X in pairs if c for key, a in X.terms.items()))


def frame_rank_at(fields: Sequence[VectorField], point: Sequence) -> int:
    """Rank over Q of the evaluated fields at a point."""
    if not fields:
        return 0
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise ValueError("all fields must share a dimension")
    pt = as_point(point, dim)
    from . import linalg

    return linalg.rank([f._evaluate(pt) for f in fields])
