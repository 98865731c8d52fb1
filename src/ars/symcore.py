"""Exact multivariate polynomials over Q and polynomial vector fields.

All coefficients are ``fractions.Fraction``; no floating point enters any
computation in this module.  Polynomials are sparse maps from exponent
vectors to nonzero coefficients, canonically ordered by graded
lexicographic comparison for printing and hashing.  A vector field is one
sparse map from (component, exponents) to nonzero coefficients.
"""

from __future__ import annotations

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


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '1/2' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_point(values: Sequence, dim: int) -> Point:
    pt = tuple(as_fraction(v) for v in values)
    if len(pt) != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {len(pt)}")
    return pt


def max_degree_cap() -> int:
    """Safety cap on polynomial total degree, from ARS_MAX_DEGREE."""
    return int(os.environ.get("ARS_MAX_DEGREE", "64"))


def _grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


def _accumulate(pairs: Iterable[tuple[Hashable, Fraction]]) -> dict:
    """Sum the values of equal keys, kept in first-seen order; zero sums are dropped."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            out[key] += value
        else:
            out[key] = value
    return {k: v for k, v in out.items() if v}


class Polynomial:
    """Sparse polynomial in ``dim`` variables with rational coefficients.

    ``terms`` maps exponent vectors (length ``dim``) to nonzero Fractions;
    the zero polynomial has an empty term map.  Instances are immutable by
    convention and hashable.
    """

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[Exponents, Fraction] | None = None):
        if dim < 1:
            raise ValueError("polynomial dimension must be at least 1")

        def exponents(exps) -> Exponents:
            e = tuple(int(x) for x in exps)
            if len(e) != dim:
                raise ValueError(f"exponent vector {e} does not have length {dim}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            return e

        self.dim = dim
        self.terms = _accumulate((exponents(e), as_fraction(c)) for e, c in (terms or {}).items())
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "Polynomial":
        """Polynomial owning ``terms``, which must already be a valid term map."""
        out = cls.__new__(cls)
        out.dim = dim
        out.terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: as_fraction(value)})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exps = [0] * dim
        exps[index] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], coef=1) -> "Polynomial":
        return cls(dim, {tuple(exps): as_fraction(coef)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check_same_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_dim(other)
        return Polynomial._trusted(self.dim, _accumulate(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return Polynomial.zero(self.dim)
            return Polynomial._trusted(self.dim, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_dim(other)
        other_terms = other.terms.items()
        pairs = ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in other_terms)
        return Polynomial._trusted(self.dim, _accumulate(pairs))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Polynomial.constant(self.dim, 1)
        for _ in range(power):
            result = result * self
        return result

    def diff(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.dim:
            raise ValueError(f"variable index {index} out of range")
        # distinct monomials stay distinct, so nothing is summed or cancels
        i = index
        terms = {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self.terms.items() if e[i]}
        return Polynomial._trusted(self.dim, terms)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        pt = as_point(point, self.dim)
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for x, k in zip(pt, e):
                if k:
                    val *= x**k
            total += val
        return total

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
        offs, scales, targets = as_point(offsets, self.dim), as_point(slopes, self.dim), tuple(targets)
        if len(targets) != self.dim or not all(0 <= t < dim for t in targets):
            raise ValueError(f"expected {self.dim} target indices in range({dim})")

        @cache
        def expansion(j: int, k: int) -> list[tuple[int, Fraction]]:
            a_pows = list(accumulate(repeat(offs[j], k), mul, initial=Fraction(1)))
            b_pows = list(accumulate(repeat(scales[j], k), mul, initial=Fraction(1)))
            binoms = accumulate(range(k), lambda m, i: m * (k - i) // (i + 1), initial=1)
            return [(i, c) for i, m in enumerate(binoms) if (c := m * a_pows[k - i] * b_pows[i])]

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
        return Polynomial._trusted(dim, _accumulate(pairs))

    def shifted(self, offsets: Sequence) -> "Polynomial":
        """Substitute x_j -> x_j + offsets[j]."""
        offs = as_point(offsets, self.dim)
        if all(c == 0 for c in offs):
            return self
        return self.affine_substituted(offs, [1] * self.dim, range(self.dim), self.dim)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def format(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        names = list(names) if names is not None else [f"x{i+1}" for i in range(self.dim)]
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = " ".join(factors)
            else:
                body = str(abs(c)) + " " + " ".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, {self.format()!r})"


class VectorField:
    """Polynomial vector field on R^dim.

    ``terms`` maps ``(j, exponents)`` to the nonzero coefficient of
    x^exponents d/dx_j; it is also the sparse vector that ``SpanBasis``
    reduces.  ``components`` (component j multiplies d/dx_j) is derived.
    """

    # _rk4_step: the field's compiled RK4 step, built by flows.rk4_flow on first use
    __slots__ = ("dim", "terms", "_components", "_hash", "_rk4_step")

    def __init__(self, components: Sequence[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        dim = comps[0].dim
        if len(comps) != dim or any(c.dim != dim for c in comps):
            raise ValueError("component count and dimensions must all match")
        self.dim = dim
        self.terms = {(j, e): c for j, comp in enumerate(comps) for e, c in comp.terms.items()}
        self._components: tuple[Polynomial, ...] | None = comps
        self._hash: int | None = None
        self._rk4_step = None

    @classmethod
    def from_terms(cls, dim: int, terms: dict) -> "VectorField":
        """Field owning ``terms``, which must already be a valid term map on R^dim."""
        X = cls.__new__(cls)
        X.dim = dim
        X.terms = terms
        X._components = None
        X._hash = None
        X._rk4_step = None
        return X

    @classmethod
    def zero(cls, dim: int) -> "VectorField":
        return cls.from_terms(dim, {})

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "VectorField":
        """The coordinate field d/dx_index."""
        if not 0 <= index < dim:
            raise ValueError(f"coordinate index {index} out of range for dim {dim}")
        return cls.from_terms(dim, {(index, (0,) * dim): Fraction(1)})

    @property
    def components(self) -> tuple[Polynomial, ...]:
        if self._components is None:
            per: list[dict] = [{} for _ in range(self.dim)]
            for (j, e), c in self.terms.items():
                per[j][e] = c
            self._components = tuple(Polynomial._trusted(self.dim, t) for t in per)
        return self._components

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return VectorField.from_terms(self.dim, _accumulate(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return VectorField.from_terms(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return VectorField.zero(self.dim)
            return VectorField.from_terms(self.dim, {k: c * v for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, point: Sequence) -> Point:
        pt = as_point(point, self.dim)
        return tuple(c.evaluate(pt) for c in self.components)

    def evaluate_float(self, point: Sequence[float]) -> tuple[float, ...]:
        return tuple(c.evaluate_float(point) for c in self.components)

    def total_degree(self) -> int:
        """Maximum total degree over all components; -1 for the zero field."""
        return max((sum(e) for _, e in self.terms), default=-1)

    def shifted(self, offsets: Sequence) -> "VectorField":
        return VectorField([c.shifted(offsets) for c in self.components])

    def format(self, names: Sequence[str] | None = None) -> str:
        """Expression in the frame description language, e.g. 'x d/dy'."""
        if self.is_zero:
            return "0"
        names = list(names) if names is not None else [f"x{i+1}" for i in range(self.dim)]
        parts = []
        for j, comp in enumerate(self.components):
            for e, c in comp.sorted_terms():
                factors = []
                for name, k in zip(names, e):
                    if k == 1:
                        factors.append(name)
                    elif k > 1:
                        factors.append(f"{name}^{k}")
                body = ""
                if abs(c) != 1 or not factors:
                    if abs(c) != 1:
                        body = str(abs(c)) + " "
                if factors:
                    body += " ".join(factors) + " "
                body += f"d/d{names[j]}"
                if not parts:
                    parts.append(("- " if c < 0 else "") + body)
                else:
                    parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        return self.format()

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


def _applied(X: VectorField, terms: Iterable[tuple[tuple[int, Exponents], Fraction]], sign: int = 1):
    """Unsummed pairs ``((j, e), c)`` of sign * X applied to each term ``((j, f), a)``.

    X(a x^f) is the sum over X's terms (i, g) -> b of a b f_i x^(f + g - unit_i);
    the tag j passes through.
    """
    lowered = [(i, g[:i] + (g[i] - 1,) + g[i + 1 :], sign * b) for (i, g), b in X.terms.items()]
    for (j, f), a in terms:
        for i, g, b in lowered:
            k = f[i]
            if k:
                yield (j, tuple(map(add, g, f))), a * b * k


def vf_apply(X: VectorField, f: Polynomial) -> Polynomial:
    """Directional derivative Xf = sum_j X_j df/dx_j."""
    if X.dim != f.dim:
        raise ValueError(f"dimension mismatch: field {X.dim} vs polynomial {f.dim}")
    pairs = _applied(X, (((0, e), c) for e, c in f.terms.items()))
    return Polynomial._trusted(f.dim, {e: c for (_, e), c in _accumulate(pairs).items()})


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y]; component j is X(Y_j) - Y(X_j)."""
    if X.dim != Y.dim:
        raise ValueError(f"dimension mismatch: {X.dim} vs {Y.dim}")
    pairs = chain(_applied(X, Y.terms.items()), _applied(Y, X.terms.items(), -1))
    return VectorField.from_terms(X.dim, _accumulate(pairs))


def vf_eval(X: VectorField, point: Sequence) -> Point:
    """Exact evaluation of X at a rational point."""
    if len(point) != X.dim:
        raise ValueError(f"dimension mismatch: field {X.dim} vs point {len(point)}")
    return X.evaluate(point)


def frame_rank_at(fields: Sequence[VectorField], point: Sequence) -> int:
    """Rank over Q of the evaluated fields at a point."""
    if not fields:
        return 0
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise ValueError("all fields must share a dimension")
    pt = as_point(point, dim)
    from . import linalg

    return linalg.rank([f.evaluate(pt) for f in fields])
