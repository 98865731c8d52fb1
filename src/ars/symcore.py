"""Exact multivariate polynomials over Q and polynomial vector fields.

All coefficients are ``fractions.Fraction``; no floating point enters any
computation in this module.  Polynomials are sparse maps from exponent
vectors to nonzero coefficients, canonically ordered by graded
lexicographic comparison for printing and hashing.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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
        clean: dict[Exponents, Fraction] = {}
        for exps, coef in (terms or {}).items():
            e = tuple(int(x) for x in exps)
            if len(e) != dim:
                raise ValueError(f"exponent vector {e} does not have length {dim}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = as_fraction(coef)
            if c != 0:
                acc = clean.get(e, Fraction(0)) + c
                if acc == 0:
                    clean.pop(e, None)
                else:
                    clean[e] = acc
        self.dim = dim
        self.terms = clean
        self._hash: int | None = None

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, Fraction(0)) + c
            if acc == 0:
                terms.pop(e, None)
            else:
                terms[e] = acc
        out = Polynomial.zero(self.dim)
        out.terms = terms
        return out

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = Polynomial.zero(self.dim)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return Polynomial.zero(self.dim)
            out = Polynomial.zero(self.dim)
            out.terms = {e: c * v for e, v in self.terms.items()}
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_dim(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(e, Fraction(0)) + c1 * c2
                if acc == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = acc
        out = Polynomial.zero(self.dim)
        out.terms = terms
        return out

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
        terms: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            ne = list(e)
            ne[index] = k - 1
            key = tuple(ne)
            acc = terms.get(key, Fraction(0)) + c * k
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
        out = Polynomial.zero(self.dim)
        out.terms = terms
        return out

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

    def shifted(self, offsets: Sequence) -> "Polynomial":
        """Substitute x_j -> x_j + offsets[j]."""
        offs = as_point(offsets, self.dim)
        if all(c == 0 for c in offs):
            return self
        result = Polynomial.zero(self.dim)
        for e, c in self.terms.items():
            part = Polynomial.constant(self.dim, c)
            for j, k in enumerate(e):
                if k:
                    base = Polynomial.variable(self.dim, j) + Polynomial.constant(self.dim, offs[j])
                    part = part * base**k
            result = result + part
        return result

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
    """Polynomial vector field: component j multiplies d/dx_j."""

    # _rk4_step: the field's compiled RK4 step, built by flows.rk4_flow on first use
    __slots__ = ("dim", "components", "_hash", "_rk4_step")

    def __init__(self, components: Sequence[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        dim = comps[0].dim
        if len(comps) != dim or any(c.dim != dim for c in comps):
            raise ValueError("component count and dimensions must all match")
        self.dim = dim
        self.components = comps
        self._hash: int | None = None
        self._rk4_step = None

    @classmethod
    def zero(cls, dim: int) -> "VectorField":
        return cls([Polynomial.zero(dim) for _ in range(dim)])

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "VectorField":
        """The coordinate field d/dx_index."""
        comps = [Polynomial.zero(dim) for _ in range(dim)]
        comps[index] = Polynomial.constant(dim, 1)
        return cls(comps)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return VectorField([-c for c in self.components])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return VectorField([c * as_fraction(other) for c in self.components])
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, point: Sequence) -> Point:
        pt = as_point(point, self.dim)
        return tuple(c.evaluate(pt) for c in self.components)

    def evaluate_float(self, point: Sequence[float]) -> tuple[float, ...]:
        return tuple(c.evaluate_float(point) for c in self.components)

    def total_degree(self) -> int:
        return max(c.total_degree() for c in self.components)

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
        return self.dim == other.dim and self.components == other.components

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, self.components))
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


def vf_apply(X: VectorField, f: Polynomial) -> Polynomial:
    """Directional derivative Xf = sum_j X_j df/dx_j."""
    if X.dim != f.dim:
        raise ValueError(f"dimension mismatch: field {X.dim} vs polynomial {f.dim}")
    result = Polynomial.zero(f.dim)
    for j, comp in enumerate(X.components):
        if not comp.is_zero:
            result = result + comp * f.diff(j)
    return result


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y]; component j is X(Y_j) - Y(X_j)."""
    if X.dim != Y.dim:
        raise ValueError(f"dimension mismatch: {X.dim} vs {Y.dim}")
    return VectorField(
        [vf_apply(X, Yj) - vf_apply(Y, Xj) for Xj, Yj in zip(X.components, Y.components)]
    )


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


def field_to_vec(X: VectorField) -> dict:
    """Flatten a field to a sparse vector keyed by (component, exponents)."""
    vec = {}
    for j, comp in enumerate(X.components):
        for e, c in comp.terms.items():
            vec[(j, e)] = c
    return vec


def vec_to_field(dim: int, vec: Mapping) -> VectorField:
    comps = [dict() for _ in range(dim)]
    for (j, e), c in vec.items():
        comps[j][e] = c
    return VectorField([Polynomial(dim, t) for t in comps])


def fields_independent(fields: Iterable[VectorField]) -> bool:
    """Linear independence over Q as vector fields."""
    from .linalg import SpanBasis

    span = SpanBasis()
    for f in fields:
        if not span.insert(field_to_vec(f)):
            return False
    return True
