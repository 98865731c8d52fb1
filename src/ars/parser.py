"""Parser and printer for the frame description language.

A document declares variables, then one field per line as a sum of terms;
each term is an optional rational coefficient, monomial factors, and a
coordinate derivative.  Whitespace separates factors, '#' starts a comment::

    vars x y z
    field X1 = d/dx
    field X2 = x d/dy
    field X3 = y^2 d/dz
    # optional:
    weights 1 2 5
    point 0 0 0

Parsing normalizes everything down to exact polynomial coefficients per
coordinate derivative; printing emits the same grammar, so a document
round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .symcore import ArsError, Frame, VectorField, as_coefficient

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_MONOMIAL = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(\^(\d+))?$")
_DERIVATIVE = re.compile(r"^d/d([A-Za-z_][A-Za-z_0-9]*)$")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


class ParseError(ArsError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class FrameDocument:
    var_names: tuple[str, ...]
    field_names: tuple[str, ...]
    fields: tuple[VectorField, ...]
    weights: tuple[int, ...] | None = None
    base_point: tuple[Fraction, ...] | None = None

    def to_frame(self) -> Frame:
        return Frame(self.var_names, self.fields, self.base_point)


def _tokenize(line: str) -> list[tuple[str, int]]:
    tokens = []
    for match in re.finditer(r"\S+", line):
        tokens.append((match.group(), match.start() + 1))
    return tokens


def parse_frame(text: str) -> FrameDocument:
    """Parse a frame document; raises ParseError with line and column."""
    var_names: list[str] | None = None
    field_names: list[str] = []
    fields: list[VectorField] = []
    weights: list[int] | None = None
    base_point: list[Fraction] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        head, col = tokens[0]
        if head == "vars":
            if var_names is not None:
                raise ParseError("duplicate vars line", lineno, col)
            if len(tokens) < 2:
                raise ParseError("vars line needs at least one variable", lineno, col)
            names = []
            for tok, tcol in tokens[1:]:
                if not _IDENT.match(tok):
                    raise ParseError(f"invalid variable name {tok!r}", lineno, tcol)
                if tok in names:
                    raise ParseError(f"duplicate variable {tok!r}", lineno, tcol)
                names.append(tok)
            var_names = names
        elif head == "field":
            if var_names is None:
                raise ParseError("field line before vars line", lineno, col)
            if len(tokens) < 4 or tokens[2][0] != "=":
                raise ParseError("expected 'field NAME = expression'", lineno, col)
            name, ncol = tokens[1]
            if not _IDENT.match(name):
                raise ParseError(f"invalid field name {name!r}", lineno, ncol)
            if name in field_names:
                raise ParseError(f"duplicate field {name!r}", lineno, ncol)
            field_names.append(name)
            fields.append(_parse_expression(tokens[3:], var_names, lineno))
        elif head == "weights":
            if weights is not None:
                raise ParseError("duplicate weights line", lineno, col)
            weights = []
            for tok, tcol in tokens[1:]:
                # isdecimal, not isdigit: int() refuses digits such as '²'
                if not tok.isdecimal() or int(tok) < 1:
                    raise ParseError(f"weights must be positive integers, got {tok!r}", lineno, tcol)
                weights.append(int(tok))
        elif head == "point":
            if base_point is not None:
                raise ParseError("duplicate point line", lineno, col)
            base_point = []
            for tok, tcol in tokens[1:]:
                if not _RATIONAL.match(tok):
                    raise ParseError(f"point entries must be rationals, got {tok!r}", lineno, tcol)
                base_point.append(_rational(tok, lineno, tcol))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col)

    if var_names is None:
        raise ParseError("missing vars line", 1, 1)
    n = len(var_names)
    if len(fields) != n:
        raise ParseError(
            f"field count {len(fields)} does not match variable count {n}", 1, 1
        )
    if weights is not None and len(weights) != n:
        raise ParseError(f"weights line must list {n} entries", 1, 1)
    if base_point is not None and len(base_point) != n:
        raise ParseError(f"point line must list {n} entries", 1, 1)
    return FrameDocument(
        var_names=tuple(var_names),
        field_names=tuple(field_names),
        fields=tuple(fields),
        weights=tuple(weights) if weights is not None else None,
        base_point=tuple(base_point) if base_point is not None else None,
    )


def _rational(tok: str, lineno: int, tcol: int) -> Fraction:
    """The value of a token that matches _RATIONAL; a zero denominator is a ParseError."""
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok!r}", lineno, tcol) from None


def _split_signs(tokens):
    """Tokens with a sign glued to a monomial, as in '-x^2', split into the sign and the monomial."""
    for tok, tcol in tokens:
        if tok[0] in "+-" and _MONOMIAL.match(tok[1:]):
            yield tok[0], tcol
            yield tok[1:], tcol + 1
        else:
            yield tok, tcol


def _parse_expression(tokens, var_names: list[str], lineno: int) -> VectorField:
    n = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    if len(tokens) == 1 and tokens[0][0] == "0":
        return VectorField.zero(n)

    terms: dict = {}
    sign = 1
    coef: int | Fraction | None = None
    exps = [0] * n
    has_factor = False
    started = False

    def flush(var: str, tcol: int) -> None:
        nonlocal sign, coef, exps, has_factor, started
        if var not in index:
            raise ParseError(f"undeclared variable {var!r}", lineno, tcol)
        key = (index[var], tuple(exps))
        terms[key] = terms.get(key, 0) + sign * (coef if coef is not None else 1)
        sign = 1
        coef = None
        exps = [0] * n
        has_factor = False
        started = False

    for tok, tcol in _split_signs(tokens):
        if tok in ("+", "-"):
            if started:
                raise ParseError("unexpected sign inside a term", lineno, tcol)
            if tok == "-":
                sign = -sign
            started = False
            continue
        deriv = _DERIVATIVE.match(tok)
        if deriv:
            flush(deriv.group(1), tcol)
            continue
        if _RATIONAL.match(tok):
            if coef is not None or has_factor:
                raise ParseError("coefficient must come first in a term", lineno, tcol)
            coef = as_coefficient(_rational(tok, lineno, tcol))
            started = True
            continue
        mono = _MONOMIAL.match(tok)
        if mono:
            name = mono.group(1)
            if name not in index:
                raise ParseError(f"undeclared variable {name!r}", lineno, tcol)
            power = int(mono.group(3)) if mono.group(3) else 1
            exps[index[name]] += power
            has_factor = True
            started = True
            continue
        if re.match(r"^[+-]?\d*\.\d+$", tok):
            raise ParseError(
                f"non-rational literal {tok!r}: write an exact fraction like p/q", lineno, tcol
            )
        raise ParseError(f"unexpected token {tok!r}", lineno, tcol)

    if started or coef is not None or has_factor:
        raise ParseError("dangling term without a derivative", lineno, 1)
    return VectorField.from_terms(n, {key: c for key, c in terms.items() if c})


def print_frame(doc: FrameDocument) -> str:
    """Canonical text for a document; parse(print(doc)) == doc."""
    lines = ["vars " + " ".join(doc.var_names)]
    for name, field in zip(doc.field_names, doc.fields):
        lines.append(f"field {name} = " + field.format(doc.var_names))
    if doc.weights is not None:
        lines.append("weights " + " ".join(str(w) for w in doc.weights))
    if doc.base_point is not None:
        lines.append("point " + " ".join(str(c) for c in doc.base_point))
    return "\n".join(lines) + "\n"
