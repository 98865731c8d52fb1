from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ars.parser import FrameDocument, ParseError, parse_frame, print_frame
from ars.symcore import Polynomial, VectorField


def var(dim, j):
    return Polynomial.variable(dim, j)


def only_component(dim, j, poly):
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    comps[j] = poly
    return VectorField(comps)


def test_parse_e1(e1_doc):
    assert e1_doc.var_names == ("x", "y", "z")
    assert e1_doc.field_names == ("X1", "X2", "X3")
    assert e1_doc.fields[0] == VectorField.coordinate(3, 0)
    assert e1_doc.fields[1] == only_component(3, 1, var(3, 0))
    assert e1_doc.fields[2] == only_component(3, 2, var(3, 1) ** 2)


def test_parse_exact_half_coefficient(e2_doc):
    X4 = e2_doc.fields[3]
    assert X4 == only_component(4, 2, var(4, 0)) + only_component(
        4, 3, Fraction(1, 2) * var(4, 1) ** 2
    )


def test_parse_weights_and_point():
    doc = parse_frame(
        "vars x y\nfield A = d/dx\nfield B = x d/dy\nweights 1 2\npoint 0 1/2\n"
    )
    assert doc.weights == (1, 2)
    assert doc.base_point == (Fraction(0), Fraction(1, 2))


def test_parse_comments_and_blank_lines():
    doc = parse_frame(
        "# a frame\nvars x y\n\nfield A = d/dx  # identity direction\nfield B = x d/dy\n"
    )
    assert doc.field_names == ("A", "B")


def test_parse_negative_terms():
    doc = parse_frame("vars x y\nfield A = d/dx - x d/dy\nfield B = -1/3 d/dy\n")
    assert doc.fields[0] == VectorField.coordinate(2, 0) - only_component(2, 1, var(2, 0))
    assert doc.fields[1] == only_component(2, 1, Polynomial.constant(2, Fraction(-1, 3)))


@pytest.mark.parametrize(
    "expression, coefficient, exponents",
    [("-x d/dy", -1, (1, 0)), ("-x^2 y d/dy", -1, (2, 1)), ("d/dx -x d/dy", -1, (1, 0)), ("d/dx +y d/dy", 1, (0, 1))],
)
def test_sign_glued_to_a_monomial(expression, coefficient, exponents):
    doc = parse_frame(f"vars x y\nfield A = d/dx\nfield B = {expression}\n")
    expected = only_component(2, 1, Polynomial(2, {exponents: coefficient}))
    if expression.startswith("d/dx"):
        expected = VectorField.coordinate(2, 0) + expected
    assert doc.fields[1] == expected
    # a glued sign reads as a separate one
    spaced = expression.replace("-", "- ").replace("+", "+ ")
    assert doc == parse_frame(f"vars x y\nfield A = d/dx\nfield B = {spaced}\n")


def test_glued_sign_inside_a_term_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_frame("vars x y\nfield A = d/dx\nfield B = 2 -x d/dy\n")
    assert "sign inside a term" in str(err.value)
    assert (err.value.line, err.value.column) == (3, 13)


def test_undeclared_variable_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_frame("vars x\nfield X1 = d/dy\n")
    assert "undeclared" in str(err.value)
    assert err.value.line == 2


def test_field_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_frame("vars x y\nfield X1 = d/dx\n")
    assert "field count" in str(err.value)


def test_bad_rational_literal():
    with pytest.raises(ParseError):
        parse_frame("vars x\nfield X1 = 1.5 d/dx\n")


@pytest.mark.parametrize(
    ("text", "message", "position"),
    [
        ("vars x y\nfield A = d/dx\nfield B = x d/dy\nweights 1 \u00b2\n",
         "weights must be positive integers, got '\u00b2'", (4, 11)),
        ("vars x y\nfield A = d/dx\nfield B = x d/dy\npoint 0 1/0\n", "zero denominator in '1/0'", (4, 9)),
        ("vars x y\nfield A = 1/0 d/dx\nfield B = x d/dy\n", "zero denominator in '1/0'", (2, 11)),
    ],
    ids=["superscript_weight", "point_zero_denominator", "coefficient_zero_denominator"],
)
def test_literals_that_int_or_fraction_refuse_are_parse_errors(text, message, position):
    # each once escaped the parser as a ValueError or a ZeroDivisionError
    with pytest.raises(ParseError) as err:
        parse_frame(text)
    assert (err.value.line, err.value.column) == position
    assert str(err.value) == f"line {position[0]}, column {position[1]}: {message}"


def test_bad_token_reports_position():
    with pytest.raises(ParseError) as err:
        parse_frame("vars x\nfield X1 = ??? d/dx\n")
    assert err.value.line == 2
    assert err.value.column == 12


def test_duplicate_variable():
    with pytest.raises(ParseError):
        parse_frame("vars x x\nfield A = d/dx\nfield B = d/dx\n")


def test_dangling_term():
    with pytest.raises(ParseError):
        parse_frame("vars x\nfield X1 = 2 x\n")


def test_zero_field_round_trip():
    doc = parse_frame("vars x\nfield X1 = 0\n")
    assert doc.fields[0].is_zero
    assert parse_frame(print_frame(doc)) == doc


def test_print_parse_round_trip_fixtures(e1_doc, e2_doc, e3_doc):
    for doc in (e1_doc, e2_doc, e3_doc):
        assert parse_frame(print_frame(doc)) == doc


def test_print_is_canonical(e2_doc):
    # same document, different whitespace and term order
    other = parse_frame(
        "vars x y z w\n"
        "field X1 = d/dx\n"
        "field X2 = x   d/dz + d/dy\n"
        "field X3 = y d/dw\n"
        "field X4 = 1/2 y^2 d/dw + x d/dz\n"
    )
    assert print_frame(other) == print_frame(e2_doc)


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda c: c != 0)


@st.composite
def documents(draw):
    dim = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(dim)]
    fields = []
    for _ in range(dim):
        comps = []
        for _ in range(dim):
            exps = st.tuples(*([st.integers(0, 2)] * dim))
            terms = draw(st.dictionaries(exps, coeffs, max_size=3))
            comps.append(Polynomial(dim, terms))
        fields.append(VectorField(comps))
    weights = draw(
        st.none() | st.tuples(*([st.integers(1, 4)] * dim))
    )
    point = draw(
        st.none()
        | st.tuples(*([st.fractions(min_value=-3, max_value=3, max_denominator=4)] * dim))
    )
    return FrameDocument(
        var_names=tuple(names),
        field_names=tuple(f"F{i}" for i in range(dim)),
        fields=tuple(fields),
        weights=weights,
        base_point=point,
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(documents())
def test_round_trip_random_documents(doc):
    assert parse_frame(print_frame(doc)) == doc


unit_coeffs = st.sampled_from([Fraction(-1), Fraction(1)])


@st.composite
def unit_documents(draw):
    """Frames whose coefficients are all +-1, so every printed term opens with a sign and a monomial."""
    dim = draw(st.integers(1, 3))
    fields = []
    for _ in range(dim):
        exps = st.tuples(*([st.integers(0, 2)] * dim))
        comps = [Polynomial(dim, draw(st.dictionaries(exps, unit_coeffs, max_size=3))) for _ in range(dim)]
        fields.append(VectorField(comps))
    return FrameDocument(
        var_names=tuple(f"v{i}" for i in range(dim)),
        field_names=tuple(f"F{i}" for i in range(dim)),
        fields=tuple(fields),
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(unit_documents())
def test_round_trip_unit_coefficients_with_glued_signs(doc):
    text = print_frame(doc)
    assert parse_frame(text) == doc
    # glue every sign to the monomial after it: '- v0 d/dv1' becomes '-v0 d/dv1'
    glued = re.sub(r"([+-]) (?=v\d)", r"\1", text)
    assert parse_frame(glued) == doc
