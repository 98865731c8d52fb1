"""The numeric rule for stored coefficients.

A coefficient is an int when it is integral and a Fraction otherwise; a
float never appears.  ``as_coefficient`` narrows a value to that form and
``quotient`` divides exactly, so that int / int never runs.  The sweep checks
the rule on what the pipeline stores: the approximating fields, L and its
ideal G with their tables, the graded frame, and the reduced rows of every
span, whose leading coefficient is the int 1.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ars.approx import build_approximation
from ars.grading import growth_vector
from ars.liealg import graded_frame, ideal_closure, lie_closure
from ars.parser import parse_frame
from ars.symcore import ArsError, Frame, as_coefficient, quotient

from conftest import E1_TEXT, E2_TEXT, E3_TEXT
from test_locus import small_frame

rationals = st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**6))
coordinate = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))


def is_stored_form(c) -> bool:
    """An int when integral, a Fraction otherwise; never a float or a bool."""
    return type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction


@given(rationals)
def test_as_coefficient_narrows_to_stored_form(x):
    for value in (x, Fraction(x), str(x)):
        c = as_coefficient(value)
        assert c == Fraction(x) and is_stored_form(c)


def test_as_coefficient_examples():
    assert as_coefficient("-6/3") == -2 and type(as_coefficient("-6/3")) is int
    assert as_coefficient(Fraction(4, 6)) == Fraction(2, 3)
    assert type(as_coefficient(True)) is int
    with pytest.raises(TypeError):
        as_coefficient(0.5)


@given(rationals, rationals.filter(bool))
def test_quotient_is_exact_and_narrowed(a, b):
    for x, y in ((a, b), (Fraction(a), b), (a, Fraction(b)), (-a, b), (a, -b)):
        q = quotient(x, y)
        assert q == Fraction(x, y) and is_stored_form(q)


def test_quotient_of_ints_divides_exactly():
    assert quotient(-12, 4) == -3 and type(quotient(-12, 4)) is int
    assert quotient(7, -2) == Fraction(-7, 2)
    assert quotient(10**40 + 1, 10**40) == Fraction(10**40 + 1, 10**40)
    assert quotient(Fraction(9, 2), Fraction(3, 2)) == 3 and type(quotient(Fraction(9, 2), Fraction(3, 2))) is int


def stored_coefficients(frame):
    """Every coefficient the pipeline stores for a frame at the origin, and its spans.

    Stops, as the pipeline does, where a precondition fails.
    """
    coeffs, spans = [], []
    try:
        growth, weights = growth_vector(frame, max_depth=6)
    except ArsError:
        return coeffs, spans
    if tuple(growth.orders) != tuple(weights):
        return coeffs, spans
    A = build_approximation(frame, weights)
    coeffs += [c for X in A.fields for c in X.terms.values()]
    coeffs += [c for row in A.transform for c in row]
    if A.degenerate:
        return coeffs, spans
    L = lie_closure(A.fields)
    G = ideal_closure(L, A.hat_fields[: A.k])
    for B in (L, G):
        spans.append(B._span)
        coeffs += [c for X in B.basis for c in X.terms.values()]
        coeffs += [c for row in B._table for entry in row.values() for c in entry.values()]
    try:
        coeffs += [c for X in graded_frame(G, weights) for c in X.terms.values()]
    except ArsError:
        pass
    return coeffs, spans


def assert_rule_holds(frame):
    coeffs, spans = stored_coefficients(frame)
    assert all(type(c) in (int, Fraction) for c in coeffs)
    for span in spans:
        for lead, row in span._rows.items():
            assert type(row[lead]) is int and row[lead] == 1


@pytest.mark.parametrize("text", [E1_TEXT, E2_TEXT, E3_TEXT], ids=["E1", "E2", "E3"])
def test_paper_frames_store_the_rule(text):
    frame = parse_frame(text).to_frame()
    # the parser narrows: 1/2 stays a Fraction, every other coefficient is an int
    assert all(is_stored_form(c) for X in frame.fields for c in X.terms.values())
    assert_rule_holds(frame)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_frame(), st.data())
def test_small_frames_store_the_rule(frame, data):
    # at the origin, and re-centered at a point, which shifts the fields
    assert_rule_holds(frame)
    point = data.draw(st.tuples(*[coordinate] * frame.dim))
    assert_rule_holds(Frame(frame.var_names, frame.fields, point).translated_to_origin())
