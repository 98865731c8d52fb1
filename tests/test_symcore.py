from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ars.symcore import (
    Frame,
    Polynomial,
    VectorField,
    frame_rank_at,
    lie_bracket,
    vf_apply,
    vf_eval,
)

from oracles import (
    dict_to_poly,
    finite_difference_apply,
    naive_apply,
    naive_bracket,
    naive_substitute,
    poly_to_dict,
)


def P(dim, s=None, **terms):
    """Tiny builder: P(2, {(1,0): 1}) or via Polynomial helpers in tests."""
    return Polynomial(dim, s or {})


def var(dim, j):
    return Polynomial.variable(dim, j)


def coord(dim, j):
    return VectorField.coordinate(dim, j)


# --- strategies -------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(lambda c: c != 0)


def polynomials(dim: int, max_degree: int = 3, max_terms: int = 4):
    exps = st.tuples(*([st.integers(0, max_degree)] * dim)).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(lambda d: Polynomial(dim, d))


def vector_fields(dim: int, max_degree: int = 3):
    return st.tuples(*([polynomials(dim, max_degree)] * dim)).map(VectorField)


@st.composite
def field_triples(draw, max_dim: int = 4):
    dim = draw(st.integers(1, max_dim))
    return [draw(vector_fields(dim)) for _ in range(3)]


@st.composite
def field_pairs_with_poly(draw, max_dim: int = 4):
    dim = draw(st.integers(1, max_dim))
    return draw(vector_fields(dim)), draw(polynomials(dim)), draw(polynomials(dim))


# --- vf_apply ---------------------------------------------------------------


def test_apply_single_variable_derivative():
    # X = d/dx applied to x^2
    f = var(1, 0) * var(1, 0)
    assert vf_apply(coord(1, 0), f) == 2 * var(1, 0)


def test_apply_linear_field():
    # X = x d/dy applied to y
    X = VectorField([Polynomial.zero(2), var(2, 0)])
    assert vf_apply(X, var(2, 1)) == var(2, 0)


def test_apply_chain_rule_case():
    # X = y^2 d/dz applied to z^2 gives 2 y^2 z
    X = VectorField([Polynomial.zero(3), Polynomial.zero(3), var(3, 1) ** 2])
    f = var(3, 2) ** 2
    expected = 2 * (var(3, 1) ** 2 * var(3, 2))
    assert vf_apply(X, f) == expected


def test_apply_matches_finite_differences():
    X = VectorField([Polynomial.zero(3), Polynomial.zero(3), var(3, 1) ** 2])
    f = var(3, 2) ** 2
    g = vf_apply(X, f)
    rng = random.Random(7)
    for _ in range(5):
        p = [rng.uniform(-2, 2) for _ in range(3)]
        assert abs(g.evaluate_float(p) - finite_difference_apply(X, f, p)) < 1e-4


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        vf_apply(coord(2, 0), var(3, 0))


# --- lie_bracket ------------------------------------------------------------


def test_bracket_translation_pair():
    # [d/dx, x d/dy] = d/dy
    X = coord(2, 0)
    Y = VectorField([Polynomial.zero(2), var(2, 0)])
    assert lie_bracket(X, Y) == coord(2, 1)


def test_bracket_half_scaling():
    # [d/dy, y^2 d/dz] = 2 y d/dz
    X = coord(3, 1)
    Y = VectorField([Polynomial.zero(3), Polynomial.zero(3), var(3, 1) ** 2])
    expected = VectorField([Polynomial.zero(3), Polynomial.zero(3), 2 * var(3, 1)])
    br = lie_bracket(X, Y)
    assert br == expected
    assert Fraction(1, 2) * br == VectorField(
        [Polynomial.zero(3), Polynomial.zero(3), var(3, 1)]
    )


def test_bracket_sl2_pair():
    # [x d/dy + 1/2 x^2 d/dz, y d/dx + 1/2 y^2 d/dz] = x d/dx - y d/dy
    x, y = var(3, 0), var(3, 1)
    half = Fraction(1, 2)
    X4 = VectorField([Polynomial.zero(3), x, half * x**2])
    X5 = VectorField([y, Polynomial.zero(3), half * y**2])
    expected = VectorField([x, -y, Polynomial.zero(3)])
    assert lie_bracket(X4, X5) == expected


def test_bracket_self_vanishes():
    X = VectorField([var(2, 0) * var(2, 1), var(2, 0) ** 2])
    assert lie_bracket(X, X).is_zero


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        lie_bracket(coord(2, 0), coord(3, 0))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(field_triples())
def test_jacobi_identity(fields):
    X, Y, Z = fields
    total = (
        lie_bracket(X, lie_bracket(Y, Z))
        + lie_bracket(Y, lie_bracket(Z, X))
        + lie_bracket(Z, lie_bracket(X, Y))
    )
    assert total.is_zero


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_triples())
def test_bracket_bilinear_antisymmetric(fields):
    X, Y, Z = fields
    assert lie_bracket(X, Y) == -lie_bracket(Y, X)
    lam = Fraction(3, 2)
    assert lie_bracket(X + lam * Y, Z) == lie_bracket(X, Z) + lam * lie_bracket(Y, Z)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_triples())
def test_bracket_matches_naive_oracle(fields):
    X, Y, _ = fields
    assert lie_bracket(X, Y) == naive_bracket(X, Y)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_pairs_with_poly())
def test_apply_leibniz_rule(data):
    X, f, g = data
    assert vf_apply(X, f * g) == f * vf_apply(X, g) + g * vf_apply(X, f)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_pairs_with_poly())
def test_apply_matches_naive_oracle(data):
    X, f, _ = data
    assert vf_apply(X, f) == dict_to_poly(X.dim, naive_apply(X, poly_to_dict(f)))


# --- the term map -----------------------------------------------------------


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_triples())
def test_field_constructors_agree(fields):
    X, Y, _ = fields
    reordered = VectorField.from_terms(X.dim, dict(reversed(list(X.terms.items()))))
    bracket = lie_bracket(X, Y)
    for built, same in [
        (reordered, X),
        (VectorField(bracket.components), bracket),
        (naive_bracket(X, Y), bracket),
    ]:
        assert built == same
        assert hash(built) == hash(same)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_triples())
def test_components_round_trip(fields):
    X, Y, Z = fields
    for field in (X, lie_bracket(Y, Z), X - Fraction(2, 3) * Y):
        assert VectorField(field.components) == field
        assert VectorField.from_terms(field.dim, dict(field.terms)).components == field.components


@st.composite
def substitutions(draw, max_dim: int = 3):
    dim = draw(st.integers(1, max_dim))
    p = draw(polynomials(dim, max_degree=5))
    offsets = draw(st.lists(coeffs | st.just(Fraction(0)), min_size=dim, max_size=dim))
    slopes = draw(st.lists(coeffs | st.just(Fraction(0)), min_size=dim, max_size=dim))
    return p, offsets, slopes


@settings(max_examples=150, derandomize=True, deadline=None)
@given(substitutions())
def test_affine_substitution_matches_naive_products(data):
    p, offsets, slopes = data
    n = p.dim
    # the shift x_j -> x_j + offsets[j], and the line x_j -> offsets[j] + slopes[j] t
    assert p.shifted(offsets) == dict_to_poly(
        n, naive_substitute(poly_to_dict(p), offsets, [1] * n, range(n), n)
    )
    assert p.affine_substituted(offsets, slopes, [0] * n, 1) == dict_to_poly(
        1, naive_substitute(poly_to_dict(p), offsets, slopes, [0] * n, 1)
    )


# --- evaluation and rank ----------------------------------------------------


def test_eval_vanishing_at_origin():
    X = VectorField([Polynomial.zero(2), var(2, 0)])
    assert vf_eval(X, (0, 0)) == (0, 0)


def test_eval_constant_plus_linear():
    # d/dy + x d/dz at the origin of R^4
    X = VectorField(
        [Polynomial.zero(4), Polynomial.constant(4, 1), var(4, 0), Polynomial.zero(4)]
    )
    assert vf_eval(X, (0, 0, 0, 0)) == (0, 1, 0, 0)


def test_eval_substitution():
    X = VectorField([Polynomial.zero(3), Polynomial.zero(3), var(3, 1) ** 2])
    assert vf_eval(X, (1, 2, 3)) == (0, 0, 4)


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        vf_eval(coord(2, 0), (1, 2, 3))


def test_frame_rank_examples(e1_frame, e2_frame):
    assert frame_rank_at(e1_frame.fields, (0, 0, 0)) == 1
    assert frame_rank_at(e2_frame.fields, (0, 0, 0, 0)) == 2
    assert frame_rank_at(e1_frame.fields, (1, 1, 1)) == 3


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(["x", "x"], [coord(2, 0), coord(2, 1)])
    with pytest.raises(ValueError):
        Frame(["x", "y"], [coord(2, 0)])


def test_polynomial_round_trips_and_shift():
    p = var(2, 0) ** 2 * var(2, 1) + Fraction(1, 2) * var(2, 1)
    q = p.shifted([1, Fraction(-1, 2)])
    # q(x, y) = p(x + 1, y - 1/2)
    for pt in [(0, 0), (1, 2), (Fraction(-1, 3), Fraction(2, 5))]:
        shifted_pt = (pt[0] + 1, pt[1] - Fraction(1, 2))
        assert q.evaluate(pt) == p.evaluate(shifted_pt)


def test_polynomial_format_ordering():
    p = var(2, 1) + var(2, 0) ** 2 + Polynomial.constant(2, -3)
    assert p.format(["x", "y"]) == "x^2 + y - 3"
