from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ars.symcore import (
    Frame,
    Polynomial,
    VectorField,
    commute_by_support,
    frame_rank_at,
    lie_bracket,
    linear_combination,
    vf_apply,
)

from oracles import (
    dict_to_poly,
    finite_difference_apply,
    naive_apply,
    naive_bracket,
    naive_eval,
    naive_poly_eval,
    naive_substitute,
    poly_to_dict,
    reference_field_format,
    reference_poly_format,
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


def test_exponents_that_are_not_integers_are_refused():
    # int() used to truncate 1.7 to 1, so this polynomial was x1
    with pytest.raises(ValueError, match=re.escape("exponents must be integers, got (1.7, 0)")):
        Polynomial(2, {(1.7, 0): 1})
    with pytest.raises(ValueError, match=re.escape("exponents must be integers, got (0, '2')")):
        Polynomial(2, {(0, "2"): 1})


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


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_triples())
def test_apply_to_a_field_is_componentwise(fields):
    # X applied to a field differentiates each component, and the bracket is
    # the difference of the two field derivatives
    X, Y, _ = fields
    XY = vf_apply(X, Y)
    assert isinstance(XY, VectorField)
    assert XY.components == tuple(vf_apply(X, c) for c in Y.components)
    assert lie_bracket(X, Y) == vf_apply(X, Y) - vf_apply(Y, X)


def test_apply_to_the_coordinate_functions():
    # X applied to x_1, ..., x_n is X itself, and X X has component j equal to X X_j
    x, y = var(2, 0), var(2, 1)
    X = VectorField([y, x * x])
    assert X.components == tuple(vf_apply(X, var(2, j)) for j in range(2))
    assert vf_apply(X, X) == VectorField([x * x, 2 * x * y])
    with pytest.raises(ValueError):
        vf_apply(coord(2, 0), coord(3, 0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(field_triples(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=3, max_size=3))
def test_linear_combination_matches_repeated_sum(fields, cs):
    expected = VectorField.zero(fields[0].dim)
    for c, X in zip(cs, fields):
        expected = expected + c * X
    assert linear_combination(zip(cs, fields), fields[0].dim) == expected


def test_linear_combination_cancels_to_zero():
    x, y = var(2, 0), var(2, 1)
    X = VectorField([x, y * y])
    Y = VectorField([P(2), Fraction(1, 2) * y * y])
    # the y^2 d/dy terms of 2 Y - X cancel exactly, and a zero coefficient adds nothing
    combo = linear_combination([(Fraction(2), Y), (Fraction(-1), X), (Fraction(0), coord(2, 0))], 2)
    assert combo == VectorField([-x, P(2)])
    assert linear_combination([(Fraction(1), combo), (Fraction(1), VectorField([x, P(2)]))], 2).is_zero
    assert linear_combination([(Fraction(1), X), (Fraction(-1), X)], 2).terms == {}
    assert linear_combination([], 2) == VectorField.zero(2)


@st.composite
def sparse_fields(draw, dim: int):
    """One or two terms, each along a random direction with few variables.

    Dense fields almost never commute by support; these often do.
    """
    exps = st.tuples(*([st.sampled_from((0, 0, 0, 1, 2))] * dim))
    keys = st.tuples(st.integers(0, dim - 1), exps)
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=2))
    X = VectorField.from_terms(dim, terms)
    # build half of them through the constructor, which sets the cache slots too
    return VectorField(X.components) if draw(st.booleans()) else X


@st.composite
def sparse_field_pairs(draw, max_dim: int = 4):
    dim = draw(st.integers(1, max_dim))
    return draw(sparse_fields(dim)), draw(sparse_fields(dim))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(sparse_field_pairs())
def test_support_skip_is_sound(fields):
    X, Y = fields
    if commute_by_support(X, Y):
        assert lie_bracket(X, Y).is_zero
        assert commute_by_support(Y, X)


def test_support_masks():
    # X = x z d/dy on R^3: direction y, variables x and z
    X = VectorField([P(3), var(3, 0) * var(3, 2), P(3)])
    assert X.support == (0b010, 0b101)
    assert VectorField.zero(3).support == (0, 0)
    assert commute_by_support(X, coord(3, 1))
    assert not commute_by_support(X, coord(3, 0))


# --- the term map -----------------------------------------------------------


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_triples())
def test_field_constructors_agree(fields):
    X, Y, _ = fields
    reordered = VectorField.from_terms(X.dim, dict(reversed(list(X.terms.items()))))
    bracket = lie_bracket(X, Y)
    p = X.components[0] * Y.components[-1] + X.components[-1]
    for built, same in [
        (reordered, X),
        (Polynomial.from_terms(p.dim, dict(reversed(list(p.terms.items())))), p),
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


unit_or_any = st.sampled_from([1, -1]) | coeffs


@st.composite
def printable(draw, max_dim: int = 3):
    """A polynomial, a field and variable names (or None) on R^dim.

    Coefficients are often +-1 and exponents often 0, so unit coefficients
    and constant terms are common.
    """
    dim = draw(st.integers(1, max_dim))
    exps = st.tuples(*([st.integers(0, 2)] * dim))
    polys = st.dictionaries(exps, unit_or_any, max_size=4).map(lambda d: Polynomial(dim, d))
    names = st.none() | st.lists(st.text("abxyz", min_size=1, max_size=3), min_size=dim, max_size=dim, unique=True)
    return draw(polys), VectorField([draw(polys) for _ in range(dim)]), draw(names)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(printable())
def test_printers_match_reference(data):
    p, X, names = data
    one = Polynomial.constant(p.dim, 1)
    # p and -p: one of them opens with a negative term unless p is zero
    for q in (p, -p, p + one, p - one, Polynomial.zero(p.dim)):
        assert q.format(names) == reference_poly_format(q, names)
    reordered = VectorField.from_terms(X.dim, dict(reversed(list(X.terms.items()))))
    for Y in (X, -X, reordered, VectorField.zero(X.dim)):
        assert Y.format(names) == reference_field_format(Y, names)
    assert str(p) == reference_poly_format(p)
    assert str(X) == reference_field_format(X)


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
    assert X.evaluate((0, 0)) == (0, 0)


def test_eval_constant_plus_linear():
    # d/dy + x d/dz at the origin of R^4
    X = VectorField(
        [Polynomial.zero(4), Polynomial.constant(4, 1), var(4, 0), Polynomial.zero(4)]
    )
    assert X.evaluate((0, 0, 0, 0)) == (0, 1, 0, 0)


def test_eval_substitution():
    X = VectorField([Polynomial.zero(3), Polynomial.zero(3), var(3, 1) ** 2])
    assert X.evaluate((1, 2, 3)) == (0, 0, 4)


@st.composite
def fields_and_points_with_zeros(draw, max_dim: int = 4):
    dim = draw(st.integers(1, max_dim))
    point = draw(st.tuples(*([st.just(Fraction(0)) | coeffs] * dim)))
    return draw(vector_fields(dim)), point


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fields_and_points_with_zeros())
def test_evaluate_matches_naive_oracle(data):
    # monomials with a positive power of a zero coordinate are skipped
    X, point = data
    values = X._evaluate(point)
    assert list(values) == naive_eval(X, point)
    assert all(type(v) is Fraction for v in values)
    for comp, value in zip(X.components, values):
        assert comp._evaluate(point) == naive_poly_eval(comp, point) == value
        assert type(comp._evaluate(point)) is Fraction


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        coord(2, 0).evaluate((1, 2, 3))


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
