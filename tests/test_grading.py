from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ars.grading import (
    RankConditionFailure,
    check_privileged,
    check_weights,
    coordinate_orders,
    growth_vector,
    homogeneous_component,
    homogeneous_orders,
    nonholonomic_order_vf,
    weighted_valuation,
)
from ars.parser import parse_frame
from ars.symcore import Frame, Polynomial, VectorField

import conftest
from conftest import NOT_PRIVILEGED_TEXT, RANK_FAIL_TEXT, time_limit
from oracles import naive_coordinate_orders, naive_flag_dims, random_rational_point

INF = math.inf


def var(dim, j):
    return Polynomial.variable(dim, j)


def only_component(dim, j, poly):
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    comps[j] = poly
    return VectorField(comps)


# --- valuations and orders ---------------------------------------------------


def test_valuation_of_product_monomial():
    f = var(3, 0) * var(3, 1)  # xy with weights (1,2,5)
    assert weighted_valuation(f, (1, 2, 5)) == 3


def test_valuation_of_zero_is_infinite():
    assert weighted_valuation(Polynomial.zero(2), (1, 2)) == INF


def test_valuation_picks_minimum():
    f = var(2, 1) - var(2, 0) ** 2
    assert weighted_valuation(f, (1, 3)) == 2


def test_field_orders_from_weighted_valuations():
    w = (1, 2, 5)
    assert nonholonomic_order_vf(only_component(3, 2, var(3, 0) * var(3, 1)), w) == -2
    assert nonholonomic_order_vf(only_component(3, 2, var(3, 0) ** 2), w) == -3
    assert nonholonomic_order_vf(VectorField.coordinate(3, 0), w) == -1
    assert nonholonomic_order_vf(VectorField.zero(3), w) == INF


def test_homogeneous_component_splits_mixed_field():
    # x d/dz + 1/2 y^2 d/dw under weights (1,1,2,2)
    w = (1, 1, 2, 2)
    X = VectorField(
        [
            Polynomial.zero(4),
            Polynomial.zero(4),
            var(4, 0),
            Fraction(1, 2) * var(4, 1) ** 2,
        ]
    )
    part0 = homogeneous_component(X, 0, w)
    part_minus1 = homogeneous_component(X, -1, w)
    assert part0 == only_component(4, 3, Fraction(1, 2) * var(4, 1) ** 2)
    assert part_minus1 == only_component(4, 2, var(4, 0))
    assert part0 + part_minus1 == X


def test_homogeneous_component_of_constant_field():
    w = (1, 2, 5)
    X = VectorField.coordinate(3, 0)
    assert homogeneous_component(X, -1, w) == X
    assert homogeneous_component(X, 0, w).is_zero


# --- growth vectors over the worked frames ----------------------------------


def test_growth_vector_e1(e1_frame):
    growth, weights = growth_vector(e1_frame)
    assert growth.dims == (1, 2, 2, 2, 3)
    assert growth.step == 5
    assert weights == (1, 2, 5)


def test_growth_vector_e2(e2_frame):
    growth, weights = growth_vector(e2_frame)
    assert growth.dims == (2, 4)
    assert weights == (1, 1, 2, 2)


def test_growth_vector_e3(e3_frame):
    growth, weights = growth_vector(e3_frame)
    assert growth.dims == (3, 5)
    assert weights == (1, 1, 2, 1, 2)


def test_rank_condition_failure():
    frame = parse_frame(RANK_FAIL_TEXT).to_frame()
    with pytest.raises(RankConditionFailure):
        growth_vector(frame)


def test_growth_vector_away_from_locus(e1_frame):
    growth, weights = growth_vector(e1_frame, point=(1, 1, 1))
    assert growth.dims == (3,)
    assert weights == (1, 1, 1)


# --- privileged checks --------------------------------------------------------


def test_check_privileged_examples(e1_frame, e3_frame):
    assert check_privileged(e1_frame, None, (1, 2, 5))
    assert not check_privileged(e1_frame, None, (1, 1, 1))
    assert check_privileged(e3_frame, None, (1, 1, 2, 1, 2))


def test_non_privileged_coordinates_detected():
    frame = parse_frame(NOT_PRIVILEGED_TEXT).to_frame()
    growth, weights = growth_vector(frame)
    assert growth.dims == (1, 2)
    # the flag demands a weight-2 coordinate but both coordinates have order 1
    assert coordinate_orders(frame, max_length=2) == [1, 1]
    assert not check_privileged(frame, None, weights)


def test_coordinate_orders_e1(e1_frame):
    assert coordinate_orders(e1_frame, max_length=5) == [1, 2, 5]


def test_coordinate_orders_takes_its_bound_from_the_caller(e1_frame):
    # the walk has no bound of its own, so a call without one is refused
    with pytest.raises(TypeError):
        coordinate_orders(e1_frame)
    with pytest.raises(TypeError):
        coordinate_orders(e1_frame, None, 5)


# --- properties ----------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(lambda c: c != 0)


@st.composite
def weighted_setting(draw, max_dim: int = 4):
    dim = draw(st.integers(1, max_dim))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(dim))
    return dim, weights


def homogeneous_field(draw, dim, weights, order):
    comps = []
    for j in range(dim):
        target = weights[j] + order
        terms = {}
        if target >= 0:
            candidates = [
                e
                for e in _exponents(dim, target, weights)
            ]
            chosen = draw(st.lists(st.sampled_from(candidates), max_size=2)) if candidates else []
            for e in chosen:
                terms[e] = draw(coeffs)
        comps.append(Polynomial(dim, terms))
    return VectorField(comps)


def _exponents(dim, target, weights, prefix=()):
    if dim == 0:
        return [prefix] if target == 0 else []
    out = []
    w = weights[len(prefix)]
    for k in range(target // w + 1):
        out.extend(_exponents(dim - 1, target - k * w, weights, prefix + (k,)))
    return out


@st.composite
def homogeneous_pair(draw):
    dim, weights = draw(weighted_setting(max_dim=3))
    a = draw(st.integers(-max(weights), 1))
    b = draw(st.integers(-max(weights), 1))
    X = homogeneous_field(draw, dim, weights, a)
    Y = homogeneous_field(draw, dim, weights, b)
    return dim, weights, a, X, b, Y


@settings(max_examples=200, derandomize=True, deadline=None)
@given(homogeneous_pair())
def test_bracket_order_additivity(data):
    from ars.symcore import lie_bracket

    dim, weights, a, X, b, Y = data
    assume(not X.is_zero and not Y.is_zero)
    br = lie_bracket(X, Y)
    order = nonholonomic_order_vf(br, weights)
    assert order == INF or order == a + b


@settings(max_examples=200, derandomize=True, deadline=None)
@given(weighted_setting(), st.data())
def test_homogeneous_reconstruction(setting, data):
    dim, weights = setting
    field = data.draw(
        st.tuples(*([_dense_polys(dim)] * dim)).map(VectorField)
    )
    total = VectorField.zero(dim)
    for s in homogeneous_orders(field, weights):
        part = homogeneous_component(field, s, weights)
        o = nonholonomic_order_vf(part, weights)
        assert o == s or o == INF
        total = total + part
    assert total == field
    if not field.is_zero:
        # no nonzero field sits below order -max(w)
        assert nonholonomic_order_vf(field, weights) >= -max(weights)


def _dense_polys(dim, max_degree: int = 3):
    exps = st.tuples(*([st.integers(0, max_degree)] * dim)).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exps, coeffs, max_size=3).map(lambda d: Polynomial(dim, d))


def test_depth_bound_triggers_rank_failure(e1_frame):
    with pytest.raises(RankConditionFailure):
        growth_vector(e1_frame, max_depth=2)


@pytest.mark.parametrize("depth", [0, -3])
def test_depth_below_one_is_a_value_error(depth):
    # on d/dx, d/dy the flag has full rank with no bracket, so only the check refuses a depth below 1
    for text in ("vars x y\nfield X1 = d/dx\nfield X2 = x d/dy\n", "vars x y\nfield X1 = d/dx\nfield X2 = d/dy\n"):
        with pytest.raises(ValueError, match=f"max_depth must be at least 1, got {depth}"):
            growth_vector(parse_frame(text).to_frame(), max_depth=depth)


@pytest.mark.parametrize("weights", [(1.5, 2), ("1", "2"), (1, Fraction(2))])
def test_weights_that_are_not_integers_are_refused(weights):
    # int() used to truncate 1.5 to 1 and parse "1"
    with pytest.raises(ValueError, match=re.escape(f"weights must be integers, got {weights}")):
        check_weights(weights, 2)
    assert check_weights((True, 2), 2) == (1, 2)


# --- the bracket flag against every bracket word ------------------------------

FLAG_DEPTH = 4


@st.composite
def sparse_frame(draw):
    """A frame on R^2 or R^3 of low-degree fields with one to three terms.

    Some fields are zero or repeat an earlier field, so the flag meets
    dependent generators.
    """
    dim = draw(st.integers(2, 3))
    exps = st.tuples(*([st.integers(0, 2)] * dim)).filter(lambda e: sum(e) <= 2)
    fields: list[VectorField] = []
    for _ in range(dim):
        kind = draw(st.sampled_from(["field"] * 4 + ["zero", "repeat"]))
        if kind == "zero":
            fields.append(VectorField.zero(dim))
        elif kind == "repeat" and fields:
            fields.append(draw(st.sampled_from(fields)))
        else:
            comps = [dict() for _ in range(dim)]
            for _ in range(draw(st.integers(1, 3))):
                comps[draw(st.integers(0, dim - 1))][draw(exps)] = draw(coeffs)
            fields.append(VectorField([Polynomial(dim, c) for c in comps]))
    point = draw(st.sampled_from([(0,) * dim, (1,) * dim, tuple(range(dim))]))
    return Frame([f"x{j}" for j in range(dim)], fields), point


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sparse_frame())
def test_flag_matches_every_bracket_word(drawn):
    frame, point = drawn
    naive = naive_flag_dims(list(frame.fields), point, FLAG_DEPTH)
    if frame.dim not in naive:
        with pytest.raises(RankConditionFailure):
            growth_vector(frame, point=point, max_depth=FLAG_DEPTH)
        return
    growth, _ = growth_vector(frame, point=point, max_depth=FLAG_DEPTH)
    step = naive.index(frame.dim) + 1
    assert growth.dims == tuple(naive[:step])
    assert growth.step == step


# --- coordinate orders against every frame word --------------------------------


def _family_text(n: int, rng: random.Random, chain: bool) -> str:
    """grushin_pow(n) (Xi = c_i x1^(i-1) d/dxi) or chain(n) (Xi = c_i x(i-1) d/dxi), X1 = d/dx1."""
    names = [f"x{i}" for i in range(1, n + 1)]
    fields = ["d/dx1"] + [
        f"{Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))} "
        + (f"x{i - 1}" if chain else f"x1^{i - 1}") + f" d/dx{i}"
        for i in range(2, n + 1)
    ]
    return "vars " + " ".join(names) + "\n" + "".join(f"field X{i + 1} = {f}\n" for i, f in enumerate(fields))


def _random_frame(rng: random.Random) -> Frame:
    """Fields on R^2 or R^3 with up to three terms of degree at most 2, so some are zero."""
    dim = rng.randint(2, 3)
    fields = []
    for _ in range(dim):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = [0] * dim
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(dim)] += 1
            terms[(rng.randrange(dim), tuple(e))] = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
        fields.append(VectorField.from_terms(dim, terms))
    return Frame([f"x{j}" for j in range(dim)], fields)


def test_coordinate_orders_match_every_frame_word():
    rng = random.Random(2024)
    texts = [getattr(conftest, name) for name in dir(conftest) if name.endswith("_TEXT")]
    texts += [_family_text(n, rng, chain) for n in (3, 4, 5) for chain in (False, True)]
    cases = []
    for text in texts:
        frame = parse_frame(text).to_frame()
        cases += [(frame, frame.base_point, 5), (frame, random_rational_point(rng, frame.dim), 3)]
    for _ in range(150):
        frame = _random_frame(rng)
        cases.append((frame, random_rational_point(rng, frame.dim), rng.randint(1, 4)))
    beyond = not_privileged = 0
    with time_limit(60):
        for frame, point, max_length in cases:
            orders = coordinate_orders(frame, point, max_length=max_length)
            assert orders == naive_coordinate_orders(frame, point, max_length), (frame, point, max_length)
            beyond += None in orders
            try:
                _, weights = growth_vector(frame, point=point, max_depth=4)
            except RankConditionFailure:
                continue
            not_privileged += not check_privileged(frame, point, weights)
    # the cases reach orders beyond the bound and points where the coordinates are not privileged
    assert beyond >= 20 and not_privileged >= 5
