from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ars.approx import build_approximation
from ars.flows import (
    NonTriangularField,
    completeness_probe,
    dilate,
    is_strictly_triangular,
    lie_series_flow,
    rk4_flow,
)
from ars.grading import growth_vector, nonholonomic_order_vf
from ars.symcore import Polynomial, VectorField

from oracles import naive_rk4


def var(dim, j):
    return Polynomial.variable(dim, j)


def only_component(dim, j, poly):
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    comps[j] = poly
    return VectorField(comps)


def square_field():
    return only_component(1, 0, var(1, 0) ** 2)


# --- exact series -------------------------------------------------------------


def test_translation_flow():
    X = VectorField.coordinate(3, 0)
    assert lie_series_flow(X, (0, 0, 0), 1, (1, 2, 5)) == (1, 0, 0)


def test_shear_flow():
    # x d/dy from (1, 0, 0): dy/dt = x stays 1
    X = only_component(3, 1, var(3, 0))
    assert lie_series_flow(X, (1, 0, 0), 1, (1, 2, 5)) == (1, 1, 0)


def test_frozen_coefficient_flow():
    # y^2 d/dz from (0, 1, 0) for time 2
    X = only_component(3, 2, var(3, 1) ** 2)
    assert lie_series_flow(X, (0, 1, 0), 2, (1, 2, 5)) == (0, 1, 2)


def test_series_requires_triangular_field():
    with pytest.raises(NonTriangularField):
        lie_series_flow(square_field(), (1,), 1, (1,))


def test_order_zero_truncated_series_converges():
    # x d/dy + x^2/2 d/dz is order 0 for weights (1,1,2): exact in this case
    # because repeated derivatives vanish; endpoints match the closed form
    w = (1, 1, 2)
    X = only_component(3, 1, var(3, 0)) + only_component(
        3, 2, Fraction(1, 2) * var(3, 0) ** 2
    )
    assert not is_strictly_triangular(X, w)
    p = (Fraction(2), Fraction(0), Fraction(0))
    end = lie_series_flow(X, p, Fraction(3), w)
    assert end == (2, 6, 6)


def test_exact_group_law(e1_frame):
    _, w = growth_vector(e1_frame)
    rng = random.Random(3)
    for X in e1_frame.fields:
        assert is_strictly_triangular(X, w)
        for _ in range(5):
            p = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            t1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            t2 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            one = lie_series_flow(X, lie_series_flow(X, p, t1, w), t2, w)
            two = lie_series_flow(X, p, t1 + t2, w)
            assert one == two


def test_dilation_homogeneity(e1_frame, e3_frame):
    # order -1 homogeneous fields: flowing a dilated start for the dilated
    # time equals dilating the original endpoint (checked for lambda and
    # 1/lambda, which also covers the inverse dilation)
    cases = [(e1_frame, f) for f in e1_frame.fields] + [
        (e3_frame, f) for f in e3_frame.fields[:3]
    ]
    rng = random.Random(8)
    for frame, X in cases:
        _, w = growth_vector(frame)
        assert nonholonomic_order_vf(X, w) == -1
        for _ in range(3):
            p = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(frame.dim))
            t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            for lam in (
                Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                Fraction(rng.randint(1, 3), rng.randint(1, 5)),
            ):
                left = lie_series_flow(X, dilate(p, lam, w), lam * t, w)
                right = dilate(lie_series_flow(X, p, t, w), lam, w)
                assert left == right


# --- numeric integration ---------------------------------------------------------


def test_rk4_translation():
    res = rk4_flow(VectorField.coordinate(1, 0), (0.0,), 5.0, 100)
    assert not res.blowup
    assert abs(res.endpoint[0] - 5.0) < 1e-9


def test_rk4_blowup_on_square_field():
    res = rk4_flow(square_field(), (1.0,), 2.0, 1000)
    assert res.blowup


def test_rk4_overflow_is_blowup():
    # x^4 d/dx overflows in float ** 4 before it crosses the threshold
    X = only_component(1, 0, var(1, 0) ** 4)
    res = rk4_flow(X, (1.0,), 10.0, 2000)
    assert res.blowup
    assert res.step_count == 2000
    assert all(math.isfinite(v) for v in res.endpoint)
    rep = completeness_probe(X, (1,), horizon=10.0, trials=5, seed=5)
    assert rep.blowup_count == 5


@st.composite
def small_fields(draw):
    """Fields of dim 1-4 with rational coefficients and total degree <= 3."""
    dim = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * dim).filter(lambda e: sum(e) <= 3)
    coefs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    return VectorField(
        [Polynomial(dim, draw(st.dictionaries(exps, coefs, max_size=4))) for _ in range(dim)]
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    small_fields(),
    st.data(),
    st.sampled_from([1000.0, -1000.0]) | st.floats(-3.0, 3.0),
    st.integers(1, 2000),
    st.sampled_from([1e12, 50.0, math.inf]),
)
def test_rk4_matches_naive_loop(X, data, t, steps, threshold):
    point = tuple(data.draw(st.floats(-2.0, 2.0)) for _ in range(X.dim))
    res = rk4_flow(X, point, t, steps, blowup_threshold=threshold)
    try:
        endpoint, blowup, step_count = naive_rk4(X, point, t, steps, threshold)
    except OverflowError:
        assert res.blowup
        return
    assert [v.hex() for v in res.endpoint] == [v.hex() for v in endpoint]
    assert (res.blowup, res.step_count) == (blowup, step_count)


def test_rk4_no_blowup_on_triangular_fields(e1_frame):
    _, w = growth_vector(e1_frame)
    for X in e1_frame.fields:
        res = rk4_flow(X, (0.5, -1.0, 2.0), 50.0, 2000)
        assert not res.blowup


def test_series_against_rk4(e1_frame, e2_frame, e3_frame):
    rng = random.Random(17)
    for frame in (e1_frame, e2_frame, e3_frame):
        _, w = growth_vector(frame)
        for X in frame.fields:
            for _ in range(3):
                p = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(frame.dim))
                t = Fraction(rng.randint(-4, 4), 4)
                exact = lie_series_flow(X, p, t, w)
                numeric = rk4_flow(X, [float(c) for c in p], float(t), 1000)
                assert not numeric.blowup
                err = max(abs(float(a) - b) for a, b in zip(exact, numeric.endpoint))
                assert err <= 1e-6


# --- completeness probes ----------------------------------------------------------


def test_probe_clean_on_tilde_field():
    # 1/2 y^2 d/dw stays linear in time: w grows, y frozen
    X = only_component(4, 3, Fraction(1, 2) * var(4, 1) ** 2)
    rep = completeness_probe(X, (1, 1, 2, 2), horizon=1000.0, trials=6, seed=4)
    assert rep.triangular
    assert rep.blowup_count == 0


def test_probe_flags_square_field():
    rep = completeness_probe(square_field(), (1,), horizon=10.0, trials=20, seed=5)
    assert not rep.triangular
    assert rep.blowup_count >= 1


def test_probe_pins_linear_field_blowups():
    # x d/dx is complete (x e^t) but leaves the threshold by the horizon; the
    # probe reports blowups next to a passing triangular check
    X = only_component(2, 0, var(2, 0))
    rep = completeness_probe(X, (1, 1), horizon=1000.0, trials=5, seed=0)
    assert rep.triangular
    assert rep.blowup_count == 5


def test_probe_zero_field():
    rep = completeness_probe(VectorField.zero(2), (1, 1), horizon=100.0, trials=3, seed=6)
    assert rep.blowup_count == 0


def test_probe_all_approximating_fields(e1_frame, e2_frame, e3_frame):
    for frame in (e1_frame, e2_frame, e3_frame):
        _, w = growth_vector(frame)
        A = build_approximation(frame, w)
        for i, X in enumerate(A.fields):
            rep = completeness_probe(X, w, horizon=1000.0, trials=4, seed=10 + i, steps=1500)
            assert rep.triangular
            assert rep.blowup_count == 0


def test_flow_result_reports_truncation():
    from ars.flows import lie_series_flow_result

    # naturally terminating series: no truncation reported
    X = only_component(3, 1, var(3, 0))
    res = lie_series_flow_result(X, (1, 0, 0), 1, (1, 2, 5))
    assert res.truncation_order is None
    assert res.endpoint == (1, 1, 0)

    # a genuinely infinite series is cut at the requested order
    w = (1, 1)
    Y = only_component(2, 0, var(2, 1)) + only_component(2, 1, var(2, 0))
    res = lie_series_flow_result(Y, (1, 0), Fraction(1, 2), w, truncation_order=18)
    assert res.truncation_order == 18
    import math

    assert abs(float(res.endpoint[0]) - math.cosh(0.5)) < 1e-12
    assert abs(float(res.endpoint[1]) - math.sinh(0.5)) < 1e-12
