from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ars.locus import (
    DegenerateZ1,
    NotOnZ1,
    _rational_roots,
    corank_at,
    det_submersion_check,
    frame_determinant,
    genericity_codims,
    stratify_samples,
    tangency_check,
)
from ars.symcore import Frame, Polynomial, VectorField

from oracles import frame_cofactor_det, random_rational_point

DATA = Path(__file__).parent / "data"


def var(dim, j):
    return Polynomial.variable(dim, j)


def only_component(dim, j, poly):
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    comps[j] = poly
    return VectorField(comps)


# --- determinants -----------------------------------------------------------


def test_determinant_e1(e1_frame):
    det = frame_determinant(e1_frame)
    assert det == var(3, 0) * var(3, 1) ** 2


def test_determinant_e2(e2_frame):
    det = frame_determinant(e2_frame)
    assert det == -(var(4, 0) * var(4, 1))


def test_determinant_e3(e3_frame):
    det = frame_determinant(e3_frame)
    x, y, w = var(5, 0), var(5, 1), var(5, 3)
    assert det == Fraction(-1, 2) * (x * y**2 * w)


def test_determinant_matches_cofactor_oracle(e1_frame, e2_frame, e3_frame):
    for frame in (e1_frame, e2_frame, e3_frame):
        assert frame_determinant(frame) == frame_cofactor_det(frame)


def test_determinant_matches_numeric_sampling(e3_frame):
    det = frame_determinant(e3_frame)
    rng = random.Random(99)
    for _ in range(200):
        p = [rng.uniform(-2, 2) for _ in range(5)]
        matrix = np.array(
            [[float(f.components[i].evaluate_float(p)) for f in e3_frame.fields] for i in range(5)]
        )
        expected = float(np.linalg.det(matrix))
        got = det.evaluate_float(p)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def test_determinant_zero_set_nonempty_with_empty_interior(e1_frame, e2_frame, e3_frame):
    for frame in (e1_frame, e2_frame, e3_frame):
        det = frame_determinant(frame)
        assert not det.is_zero
        assert det.evaluate(frame.base_point) == 0


# --- corank -------------------------------------------------------------------


def test_corank_examples(e1_frame, e2_frame):
    assert corank_at(e1_frame, (1, 1, 1)) == 0
    assert corank_at(e1_frame, (0, 0, 0)) == 2
    assert corank_at(e2_frame, (0, 1, 0, 0)) == 1


def test_corank_matches_determinant_vanishing(e1_frame, e2_frame):
    rng = random.Random(5)
    for frame in (e1_frame, e2_frame):
        det = frame_determinant(frame)
        for _ in range(40):
            p = random_rational_point(rng, frame.dim)
            assert (corank_at(frame, p) >= 1) == (det.evaluate(p) == 0)


def test_corank_at_base_matches_approximation_k(e1_frame, e2_frame, e3_frame):
    from ars.approx import build_approximation
    from ars.grading import growth_vector

    for frame in (e1_frame, e2_frame, e3_frame):
        _, w = growth_vector(frame)
        A = build_approximation(frame, w)
        assert corank_at(frame, frame.base_point) == frame.dim - A.k


# --- submersion and tangency ----------------------------------------------------


def test_submersion_check_e1(e1_frame):
    # det = x y^2, gradient (y^2, 2xy, 0) = (1, 0, 0) at (0,1,1)
    assert det_submersion_check(e1_frame, (0, 1, 1))


def test_submersion_check_grushin(grushin_frame):
    assert det_submersion_check(grushin_frame, (0, 3))


def test_submersion_check_double_zero():
    frame = Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 1, var(2, 0) ** 2)])
    assert not det_submersion_check(frame, (0, 5))


def test_submersion_requires_corank_one(e1_frame):
    with pytest.raises(NotOnZ1):
        det_submersion_check(e1_frame, (1, 1, 1))
    with pytest.raises(NotOnZ1):
        det_submersion_check(e1_frame, (0, 0, 0))


def test_tangency_classical_configuration(tangential_frame):
    # frame {d/dx, (y - x^2) d/dy}: at the origin the locus is tangent to
    # the distribution
    assert tangency_check(tangential_frame, (0, 0))
    # at (1, 1) the locus point is not tangential
    assert not tangency_check(tangential_frame, (1, 1))
    # off the locus there is no corank-1 point at all
    with pytest.raises(NotOnZ1):
        tangency_check(tangential_frame, (1, 2))


def test_tangency_e1_point(e1_frame):
    # gradient (1,0,0) pairs nonzero with d/dx, so not tangential
    assert not tangency_check(e1_frame, (0, 1, 1))


def test_tangency_degenerate_z1():
    frame = Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 1, var(2, 0) ** 2)])
    with pytest.raises(DegenerateZ1):
        tangency_check(frame, (0, 5))


# --- sampling -----------------------------------------------------------------


def test_stratify_slice_sampler_sees_locus(e1_frame):
    rng_independent = random.Random(0)

    def slice_sampler(rng):
        return (
            Fraction(0),
            Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
        )

    reports = stratify_samples(e1_frame, budget=10000, seed=3, sampler=slice_sampler, line_search=False)
    hits = {r.r: r for r in reports}
    assert sum(len(r.hits) for r in reports) == 10000
    assert all(h.exact for r in reports for h in r.hits)
    assert set(hits) >= {1}


def test_stratify_generic_points_have_corank_zero(e2_frame):
    def off_locus(rng):
        return (
            Fraction(rng.randint(1, 20), rng.randint(1, 5)),
            Fraction(rng.randint(1, 20), rng.randint(1, 5)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
        )

    reports = stratify_samples(e2_frame, budget=300, seed=7, sampler=off_locus, line_search=False)
    assert all(len(r.hits) == 0 for r in reports)


def test_stratify_line_search_lands_on_locus(e1_frame):
    reports = stratify_samples(e1_frame, budget=120, seed=11)
    z1 = next(r for r in reports if r.r == 1)
    exact = [h for h in z1.hits if h.exact]
    assert exact, "rational line roots should land exactly on the locus"
    det = frame_determinant(e1_frame)
    for h in exact:
        assert det.evaluate(h.point) == 0
    assert z1.estimated_codim in (0, 1)
    assert z1.predicted_codim == 1


def test_stratify_e3_slice(e3_frame):
    def slice_sampler(rng):
        return (
            Fraction(0),
            Fraction(0),
            Fraction(rng.randint(-9, 9)),
            Fraction(0),
            Fraction(rng.randint(-9, 9)),
        )

    reports = stratify_samples(e3_frame, budget=50, seed=1, sampler=slice_sampler, line_search=False)
    assert all(h.exact for r in reports for h in r.hits)
    assert sum(len(r.hits) for r in reports) == 50  # det vanishes on the slice


@st.composite
def polys_with_known_roots(draw):
    """Low-first coefficients of scale * g(t) * prod (t - r), and the sorted r.

    The cofactor g has no rational roots, so the roots are exactly the r.
    """
    roots = draw(st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)), max_size=5))
    coeffs = [Fraction(c) for c in draw(st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [1, 1, 1]]))]
    scale = Fraction(draw(st.sampled_from([-7, -1, 1, 3])), draw(st.integers(1, 5)))
    coeffs = [scale * c for c in coeffs]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        coeffs = [a - r * b for a, b in zip(shifted, coeffs + [Fraction(0)])]
    return coeffs, sorted(set(roots))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(polys_with_known_roots())
def test_rational_roots_recovers_known_roots(case):
    coeffs, expected = case
    assert _rational_roots(list(coeffs)) == expected


def test_stratify_deterministic(e1_frame):
    a = stratify_samples(e1_frame, budget=60, seed=42)
    b = stratify_samples(e1_frame, budget=60, seed=42)
    assert a == b


# --- genericity arithmetic -------------------------------------------------------


def test_codims_small_dimensions():
    t2 = genericity_codims(2)
    assert t2["R"] == 1
    assert t2["strata"][0]["codim"] == 1
    t3 = genericity_codims(3)
    assert t3["R"] == 1
    assert t3["strata"][0]["codim"] == 1


def test_codims_formulas():
    t4 = genericity_codims(4)
    z2 = t4["strata"][1]
    assert z2["codim"] == 4 and z2["dim"] == 0
    assert z2["m"] == 2
    t9 = genericity_codims(9)
    z3 = t9["strata"][2]
    assert z3["codim"] == 9
    assert z3["m"] == 6


def test_codims_requires_n_at_least_two():
    with pytest.raises(ValueError):
        genericity_codims(1)


def test_codims_golden_file():
    golden = json.loads((DATA / "codims_golden.json").read_text())
    fresh = {str(n): genericity_codims(n) for n in range(2, 13)}
    assert json.loads(json.dumps(fresh)) == golden


def test_random_frames_rank_iff_determinant(e1_frame):
    rng = random.Random(321)
    for _ in range(30):
        dim = rng.randint(2, 3)
        fields = []
        for _ in range(dim):
            comps = []
            for _ in range(dim):
                terms = {}
                for _ in range(rng.randint(0, 2)):
                    e = [0] * dim
                    for _ in range(rng.randint(0, 2)):
                        e[rng.randrange(dim)] += 1
                    terms[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                comps.append(Polynomial(dim, terms))
            fields.append(VectorField(comps))
        frame = Frame([f"v{i}" for i in range(dim)], fields)
        det = frame_determinant(frame)
        for _ in range(8):
            p = random_rational_point(rng, dim)
            assert (corank_at(frame, p) >= 1) == (det.evaluate(p) == 0)
