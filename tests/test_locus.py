from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ars.locus
from ars.locus import (
    DegenerateZ1,
    NotOnZ1,
    StratumReport,
    _adjugate,
    _below,
    _default_ratios,
    _float_coefficients,
    _float_roots,
    _gradient,
    _IntegerForm,
    _minors,
    _rational_roots,
    corank_at,
    default_sampler,
    det_submersion_check,
    frame_determinant,
    genericity_codims,
    stratify_samples,
    tangency_check,
)
from ars.grading import growth_vector
from ars.parser import parse_frame
from ars.pipeline import AnalyzeOptions, analyze
from ars.symcore import Frame, Polynomial, VectorField

from conftest import time_limit
from oracles import (
    dense_rank,
    dict_to_poly,
    frame_cofactor_det,
    naive_coordinate_orders,
    naive_flag_dims,
    naive_float_roots,
    naive_sample_coranks,
    naive_substitute,
    poly_to_dict,
    random_rational_point,
)

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


def _frames_with_constant_entries():
    """Seeded frames on R^2-R^4 with d/dx columns and entries 0, 1, other constants and polynomials."""
    rng = random.Random(17)
    for dim in (2, 3, 4):
        for _ in range(20):
            fields = []
            for j in range(dim):
                if rng.random() < 0.3:
                    fields.append(VectorField.coordinate(dim, j))
                    continue
                comps = []
                for _ in range(dim):
                    kind = rng.choice(["zero", "one", "constant", "polynomial"])
                    if kind == "zero":
                        comps.append(Polynomial.zero(dim))
                    elif kind == "one":
                        comps.append(Polynomial.constant(dim, 1))
                    elif kind == "constant":
                        comps.append(Polynomial.constant(dim, Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))))
                    else:
                        exps = [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
                        comps.append(Polynomial(dim, {e: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for e in exps}))
                fields.append(VectorField(comps))
            yield Frame([f"x{i}" for i in range(dim)], fields)
    # x^300 d/dy off the locus: the d/dx column's entry 1 multiplies the 301-term minor
    frame = parse_frame("vars x y\nfield X1 = d/dx\nfield X2 = 3/7 x^300 d/dy\n").to_frame()
    yield Frame(frame.var_names, frame.fields, (Fraction(9, 8), Fraction(-7, 9))).translated_to_origin()


def test_determinant_matches_cofactor_oracle(e1_frame, e2_frame, e3_frame):
    # the expansion scales a minor by a constant entry, and leaves it as it
    # is for the entry 1, with the oracle's coefficients, types and text
    zero = set()
    for frame in [e1_frame, e2_frame, e3_frame, *_frames_with_constant_entries()]:
        det, oracle = frame_determinant(frame), frame_cofactor_det(frame)
        assert det == oracle
        assert [type(c) for c in det.terms.values()] == [type(oracle.terms[k]) for k in det.terms]
        assert det.format(frame.var_names) == oracle.format(frame.var_names)
        zero.add(det.is_zero)
    assert zero == {True, False} and len(det.terms) == 301


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


def test_z1_messages_print_points_as_rationals(tangential_frame):
    # frame {d/dx, x^2 d/dy}: corank 1 and a singular determinant on x = 0
    frame = Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 1, var(2, 0) ** 2)])
    with pytest.raises(DegenerateZ1) as degenerate:
        tangency_check(frame, (0, Fraction(1, 2)))
    assert str(degenerate.value) == "the determinant is singular at (0, 1/2)"
    for check in (det_submersion_check, tangency_check):
        with pytest.raises(NotOnZ1) as off_locus:
            check(tangential_frame, (Fraction(1, 2), Fraction(-3, 4)))
        assert str(off_locus.value) == "corank at (1/2, -3/4) is not 1"


# --- sampling -----------------------------------------------------------------


def e1_slice(rng):
    # the plane x = 0, inside E1's locus
    return (
        Fraction(0),
        Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
    )


def e3_slice(rng):
    # x = y = w = 0, inside E3's locus
    return (
        Fraction(0),
        Fraction(0),
        Fraction(rng.randint(-9, 9)),
        Fraction(0),
        Fraction(rng.randint(-9, 9)),
    )


def test_stratify_slice_sampler_sees_locus(e1_frame):
    reports = stratify_samples(e1_frame, budget=10000, seed=3, sampler=e1_slice, line_search=False)
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
    reports = stratify_samples(e3_frame, budget=50, seed=1, sampler=e3_slice, line_search=False)
    assert all(h.exact for r in reports for h in r.hits)
    assert sum(len(r.hits) for r in reports) == 50  # det vanishes on the slice


# --- the sampler against a dense rank of every sample -----------------------------


def sampled_coranks(frame, budget, seed, sampler=None):
    """{r: hit points} of the random samples, checking every report's sample count."""
    reports = stratify_samples(frame, budget, seed=seed, sampler=sampler, line_search=False)
    assert all(rep.sample_count == budget for rep in reports)
    assert all(h.exact for rep in reports for h in rep.hits)
    return {rep.r: [h.point for h in rep.hits] for rep in reports if rep.hits}


def count_corank_calls(monkeypatch) -> list[int]:
    calls = [0]

    def counting(frame, point):
        calls[0] += 1
        return corank_at(frame, point)

    monkeypatch.setattr(ars.locus, "corank_at", counting)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampler_matches_dense_rank_oracle(e1_frame, e2_frame, e3_frame, seed):
    for frame in (e1_frame, e2_frame, e3_frame):
        assert sampled_coranks(frame, 200, seed) == naive_sample_coranks(frame, 200, seed)


def test_sampler_on_slices_matches_oracle(e1_frame, e3_frame):
    for frame, sampler in ((e1_frame, e1_slice), (e3_frame, e3_slice)):
        expected = naive_sample_coranks(frame, 300, 4, sampler)
        assert sum(map(len, expected.values())) == 300
        assert sampled_coranks(frame, 300, 4, sampler) == expected


def test_sampler_ranks_everywhere_when_determinant_vanishes(monkeypatch):
    # d/dx, 2 d/dx: the determinant is the zero polynomial, so every sample is
    # on the locus and none is decided by it; the 1-minors 1 and 2 are
    # constants, so adj(M) != 0 everywhere and corank 1 is certified at every
    # sample without a rank
    frame = Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 0, Polynomial.constant(2, 2))])
    assert frame_determinant(frame).is_zero
    calls = count_corank_calls(monkeypatch)
    got = sampled_coranks(frame, 120, 5)
    assert calls[0] == 0
    assert got == naive_sample_coranks(frame, 120, 5)
    assert list(got) == [1] and len(got[1]) == 120


def test_sampler_ranks_nowhere_when_determinant_is_constant(monkeypatch):
    # d/dx, x d/dx + d/dy: the determinant is 1
    frame = Frame(("x", "y"), [VectorField.coordinate(2, 0), VectorField([var(2, 0), Polynomial.constant(2, 1)])])
    assert frame_determinant(frame) == Polynomial.constant(2, 1)
    calls = count_corank_calls(monkeypatch)
    assert sampled_coranks(frame, 120, 5) == naive_sample_coranks(frame, 120, 5) == {}
    assert calls[0] == 0
    # a zero-free determinant decides every report: no sample is drawn and no line searched
    draws = [0]

    def counting_sampler(rng):
        draws[0] += 1
        return default_sampler(rng, 2)

    for sampler in (None, counting_sampler):
        reports = stratify_samples(frame, 120, seed=5, sampler=sampler)
        assert reports == (StratumReport(r=1, sample_count=120, hits=(), estimated_codim=None, predicted_codim=1),)
    assert draws[0] == 0


def test_sampler_ranks_where_the_gradient_vanishes(monkeypatch, e2_frame):
    # E2 at the origin: corank 2, so adj(M) = 0 and the determinant's
    # gradient vanishes; no certificate applies and every hit is ranked
    origin = (0, 0, 0, 0)
    assert corank_at(e2_frame, origin) == 2
    assert all(g.evaluate(origin) == 0 for g in _gradient(frame_determinant(e2_frame)))
    calls = count_corank_calls(monkeypatch)
    reports = stratify_samples(e2_frame, 30, seed=0, sampler=lambda rng: origin, line_search=False)
    assert calls[0] == 30
    assert [(r.r, len(r.hits), r.estimated_codim) for r in reports] == [(1, 0, None), (2, 30, 0)]


def grid_sampler(dim):
    # a coarse grid, so that small frames meet their locus often
    return lambda rng: tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim))


@st.composite
def small_frame(draw):
    """n fields on R^n, n = 1..3; a component is zero or, three times in four, one low-degree term."""
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 2)] * dim)).filter(lambda e: sum(e) <= 2)
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    fields = []
    for _ in range(dim):
        comps = [Polynomial(dim, {draw(exps): draw(coeff)}) if draw(st.integers(0, 3)) else Polynomial.zero(dim)
                 for _ in range(dim)]
        fields.append(VectorField(comps))
    return Frame([f"v{i}" for i in range(dim)], fields)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_frame(), st.integers(0, 2**16))
def test_regular_point_flag_is_the_fields_values(frame, seed):
    # off the singular locus the structure is Riemannian: the flag is (n) at
    # length 1 with every order 1, read off the values and with no walk
    rng = random.Random(seed)
    det = frame_determinant(frame)
    point = next((p for p in (random_rational_point(rng, frame.dim) for _ in range(4)) if det.evaluate(p)), None)
    assume(point is not None)
    growth, weights = growth_vector(Frame(frame.var_names, frame.fields, point))
    n = frame.dim
    assert (growth.dims, growth.step, growth.orders, growth.walk) == ((n,), 1, (1,) * n, None)
    assert weights == (1,) * n
    assert naive_flag_dims(list(frame.fields), point, 1) == [n]
    assert naive_coordinate_orders(frame, point, 1) == [1] * n


# the oracle ranks only the random samples, so line search stays off here;
# test_line_hits_on_small_frames_lie_on_the_locus runs it
@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_frame(), st.booleans(), st.integers(0, 2**16))
def test_sampler_matches_oracle_on_small_frames(frame, on_grid, seed):
    sampler = grid_sampler(frame.dim) if on_grid else None
    assert sampled_coranks(frame, 40, seed, sampler) == naive_sample_coranks(frame, 40, seed, sampler)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_frame(), st.integers(0, 2**16))
def test_nonzero_gradient_at_a_line_root_means_corank_one(frame, seed):
    # Jacobi: d det M = tr(adj(M) dM), so where det = 0 and its gradient is
    # nonzero adj(M) != 0 and the corank is exactly 1, by corank_at and by
    # the dense-rank oracle alike
    rng = random.Random(seed)
    det = frame_determinant(frame)
    assume(not det.is_zero)
    detp, grad, n = _IntegerForm(det), _gradient(det), frame.dim
    for _ in range(4):
        base = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        direction = [rng.randint(-3, 3) for _ in range(n)]
        for t in _rational_roots(detp.on_line(base, direction)[0]) if any(direction) else []:
            point = [Fraction(p, q) + t * d for (p, q), d in zip(base, direction)]
            assert det.evaluate(point) == 0
            if any(g.evaluate(point) for g in grad):
                assert corank_at(frame, point) == n - dense_rank([f.evaluate(point) for f in frame.fields]) == 1


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_frame(), st.integers(0, 2**16))
def test_adjugate_decides_corank_one_at_locus_points(frame, seed):
    # rank M >= n - 1 exactly where adj(M) != 0: at every zero of the
    # determinant on the grid {-1, 0, 1}^n (all of it where the determinant
    # vanishes identically) and at every rational root on random lines, some
    # (n - 1)-minor is nonzero exactly when the dense-rank oracle gives
    # corank <= 1
    rng = random.Random(seed)
    n, minor = frame.dim, _minors(frame)
    every = tuple(range(n))
    det, adjugate = minor(every, every), _adjugate(minor, n)
    assert det == frame_determinant(frame)
    detp = _IntegerForm(det)
    points = [tuple(map(Fraction, p)) for p in itertools.product((-1, 0, 1), repeat=n)]
    for _ in range(4):
        base = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        direction = [rng.randint(-3, 3) for _ in range(n)]
        for t in _rational_roots(detp.on_line(base, direction)[0]) if any(direction) else []:
            points.append(tuple(Fraction(p, q) + t * d for (p, q), d in zip(base, direction)))
    for point in points:
        if det.evaluate(point) != 0:
            continue
        corank = n - dense_rank([f.evaluate(point) for f in frame.fields])
        certified = not all(c.vanishes_at([x.as_integer_ratio() for x in point]) for c in adjugate)
        assert corank >= 1 and certified == (corank <= 1)


@pytest.mark.parametrize(
    "name, line_search, calls, summary",
    [
        ("e1_frame", True, 0, [(1, 48, 238, 0)]),
        ("e2_frame", True, 0, [(1, 43, 236, 0), (2, 0, 236, None)]),
        ("e3_frame", True, 1, [(1, 61, 254, 0), (2, 1, 254, None)]),
        ("e1_frame", False, 0, [(1, 10, 200, 0)]),
        ("e2_frame", False, 0, [(1, 7, 200, 0), (2, 0, 200, None)]),
        ("e3_frame", False, 0, [(1, 8, 200, 0), (2, 0, 200, None)]),
    ],
)
def test_sampler_ranks_only_on_the_zero_set(request, monkeypatch, name, line_search, calls, summary):
    # corank 0 is read off the determinant, and corank 1 off the (n - 1)-minors
    # wherever one is nonzero, so only the zeros of the whole adjugate among
    # the random samples on the zero set and the rational line roots are
    # ranked (E3's one corank-2 hit); ranking every random sample would make
    # 190 to 193 more calls
    frame = request.getfixturevalue(name)
    counter = count_corank_calls(monkeypatch)
    reports = stratify_samples(frame, 200, seed=0, line_search=line_search)
    assert counter[0] == calls
    assert [(r.r, len(r.hits), r.sample_count, r.estimated_codim) for r in reports] == summary


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_draws_are_the_standard_librarys(dim):
    # the sample ratios and the line directions come from getrandbits as
    # CPython's randrange draws them: the same values, and the generator left
    # in the same state, so the points of a seed stay the same
    for seed in range(50):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert _default_ratios(rng, dim) == [(twin.randrange(-20, 21), twin.randrange(1, 9)) for _ in range(dim)]
            assert [_below(rng.getrandbits, 11) - 5 for _ in range(dim)] == [twin.randrange(-5, 6) for _ in range(dim)]
        assert rng.getstate() == twin.getstate()


def hits_digest(hits) -> str:
    """sha256 prefix of the hits: exact points as str(Fraction), approximate ones as float.hex."""
    text = ";".join(
        f"{int(h.exact)}:" + ",".join(str(c) if h.exact else float.hex(c) for c in h.point) for h in hits
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (r, sample_count, estimated_codim, number of hits, hits_digest) per
# stratum of stratify_samples(frame, 200, seed) with line search on
SAMPLER_PINS = {
    ("e1_frame", 0): [(1, 238, 0, 48, "532e9751e186df9a")],
    ("e1_frame", 1): [(1, 236, 0, 47, "b193ba88786ce47b")],
    ("e1_frame", 2): [(1, 237, 0, 48, "a359d07a65f9382c"), (2, 237, None, 1, "a80258a1ee333a37")],
    ("e1_frame", 3): [(1, 235, 0, 45, "9b82fa5cfedbe114"), (2, 235, 0, 1, "8daecdc5d8b74730")],
    ("e2_frame", 0): [(1, 236, 0, 43, "71a998a24e57ec95"), (2, 236, None, 0, "e3b0c44298fc1c14")],
    ("e2_frame", 1): [(1, 234, 0, 39, "6549fa6e7fce46c4"), (2, 234, 0, 1, "a187cc1ceddad493")],
    ("e2_frame", 2): [(1, 236, 0, 47, "b99ab6170e88d117"), (2, 236, 0, 1, "d0187333d779b369")],
    ("e2_frame", 3): [(1, 238, 0, 48, "3dc84ffaa20d72c0"), (2, 238, None, 0, "e3b0c44298fc1c14")],
    ("e3_frame", 0): [(1, 254, 0, 61, "c7449c33b5db6109"), (2, 254, None, 1, "2f4f68442c78b5fb")],
    ("e3_frame", 1): [(1, 254, 0, 66, "56da62a4c24fadf5"), (2, 254, None, 0, "e3b0c44298fc1c14")],
    ("e3_frame", 2): [(1, 254, 0, 65, "6f98e073a6815085"), (2, 254, None, 0, "e3b0c44298fc1c14")],
    ("e3_frame", 3): [(1, 251, 0, 64, "d6abb8eccbc28b24"), (2, 251, None, 0, "e3b0c44298fc1c14")],
    ("grushin_frame", 0): [(1, 217, 0, 20, "87e1ac5a6839ba1b")],
    ("grushin_frame", 1): [(1, 216, 0, 23, "a4b5016af402ec03")],
    ("grushin_frame", 2): [(1, 216, 0, 21, "d952dc8267a087d3")],
    ("grushin_frame", 3): [(1, 219, 0, 24, "adfc801429ec8392")],
    ("tangential_frame", 0): [(1, 216, 1, 16, "62785fa42689e832")],
    ("tangential_frame", 1): [(1, 219, 0, 21, "879a177804ba94d7")],
    ("tangential_frame", 2): [(1, 220, 0, 23, "ca3e5637a6be4412")],
    ("tangential_frame", 3): [(1, 221, 0, 22, "256f118e580c0c5e")],
}


@pytest.mark.parametrize("name, seed", sorted(SAMPLER_PINS))
def test_sampler_output_is_pinned(request, name, seed):
    reports = stratify_samples(request.getfixturevalue(name), 200, seed=seed)
    got = [(r.r, r.sample_count, r.estimated_codim, len(r.hits), hits_digest(r.hits)) for r in reports]
    assert got == SAMPLER_PINS[name, seed]


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


def expand(*factors):
    """Low-first coefficients of the product of factor ** power over (factor, power) pairs."""
    out = [Fraction(1)]
    for factor, power in factors:
        for _ in range(power):
            prod = [Fraction(0)] * (len(out) + len(factor) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(factor):
                    prod[i + j] += a * b
            out = prod
    return out


@pytest.mark.parametrize(
    "factors, roots",
    [
        ([([2, 3], 40)], [Fraction(-2, 3)]),
        # like a line restriction of x^40: 17^40 has only 41 divisors, but
        # trial division would run up to 17^20
        ([([17, 15], 40)], [Fraction(-17, 15)]),
        ([([-6, 5], 3), ([-17, 12], 1)], [Fraction(6, 5), Fraction(17, 12)]),
        ([([1, 1, 1], 2), ([-7, 2], 5), ([4, 1], 1)], [Fraction(-4), Fraction(7, 2)]),
        ([([-2, 0, 1], 3), ([0, 1], 4), ([5, -3], 2)], [Fraction(0), Fraction(5, 3)]),
        # trial division below the square root of 10^16 + 1 would run to 10^8,
        # but the root bound stops the search for numerators at 32
        ([([10**16 + 1] + [0] * 15 + [1], 1)], []),
        ([([-3, 1], 1), ([10**16 + 1] + [0] * 15 + [1], 1)], [Fraction(3)]),
        # the reversed polynomials: the bound on the inverse roots stops the
        # search for denominators at 32
        ([([1] + [0] * 15 + [10**16 + 1], 1)], []),
        ([([-1, 3], 1), ([1] + [0] * 15 + [10**16 + 1], 1)], [Fraction(1, 3)]),
        # Descartes' rule of signs: neither f(t) nor f(-t) changes sign, so no
        # sign is tried, where trial division would run to 10^8 for each
        # coefficient to find no root
        ([([10**16 + 3] + [0] * 15 + [10**16 + 1], 1)], []),
        # t^3 + t + 10 has only negative roots, and t^3 + t - 10 only positive ones
        ([([10, 1, 0, 1], 1)], [Fraction(-2)]),
        ([([-10, 1, 0, 1], 1)], [Fraction(2)]),
    ],
)
def test_rational_roots_of_repeated_factors(factors, roots):
    # the roots are read off the square-free part, whose constant term is small,
    # and candidates are tried only up to the root bound
    coeffs = expand(*((list(map(Fraction, f)), k) for f, k in factors))
    with time_limit(5):
        assert _rational_roots(coeffs) == roots


def sympy_rational_roots(sympy, coeffs):
    """The roots of the linear factors of sympy's factorisation over Q, sorted."""
    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t, domain="QQ")
    linear = (f.all_coeffs() for f, _ in poly.factor_list()[1] if f.degree() == 1)
    return sorted({-Fraction(int(b.p), int(b.q)) / Fraction(int(a.p), int(a.q)) for a, b in linear})


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2204)
    for _ in range(300):
        # a product of powers of random linear factors and a random cofactor
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 4)):
            factor = [Fraction(-rng.randint(-12, 12)), Fraction(rng.randint(1, 6))]
            coeffs = expand((coeffs, 1), (factor, rng.choice([1, 1, 2, 3])))
        if any(coeffs):
            assert _rational_roots(coeffs) == sympy_rational_roots(sympy, coeffs), coeffs


# --- the sampler's integer arithmetic against its Fraction form ---------------------------


def vanishing_det_frame():
    """d/dx, 2 d/dx: the determinant is the zero polynomial."""
    return Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 0, Polynomial.constant(2, 2))])


def check_integer_restriction(det, base, direction):
    """The integer restriction of det to base + t*direction equals the naive substitution's.

    Exactly as Fractions, and bit for bit as floats; also from base
    coordinates that are not in lowest terms.
    """
    line = dict_to_poly(1, naive_substitute(poly_to_dict(det), base, direction, [0] * det.dim, 1))
    expected = [line.terms.get((d,), Fraction(0)) for d in range(line.total_degree() + 1)]
    form = _IntegerForm(det)
    for scale in (1, 3):
        coeffs, denom = form.on_line([(b.numerator * scale, b.denominator * scale) for b in base], direction)
        assert [Fraction(c, denom) for c in coeffs] == expected
        assert [float.hex(c / denom) for c in coeffs] == [float.hex(float(c)) for c in expected]


@pytest.mark.parametrize("name", ["e1_frame", "e2_frame", "e3_frame", "tangential_frame", "vanishing"])
def test_integer_restriction_matches_substitution(request, name):
    frame = vanishing_det_frame() if name == "vanishing" else request.getfixturevalue(name)
    det = frame_determinant(frame)
    rng = random.Random(name)
    for _ in range(30):
        base = [Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(frame.dim)]
        check_integer_restriction(det, base, [rng.randint(-5, 5) for _ in range(frame.dim)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_frame(), st.data())
def test_integer_restriction_matches_substitution_on_small_frames(frame, data):
    coordinate = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 8))
    base = data.draw(st.lists(coordinate, min_size=frame.dim, max_size=frame.dim))
    direction = data.draw(st.lists(st.integers(-5, 5), min_size=frame.dim, max_size=frame.dim))
    check_integer_restriction(frame_determinant(frame), base, direction)


def rational_coefficients(max_size=7):
    return st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)), max_size=max_size)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(polys_with_known_roots().map(lambda case: case[0]), rational_coefficients()))
def test_float_roots_match_reference_loop(coeffs):
    # the grid in one Horner pass and the bisection's early stop return the
    # reference loop's floats bit for bit
    known = _rational_roots(coeffs)
    got = _float_roots([float(c) for c in coeffs], known)
    assert list(map(float.hex, got)) == list(map(float.hex, naive_float_roots(coeffs, known)))


def test_float_roots_keep_the_spurious_root_near_a_triple_root():
    # -(5t - 6)^3 (12t - 17) / 300, a line restriction of E3's determinant at
    # seed 0: float noise changes sign 1.2e-5 away from the triple root 6/5,
    # and the pinned E3 report keeps the resulting approximate hit
    coeffs = [c / -300 for c in expand(([Fraction(-6), Fraction(5)], 3), ([Fraction(-17), Fraction(12)], 1))]
    known = _rational_roots(coeffs)
    assert known == [Fraction(6, 5), Fraction(17, 12)]
    got = _float_roots([float(c) for c in coeffs], known)
    assert got and list(map(float.hex, got)) == list(map(float.hex, naive_float_roots(coeffs, known)))


@pytest.mark.parametrize("offset", [-15, -5, 5, 15])
def test_float_roots_stop_early_only_when_both_ends_are_near_a_known_root(offset):
    # t^2 - 2 with a known root offset * 1e-8 from sqrt(2): a bisection that
    # stopped with one end near the known root would return another float
    coeffs = [Fraction(-2), Fraction(0), Fraction(1)]
    known = [Fraction(math.sqrt(2)) + Fraction(offset, 10**8)]
    got = _float_roots([float(c) for c in coeffs], known)
    assert list(map(float.hex, got)) == list(map(float.hex, naive_float_roots(coeffs, known)))
    assert len(got) == (2 if abs(offset) > 10 else 1)


def test_float_coefficients_in_range_are_the_quotients():
    coeffs, denom = [3, -7, 10**300, 0, -(2**1000)], 9**50
    assert _float_coefficients(coeffs, denom) == [c / denom for c in coeffs]
    assert _float_coefficients([], 5) == []


def test_float_coefficients_beyond_float_range_share_a_power_of_two():
    # 10^400 (1 - 3t + t^2) / 7: every quotient leaves float range, so all are
    # divided by one power of two, which keeps their signs and ratios
    coeffs, denom = [10**400, -3 * 10**400, 10**400], 7
    floats = _float_coefficients(coeffs, denom)
    k = round(math.log2(Fraction(10**400, denom) / Fraction(floats[0])))
    assert k > 0 and floats == [c / (denom << k) for c in coeffs]
    assert _float_roots(floats, []) == pytest.approx([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])


def test_float_roots_skip_known_roots_beyond_float_range():
    # t - 1 with a known root 10^400, which float() cannot convert
    assert _float_roots([-1.0, 1.0], [Fraction(10**400)]) == [1.0]
    assert _float_roots([-1.0, 1.0], [Fraction(10**400), Fraction(1)]) == []


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_frame(), st.booleans(), st.integers(0, 2**16))
def test_line_hits_on_small_frames_lie_on_the_locus(frame, on_grid, seed):
    sampler = grid_sampler(frame.dim) if on_grid else None
    with time_limit(5):
        reports = stratify_samples(frame, 40, seed=seed, sampler=sampler)
    det = frame_determinant(frame)
    assert len({rep.sample_count for rep in reports}) == 1 and reports[0].sample_count >= 40
    for rep in reports:
        for hit in rep.hits:
            if hit.exact:
                assert det.evaluate(hit.point) == 0 and corank_at(frame, hit.point) == rep.r >= 1
            else:
                assert rep.r == 1


def test_high_power_stratification_finishes():
    doc = parse_frame("vars x y\nfield X1 = d/dx\nfield X2 = x^40 d/dy\n")
    with time_limit(20):
        report = analyze(doc, AnalyzeOptions(stratify=True, samples=50)).to_json_dict()
    # the approximate hits are float noise around the 40-fold root x = 0, so
    # their number is not pinned
    [stratum] = report["stratification"]
    assert (stratum["r"], stratum["predicted_codim"], stratum["estimated_codim"]) == (1, 1, 0)
    assert 1 <= stratum["exact_hits"] <= stratum["hits"] <= stratum["sample_count"]
    assert stratum["sample_count"] >= 50


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
