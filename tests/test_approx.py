from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ars.approx import build_approximation, check_triangular_complete
from ars.grading import growth_vector, homogeneous_parts
from ars.linalg import det
from ars.parser import parse_frame
from ars.symcore import ArsError, Frame, Polynomial, VectorField, frame_rank_at

from oracles import dense_rank, random_rational_point
from test_locus import small_frame


def var(dim, j):
    return Polynomial.variable(dim, j)


def only_component(dim, j, poly):
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    comps[j] = poly
    return VectorField(comps)


def part(X, s, w):
    """Homogeneous part of order s of X; zero when X has none."""
    return homogeneous_parts(X, w).get(s, VectorField.zero(X.dim))


def test_nilpotent_approx_examples():
    # already homogeneous of order -1
    X3 = only_component(3, 2, var(3, 1) ** 2)
    assert part(X3, -1, (1, 2, 5)) == X3
    # mixed field keeps only the order -1 part
    mixed = only_component(4, 2, var(4, 0)) + only_component(
        4, 3, Fraction(1, 2) * var(4, 1) ** 2
    )
    assert part(mixed, -1, (1, 1, 2, 2)) == only_component(4, 2, var(4, 0))
    # an order -2 field has no order -1 part
    assert part(only_component(3, 2, var(3, 0) * var(3, 1)), -1, (1, 2, 5)).is_zero


def test_order_zero_component_examples(e3_frame):
    mixed = only_component(4, 2, var(4, 0)) + only_component(
        4, 3, Fraction(1, 2) * var(4, 1) ** 2
    )
    assert part(mixed, 0, (1, 1, 2, 2)) == only_component(
        4, 3, Fraction(1, 2) * var(4, 1) ** 2
    )
    X4 = e3_frame.fields[3]
    assert part(X4, 0, (1, 1, 2, 1, 2)) == X4
    assert part(VectorField.coordinate(3, 0), 0, (1, 2, 5)).is_zero


def test_triangular_completeness_check():
    assert check_triangular_complete(
        only_component(4, 3, Fraction(1, 2) * var(4, 1) ** 2), (1, 1, 2, 2)
    )
    assert not check_triangular_complete(only_component(1, 0, var(1, 0) ** 2), (1,))
    # order -1 homogeneous fields are always triangular
    assert check_triangular_complete(only_component(3, 2, var(3, 1) ** 2), (1, 2, 5))


def test_build_approximation_e1(e1_frame):
    _, w = growth_vector(e1_frame)
    A = build_approximation(e1_frame, w)
    assert (A.k, A.m) == (1, 3)
    assert not A.degenerate
    assert A.hat_fields == e1_frame.fields
    assert A.tilde_fields == ()
    n = e1_frame.dim
    identity = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    assert A.transform == identity


def test_build_approximation_e2(e2_frame):
    _, w = growth_vector(e2_frame)
    A = build_approximation(e2_frame, w)
    assert A.k == 2
    # under the minimum-valuation order convention the fourth field keeps a
    # nonzero order -1 part (x d/dz), so all four survive as hat fields
    assert A.m == 4
    assert not A.degenerate
    assert A.hat_fields[2] == only_component(4, 3, var(4, 1))
    assert A.hat_fields[3] == only_component(4, 2, var(4, 0))
    origin = (0, 0, 0, 0)
    for i, h in enumerate(A.hat_fields):
        value_is_zero = all(c == 0 for c in h.evaluate(origin))
        assert value_is_zero == (i >= A.k)
        assert not h.is_zero
    assert part(e2_frame.fields[3], -1, w) == only_component(4, 2, var(4, 0))
    assert part(e2_frame.fields[3], 0, w) == only_component(
        4, 3, Fraction(1, 2) * var(4, 1) ** 2
    )


def test_build_approximation_e3(e3_frame):
    _, w = growth_vector(e3_frame)
    A = build_approximation(e3_frame, w)
    assert (A.k, A.m) == (3, 3)
    assert not A.degenerate
    assert A.hat_fields == e3_frame.fields[:3]
    assert A.tilde_fields == e3_frame.fields[3:]


def test_every_output_is_homogeneous(e1_frame, e2_frame, e3_frame):
    for frame in (e1_frame, e2_frame, e3_frame):
        _, w = growth_vector(frame)
        A = build_approximation(frame, w)
        for h in A.hat_fields:
            assert list(homogeneous_parts(h, w)) == [-1]
        for t in A.tilde_fields:
            assert list(homogeneous_parts(t, w)) == [0]
        for f in A.fields:
            assert check_triangular_complete(f, w)


def random_frame(rng, dim):
    """n fields on R^n, each a few terms of degree 0 to 2 with random directions."""
    fields = []
    for _ in range(dim):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * dim
            for _ in range(rng.choice([0, 0, 1, 2])):
                e[rng.randrange(dim)] += 1
            terms[(rng.randrange(dim), tuple(e))] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        fields.append(VectorField.from_terms(dim, terms))
    return Frame([f"v{i}" for i in range(dim)], fields)


@pytest.fixture(scope="module")
def approximated_frames(e1_frame, e2_frame, e3_frame, affine_frame, degenerate_frame):
    """(frame, weights, approximation) for the fixtures and the random frames whose flag reaches full rank."""
    out = []
    for frame in (e1_frame, e2_frame, e3_frame, affine_frame, degenerate_frame):
        _, w = growth_vector(frame)
        out.append((frame, w, build_approximation(frame, w)))
    rng = random.Random(3)
    for _ in range(80):
        frame = random_frame(rng, rng.randint(2, 4))
        try:
            # a rank-deficient random frame would otherwise walk to depth 2 n deg
            _, w = growth_vector(frame, max_depth=4)
        except ArsError:
            continue
        out.append((frame, w, build_approximation(frame, w)))
    # the sweep reaches every branch: step-2 adjustments, dropped and degenerate sets
    assert sum(any(A.adjusted_flags()) for _, _, A in out) >= 5
    assert sum(bool(A.tilde_fields) for _, _, A in out) >= 10
    assert sum(A.degenerate for _, _, A in out) >= 5
    return out


def transformed(frame, A):
    """sum_j transform[i][j] * original_j for each row i, by repeated + and *."""
    out = []
    for row in A.transform:
        combo = VectorField.zero(frame.dim)
        for c, orig in zip(row, frame.fields):
            if c != 0:
                combo = combo + c * orig
        out.append(combo)
    return out


def test_transform_reproduces_outputs(approximated_frames):
    for frame, w, A in approximated_frames:
        assert det(A.transform) != 0
        assert len(A.fields) == frame.dim
        for i, combo in enumerate(transformed(frame, A)):
            if i < A.m:
                assert part(combo, -1, w) == A.fields[i]
            else:
                assert part(combo, 0, w) == A.fields[i]


def test_transform_preserves_pointwise_span(approximated_frames):
    rng = random.Random(11)
    for frame, _, A in approximated_frames:
        fields = transformed(frame, A)
        for _ in range(10):
            p = random_rational_point(rng, frame.dim)
            assert frame_rank_at(fields, p) == frame_rank_at(list(frame.fields), p)


def test_idempotence_on_approximated_frames(e1_frame, e3_frame):
    for frame in (e1_frame, e3_frame):
        _, w = growth_vector(frame)
        A = build_approximation(frame, w)
        again = build_approximation(Frame(frame.var_names, A.fields), w)
        assert again.hat_fields == A.hat_fields
        assert again.tilde_fields == A.tilde_fields
        assert (again.k, again.m) == (A.k, A.m)


def test_step2_adjustment_recorded(affine_frame):
    _, w = growth_vector(affine_frame)
    assert w == (1, 2)
    A = build_approximation(affine_frame, w)
    assert (A.k, A.m) == (1, 2)
    # the second field was corrected by the first to vanish at the origin
    assert A.hat_fields[1] == only_component(2, 1, var(2, 0))
    assert A.transform[1] == (Fraction(-1), Fraction(1))
    assert A.adjusted_flags() == (False, True)


@pytest.mark.parametrize(
    ("text", "weights", "k", "m", "source_order", "transform"),
    [
        # X3's value at the origin is 1/2 X1 + 1/2 X2, both selected
        ("vars x y z\nfield X1 = d/dx + d/dy\nfield X2 = d/dx - d/dy\nfield X3 = d/dx + x d/dz\n", (1, 1, 2),
         2, 3, (0, 1, 2), ((1, 0, 0), (0, 1, 0), (Fraction(-1, 2), Fraction(-1, 2), 1))),
        # X2 and X3 vanish at the origin: their rows are their own columns
        ("vars x y z\nfield X1 = d/dx\nfield X2 = x d/dy\nfield X3 = y^2 d/dz\n", (1, 2, 5),
         1, 3, (0, 1, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        # the affine fixture: X2's value is X1's, and X2 - X1 = x d/dy is kept
        ("vars x y\nfield X1 = d/dx\nfield X2 = d/dx + x d/dy\n", (1, 2),
         1, 2, (0, 1), ((1, 0), (-1, 1))),
    ],
    ids=["fraction_combination", "zero_at_origin", "affine"],
)
def test_transform_pins(text, weights, k, m, source_order, transform):
    A = build_approximation(parse_frame(text).to_frame(), weights)
    assert (A.k, A.m, A.source_order, A.transform) == (k, m, source_order, transform)
    # a field's own column stays the int 1; an entry that cancels a value is a Fraction
    assert [[type(c) for c in row if c] for row in A.transform] == [
        [int if c == 1 and j == source_order[i] else Fraction for j, c in enumerate(row) if c]
        for i, row in enumerate(transform)
    ]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_frame(), st.tuples(*[st.integers(1, 3)] * 3))
def test_selection_is_the_dense_greedy_one(frame, weights):
    # any positive weights: the elimination is the same whatever the orders are
    n, w = frame.dim, weights[: frame.dim]
    A = build_approximation(frame, w)
    values = [part(X, -1, w).evaluate(frame.base_point) for X in frame.fields]
    chosen: list[int] = []
    for i, v in enumerate(values):
        if dense_rank([values[j] for j in chosen] + [v]) > len(chosen):
            chosen.append(i)
    assert (A.k, A.source_order[: A.k]) == (len(chosen), tuple(chosen))
    for pos, (i, row) in enumerate(zip(A.source_order, A.transform)):
        assert row[i] == 1 and type(row[i]) is int
        # a selected row is its unit vector; any other row cancels its value with the selected fields
        assert all(c == 0 for j, c in enumerate(row) if j != i and (pos < A.k or j not in chosen))
        if pos >= A.k:
            assert all(sum(c * v[r] for c, v in zip(row, values)) == 0 for r in range(n))


def test_degenerate_set_is_flagged(degenerate_frame):
    _, w = growth_vector(degenerate_frame)
    assert w == (1, 1, 2, 1, 2)
    A = build_approximation(degenerate_frame, w)
    assert A.degenerate
    # both leftover fields collapse onto the same order-0 component
    assert A.tilde_fields[0] == A.tilde_fields[1]


def test_build_approximation_requires_centered_frame(e1_frame):
    off = Frame(e1_frame.var_names, e1_frame.fields, (1, 1, 1))
    with pytest.raises(ValueError):
        build_approximation(off, (1, 2, 5))
