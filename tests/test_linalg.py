"""Differential tests of the dense routines and SpanBasis against naive oracles."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ars.linalg import SpanBasis, det, rank, solve_combination

from oracles import dense_rank, highest_first_reduce, leibniz_det

entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def matrices(draw, square: bool = False, max_rows: int = 5):
    """Small rational matrices mixing free rows, zero rows and dependent rows."""
    ncols = draw(st.integers(0, 4))
    nrows = ncols if square else draw(st.integers(0, max_rows))
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "zero", "dependent"])) if rows else "free"
        if kind == "zero":
            row = [Fraction(0)] * ncols
        elif kind == "dependent":
            coefs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            row = [sum((c * r[j] for c, r in zip(coefs, rows)), Fraction(0)) for j in range(ncols)]
        else:
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append(row)
    return rows


@st.composite
def systems(draw):
    """Vectors (the rows of a matrix) and a target, solvable or not."""
    vectors = draw(matrices())
    n = len(vectors[0]) if vectors else draw(st.integers(0, 4))
    if vectors and draw(st.booleans()):
        coefs = draw(st.lists(entries, min_size=len(vectors), max_size=len(vectors)))
        target = [sum((c * v[j] for c, v in zip(coefs, vectors)), Fraction(0)) for j in range(n)]
    else:
        target = draw(st.lists(entries, min_size=n, max_size=n))
    return vectors, target


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle(rows):
    assert rank(rows) == dense_rank(rows)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrices(square=True))
def test_det_matches_leibniz(rows):
    assert det(rows) == leibniz_det(rows)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(systems())
def test_solve_combination_prefers_earlier_vectors(system):
    vectors, target = system
    [coeffs] = solve_combination(vectors, [target])
    solvable = dense_rank(vectors + [target]) == dense_rank(vectors)
    assert (coeffs is None) == (not solvable)
    if coeffs is None:
        return
    assert len(coeffs) == len(vectors)
    combo = [sum((c * v[j] for c, v in zip(coeffs, vectors)), Fraction(0)) for j in range(len(target))]
    assert combo == target
    for a in range(len(vectors)):
        if dense_rank(vectors[: a + 1]) == dense_rank(vectors[:a]):
            assert coeffs[a] == 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(systems(), st.data())
def test_solve_combination_solves_several_targets_as_each_alone(system, data):
    # one span serves every target: reducing one leaves it as the next one finds it
    vectors, target = system
    n = len(target)
    targets = [target] + data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
    assert solve_combination(vectors, targets) == [solve_combination(vectors, [t])[0] for t in targets]
    assert solve_combination(vectors, []) == []


def test_dense_routines_on_empty_input():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert det([]) == 1
    assert solve_combination([], [[]]) == [[]]
    assert solve_combination([], [[0, 0]]) == [[]]
    assert solve_combination([], [[1]]) == [None]


def test_dense_routines_keep_int_input_exact():
    # ints become Fractions before elimination, so pivots divide exactly
    assert rank([[3, 1], [1, 3], [4, 4]]) == 2
    d = det([[1, 2], [3, 4]])
    assert d == Fraction(-2) and type(d) is Fraction
    d = det([[3, 1, 0], [1, 3, 1], [0, 1, 3]])
    assert d == leibniz_det([[3, 1, 0], [1, 3, 1], [0, 1, 3]]) == 21 and type(d) is Fraction
    [coeffs] = solve_combination([[3, 1], [1, 3]], [[1, 0]])
    assert coeffs == [Fraction(3, 8), Fraction(-1, 8)]
    [coeffs] = solve_combination([[3, 0], [0, 7]], [[1, 1]])
    assert coeffs == [Fraction(1, 3), Fraction(1, 7)]
    assert all(type(c) is Fraction for c in coeffs)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_span_basis_is_canonical(rows, rng):
    vecs = [{j: x for j, x in enumerate(row) if x != 0} for row in rows]
    span, shuffled = SpanBasis(), SpanBasis()
    grew = [span.insert(v) for v in vecs]
    order = list(vecs)
    rng.shuffle(order)
    for v in order:
        shuffled.insert(v)
    # the reduced basis depends on the span only, not on insertion order
    assert span == shuffled
    assert span.dim == dense_rank(rows) == sum(grew)
    basis = span.rows()
    for v in vecs:
        coords = span.coordinates(v)
        assert coords is not None and span.contains(v)
        combo: dict = {}
        for i, c in coords.items():
            for k, x in basis[i].items():
                combo[k] = combo.get(k, 0) + c * x
        assert {k: x for k, x in combo.items() if x != 0} == v


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matrices())
def test_coordinates_follow_inserts(rows):
    # coordinates read between inserts must use the basis as it is then
    vecs = [{j: x for j, x in enumerate(row) if x != 0} for row in rows]
    span = SpanBasis()
    for n, v in enumerate(vecs):
        span.insert(v)
        basis = span.rows()
        for u in vecs[: n + 1]:
            coords = span.coordinates(u)
            assert set(coords) <= set(range(len(basis))) and all(coords.values())
            combo: dict = {}
            for i, c in coords.items():
                for k, x in basis[i].items():
                    combo[k] = combo.get(k, 0) + c * x
            assert {k: x for k, x in combo.items() if x != 0} == u


# sparse vectors keyed by 0..5 with int and Fraction entries; zero vectors and
# repeated combinations of earlier vectors make dependent inserts
sparse_entries = st.one_of(
    st.integers(-4, 4).filter(bool), st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
)


@st.composite
def sparse_vectors(draw, max_size: int = 7):
    vecs: list[dict] = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(["free", "zero", "combination"])) if vecs else "free"
        if kind == "zero":
            vecs.append({})
        elif kind == "combination":
            combo: dict = {}
            for v in draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=3)):
                c = draw(sparse_entries)
                for k, x in v.items():
                    combo[k] = combo.get(k, 0) + c * x
            vecs.append({k: x for k, x in combo.items() if x != 0})
        else:
            vecs.append(draw(st.dictionaries(st.integers(0, 5), sparse_entries, max_size=4)))
    return vecs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sparse_vectors(), sparse_vectors())
def test_span_basis_contract(vecs, probes):
    # SpanBasis(vectors) is one insert per vector, in order
    one_by_one = SpanBasis()
    for v in vecs:
        one_by_one.insert(v)
    span = SpanBasis(vecs)
    assert span == one_by_one and span.rows() == one_by_one.rows()
    # canonical rows are taken as they are
    assert SpanBasis.from_reduced(span.rows()) == span
    assert SpanBasis.from_reduced(span.rows()).rows() == span.rows()
    # reduce clears leading keys in any order and agrees with highest first
    leads = set(span.leading_keys())
    for v in vecs + probes:
        rest = span.reduce(v)
        assert rest == highest_first_reduce(span.rows(), v)
        assert not leads & set(rest)
