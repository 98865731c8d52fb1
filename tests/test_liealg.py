from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ars.approx import build_approximation
from ars.grading import growth_vector, homogeneous_parts
from ars.linalg import SpanBasis
from ars.liealg import (
    DegreeBoundExceeded,
    GradedFrameUnavailable,
    LieBasis,
    NotInvariant,
    _span,
    adjoint_matrix,
    classify_fields,
    graded_frame,
    ideal_closure,
    is_solvable,
    lie_closure,
    nilpotent_step,
)
from ars.symcore import ArsError, Frame, Polynomial, VectorField, frame_rank_at, lie_bracket, linear_combination

from oracles import (
    all_pairs_structure,
    closure_fields,
    derived_dims,
    ideal_fields,
    lower_central_dims,
    naive_graded_frame,
    spans_equal,
    structure,
)
from test_approx import random_frame


def var(dim, j):
    return Polynomial.variable(dim, j)


def only_component(dim, j, poly):
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    comps[j] = poly
    return VectorField(comps)


def e1_nine_fields():
    x, y = var(3, 0), var(3, 1)
    return [
        VectorField.coordinate(3, 0),  # d/dx
        only_component(3, 1, x),  # x d/dy
        only_component(3, 2, y**2),  # y^2 d/dz
        VectorField.coordinate(3, 1),  # d/dy
        only_component(3, 2, y),  # y d/dz
        only_component(3, 2, x),  # x d/dz
        VectorField.coordinate(3, 2),  # d/dz
        only_component(3, 2, x * y),  # xy d/dz
        only_component(3, 2, x**2),  # x^2 d/dz
    ]


# --- closures -----------------------------------------------------------------


def test_closure_e1_span(e1_frame):
    L = lie_closure(e1_frame.fields)
    assert len(L) == 9
    assert spans_equal(list(L.basis), e1_nine_fields())
    # independent all-pairs closure agrees
    oracle = closure_fields(list(e1_frame.fields))
    assert len(oracle) == 9
    assert spans_equal(list(L.basis), oracle)


def test_closure_e2_span(e2_frame):
    L = lie_closure(e2_frame.fields)
    assert len(L) == 6
    expected = list(e2_frame.fields) + [
        VectorField.coordinate(4, 2),  # d/dz
        VectorField.coordinate(4, 3),  # d/dw
    ]
    assert spans_equal(list(L.basis), expected)
    oracle = closure_fields(list(e2_frame.fields))
    assert spans_equal(list(L.basis), oracle)


def test_closure_single_generator():
    L = lie_closure([VectorField.coordinate(2, 0)])
    assert len(L) == 1


def test_closure_degree_bound(monkeypatch):
    # these two generators feed back growing degrees forever
    monkeypatch.setenv("ARS_MAX_DEGREE", "12")
    X = only_component(2, 1, var(2, 0) ** 2)
    Y = only_component(2, 0, var(2, 1) ** 2)
    with pytest.raises(DegreeBoundExceeded):
        lie_closure([X, Y])


def _nearly_abelian_fields():
    # X1 = d/dx, X2 = x^6 d/dy: L is d/dx and x^k d/dy for k <= 6, and every
    # bracket but [d/dx, x^k d/dy] vanishes
    return [VectorField.coordinate(2, 0), only_component(2, 1, var(2, 0) ** 6)]


def test_structure_constants_reexpand(e1_frame, e2_frame, e3_frame):
    nearly_abelian = _nearly_abelian_fields()
    algebras = [lie_closure(fields) for fields in (e1_frame.fields, e3_frame.fields, nearly_abelian)]
    # the ideal's table comes by change of basis, not from brackets
    for fields, gens in ((e1_frame.fields, 1), (e2_frame.fields, 2), (e3_frame.fields, 3), (nearly_abelian, 1)):
        algebras.append(ideal_closure(lie_closure(fields), list(fields[:gens])))
    for L in algebras:
        size = len(L)
        dense = structure(L)
        for i in range(size):
            for j in range(size):
                expected = lie_bracket(L.basis[i], L.basis[j])
                combo = VectorField.zero(L.dim)
                for kk in range(size):
                    c = dense[i][j][kk]
                    if c != 0:
                        combo = combo + c * L.basis[kk]
                assert combo == expected
                # antisymmetry of the table
                assert dense[i][j] == tuple(-c for c in dense[j][i])


# --- ideals ---------------------------------------------------------------------


def test_ideal_e1(e1_frame):
    L = lie_closure(e1_frame.fields)
    G = ideal_closure(L, [e1_frame.fields[0]])
    assert len(G) == 5
    x, y = var(3, 0), var(3, 1)
    expected = [
        VectorField.coordinate(3, 0),
        VectorField.coordinate(3, 1),
        only_component(3, 2, y),
        only_component(3, 2, x),
        VectorField.coordinate(3, 2),
    ]
    assert spans_equal(list(G.basis), expected)
    oracle = ideal_fields(list(L.basis), [e1_frame.fields[0]])
    assert spans_equal(list(G.basis), oracle)
    # the other two hat fields stay outside (nilpotent case)
    assert not G.contains(e1_frame.fields[1])
    assert not G.contains(e1_frame.fields[2])
    # the ideal of d/dx1 in the scaling families and in x^16 d/dy: the layers
    # of ideal_closure must reach the oracle's all-pairs closure
    families = [_grushin_pow_fields(n) for n in (5, 6, 7)] + [_chain_fields(n) for n in (5, 6)]
    for fields in families + [list(_x_power_frame(16).fields)]:
        L = lie_closure(fields)
        G = ideal_closure(L, fields[:1])
        assert spans_equal(list(G.basis), ideal_fields(list(L.basis), fields[:1]))


def test_ideal_e2_from_original_frame(e2_frame):
    L = lie_closure(e2_frame.fields)
    G = ideal_closure(L, list(e2_frame.fields[:2]))
    assert len(G) == 5
    x = var(4, 0)
    y = var(4, 1)
    expected = [
        VectorField.coordinate(4, 0),
        VectorField.coordinate(4, 1) + only_component(4, 2, x),
        only_component(4, 3, y),
        VectorField.coordinate(4, 2),
        VectorField.coordinate(4, 3),
    ]
    assert spans_equal(list(G.basis), expected)
    # the third frame field belongs to the ideal here
    assert G.contains(e2_frame.fields[2])
    oracle = ideal_fields(list(L.basis), list(e2_frame.fields[:2]))
    assert len(oracle) == 5
    assert spans_equal(list(G.basis), oracle)


def test_ideal_of_full_basis_is_whole_algebra(e1_frame):
    L = lie_closure(e1_frame.fields)
    G = ideal_closure(L, list(L.basis))
    assert len(G) == len(L)
    assert spans_equal(list(G.basis), list(L.basis))


def test_ideal_is_ad_invariant(e1_frame, e2_frame, e3_frame):
    for frame, gens in (
        (e1_frame, 1),
        (e2_frame, 2),
        (e3_frame, 3),
    ):
        L = lie_closure(frame.fields)
        G = ideal_closure(L, list(frame.fields[:gens]))
        for b in L.basis:
            for g in G.basis:
                assert G.contains(lie_bracket(b, g))


def test_ideal_order_bound(e1_frame, e2_frame, e3_frame):
    for frame in (e1_frame, e2_frame, e3_frame):
        growth, w = growth_vector(frame)
        L = lie_closure(frame.fields)
        k = {3: 1, 4: 2, 5: 3}[frame.dim]
        G = ideal_closure(L, list(frame.fields[:k]))
        for g in G.basis:
            assert min(homogeneous_parts(g, w)) <= -1
        # nilpotency within the step bound
        step = nilpotent_step(G)
        assert step is not None and step <= growth.step


def test_ideal_generators_must_lie_inside(e1_frame):
    L = lie_closure(e1_frame.fields)
    with pytest.raises(ValueError):
        ideal_closure(L, [only_component(3, 0, var(3, 1))])


def test_dimension_bound_from_degrees(e1_frame, e2_frame, e3_frame):
    # dim L is at most the dimension of fields whose component j has
    # weighted degree <= w_j + step, that is, order <= step
    for frame in (e1_frame, e2_frame, e3_frame):
        growth, w = growth_vector(frame)
        L = lie_closure(frame.fields)
        bound = 0
        for j in range(frame.dim):
            target = w[j] + growth.step
            terms = (only_component(frame.dim, j, Polynomial(frame.dim, {e: 1})) for e in _all_exponents(frame.dim, target))
            bound += sum(1 for X in terms if min(homogeneous_parts(X, w)) <= growth.step)
        assert len(L) <= bound


def _all_exponents(dim, max_total, prefix=()):
    if dim == 0:
        return [prefix]
    out = []
    for k in range(max_total + 1):
        out.extend(_all_exponents(dim - 1, max_total - k, prefix + (k,)))
    return out


# --- series ---------------------------------------------------------------------


def test_nilpotent_step_examples(e1_frame):
    L = lie_closure(e1_frame.fields)
    G = ideal_closure(L, [e1_frame.fields[0]])
    assert nilpotent_step(G) == 2
    assert nilpotent_step(L) is not None and nilpotent_step(L) <= 5
    # abelian
    A = lie_closure([VectorField.coordinate(2, 0), VectorField.coordinate(2, 1)])
    assert nilpotent_step(A) == 1


def test_sl2_triple_is_not_nilpotent(e3_frame):
    X4, X5 = e3_frame.fields[3], e3_frame.fields[4]
    chi10 = lie_bracket(X4, X5)
    sl2 = lie_closure([X4, X5, chi10])
    assert len(sl2) == 3
    assert nilpotent_step(sl2) is None
    assert not is_solvable(sl2)


def test_solvability_examples(e2_frame, e3_frame):
    assert not is_solvable(lie_closure(e3_frame.fields))
    assert is_solvable(lie_closure(e2_frame.fields))
    # nilpotent implies solvable
    L1 = lie_closure([VectorField.coordinate(2, 0), only_component(2, 1, var(2, 0))])
    assert nilpotent_step(L1) is not None
    assert is_solvable(L1)


def _grushin_pow_fields(n):
    # X1 = d/dx1, Xi = x1^(i-1) d/dxi
    x1 = var(n, 0)
    return [VectorField.coordinate(n, 0)] + [only_component(n, i, x1**i) for i in range(1, n)]


def _chain_fields(n):
    # X1 = d/dx1, Xi = x(i-1) d/dxi
    return [VectorField.coordinate(n, 0)] + [only_component(n, i, var(n, i - 1)) for i in range(1, n)]


def test_series_match_naive_oracles(e1_frame, e2_frame, e3_frame):
    X4, X5 = e3_frame.fields[3], e3_frame.fields[4]
    cases = [
        (e1_frame.fields, 1),
        (e2_frame.fields, 2),
        (e3_frame.fields, 3),
        ([X4, X5, lie_bracket(X4, X5)], 1),  # sl2 triple
        (_grushin_pow_fields(5), 1),
        (_chain_fields(5), 1),
        ([VectorField.coordinate(1, 0), only_component(1, 0, var(1, 0))], 1),  # affine line
        (_nearly_abelian_fields(), 1),
    ]
    steps = []
    for fields, gens in cases:
        L = lie_closure(fields)
        G = ideal_closure(L, list(fields[:gens]))
        for algebra in (L, G):
            lower = lower_central_dims(list(algebra.basis))
            derived = derived_dims(list(algebra.basis))
            assert lower[0] == derived[0] == len(algebra)
            expected_step = len(lower) - 1 if lower[-1] == 0 else None
            assert nilpotent_step(algebra) == expected_step
            assert is_solvable(algebra) == (derived[-1] == 0)
        steps.append((nilpotent_step(L), is_solvable(L), nilpotent_step(G)))
    # closed forms: the ideal of d/dx1 in grushin_pow(5) has step 4, in chain(5)
    # it is abelian; the affine line is solvable but not nilpotent
    assert [s[2] for s in steps[4:6]] == [4, 1]
    assert steps[6] == (None, True, 1)


def test_nilpotent_step_matches_lower_central_oracle(e1_frame, e2_frame, e3_frame):
    # nilpotent_step reads the series off a complement V of [G, G]; the
    # oracle brackets all of G with each lower central term, naively
    x = var(2, 0)
    frames = [e1_frame, e2_frame, e3_frame]
    frames += [Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 1, Fraction(3, 7) * x**k)])
               for k in (16, 24, 40)]
    for fields in [_grushin_pow_fields(n) for n in range(5, 10)] + [_chain_fields(n) for n in range(5, 8)]:
        frames.append(Frame([f"x{i}" for i in range(len(fields))], fields))
    ideals = [_analysis(frame)[2] for frame in frames] + [G for _, _, G in _random_homogeneous_ideals()]
    # not nilpotent: sl2, where [G, G] = G; [a, b] = b, where V does not
    # generate G; [a, b] = c and [a, c] = c, where V generates G and the
    # iterated brackets [V, ..., [V, V]] never vanish; sl2 + R, where V is
    # the centre, so [V, [G, G]] = 0 and V does not generate G
    X4, X5 = e3_frame.fields[3], e3_frame.fields[4]
    closures = [
        lie_closure([X4, X5, lie_bracket(X4, X5)]),
        lie_closure([VectorField.from_terms(1, {(0, (1,)): -1}), VectorField.coordinate(1, 0)]),
        lie_closure([VectorField.from_terms(2, {(1, (1, 0)): -1, (1, (0, 1)): -1}), VectorField.coordinate(2, 0)]),
        lie_closure([VectorField.coordinate(2, 0), only_component(2, 0, x**2), VectorField.coordinate(2, 1)]),
    ]
    steps, dims = [], []
    for G in ideals + closures:
        lower = lower_central_dims(list(G.basis))
        steps.append(nilpotent_step(G))
        dims.append(lower)
        assert steps[-1] == (len(lower) - 1 if lower[-1] == 0 else None)
    # closed forms: step 2 on E1-E3, k on x^k d/dy, n - 1 on grushin_pow(n),
    # 1 on chain(n)
    assert steps[:14] == [2, 2, 2, 16, 24, 40, 4, 5, 6, 7, 8, 1, 1, 1]
    assert all(step is not None for step in steps[:-4]) and len(steps) >= 40
    assert steps[-4:] == [None, None, None, None]
    assert dims[-4:] == [[3, 3], [2, 1, 1], [3, 1, 1], [4, 3, 3]]


def _table_algebra(size, brackets):
    """A LieBasis with [e_i, e_j] = brackets[i, j] for i < j; its fields are placeholders."""
    table = [{} for _ in range(size)]
    for (i, j), entry in brackets.items():
        table[i][j] = entry
        table[j][i] = {k: -c for k, c in entry.items()}
    return LieBasis(size, [VectorField.coordinate(size, i) for i in range(size)], table, SpanBasis())


def test_nilpotent_step_when_the_iterated_brackets_overlap():
    # [e0, e1] = e2 + e3 and [e0, e2] = e3: C^2 = <e2, e3>, C^3 = <e3>, so
    # the step is 3.  V = <e0, e1>, and [V, V] = <e2 + e3> and
    # [V, [V, V]] = <e3> share their leading key 3: only their span shows
    # that V generates G
    assert nilpotent_step(_table_algebra(4, {(0, 1): {2: 1, 3: 1}, (0, 2): {3: 1}})) == 3
    # a, b1, b2, g, e1, e2, f with [a, b1] = e1, [a, b2] = e2, [a, e1] = e2
    # and [g, f] = f: not nilpotent, as f lies in every C^k.  The iterated
    # brackets of V = <a, b1, b2, g> are <e1, e2> and <e2>: three rows, as
    # many as dim [G, G] = 3, whose span misses f
    brackets = {(0, 1): {4: 1}, (0, 2): {5: 1}, (0, 4): {5: 1}, (3, 6): {6: 1}}
    assert nilpotent_step(_table_algebra(7, brackets)) is None


# --- adjoint matrices ------------------------------------------------------------


def test_adjoint_matrix_of_linear_field(e1_frame):
    L = lie_closure(e1_frame.fields)
    G = ideal_closure(L, [e1_frame.fields[0]])
    D = adjoint_matrix(e1_frame.fields[1], G)
    assert len(D) == 5 and all(len(row) == 5 for row in D)
    # defining property: [X, b_j] = sum_i D[i][j] b_i
    for j, b in enumerate(G.basis):
        expected = lie_bracket(e1_frame.fields[1], b)
        combo = VectorField.zero(3)
        for i in range(5):
            if D[i][j] != 0:
                combo = combo + D[i][j] * G.basis[i]
        assert combo == expected


def test_adjoint_matrix_inner_and_zero_cases(e1_frame):
    L = lie_closure(e1_frame.fields)
    G = ideal_closure(L, [e1_frame.fields[0]])
    # elements of an ideal always act on it
    adjoint_matrix(G.basis[0], G)
    # commuting field in unrelated coordinates gives the zero matrix
    H = lie_closure([VectorField.coordinate(2, 0)])
    D = adjoint_matrix(VectorField.coordinate(2, 1), H)
    assert D == ((Fraction(0),),)


def test_adjoint_matrix_not_invariant():
    # span{d/dx} is not normalized by x^2 d/dx
    H = lie_closure([VectorField.coordinate(1, 0)])
    X = only_component(1, 0, var(1, 0) ** 2)
    with pytest.raises(NotInvariant):
        adjoint_matrix(X, H)


# --- rank at the origin and graded frames ----------------------------------------


def test_rank_condition_at_zero(e1_frame, e2_frame):
    L1 = lie_closure(e1_frame.fields)
    G1 = ideal_closure(L1, [e1_frame.fields[0]])
    assert frame_rank_at(G1.basis, (0, 0, 0)) == G1.dim
    L2 = lie_closure(e2_frame.fields)
    G2 = ideal_closure(L2, list(e2_frame.fields[:2]))
    assert frame_rank_at(G2.basis, (0, 0, 0, 0)) == G2.dim
    tiny = lie_closure([only_component(2, 1, var(2, 0))])
    assert frame_rank_at(tiny.basis, (0, 0)) != tiny.dim


def test_graded_frame_e1(e1_frame):
    L = lie_closure(e1_frame.fields)
    G = ideal_closure(L, [e1_frame.fields[0]])
    Y = graded_frame(G, (1, 2, 5))
    assert Y == (
        VectorField.coordinate(3, 0),
        VectorField.coordinate(3, 1),
        VectorField.coordinate(3, 2),
    )


def test_graded_frame_e2(e2_frame):
    L = lie_closure(e2_frame.fields)
    G = ideal_closure(L, list(e2_frame.fields[:2]))
    Y = graded_frame(G, (1, 1, 2, 2))
    # unit leading coefficient, support only on heavier coordinates
    assert Y[0] == VectorField.coordinate(4, 0)
    assert Y[1] == VectorField.coordinate(4, 1) + only_component(4, 2, var(4, 0))
    assert Y[2] == VectorField.coordinate(4, 2)
    assert Y[3] == VectorField.coordinate(4, 3)
    # everywhere full rank: the determinant of the frame matrix is constant
    from ars.locus import frame_determinant
    from ars.symcore import Frame

    det = frame_determinant(Frame(("x", "y", "z", "w"), Y))
    assert det.total_degree() == 0
    assert abs(list(det.terms.values())[0]) == 1


def test_graded_frame_unavailable():
    G = lie_closure([VectorField.coordinate(3, 0), VectorField.coordinate(3, 1)])
    with pytest.raises(GradedFrameUnavailable):
        graded_frame(G, (1, 2, 5))


# --- classification ---------------------------------------------------------------


def _analysis(frame):
    _, w = growth_vector(frame)
    A = build_approximation(frame, w)
    L = lie_closure(A.fields)
    G = ideal_closure(L, A.hat_fields[: A.k])
    return A, L, G


def test_classification_e1(e1_frame):
    A, L, G = _analysis(e1_frame)
    C = classify_fields(A, L, G)
    assert C.labels == ("invariant", "linear", "linear")
    assert (C.k, C.l, C.m) == (1, 1, 3)
    assert C.lie_dim == 9 and C.ideal_dim == 5
    assert C.ideal_nilpotent_step == 2
    assert C.solvable
    assert C.order == (0, 1, 2)


def test_classification_e3(e3_frame):
    A, L, G = _analysis(e3_frame)
    C = classify_fields(A, L, G)
    assert C.labels == ("invariant", "invariant", "invariant", "linear", "linear")
    assert (C.k, C.l, C.m) == (3, 3, 3)
    assert not C.solvable
    assert C.ideal_nilpotent_step == 2


def test_classification_affine(affine_frame):
    A, L, G = _analysis(affine_frame)
    C = classify_fields(A, L, G)
    assert C.labels == ("invariant", "affine")
    assert (C.k, C.l, C.m) == (1, 1, 2)


def test_classification_invariant_when_hat_in_ideal(e2_frame):
    # feed an approximating set whose fourth field keeps only its order-0
    # part: the third hat then lands inside the ideal via that tilde field
    from ars.approx import ApproximationSet

    w = (1, 1, 2, 2)
    hats = list(e2_frame.fields[:3])
    tilde = homogeneous_parts(e2_frame.fields[3], w)[0]
    n = 4
    identity = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    A = ApproximationSet(
        hat_fields=tuple(hats),
        tilde_fields=(tilde,),
        k=2,
        m=3,
        transform=identity,
        degenerate=False,
        weights=w,
        source_order=(0, 1, 2, 3),
    )
    L = lie_closure(A.fields)
    G = ideal_closure(L, A.hat_fields[:2])
    assert len(G) == 5
    C = classify_fields(A, L, G)
    assert C.labels == ("invariant", "invariant", "invariant", "linear")
    assert (C.k, C.l, C.m) == (2, 3, 3)


def test_classification_rejects_non_ideal(grushin_frame):
    # G = span{d/dx} is a subalgebra but no ideal: [x d/dy, d/dx] = -d/dy leaves it
    _, w = growth_vector(grushin_frame)
    A = build_approximation(grushin_frame, w)
    L = lie_closure(A.fields)
    G = lie_closure([VectorField.coordinate(2, 0)])
    assert len(L) == 3 and len(G) == 1
    with pytest.raises(NotInvariant):
        classify_fields(A, L, G)


def test_classification_names_the_field_that_leaves_the_ideal(e1_frame):
    # G = span{d/dx, d/dy} is invariant under x d/dy but not under y^2 d/dz,
    # which comes second among the fields outside G: [y^2 d/dz, d/dy] = -2y d/dz
    _, w = growth_vector(e1_frame)
    A = build_approximation(e1_frame, w)
    L = lie_closure(A.fields)
    G = lie_closure([VectorField.coordinate(3, 0), VectorField.coordinate(3, 1)])
    assert [str(f) for f in A.fields[1:]] == ["x1 d/dx2", "x2^2 d/dx3"]
    with pytest.raises(NotInvariant, match=r"for X = x2\^2 d/dx3$"):
        classify_fields(A, L, G)


def test_classification_refuses_degenerate(degenerate_frame):
    from ars.approx import DegenerateApproximation

    _, w = growth_vector(degenerate_frame)
    A = build_approximation(degenerate_frame, w)
    with pytest.raises(DegenerateApproximation):
        classify_fields(A, None, None)


# --- randomized homogeneous-generator properties -----------------------------------


def _random_homogeneous_field(rng, dim, weights, order):
    comps = []
    for j in range(dim):
        target = weights[j] + order
        terms = {}
        if target >= 0:
            pool = [e for e in _all_exponents(dim, target) if sum(a * ww for a, ww in zip(e, weights)) == target]
            rng.shuffle(pool)
            for e in pool[: rng.randint(0, 2)]:
                terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        comps.append(Polynomial(dim, terms))
    return VectorField(comps)


def _random_homogeneous_ideals():
    """(weights, L, G) for ideals of order -1 generators in random homogeneous algebras."""
    rng = random.Random(2024)
    for _ in range(60):
        dim = rng.randint(2, 3)
        weights = tuple(rng.randint(1, 2) for _ in range(dim))
        gens = []
        for _ in range(rng.randint(1, 3)):
            order = rng.choice([-1, 0])
            f = _random_homogeneous_field(rng, dim, weights, order)
            if not f.is_zero:
                gens.append((order, f))
        minus_one = [f for o, f in gens if o == -1]
        if not minus_one:
            continue
        L = lie_closure([f for _, f in gens])
        yield weights, L, ideal_closure(L, minus_one)


def test_random_homogeneous_ideals_are_nilpotent_and_invariant():
    checked = 0
    for weights, L, G in _random_homogeneous_ideals():
        step = nilpotent_step(G)
        assert step is not None and step <= max(weights)
        for b in L.basis:
            for g in G.basis:
                assert G.contains(lie_bracket(b, g))
        checked += 1
    assert checked >= 20


def _paper_algebras(*frames):
    """(weights, L, G) of the analysis of each frame: L is generated by the approximating fields."""
    for frame in frames:
        A, L, G = _analysis(frame)
        yield A.weights, L, G


def test_sparse_coordinates_match_dense_view(e1_frame, e2_frame, e3_frame):
    rng = random.Random(11)
    checked = 0
    for _, L, G in list(_paper_algebras(e1_frame, e2_frame, e3_frame)) + list(_random_homogeneous_ideals()):
        for algebra in (L, G):
            size, dense = len(algebra), structure(algebra)
            for i in range(size):
                for j in range(size):
                    coords = algebra._span.coordinates(lie_bracket(algebra.basis[i], algebra.basis[j]).terms)
                    assert coords == {k: c for k, c in enumerate(dense[i][j]) if c}
                    assert all(c for c in coords.values())
            # a combination with known coordinates reads them back, sparse and dense
            chosen = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in rng.sample(range(size), min(size, 3))}
            chosen = {k: c for k, c in chosen.items() if c}
            X = linear_combination(((c, algebra.basis[k]) for k, c in chosen.items()), algebra.dim)
            assert algebra._coords(X) == chosen
            checked += 1
    assert checked >= 46
    outside = only_component(3, 0, var(3, 1))
    L = next(_paper_algebras(e1_frame))[1]
    assert L._span.coordinates(outside.terms) is None


def test_subalgebra_tables_match_from_span(e1_frame, e2_frame, e3_frame):
    # G's table is read off L's with no field bracketed; bracketing G's
    # canonical basis again must give the same structure constants
    cases = [(L, G) for _, L, G in _paper_algebras(e1_frame, e2_frame, e3_frame)]
    for fields in [_grushin_pow_fields(n) for n in (5, 6, 7)] + [_chain_fields(n) for n in (5, 6)]:
        L = lie_closure(fields)
        cases.append((L, ideal_closure(L, fields[:1])))
    cases += [(L, G) for _, L, G in _random_homogeneous_ideals()]
    # E3's L_0 is sl2, a subalgebra but not an ideal
    A, L3, _ = _analysis(e3_frame)
    index = [i for i, s in enumerate(L3.orders(A.weights)) if s == 0]
    L0 = L3.subalgebra(SpanBasis({i: 1} for i in index))
    assert len(L0) == 3 and not all(L0.contains(lie_bracket(b, g)) for b in L3.basis for g in L0.basis)
    cases.append((L3, L0))
    for L, H in cases:
        oracle = LieBasis.from_span(L.dim, H._span)
        assert oracle.basis == H.basis
        assert structure(H) == structure(oracle)
    # L_0's table is also L's, restricted
    dense = structure(L3)
    assert structure(L0) == tuple(tuple(tuple(dense[i][j][k] for k in index) for j in index) for i in index)
    assert len(cases) >= 37


def test_l_coordinates_of_a_canonical_basis_are_canonical_rows(e1_frame, e2_frame, e3_frame, grushin_frame):
    # classify_fields takes G's L-coordinate rows as they are: the converse of
    # the lemma in LieBasis.subalgebra, for ideals and for lie_closure-built G's
    cases = [(L, G) for _, L, G in _paper_algebras(e1_frame, e2_frame, e3_frame)]
    for fields in [_grushin_pow_fields(n) for n in (5, 6, 7)] + [_chain_fields(n) for n in (5, 6)]:
        L = lie_closure(fields)
        cases.append((L, ideal_closure(L, fields[:1])))
    cases += [(L, G) for _, L, G in _random_homogeneous_ideals()]
    # the G's of the two classification tests that refuse a non-ideal
    for frame, gens in ((grushin_frame, 1), (e1_frame, 2)):
        _, w = growth_vector(frame)
        L = lie_closure(build_approximation(frame, w).fields)
        cases.append((L, lie_closure([VectorField.coordinate(frame.dim, j) for j in range(gens)])))
    for L, G in cases:
        rows = [L._coords(b) for b in G.basis]
        assert rows == _span(rows).rows()
    assert len(cases) >= 38


def _x_power_frame(k):
    # X1 = d/dx, X2 = 3/7 x^k d/dy
    return Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 1, Fraction(3, 7) * var(2, 0) ** k)])


def test_closure_from_the_flag_walk_matches_a_fresh_closure(e1_frame, e2_frame, e3_frame):
    # when the approximating fields are the frame's own, lie_closure finishes
    # the walk that the flag stopped at full rank; its basis and table must
    # be those of a fresh walk, and any other frame must get a fresh walk
    families = [_grushin_pow_fields(n) for n in range(3, 10)] + [_chain_fields(n) for n in range(3, 8)]
    frames = [(frame, None) for frame in (e1_frame, e2_frame, e3_frame)]
    frames += [(Frame([f"x{i}" for i in range(len(fields))], fields), None) for fields in families]
    frames += [(_x_power_frame(k), None) for k in (16, 24, 40)]
    rng = random.Random(3)  # the random frames of test_approx.py
    frames += [(random_frame(rng, rng.randint(2, 4)), 4) for _ in range(80)]
    finished, owns = [], []
    for frame, depth in frames:
        try:
            growth, w = growth_vector(frame, max_depth=depth)
        except ArsError:
            continue
        A = build_approximation(frame, w)
        fresh = lie_closure(A.fields)
        walked = lie_closure(A.fields, walk=growth.walk)
        assert walked.basis == fresh.basis and walked._table == fresh._table
        own = [f for f in A.fields if not f.is_zero] == [f for f in frame.fields if not f.is_zero]
        # a flag that needs no bracket makes no walk
        assert (growth.walk is None) == (len(growth.dims) == 1)
        finished.append(growth.walk is not None and walked._span is growth.walk.span)
        assert finished[-1] == (own and growth.walk is not None)
        owns.append(own)
    # E1, E3, grushin_pow, chain and x^k are their own approximations and E2
    # is not; of the 50 random frames whose flag reaches full rank, one is,
    # but its generators' values alone have full rank, so no walk is made for it
    assert finished[:18] == owns[:18] == [True, False] + [True] * 16
    assert len(finished) == 18 + 50 and sum(owns[18:]) == 1 and not any(finished[18:])


def test_from_span_tables_match_the_all_pairs_oracle(e1_frame, e2_frame, e3_frame):
    # from_span brackets only the pairs that its direction/variable index
    # yields; the oracle brackets every ordered pair, with no support filter
    algebras = [L for _, L, _ in _paper_algebras(e1_frame, e2_frame, e3_frame)]
    algebras += [lie_closure(fields) for fields in [_grushin_pow_fields(n) for n in range(3, 8)]]
    algebras += [lie_closure(fields) for fields in [_chain_fields(n) for n in range(3, 7)]]
    algebras += [lie_closure(_x_power_frame(k).fields) for k in (16, 24)]
    algebras += [H for _, L, G in _random_homogeneous_ideals() for H in (L, G)]
    for H in algebras:
        tabulated = LieBasis.from_span(H.dim, H._span)
        assert tabulated.basis == H.basis
        assert structure(tabulated) == all_pairs_structure(list(H.basis))
    assert len(algebras) >= 70


def test_orders_check_the_weights_once_per_call(monkeypatch):
    import ars.liealg

    n = 12
    L = lie_closure(_grushin_pow_fields(n))
    weights = tuple(range(1, n + 1))
    calls = []
    check = ars.liealg.check_weights
    monkeypatch.setattr(ars.liealg, "check_weights", lambda w, dim: calls.append(w) or check(w, dim))
    assert L.orders(weights) == tuple(s for b in L.basis for s in homogeneous_parts(b, weights))
    assert len(L) == n * (n + 1) // 2 and calls == [weights]
    with pytest.raises(ValueError):
        L.orders(weights[:-1])


def test_solvability_of_order_zero_part_matches_whole_algebra(e1_frame, e2_frame, e3_frame):
    cases = [(w, L) for w, L, _ in _paper_algebras(e1_frame, e2_frame, e3_frame)]
    for fields in [_grushin_pow_fields(n) for n in (5, 6, 7)] + [_chain_fields(n) for n in (5, 6)]:
        # X_i has order -1 exactly when x_i has weight i
        cases.append((tuple(range(1, len(fields) + 1)), lie_closure(fields)))
    cases += [(w, L) for w, L, _ in _random_homogeneous_ideals()]
    zero_dims, verdicts = [], []
    for weights, L in cases:
        orders = L.orders(weights)
        assert orders == tuple(s for b in L.basis for s in homogeneous_parts(b, weights))
        assert all(s <= 0 for s in orders)
        index = [i for i, s in enumerate(orders) if s == 0]
        L0 = L.subalgebra(SpanBasis({i: 1} for i in index))
        # L_0's table is L's, restricted
        dense, dense0 = structure(L), structure(L0)
        assert list(L0.basis) == [L.basis[i] for i in index]
        for p, i in enumerate(index):
            for q, j in enumerate(index):
                assert dense0[p][q] == tuple(dense[i][j][k] for k in index)
                assert not any(dense[i][j][k] for k in range(len(L)) if k not in index)
        solvable = is_solvable(L)
        assert is_solvable(L0) == solvable == (derived_dims(list(L.basis))[-1] == 0)
        if index:
            assert is_solvable(L0) == (derived_dims(list(L0.basis))[-1] == 0)
        zero_dims.append(len(L0))
        verdicts.append(solvable)
    # E1, E2, E3, then the scaling families: only E3 has a nonzero L_0, sl2
    assert zero_dims[:8] == [0, 0, 3, 0, 0, 0, 0, 0]
    assert verdicts[:8] == [True, True, False, True, True, True, True, True]
    # the random algebras have nonzero L_0 and a non-solvable case too
    assert len(cases) >= 28 and any(zero_dims[8:]) and not all(verdicts[8:])
    # classify_fields reads the same verdict off L_0
    for frame in (e1_frame, e2_frame, e3_frame):
        A, L, G = _analysis(frame)
        assert classify_fields(A, L, G).solvable == is_solvable(L)


def test_orders_reject_an_inhomogeneous_basis_element():
    # d/dx + d/dy has orders -1 and -2 under the weights (1, 2)
    L = lie_closure([VectorField.coordinate(2, 0) + VectorField.coordinate(2, 1)])
    assert L.orders((1, 1)) == (-1,)
    with pytest.raises(GradedFrameUnavailable, match="not spanned by homogeneous elements") as err:
        L.orders((1, 2))
    assert isinstance(err.value, ArsError)
    # graded_frame reads the same record
    with pytest.raises(GradedFrameUnavailable, match="not spanned by homogeneous elements"):
        graded_frame(L, (1, 2))


def _graded_frame_cases(e3_frame):
    _, w = growth_vector(e3_frame)
    A = build_approximation(e3_frame, w)
    L = lie_closure(A.fields)
    yield w, ideal_closure(L, A.hat_fields[: A.k])
    for fields in [_grushin_pow_fields(n) for n in (5, 6, 7)] + [_chain_fields(n) for n in (5, 6)]:
        # X_i has order -1 exactly when x_i has weight i
        yield tuple(range(1, len(fields) + 1)), ideal_closure(lie_closure(fields), fields[:1])
    for weights, _, G in _random_homogeneous_ideals():
        yield weights, G


def test_graded_frame_is_homogeneous_unit_frame_in_g(e3_frame):
    built = 0
    for w, G in _graded_frame_cases(e3_frame):
        n = G.dim
        origin = (0,) * n
        if frame_rank_at(G.basis, origin) != G.dim:
            with pytest.raises(GradedFrameUnavailable):
                graded_frame(G, w)
            continue
        Y = graded_frame(G, w)
        for j, field in enumerate(Y):
            assert G.contains(field)
            assert list(homogeneous_parts(field, w)) == [-w[j]]
            # order -w_j leaves only the level's coordinates nonzero at 0
            assert field.evaluate(origin) == tuple(Fraction(int(i == j)) for i in range(n))
        built += 1
    assert built >= 15


FIXTURE_FRAMES = (
    "e1_frame", "e2_frame", "e3_frame", "affine_frame", "degenerate_frame", "grushin_frame", "tangential_frame",
)


def _x_power_frame(k):
    # X1 = d/dx, X2 = 3/7 x^k d/dy: G is d/dx and x^j d/dy for j <= k
    return Frame(("x", "y"), [VectorField.coordinate(2, 0), only_component(2, 1, var(2, 0) ** k * Fraction(3, 7))])


def test_graded_frame_matches_the_per_level_oracle(e3_frame, request):
    # one elimination of every value at the origin gives each d/dx_j the
    # solution that a per-level, per-coordinate dense solve gives
    frames = [request.getfixturevalue(name) for name in FIXTURE_FRAMES] + [_x_power_frame(k) for k in range(1, 17)]
    cases = list(_graded_frame_cases(e3_frame))
    cases += [(growth_vector(frame)[1], _analysis(frame)[2]) for frame in frames]
    # d/dx + y d/dz and d/dx - x d/dz take the same value at the origin and
    # d/dx is not in their algebra, so only the earliest-first choice of the
    # two gives the oracle's field for d/dx
    x, y = var(3, 0), var(3, 1)
    dx, dy = VectorField.coordinate(3, 0), VectorField.coordinate(3, 1)
    cases.append(((1, 1, 2), lie_closure([dx + only_component(3, 2, y), dx - only_component(3, 2, x), dy])))
    built = refused = 0
    for w, G in cases:
        expected = naive_graded_frame(G, w)
        if expected is None:
            with pytest.raises(GradedFrameUnavailable):
                graded_frame(G, w)
            refused += 1
            continue
        assert graded_frame(G, w) == expected
        built += 1
    assert built >= 35 and refused >= 10


def test_graded_frame_e3(e3_frame):
    _, w = growth_vector(e3_frame)
    A = build_approximation(e3_frame, w)
    G = ideal_closure(lie_closure(A.fields), A.hat_fields[: A.k])
    Y = graded_frame(G, w)
    assert [f.format(e3_frame.var_names) for f in Y] == ["d/dx", "d/dy + x d/dz", "d/dz", "d/dw", "d/dt"]


def test_degree_cap_env_variable(monkeypatch):
    monkeypatch.setenv("ARS_MAX_DEGREE", "10")
    X = only_component(2, 1, var(2, 0) ** 2)
    Y = only_component(2, 0, var(2, 1) ** 2)
    with pytest.raises(DegreeBoundExceeded):
        lie_closure([X, Y])
