"""Acceptance suite: one test per criterion, one printed line per criterion.

Every expected value here is either a fixture identity checked exactly or a
quantity recomputed by an independent oracle inside the test; tolerances
are zero except where a numeric cross-check is explicitly specified.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ars.approx import build_approximation, check_triangular_complete
from ars.cli import main
from ars.flows import completeness_probe, dilate, lie_series_flow, rk4_flow
from ars.grading import growth_vector, homogeneous_parts
from ars.liealg import (
    classify_fields,
    ideal_closure,
    is_solvable,
    lie_closure,
    nilpotent_step,
)
from ars.locus import NotOnZ1, frame_determinant, genericity_codims, tangency_check
from ars.parser import parse_frame
from ars.pipeline import AnalyzeOptions, analyze
from ars.symcore import Polynomial, VectorField, frame_rank_at, lie_bracket

from conftest import (
    DEGENERATE_TEXT,
    E1_TEXT,
    E2_TEXT,
    E3_TEXT,
    NOT_PRIVILEGED_TEXT,
    RANK_FAIL_TEXT,
)
from oracles import ideal_fields, spans_equal

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS")


def var(dim, j):
    return Polynomial.variable(dim, j)


def only_component(dim, j, poly):
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    comps[j] = poly
    return VectorField(comps)


def test_criterion_1_example_1(e1_frame):
    with criterion(1, "example 1 exact reproduction"):
        growth, w = growth_vector(e1_frame)
        assert w == (1, 2, 5)

        A = build_approximation(e1_frame, w)
        assert A.hat_fields == e1_frame.fields
        assert A.tilde_fields == ()

        L = lie_closure(A.fields)
        assert len(L) == 9
        x, y = var(3, 0), var(3, 1)
        X1, X2, X3 = e1_frame.fields
        X4 = VectorField.coordinate(3, 1)
        X5 = only_component(3, 2, y)
        X6 = only_component(3, 2, x)
        X7 = VectorField.coordinate(3, 2)
        chi1 = only_component(3, 2, x * y)
        chi2 = only_component(3, 2, x**2)
        nine = [X1, X2, X3, X4, X5, X6, X7, chi1, chi2]
        assert spans_equal(list(L.basis), nine)
        # the listed fields really arise as the stated brackets
        assert lie_bracket(X1, X2) == X4
        assert Fraction(1, 2) * lie_bracket(X4, X3) == X5
        assert lie_bracket(X2, X5) == X6
        assert lie_bracket(X1, X6) == X7
        assert lie_bracket(X4, X5) == X7
        assert Fraction(1, 2) * lie_bracket(X2, X3) == chi1
        assert lie_bracket(X2, chi1) == chi2

        G = ideal_closure(L, [X1])
        assert len(G) == 5
        assert spans_equal(list(G.basis), [X1, X4, X5, X6, X7])

        assert min(homogeneous_parts(chi1, w)) == -2
        assert min(homogeneous_parts(chi2, w)) == -3

        C = classify_fields(A, L, G)
        assert C.labels == ("invariant", "linear", "linear")

        det = frame_determinant(e1_frame)
        assert det == x * y**2 or det == -(x * y**2)


def test_criterion_2_example_2(e2_frame):
    with criterion(2, "example 2 exact reproduction"):
        growth, w = growth_vector(e2_frame)
        assert w == (1, 1, 2, 2)

        A = build_approximation(e2_frame, w)
        assert A.k == 2

        X1, X2, X3, X4 = e2_frame.fields
        assert lie_bracket(X2, X4) == X3

        L = lie_closure(list(e2_frame.fields))
        G = ideal_closure(L, [X1, X2])
        assert G.contains(X3)
        assert len(G) == 5
        x, y = var(4, 0), var(4, 1)
        derived_basis = [
            VectorField.coordinate(4, 0),
            VectorField.coordinate(4, 1) + only_component(4, 2, x),
            only_component(4, 3, y),
            VectorField.coordinate(4, 2),
            VectorField.coordinate(4, 3),
        ]
        assert spans_equal(list(G.basis), derived_basis)

        # independent all-pairs closure oracle confirms the ideal
        oracle = ideal_fields(list(L.basis), [X1, X2])
        assert len(oracle) == 5
        assert spans_equal(list(G.basis), oracle)
        assert spans_equal(oracle, derived_basis)

        assert is_solvable(L)

        det = frame_determinant(e2_frame)
        assert det == x * y or det == -(x * y)


def test_criterion_3_example_3(e3_frame):
    with criterion(3, "example 3 exact reproduction and the missing locus"):
        growth, w = growth_vector(e3_frame)
        assert w == (1, 1, 2, 1, 2)

        x, y = var(5, 0), var(5, 1)
        X4, X5 = e3_frame.fields[3], e3_frame.fields[4]
        chi10 = lie_bracket(X4, X5)
        assert chi10 == VectorField([x, -y] + [Polynomial.zero(5)] * 3)

        A = build_approximation(e3_frame, w)
        L = lie_closure(A.fields)
        assert not is_solvable(L)

        # sl2 structure constants of the order-0 triple
        assert lie_bracket(chi10, X4) == 2 * X4
        assert lie_bracket(chi10, X5) == -2 * X5
        assert lie_bracket(X4, X5) == chi10

        G = ideal_closure(L, list(A.hat_fields[: A.k]))
        step = nilpotent_step(G)
        assert step is not None and step <= growth.step
        assert frame_rank_at(G.basis, (0, 0, 0, 0, 0)) == G.dim

        det = frame_determinant(e3_frame)
        expected = Fraction(1, 2) * (x * y**2 * var(5, 3))
        assert det == expected or det == -expected

        # numeric cross-check of the supplied locus polynomial
        rng = random.Random(20240)
        pts = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(10**4)]
        matrices = np.array(
            [
                [[f.components[i].evaluate_float(p) for f in e3_frame.fields] for i in range(5)]
                for p in pts
            ]
        )
        numeric = np.linalg.det(matrices)
        symbolic = np.array([det.evaluate_float(p) for p in pts])
        scale = np.maximum(1.0, np.abs(numeric))
        assert np.max(np.abs(numeric - symbolic) / scale) <= 1e-9


def _random_polynomial(rng, dim, max_degree=3, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(dim)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(dim, terms)


def _random_field(rng, dim):
    return VectorField([_random_polynomial(rng, dim) for _ in range(dim)])


def _random_homogeneous(rng, dim, weights, order):
    comps = []
    for j in range(dim):
        target = weights[j] + order
        terms = {}
        if target >= 0:
            pool = _exponents_of_weight(dim, target, weights)
            rng.shuffle(pool)
            for e in pool[: rng.randint(0, 2)]:
                terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        comps.append(Polynomial(dim, terms))
    return VectorField(comps)


def _exponents_of_weight(dim, target, weights, prefix=()):
    if dim == 0:
        return [prefix] if target == 0 else []
    out = []
    w = weights[len(prefix)]
    for k in range(target // w + 1):
        out.extend(_exponents_of_weight(dim - 1, target - k * w, weights, prefix + (k,)))
    return out


def test_criterion_4_property_suite(e1_frame, e2_frame, e3_frame):
    with criterion(4, "randomized property suite"):
        rng = random.Random(424242)

        # Jacobi identity, exact, 200 cases with n <= 4 and degree <= 3
        for _ in range(200):
            dim = rng.randint(1, 4)
            X, Y, Z = (_random_field(rng, dim) for _ in range(3))
            total = (
                lie_bracket(X, lie_bracket(Y, Z))
                + lie_bracket(Y, lie_bracket(Z, X))
                + lie_bracket(Z, lie_bracket(X, Y))
            )
            assert total.is_zero

        # bracket order-additivity for homogeneous fields, 200 cases
        checked = 0
        while checked < 200:
            dim = rng.randint(2, 4)
            weights = tuple(rng.randint(1, 3) for _ in range(dim))
            a = rng.randint(-max(weights), 1)
            b = rng.randint(-max(weights), 1)
            X = _random_homogeneous(rng, dim, weights, a)
            Y = _random_homogeneous(rng, dim, weights, b)
            if X.is_zero or Y.is_zero:
                continue
            order = min(homogeneous_parts(lie_bracket(X, Y), weights), default=math.inf)
            assert order == math.inf or order == a + b
            checked += 1

        # homogeneous decomposition reconstructs the field, 200 cases
        for _ in range(200):
            dim = rng.randint(1, 4)
            weights = tuple(rng.randint(1, 3) for _ in range(dim))
            X = _random_field(rng, dim)
            total = VectorField.zero(dim)
            for part in homogeneous_parts(X, weights).values():
                total = total + part
            assert total == X

        # ideal ad-invariance and nilpotency bound across the fixtures and
        # 200 random homogeneous-generator systems
        fixture_data = []
        for frame, k in ((e1_frame, 1), (e2_frame, 2), (e3_frame, 3)):
            _, w = growth_vector(frame)
            L = lie_closure(frame.fields)
            G = ideal_closure(L, list(frame.fields[:k]))
            fixture_data.append((w, L, G))
        checked = 0
        while checked < 200:
            dim = rng.randint(2, 3)
            weights = tuple(rng.randint(1, 2) for _ in range(dim))
            gens = []
            minus_one = []
            for _ in range(rng.randint(1, 3)):
                order = rng.choice([-1, 0])
                f = _random_homogeneous(rng, dim, weights, order)
                if f.is_zero:
                    continue
                gens.append(f)
                if order == -1:
                    minus_one.append(f)
            if not minus_one:
                continue
            L = lie_closure(gens)
            G = ideal_closure(L, minus_one)
            fixture_data.append((weights, L, G))
            checked += 1
        for w, L, G in fixture_data:
            step = nilpotent_step(G)
            assert step is not None and step <= max(w)
            for bfield in L.basis:
                for gfield in G.basis:
                    assert G.contains(lie_bracket(bfield, gfield))

        # approximating fields: triangular and blowup-free at horizon 10^3
        for i, frame in enumerate((e1_frame, e2_frame, e3_frame)):
            _, w = growth_vector(frame)
            A = build_approximation(frame, w)
            assert not A.degenerate
            for j, f in enumerate(A.fields):
                assert check_triangular_complete(f, w)
                rep = completeness_probe(f, w, horizon=1000.0, trials=3, seed=100 * i + j, steps=1200)
                assert rep.blowup_count == 0

        # the incomplete archetype blows up
        square = only_component(1, 0, var(1, 0) ** 2)
        rep = completeness_probe(square, (1,), horizon=10.0, trials=20, seed=77)
        assert rep.blowup_count >= 1


def test_criterion_5_flow_oracles(e1_frame, e2_frame, e3_frame):
    with criterion(5, "flow oracle agreement and exact flow identities"):
        rng = random.Random(31415)
        for frame in (e1_frame, e2_frame, e3_frame):
            _, w = growth_vector(frame)
            for X in frame.fields:
                for _ in range(10):
                    p = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(frame.dim))
                    t = Fraction(rng.randint(-4, 4), 4)
                    exact = lie_series_flow(X, p, t, w)
                    numeric = rk4_flow(X, [float(c) for c in p], float(t), 1000)
                    assert not numeric.blowup
                    err = max(abs(float(a) - b) for a, b in zip(exact, numeric.endpoint))
                    assert err <= 1e-6

        # group law and dilation homogeneity, exact, for order -1 fields
        for frame in (e1_frame, e2_frame, e3_frame):
            _, w = growth_vector(frame)
            for X in frame.fields:
                # order -1 and homogeneous: the split's only key is -1
                if list(homogeneous_parts(X, w)) != [-1]:
                    continue
                for _ in range(3):
                    p = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(frame.dim))
                    t1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    t2 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    assert lie_series_flow(X, lie_series_flow(X, p, t1, w), t2, w) == lie_series_flow(
                        X, p, t1 + t2, w
                    )
                    lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                    assert lie_series_flow(X, dilate(p, lam, w), lam * t1, w) == dilate(
                        lie_series_flow(X, p, t1, w), lam, w
                    )


def test_criterion_6_genericity(tangential_frame):
    with criterion(6, "genericity arithmetic and tangency checks"):
        t2 = genericity_codims(2)
        assert t2["strata"][0]["r"] == 1
        assert t2["strata"][0]["codim"] == 1

        golden = json.loads((DATA / "codims_golden.json").read_text())
        fresh = {str(n): genericity_codims(n) for n in range(2, 13)}
        assert json.loads(json.dumps(fresh)) == golden

        assert tangency_check(tangential_frame, (0, 0))
        with pytest.raises(NotOnZ1):
            tangency_check(tangential_frame, (1, 2))


def test_criterion_7_frontend(tmp_path, capsys):
    with criterion(7, "frontend determinism and exit codes"):
        for name, text in (("e1", E1_TEXT), ("e2", E2_TEXT), ("e3", E3_TEXT)):
            doc = parse_frame(text)
            opts = AnalyzeOptions(stratify=True, samples=25, seed=13)
            assert analyze(doc, opts).to_json() == analyze(doc, opts).to_json()
            src = tmp_path / f"{name}.frame"
            src.write_text(text, encoding="utf-8")
            out1 = tmp_path / f"{name}_1.json"
            out2 = tmp_path / f"{name}_2.json"
            assert main(["analyze", str(src), "--json", str(out1), "--seed", "3"]) == 0
            assert main(["analyze", str(src), "--json", str(out2), "--seed", "3"]) == 0
            assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

        bad = tmp_path / "bad.frame"
        bad.write_text("vars x\nfield X1 = d/dy\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2

        rankf = tmp_path / "rank.frame"
        rankf.write_text(RANK_FAIL_TEXT, encoding="utf-8")
        assert main(["analyze", str(rankf)]) == 3

        nonpriv = tmp_path / "np.frame"
        nonpriv.write_text(NOT_PRIVILEGED_TEXT, encoding="utf-8")
        assert main(["analyze", str(nonpriv)]) == 4

        degen = tmp_path / "deg.frame"
        degen.write_text(DEGENERATE_TEXT, encoding="utf-8")
        out = tmp_path / "deg.json"
        assert main(["analyze", str(degen), "--json", str(out)]) == 5
        assert json.loads(out.read_text())["approximation"]["degenerate"] is True
        capsys.readouterr()
