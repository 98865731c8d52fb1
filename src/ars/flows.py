"""Flows of approximating fields.

Triangular fields (component j of weighted degree at most w_j) have
complete flows; when every component stays strictly below its coordinate
weight the exponential series of each coordinate terminates and the flow is
an exact polynomial in time.  A fixed-step Runge-Kutta integrator serves as
the independent numeric cross-check and as the blowup probe for fields
without the triangular structure.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .approx import check_triangular_complete
from .grading import check_weights, homogeneous_orders
from .symcore import ArsError, Polynomial, VectorField, as_fraction, as_point, vf_apply

DEFAULT_TRUNCATION_ORDER = 30
DEFAULT_BLOWUP_THRESHOLD = 1e12


class NonTriangularField(ArsError):
    """The field lacks the triangular structure that guarantees completeness."""


@dataclass(frozen=True)
class FlowResult:
    endpoint: tuple
    method: str
    blowup: bool
    truncation_order: int | None = None
    step_count: int | None = None


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    horizon: float
    triangular: bool
    blowup_count: int
    blowup_starts: tuple[tuple[float, ...], ...]


def is_strictly_triangular(X: VectorField, weights: Sequence[int]) -> bool:
    """Every monomial of component j has weighted degree at most w_j - 1.

    Applying such a field to a polynomial strictly lowers weighted degree,
    so each coordinate's exponential series terminates.
    """
    return all(s <= -1 for s in homogeneous_orders(X, weights))


def lie_series_flow(
    X: VectorField,
    point: Sequence,
    t,
    weights: Sequence[int],
    truncation_order: int | None = None,
) -> tuple[Fraction, ...]:
    """Endpoint of the time-t flow via the exponential series, exactly.

    Each coordinate moves by sum_s t^s/s! (X^s x_j)(p).  For strictly
    triangular fields the series terminates by step w_j and the endpoint is
    exact; otherwise it is cut at ``truncation_order`` terms, whose accuracy
    degrades as |t| grows.  Use :func:`lie_series_flow_result` when the
    truncation bound matters.
    """
    return _lie_series(X, point, t, weights, truncation_order)[0]


def lie_series_flow_result(
    X: VectorField,
    point: Sequence,
    t,
    weights: Sequence[int],
    truncation_order: int | None = None,
) -> FlowResult:
    """Like :func:`lie_series_flow`, reporting whether the series was cut.

    ``truncation_order`` in the result is None when every coordinate's
    series terminated on its own (the endpoint is exact), and the applied
    cutoff otherwise.
    """
    endpoint, truncated_at = _lie_series(X, point, t, weights, truncation_order)
    return FlowResult(endpoint, "lie_series", False, truncation_order=truncated_at)


def _lie_series(X, point, t, weights, truncation_order):
    w = check_weights(weights, X.dim)
    if not check_triangular_complete(X, w):
        raise NonTriangularField("flow series requires a triangular field for these weights")
    pt = as_point(point, X.dim)
    tt = as_fraction(t)
    strict = is_strictly_triangular(X, w)
    cutoff = truncation_order if truncation_order is not None else DEFAULT_TRUNCATION_ORDER

    endpoint = []
    truncated = False
    for j in range(X.dim):
        g = Polynomial.variable(X.dim, j)
        total = g.evaluate(pt)
        t_power = Fraction(1)
        s = 0
        while True:
            g = vf_apply(X, g)
            s += 1
            if g.is_zero:
                break
            if strict and s > w[j]:
                raise ArsError(
                    f"internal error: series for coordinate {j} outlived its bound {w[j]}"
                )
            if not strict and s > cutoff:
                truncated = True
                break
            t_power = t_power * tt / s
            total += t_power * g.evaluate(pt)
        endpoint.append(total)
    return tuple(endpoint), (cutoff if truncated else None)


def rk4_flow(
    X: VectorField,
    point: Sequence[float],
    t: float,
    steps: int,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> FlowResult:
    """Classical fixed-step fourth-order integration in floats.

    Blowup is data, not an error: the flag is set as soon as any coordinate
    leaves ``blowup_threshold``, stops being finite or overflows, and
    integration halts at the last finite state.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    state = tuple(float(x) for x in point)
    if len(state) != X.dim:
        raise ValueError("dimension mismatch")
    step = X._rk4_step
    if step is None:
        step = X._rk4_step = _compile_rk4_step(X)
    h = float(t) / steps
    # |v| <= limit holds exactly when v is finite and |v| <= blowup_threshold
    limit = min(blowup_threshold, sys.float_info.max)
    blowup = False
    try:
        for _ in range(steps):
            candidate = step(state, h, h / 2, h / 6, limit)
            if candidate is None:
                blowup = True
                break
            state = candidate
    except OverflowError:
        blowup = True
    return FlowResult(state, "rk4", blowup, step_count=steps)


def _compile_rk4_step(X: VectorField):
    """One RK4 step of X as straight-line float code.

    ``step(x, h, h2, h6, limit)`` returns the next state, or None when a
    coordinate leaves [-limit, limit].  It performs the float operations of
    the interpreted loop over ``Polynomial.evaluate_float`` in the same
    order, so its results are identical bit for bit: terms in ``terms``
    order summed onto 0.0, each term ``c * x_i ** k_i * ...`` over the
    nonzero exponents, and the stages ``x + h2 * k``, ``x + h * k`` and
    ``x + h6 * (k1 + 2 * k2 + 2 * k3 + k4)``.  The source holds only
    positional names and integer exponents; the coefficients are bound as
    arguments of the enclosing factory.
    """
    n = X.dim
    coeffs: list[float] = []
    components = []
    for comp in X.components:
        terms = []
        for e, c in comp.terms.items():
            terms.append((f"c{len(coeffs)}", e))
            coeffs.append(float(c))
        components.append(terms)

    def field_at(stage: int, at: list[str]) -> list[str]:
        lines = []
        for j, terms in enumerate(components):
            expr = "0.0"
            for name, e in terms:
                factors = [name] + [f"{v} ** {k}" for v, k in zip(at, e) if k]
                expr += " + " + " * ".join(factors)
            lines.append(f"k{stage}_{j} = {expr}")
        return lines

    xs = [f"x{j}" for j in range(n)]
    body = [f"{', '.join(xs)}, = x"]
    at = xs
    for stage, scale in ((1, "h2"), (2, "h2"), (3, "h")):
        body += field_at(stage, at)
        at = [f"s{stage}_{j}" for j in range(n)]
        body += [f"{a} = x{j} + {scale} * k{stage}_{j}" for j, a in enumerate(at)]
    body += field_at(4, at)
    body += [
        f"y{j} = x{j} + h6 * (k1_{j} + 2 * k2_{j} + 2 * k3_{j} + k4_{j})" for j in range(n)
    ]
    ys = [f"y{j}" for j in range(n)]
    body += [
        "if " + " and ".join(f"-limit <= {y} <= limit" for y in ys) + ":",
        f"    return ({', '.join(ys)},)",
        "return None",
    ]
    params = ", ".join(f"c{i}" for i in range(len(coeffs)))
    source = "\n".join(
        [f"def factory({params}):", "    def step(x, h, h2, h6, limit):"]
        + [f"        {line}" for line in body]
        + ["    return step"]
    )
    namespace: dict = {}
    exec(compile(source, "<rk4 step>", "exec"), namespace)
    return namespace["factory"](*coeffs)


def completeness_probe(
    X: VectorField,
    weights: Sequence[int],
    horizon: float,
    trials: int,
    seed: int = 0,
    steps: int = 2000,
    start_box: float = 2.0,
) -> ProbeReport:
    """Integrate from random starts over [-horizon, horizon], count blowups.

    Fields passing the triangular completeness check must report zero
    blowups (at probe scale); the x^2 d/dx archetype reports them readily.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    w = check_weights(weights, X.dim)
    rng = random.Random(seed)
    blowups: list[tuple[float, ...]] = []
    for _ in range(trials):
        start = tuple(rng.uniform(-start_box, start_box) for _ in range(X.dim))
        for direction in (horizon, -horizon):
            res = rk4_flow(X, start, direction, steps)
            if res.blowup:
                blowups.append(start)
                break
    return ProbeReport(
        trials=trials,
        horizon=horizon,
        triangular=check_triangular_complete(X, w),
        blowup_count=len(blowups),
        blowup_starts=tuple(blowups),
    )


def dilate(point: Sequence, lam, weights: Sequence[int]) -> tuple[Fraction, ...]:
    """Weighted dilation: coordinate j scales by lam**w_j."""
    w = check_weights(weights, len(tuple(point)))
    lf = as_fraction(lam)
    pt = as_point(point, len(w))
    return tuple(x * lf**wj for x, wj in zip(pt, w))
