"""Flows of approximating fields.

Triangular fields (component j of weighted degree at most w_j) have
complete flows; when every component stays strictly below its coordinate
weight the exponential series of each coordinate terminates and the flow is
an exact polynomial in time.  A fixed-step Runge-Kutta integrator and the
random-start blowup probe built on it are numeric oracles for the tests and
the library; ``analyze --probe-flows`` reports the exact certificate
:func:`~ars.approx.check_triangular_complete` instead.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .approx import check_triangular_complete
from .grading import check_weights, homogeneous_parts
from .symcore import ArsError, VectorField, as_fraction, as_point, vf_apply

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
    return lie_series_flow_result(X, point, t, weights, truncation_order).endpoint


def lie_series_flow_result(
    X: VectorField,
    point: Sequence,
    t,
    weights: Sequence[int],
    truncation_order: int | None = None,
) -> FlowResult:
    """Like :func:`lie_series_flow`, reporting whether the series was cut.

    One pass serves every coordinate: the fields g_1 = X and g_s = X g_(s-1)
    (:func:`~ars.symcore.vf_apply` component by component) have component j
    equal to X^s x_j, so step s of every series is read off g_s.
    ``truncation_order`` in the result is None when every coordinate's
    series terminated on its own (the endpoint is exact), and the applied
    cutoff otherwise.
    """
    w = check_weights(weights, X.dim)
    # the largest order is <= 0 for a triangular field, < 0 for a strictly triangular one (each series ends by step w_j)
    top = max(homogeneous_parts(X, w), default=-1)
    if top > 0:
        raise NonTriangularField("flow series requires a triangular field for these weights")
    pt = as_point(point, X.dim)
    tt = as_fraction(t)
    strict = top < 0
    cutoff = truncation_order if truncation_order is not None else DEFAULT_TRUNCATION_ORDER

    endpoint, t_power, g, s = list(pt), Fraction(1), X, 1
    while not g.is_zero and (strict or s <= cutoff):
        if strict and (outlived := [j for j, _ in g.terms if s > w[j]]):
            j = min(outlived)
            raise ArsError(f"internal error: series for coordinate {j} outlived its bound {w[j]}")
        t_power = t_power * tt / s
        endpoint = [total + t_power * v for total, v in zip(endpoint, g._evaluate(pt))]
        g, s = vf_apply(X, g), s + 1
    return FlowResult(tuple(endpoint), "lie_series", False, truncation_order=None if g.is_zero else cutoff)


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
    integration halts at the last finite state.  The float operations are
    those of ``Polynomial.evaluate_float`` in the same order: terms summed
    onto 0.0, each term ``c * x_i ** k_i * ...`` over the nonzero exponents.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    state = tuple(float(x) for x in point)
    if len(state) != X.dim:
        raise ValueError("dimension mismatch")
    comps = [
        [(float(c), [(i, k) for i, k in enumerate(e) if k]) for e, c in comp.terms.items()]
        for comp in X.components
    ]

    def field_at(x):
        out = []
        for terms in comps:
            total = 0.0
            for val, powers in terms:
                for i, k in powers:
                    val *= x[i] ** k
                total += val
            out.append(total)
        return out

    h = float(t) / steps
    h2, h6 = h / 2, h / 6
    # |v| <= limit holds exactly when v is finite and |v| <= blowup_threshold
    limit = min(blowup_threshold, sys.float_info.max)
    blowup = False
    try:
        for _ in range(steps):
            k1 = field_at(state)
            k2 = field_at([x + h2 * k for x, k in zip(state, k1)])
            k3 = field_at([x + h2 * k for x, k in zip(state, k2)])
            k4 = field_at([x + h * k for x, k in zip(state, k3)])
            candidate = tuple(
                x + h6 * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(state, k1, k2, k3, k4)
            )
            if not all(-limit <= y <= limit for y in candidate):
                blowup = True
                break
            state = candidate
    except OverflowError:
        blowup = True
    return FlowResult(state, "rk4", blowup, step_count=steps)


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
