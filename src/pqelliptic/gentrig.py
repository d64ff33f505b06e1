"""Generalized trigonometric layer: the two-parameter half-period constant,
the generalized arcsine, and its inverse obtained by Newton's method.

The arcsine adopted here is the integral of (1 - t**q)**(-1/p) on [0, x],
the convention under which twice its value at 1 equals the beta-function
form of the generalized half period. See the verification report's
convention notes for the numerical comparison of the two exponent
placements, which disagree for p != q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .special import DomainError, _slot_setters, beta, inc_beta


@dataclass(frozen=True, slots=True)
class PQParams:
    """Validated parameter pair (p, q), both finite and strictly greater than 1.

    Immutable after construction and equal by field; the generalized circle
    constant and the reciprocal exponents are cached at creation time.
    """

    p: float
    q: float
    inv_p: float = field(init=False)
    inv_q: float = field(init=False)
    pi_pq: float = field(init=False)

    def __init__(self, p: float, q: float) -> None:
        set_p, set_q, set_inv_p, set_inv_q, set_pi_pq = _PQ_PARAMS_SLOTS
        set_pi_pq(self, pi_pq(p, q))  # validates p and q
        set_p(self, p)
        set_q(self, q)
        set_inv_p(self, 1.0 / p)
        set_inv_q(self, 1.0 / q)

    @property
    def half_period(self) -> float:
        return 0.5 * self.pi_pq


_PQ_PARAMS_SLOTS = _slot_setters(PQParams)


def pi_pq(p: float, q: float) -> float:
    """Generalized circle constant (2/q) * B(1 - 1/p, 1/q)."""
    if not (1.0 < p < math.inf and 1.0 < q < math.inf):
        raise DomainError(f"parameters require finite p > 1 and q > 1, got p={p}, q={q}")
    return (2.0 / q) * beta(1.0 - 1.0 / p, 1.0 / q)


def _power_pair(p: float, r: float) -> tuple[float, float]:
    """x = r**p and its complement 1 - x, each to full relative precision.

    Above x = 1/2 the complement is -expm1(p*log(r)), which stays exact to
    a few ulps of itself as x -> 1 (and is positive for every r < 1 even
    when x rounds to 1); below, 1 - x loses nothing.
    """
    x = r ** p
    return x, (1.0 - x if x <= 0.5 else -math.expm1(p * math.log(r)))


def arcsin_pq(params: PQParams, x: float) -> float:
    """Generalized arcsine on [0, 1], evaluated in closed form.

    The substitution u = t**q turns the defining integral into an incomplete
    beta function: (1/q) * B(x**q; 1/q, 1 - 1/p), or above x**q = 1/2 half the
    period less (1/q) * B(1 - x**q; 1 - 1/p, 1/q) (DLMF 8.17.4), with 1 - x**q
    formed exactly. Strictly increasing; arcsin_pq(1) is half the period.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"arcsin_pq requires x in [0, 1], got x={x}")
    u, w = _power_pair(params.q, x)
    if u <= math.ulp(1.0):  # the integral is x (1 + O(x**q)); x**q may underflow
        return x
    if u <= 0.5:
        return params.inv_q * inc_beta(u, params.inv_q, 1.0 - params.inv_p)
    return params.half_period - params.inv_q * inc_beta(w, 1.0 - params.inv_p, params.inv_q)


def sin_pq(params: PQParams, t: float) -> float:
    """Generalized sine: the inverse of arcsin_pq on [0, half period].

    Newton's method on F(y) = B(y**(1/a); a, b) = T, increasing and convex
    with slope 1/a at 0: the lower form (a, b, T) = (1/q, 1 - 1/p, q t) with
    x = y, or its mirror (1 - 1/p, 1/q, q (half - t)) with x = (1 - y**(1/a))**(1/q),
    whichever starts lower. The start a T, where the tangent at 0 meets T, is
    at most G(1+a) G(1+b) / G(1+a+b) <= 1 and lies above the root, so the
    iterates descend. Stops once a step descends by two ulps of y or less;
    raises DomainError if 200 steps do not get there. t up to four ulps of
    half outside [0, half] is clamped in; the ends' target 0 starts at the root.
    """
    half = params.half_period
    slack = 4.0 * math.ulp(half)  # endpoint values that round a hair outside
    if not -slack <= t <= half + slack:
        raise DomainError(f"sin_pq requires t in [0, {half}], got t={t}")
    t = min(max(0.0, t), half)

    a, b, upper = params.inv_q, 1.0 - params.inv_p, params.q * (half - t)
    lower = t <= b * upper
    a, b, target = (a, b, params.q * t) if lower else (b, a, upper)
    y = a * target
    for _ in range(200):
        u = y ** (1.0 / a)
        # F(y) = (y/a) (1 + O(u)): below u = eps, y = a T is the root (u may underflow).
        residual = inc_beta(u, a, b) - target if u > math.ulp(1.0) else 0.0
        step = residual * a * (1.0 - u) ** (1.0 - b)
        y -= step
        if step <= 2.0 * math.ulp(y):
            return y if lower else (1.0 - y ** (1.0 / a)) ** params.inv_q
    raise DomainError(f"sin_pq did not converge in 200 iterations for t={t}")
