"""Generalized trigonometric layer: the two-parameter half-period constant,
the generalized arcsine, and its inverse obtained by safeguarded root-finding.

The arcsine adopted here is the integral of (1 - t**q)**(-1/p) on [0, x],
the convention under which twice its value at 1 equals the beta-function
form of the generalized half period. See the verification report's
convention notes for the numerical comparison of the two exponent
placements, which disagree for p != q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .special import DomainError, beta, inc_beta


@dataclass(frozen=True)
class PQParams:
    """Validated parameter pair (p, q), both strictly greater than 1.

    Immutable after construction; the generalized circle constant and the
    reciprocal exponents are cached at creation time.
    """

    p: float
    q: float
    inv_p: float = field(init=False)
    inv_q: float = field(init=False)
    pi_pq: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError(f"parameters require p > 1 and q > 1, got p={self.p}, q={self.q}")
        object.__setattr__(self, "inv_p", 1.0 / self.p)
        object.__setattr__(self, "inv_q", 1.0 / self.q)
        object.__setattr__(self, "pi_pq", pi_pq(self.p, self.q))

    @property
    def half_period(self) -> float:
        return 0.5 * self.pi_pq


def pi_pq(p: float, q: float) -> float:
    """Generalized circle constant (2/q) * B(1 - 1/p, 1/q)."""
    if not (p > 1.0 and q > 1.0):
        raise DomainError(f"pi_pq requires p > 1 and q > 1, got p={p}, q={q}")
    return (2.0 / q) * beta(1.0 - 1.0 / p, 1.0 / q)


def arcsin_pq(params: PQParams, x: float) -> float:
    """Generalized arcsine on [0, 1], evaluated in closed form.

    The substitution u = t**q turns the defining integral into an
    incomplete beta function: (1/q) * B(x**q; 1/q, 1 - 1/p). Strictly
    increasing, with arcsin_pq(1) equal to half the generalized period.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"arcsin_pq requires x in [0, 1], got x={x}")
    return params.inv_q * inc_beta(x ** params.q, params.inv_q, 1.0 - params.inv_p)


def sin_pq(params: PQParams, t: float) -> float:
    """Generalized sine: the inverse of arcsin_pq on [0, half period].

    Newton iteration with the exact inverse-function derivative, bracketed
    by bisection; pure bisection takes over in the last 1e-3 of the upper
    bracket where the arcsine derivative blows up. Stops at a bracket two
    ulps wide; raises DomainError if 200 iterations do not reach one.
    """
    half = params.half_period
    if t < 0.0 or t > half:
        # Tolerate endpoint values that round a hair outside the interval.
        if abs(t) > 1e-15 and abs(t - half) > 1e-15:
            raise DomainError(f"sin_pq requires t in [0, {half}], got t={t}")
    if abs(t) <= 1e-15:
        return 0.0
    if abs(t - half) <= 1e-15:
        return 1.0

    lo, hi = 0.0, 1.0
    x = min(1.0 - 1e-9, t / half)
    for _ in range(200):
        residual = arcsin_pq(params, x) - t
        if abs(residual) < 1e-14:
            return x
        if residual > 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= 2.0 * math.ulp(hi):
            return x
        if x > 1.0 - 1e-3:
            x = 0.5 * (lo + hi)
            continue
        step = -residual * (1.0 - x ** params.q) ** params.inv_p
        candidate = x + step
        if candidate <= lo or candidate >= hi:
            candidate = 0.5 * (lo + hi)
        x = candidate
    raise DomainError(f"sin_pq did not converge in 200 iterations for t={t}")
