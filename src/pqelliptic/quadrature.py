"""Doubly-exponential (tanh-sinh) quadrature on finite intervals.

The node map clusters points exponentially at both endpoints, so integrands
with integrable algebraic endpoint singularities converge at near-machine
accuracy. Integrands on (0, 1) receive both t and 1 - t, each computed
without cancellation, so a factor like (1-t)**(c-1) stays accurate deep
inside the endpoint layer.
"""

from __future__ import annotations

import math
from typing import Callable

_HALF_PI = math.pi / 2.0
# Largest |u| before exp(pi*sinh(u)) overflows a double. Up to it t, 1 - t and
# the weight stay above about 1e-304, so no node contributes an exact zero.
_U_MAX = math.asinh(700.0 / math.pi)


def _contribution(f: Callable[[float, float], float], u: float) -> float:
    w = math.pi * math.sinh(u)
    ew = math.exp(w)
    t = ew / (1.0 + ew)
    tm = 1.0 / (1.0 + ew)
    ch = math.cosh(_HALF_PI * math.sinh(u))
    weight = (math.pi / 4.0) * math.cosh(u) / (ch * ch)
    return f(t, tm) * weight


def tanh_sinh_01(
    f: Callable[[float, float], float],
    rel_tol: float = 5e-14,
    max_level: int = 10,
) -> tuple[float, float]:
    """Integrate f(t, 1-t) over (0, 1); returns (value, error_estimate).

    The step is halved until two successive trapezoid estimates agree to
    the requested tolerance; the reported error is the last inter-level
    difference, an upper bound on the refinement residual actually seen.
    Raises DomainError when max_level halvings do not reach the tolerance.
    """
    # Level 0 visits every node k*h (stride 1); each halving adds the odd ones.
    h, stride = 1.0, 1
    raw = _contribution(f, 0.0)
    estimate = math.nan  # level 0 has no estimate to compare against
    for _ in range(max_level + 1):
        k = 1
        while k * h <= _U_MAX:
            raw += _contribution(f, k * h) + _contribution(f, -k * h)
            k += stride
        refined = raw * h
        err = abs(refined - estimate)
        estimate = refined
        if err <= rel_tol * abs(estimate):
            return estimate, err
        h, stride = 0.5 * h, 2
    from .special import DomainError  # special imports this module
    raise DomainError(f"tanh-sinh quadrature did not converge in {max_level} levels "
                      f"(last estimate {estimate!r}, last difference {err!r})")
