"""Complete two-parameter elliptic integrals of the first and second kind,
their complements, the classical AGM anchor, and the bridge to the
one-parameter generalized integrals.

The hypergeometric representations are normative here; the theta-form
integral of the first kind is retained as a documented cross-check (for
p != q it reproduces the first-kind integral at the shifted modulus
r**(q/p), see K_theta_integral).
"""

from __future__ import annotations

import math

from .gentrig import PQParams, _power_pair, sin_pq
from .quadrature import tanh_sinh_01
from .special import (
    METHOD_EULER_QUADRATURE,
    DivergenceError,
    DomainError,
    EvalResult,
    HypArgs,
    gauss_2f1,
)


def K_pq(params: PQParams, r: float) -> EvalResult:
    """Complete integral of the first kind; strictly increasing in r.

    Finite for every r < 1; diverges logarithmically as r -> 1.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"first-kind integral requires r in [0, 1), got r={r}")
    return _complete_integral(params, True, *_power_pair(params.p, r))


def E_pq(params: PQParams, r: float) -> EvalResult:
    """Complete integral of the second kind; strictly decreasing, finite at r = 1."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"second-kind integral requires r in [0, 1], got r={r}")
    return _complete_integral(params, False, *_power_pair(params.p, r))


def _complete_args(params: PQParams, first_kind: bool, z: float,
                   w: float | None = None) -> HypArgs:
    """(1/q, b; 1 - 1/p + 1/q; z): b = 1 - 1/p for the first-kind family
    (c - a - b = 0), b = -1/p for the second (c - a - b = 1); w is 1 - z."""
    b = 1.0 - params.inv_p if first_kind else -params.inv_p
    return HypArgs(params.inv_q, b, 1.0 - params.inv_p + params.inv_q, z, w)


def _complete_integral(params: PQParams, first_kind: bool, z: float, w: float) -> EvalResult:
    """(pi_pq / 2) * 2F1 of the selected family, at z = r**p with w = 1 - z, as one result."""
    scale, f = 0.5 * params.pi_pq, gauss_2f1(_complete_args(params, first_kind, z, w))
    return EvalResult(scale * f.value, abs(scale) * f.err_estimate, f.method)


def K_comp(params: PQParams, r: float) -> EvalResult:
    """First-kind integral at the complementary modulus; finite on (0, 1], infinite at r = 0."""
    if not 0.0 < r <= 1.0:
        raise DomainError(f"complementary first-kind integral requires r in (0, 1], got r={r}")
    return _complete_integral(params, True, *reversed(_power_pair(params.p, r)))


def E_comp(params: PQParams, r: float) -> EvalResult:
    """Second-kind integral at the complementary modulus; finite on [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"complementary second-kind integral requires r in [0, 1], got r={r}")
    return _complete_integral(params, False, *reversed(_power_pair(params.p, r)))


def K_theta_integral(params: PQParams, r: float) -> EvalResult:
    """Direct quadrature of the theta-form first-kind integral.

    Integrates (1 - r**q * sin_pq(t)**q)**(1/p - 1) over a quarter period.
    For p != q this equals the first-kind integral at modulus r**(q/p)
    rather than at r (the two forms carry r**q and r**p respectively);
    the operation exists to document and test that relation.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"theta integral requires r in [0, 1), got r={r}")
    r_q = r ** params.q
    exponent = params.inv_p - 1.0
    span = params.half_period

    def integrand(t: float, tm: float) -> float:
        s = sin_pq(params, span * t)
        return (1.0 - r_q * s ** params.q) ** exponent

    value, err = tanh_sinh_01(integrand, rel_tol=1e-11, max_level=7)
    return EvalResult(span * value, span * err, METHOD_EULER_QUADRATURE)


def _agm_k_and_e(r: float) -> tuple[float, float]:
    """Classical K and E by the arithmetic-geometric mean iteration."""
    a = 1.0
    b = math.sqrt((1.0 - r) * (1.0 + r))
    c = r
    scaled_sum = 0.5 * c * c
    n = 0
    while abs(c) > 1e-17 and n < 64:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        n += 1
        scaled_sum += 0.5 * (2.0 ** n) * c * c
    k_val = math.pi / (2.0 * a)
    return k_val, k_val * (1.0 - scaled_sum)


def legendre_K_agm(r: float) -> float:
    """Classical complete elliptic integral of the first kind (AGM method)."""
    if r == 1.0:
        raise DivergenceError("classical K diverges at r = 1")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"classical K requires r in [0, 1), got r={r}")
    return _agm_k_and_e(r)[0]


def legendre_E_agm(r: float) -> float:
    """Classical complete elliptic integral of the second kind (AGM method)."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"classical E requires r in [0, 1], got r={r}")
    if r == 1.0:
        return 1.0
    return _agm_k_and_e(r)[1]


def borwein_K(s: float, r: float) -> float:
    """One-parameter generalized first-kind value 2F1(1/2-s, 1/2+s; 1; r**2)."""
    return _borwein(0.5 - s, s, r, first_kind=True)


def borwein_E(s: float, r: float) -> float:
    """One-parameter generalized second-kind value 2F1(-1/2-s, 1/2+s; 1; r**2)."""
    return _borwein(-0.5 - s, s, r, first_kind=False)


def _borwein(a: float, s: float, r: float, first_kind: bool) -> float:
    if not abs(s) < 0.5:
        raise DomainError(f"generalized parameter requires |s| < 1/2, got s={s}")
    if first_kind and not 0.0 <= r < 1.0:
        raise DomainError(f"first-kind value requires r in [0, 1), got r={r}")
    if not first_kind and not 0.0 <= r <= 1.0:
        raise DomainError(f"second-kind value requires r in [0, 1], got r={r}")
    return gauss_2f1(HypArgs(a, 0.5 + s, 1.0, r * r)).value


def takeuchi_bridge_residual(s: float, r: float) -> float:
    """Residual of the bridge between the one- and two-parameter families.

    With p = 2/(2s+1), the classically normalized one-parameter values
    (pi/2 times the raw hypergeometric values) must equal
    (pi / pi_p) * K_p(r**(2/p)) and likewise for the second kind; the sum
    of both absolute mismatches is returned.
    """
    if not -0.5 < s < 0.5:
        raise DomainError(f"bridge requires s in (-1/2, 1/2), got s={s}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"bridge requires r in (0, 1), got r={r}")
    p = 2.0 / (2.0 * s + 1.0)
    params = PQParams(p, p)
    shifted = r ** (2.0 / p)
    scale = math.pi / params.pi_pq
    half_pi = 0.5 * math.pi
    res_k = abs(half_pi * borwein_K(s, r) - scale * K_pq(params, shifted).value)
    res_e = abs(half_pi * borwein_E(s, r) - scale * E_pq(params, shifted).value)
    return res_k + res_e
