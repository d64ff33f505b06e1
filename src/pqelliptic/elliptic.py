"""Complete two-parameter elliptic integrals of the first and second kind,
their complements, independent quadrature oracles, the classical AGM anchor,
and the bridge to the one-parameter generalized integrals.

The hypergeometric representations are normative here; the theta-form
integral of the first kind is retained as a documented cross-check (for
p != q it reproduces the first-kind integral at the shifted modulus
r**(q/p), see K_theta_integral).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

from .gentrig import PQParams, _power_pair, sin_pq
from .quadrature import tanh_sinh_01
from .special import (
    _EPS,
    METHOD_EULER_QUADRATURE,
    DivergenceError,
    DomainError,
    EvalResult,
    HypArgs,
    gauss_2f1,
)

@dataclass(frozen=True)
class Modulus:
    """A modulus r in (0, 1) and its complement (1 - r**p)**(1/p), with 1 - r**p exact.

    Both values are stored so that taking the complement is an exact swap,
    making the involution r -> r' -> r hold to the last bit.
    """

    r: float
    r_comp: float

    @classmethod
    def for_params(cls, params: PQParams, r: float) -> "Modulus":
        if not 0.0 < r < 1.0:
            raise DomainError(f"modulus must lie in (0, 1), got r={r}")
        return cls(r, _power_pair(params.p, r)[1] ** params.inv_p)

    def complement(self) -> "Modulus":
        return Modulus(self.r_comp, self.r)


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


#: The oracle refuses 0 < 1 - z below this: there the nearest singularity of its
#: integrand comes within about sqrt(1 - z) of the interval, too close for 257 nodes.
EULER_ORACLE_MIN_W = 1e-3

#: Nested Clenshaw-Curtis levels: the n + 1 nodes x = cos(j pi / n) of a level
#: include those of the level before, so each level adds only its odd j.
_CC_LEVELS = (8, 16, 32, 64, 128, 256)
_CC_TOP = _CC_LEVELS[-1]


@functools.cache
def _cc_tables() -> tuple[list[float], list[int], list[tuple[float, float]]]:
    """cos(i pi / 256) for i < 512; the top-level node indices i (x = cos(i pi / 256))
    in nested order, so that the first n + 1 are the nodes of level n; and the
    nodes (s, 1 - s) = (cos(i pi / 512)**2, sin(i pi / 512)**2), s = (1 + x)/2, in
    that order. Built on first use, not at import.

    Each cosine is taken at an argument reduced into [0, pi/4]: a weight sums up to
    257 of them times moments of size 1, and rounding arguments as large as 2 pi
    costs the smallest weights two digits.
    """
    def cosine(i: int) -> float:
        i = min(i, 2 * _CC_TOP - i)
        sign = 1.0
        if 2 * i > _CC_TOP:
            i, sign = _CC_TOP - i, -1.0
        if 4 * i > _CC_TOP:
            return sign * math.sin((_CC_TOP - 2 * i) * math.pi / (2 * _CC_TOP))
        return sign * math.cos(i * math.pi / _CC_TOP)

    order = list(range(0, _CC_TOP + 1, _CC_TOP // _CC_LEVELS[0]))
    for n in _CC_LEVELS[1:]:
        stride = _CC_TOP // n
        order += range(stride, _CC_TOP, 2 * stride)
    half = [i * math.pi / (2 * _CC_TOP) for i in order]
    return ([cosine(i) for i in range(2 * _CC_TOP)], order,
            [(math.cos(h) ** 2, math.sin(h) ** 2) for h in half])


@functools.cache
def _cc_cosines(n: int) -> tuple[tuple[float, ...], ...]:
    """cos(j k pi / n) for k <= n, one row per node j of level n in nested order:
    rows of the 512 shared cosines, so each family's weights are dot products."""
    cosines, order, _ = _cc_tables()
    return tuple(tuple(cosines[k * i % (2 * _CC_TOP)] for k in range(n + 1))
                 for i in order[:n + 1])


@functools.lru_cache(maxsize=2048)
def _cc_weights(b: float, e: float, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The level-n Clenshaw-Curtis rule for the weight s**(b-1) (1-s)**(e-1) / B(b, e)
    on [0, 1], in nested node order, and each node's rounding bound in units of eps:
    the weight's own error plus (n + 8) |weight| for the sum and the integrand value.

    A b or e of 3/2 or more gives its integer part above 1/2 to a factor s**mb or
    (1-s)**me that the weights absorb, so the exponents whose moments are summed stay
    below 1/2: a larger one makes the weights near its end tiny, and they would
    carry the absolute rounding of the moments. The moments mu_k of T_k(x) against
    (1-x)**alpha (1+x)**beta, with s = (1 + x)/2, follow the recurrence
    (k+2+alpha+beta) mu_(k+1) = 2 (beta-alpha) mu_k + (k-2-alpha-beta) mu_(k-1)
    (Piessens and Branders 1973), normalized to mu_0 = 1.
    """
    _, order, nodes = _cc_tables()
    mb, me = max(0, math.floor(b - 0.5)), max(0, math.floor(e - 0.5))
    b, e = b - mb, e - me
    scale = 1.0  # B(b, e) / B(b + mb, e + me)
    for i in range(mb + me):
        scale *= b + e + i
    for i in range(mb):
        scale /= b + i
    for i in range(me):
        scale /= e + i
    alpha, beta = e - 1.0, b - 1.0
    mu = [1.0, (beta - alpha) / (alpha + beta + 2.0)]
    for k in range(1, n):
        mu.append((2.0 * (beta - alpha) * mu[k] + (k - 2.0 - alpha - beta) * mu[k - 1])
                  / (k + 2.0 + alpha + beta))
    coeffs = [2.0 * m / n for m in mu]
    coeffs[0] *= 0.5
    coeffs[n] *= 0.5
    spread = sum(map(abs, coeffs))
    weights, bounds = [], []
    for i, (s, sc), row in zip(order, nodes, _cc_cosines(n)):
        factor = scale * s ** mb * sc ** me * (0.5 if i in (0, _CC_TOP) else 1.0)
        weight = factor * sum(map(mul, coeffs, row))
        weights.append(weight)
        bounds.append(abs(factor) * spread + (n + 8) * abs(weight))
    return tuple(weights), tuple(bounds)


def euler_integral_oracle(args: HypArgs) -> EvalResult:
    """Independent hypergeometric oracle: Clenshaw-Curtis quadrature of the Euler integral.

    2F1(a, b; c; z) = Gamma(c) / (Gamma(b) Gamma(c-b)) times the integral of
    t**(b-1) (1-t)**(c-b-1) (1 - z t)**(-a) on [0, 1], valid for c > b > 0. The
    rule integrates the endpoint weight exactly through its Chebyshev moments
    (the rule family of QUADPACK's QAWS), after the map t = s / (s + k (1 - s)),
    k = sqrt(1 - z), which keeps that weight and moves the integrand's
    singularities to about k outside [0, 1] instead of 1 - z. Nested levels of
    9 to 257 nodes stop when two agree to 1e-12 relative or to their rounding
    bound; the estimate is their difference plus that bound. Evaluates
    1 - z >= EULER_ORACLE_MIN_W; raises DomainError closer to 1, z = 1 included
    (there 2F1 is Gauss's sum, gauss_value_at_one), and where the top level does
    not converge. It shares no machinery with the series, connection and
    tanh-sinh routes.
    """
    a, b, c, z = args.a, args.b, args.c, args.z
    if not c > b > 0.0:
        raise DomainError(f"Euler representation requires c > b > 0, got b={b}, c={c}")
    w = 1.0 - z if args.w is None else args.w
    if w < EULER_ORACLE_MIN_W:
        raise DomainError(f"Euler quadrature oracle requires 1 - z >= {EULER_ORACLE_MIN_W:g}, "
                          f"got 1 - z = {w:.3e}; z = 1 is Gauss's sum, gauss_value_at_one")
    # With t = s / d, d = s + k (1 - s): t**(b-1) (1-t)**(c-b-1) dt = k**(c-b) d**(-c)
    # s**(b-1) (1-s)**(c-b-1) ds and 1 - z t = (w s + k (1 - s)) / d.
    kappa, ac = math.sqrt(w), a - c
    nodes = _cc_tables()[2]
    values: list[float] = []
    previous = None
    try:
        for n in _CC_LEVELS:
            values += [(s + kappa * sc) ** ac * (w * s + kappa * sc) ** -a
                       for s, sc in nodes[len(values):n + 1]]
            weights, bounds = _cc_weights(b, c - b, n)
            total = sum(map(mul, weights, values))
            if previous is not None:
                # bounds holds (n + 8) |weight|; each value carries 2 (|a| + |a - c|) eps more.
                rounding = (_EPS * (1.0 + 2.0 * (abs(a) + abs(a - c)) / (n + 8))
                            * sum(map(mul, bounds, values)))
                diff = abs(total - previous)
                if diff <= max(1e-12 * abs(total), rounding):
                    scale = kappa ** (c - b)
                    return EvalResult(scale * total, scale * (diff + rounding)
                                      + _EPS * (1.0 + c - b) * abs(scale * total),
                                      METHOD_EULER_QUADRATURE)
            previous = total
    except OverflowError:
        pass  # the integrand leaves the double range
    raise DomainError(f"Euler quadrature oracle did not converge in {_CC_TOP + 1} nodes "
                      f"at a={a}, b={b}, c={c}, 1 - z={w:.3e}")


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
