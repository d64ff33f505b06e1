"""The difference function of the second/first-kind integral combination,
its closed-form derivatives, the admissibility conditions, and the sharp
linear bounds it satisfies on admissible parameter pairs.

The difference function is evaluated through the closed hypergeometric form
of the kernel H (regular on the whole closed interval), not through the
subtractive first/second-kind formula, which loses digits near both
endpoints and is kept only as a cross-check route.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from . import elliptic
from .gentrig import PQParams, _power_pair, pi_pq
from .special import (
    METHOD_GAUSS_CLOSED_FORM,
    DomainError,
    EvalResult,
    HypArgs,
    _gauss_2f1_with_derivative,
    _joined_route,
    gauss_2f1,
)


class CancellationWarning(RuntimeWarning):
    """The evaluation subtracts nearly equal quantities and loses digits."""


class InadmissibleWarning(UserWarning):
    """The parameter pair fails the admissibility conditions; the bound
    being evaluated is unproven there."""


#: Below this internal argument the defining kernel combination suffers
#: subtractive cancellation (the closed form stays accurate).
CANCELLATION_THRESHOLD = 0.05


@dataclass(frozen=True)
class DeltaConstants:
    """Derived constants of the difference function for one parameter pair.

    c1 is the recurring coefficient 1 + 1/q - 1/p; delta0 and
    delta1 = -delta0 are the endpoint limits; eta scales both derivative
    closed forms; beta1 = -2*delta0 is the sharp upper slope.
    """

    c1: float
    delta0: float
    delta1: float
    eta: float
    beta1: float

    @classmethod
    @functools.lru_cache(maxsize=64)  # built once per pair, not on every call
    def for_params(cls, params: PQParams) -> "DeltaConstants":
        c1 = 1.0 + params.inv_q - params.inv_p
        delta0 = _kernel_at_zero(params.inv_q, params.inv_p, params.pi_pq) - 1.0
        eta = (
            (params.p / params.q) * (1.0 - params.inv_p) ** 2 * params.pi_pq
            / (2.0 * c1 * (2.0 + params.inv_q - params.inv_p))
        )
        return cls(c1=c1, delta0=delta0, delta1=-delta0, eta=eta, beta1=-2.0 * delta0)


def _kernel_args(a: float, b: float, x: float, w: float | None = None) -> HypArgs:
    """(a, 1 - b; 2 + a - b; x), c - a - b = 1: the 2F1 of the kernel closed
    form; w is 1 - x."""
    return HypArgs(a, 1.0 - b, 2.0 + a - b, x, w)


def _kernel_at_zero(a: float, b: float, pi: float) -> float:
    """The kernel closed form's value at r = 0, with pi = pi_{1/b,1/a}: the
    2F1 of _kernel_args times it is the kernel at x = r**(1/b)."""
    return (1.0 - b) * pi / (2.0 * (1.0 + a - b))


def _check_kernel_parameters(a: float, b: float) -> None:
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise DomainError(f"kernel requires a, b in (0, 1), got a={a}, b={b}")


def H_def(a: float, b: float, r: float) -> float:
    """Kernel H_{a,b}(r) evaluated by its defining two-term combination.

    This is the normalized second-minus-first-kind combination
    (E - (r')**p * K) / r**p at (p, q) = (1/b, 1/a); r is the modulus.
    Emits CancellationWarning when 0 < x = r**p < 0.05, where the two terms
    agree to many digits and the subtraction loses precision.
    """
    _check_kernel_parameters(a, b)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"defining kernel form requires r in (0, 1], got r={r}")
    params = PQParams(1.0 / b, 1.0 / a)
    x, w = _power_pair(params.p, r)
    if 0.0 < x < CANCELLATION_THRESHOLD:
        warnings.warn(
            f"kernel combination at internal argument {x:.3e} < {CANCELLATION_THRESHOLD}"
            " subtracts nearly equal values; use the closed form instead",
            CancellationWarning, stacklevel=2)
    return _defining_combination(params, x, w)


def _defining_combination(params: PQParams, x: float, w: float) -> float:
    """(E - w K) / x at the exact pair z = x, w = 1 - x. K, which diverges at
    x = 1 where its weight w vanishes, enters only while w > 0."""
    if x == 0.0:
        raise DomainError("defining combination requires r**p > 0")
    e_val = elliptic._complete_integral(params, False, x, w).value
    k_term = w * elliptic._complete_integral(params, True, x, w).value if w > 0.0 else 0.0
    return (e_val - k_term) / x


def H_closed(a: float, b: float, r: float) -> float:
    """Kernel H_{a,b}(r) by its closed one-term hypergeometric form.

    Regular on all of [0, 1]: at r = 0 it equals
    (1-b) * pi_{1/b,1/a} / (2 * (1+a-b)) and at r = 1 it equals 1.
    """
    _check_kernel_parameters(a, b)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"closed kernel form requires r in [0, 1], got r={r}")
    x, w = _power_pair(1.0 / b, r)
    at_zero = _kernel_at_zero(a, b, pi_pq(1.0 / b, 1.0 / a))
    return at_zero * gauss_2f1(_kernel_args(a, b, x, w)).value


def delta_result(params: PQParams, r: float) -> EvalResult:
    """Difference function with error estimate and method tag."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"difference function requires r in [0, 1], got r={r}")
    if r == 0.0 or r == 1.0:
        constants = DeltaConstants.for_params(params)
        limit = constants.delta0 if r == 0.0 else constants.delta1
        return EvalResult(limit, 1e-15 * abs(limit), METHOD_GAUSS_CLOSED_FORM)
    a, b = params.inv_q, params.inv_p
    x, w = _power_pair(params.p, r)
    at_zero = _kernel_at_zero(a, b, params.pi_pq)  # pi_{1/b,1/a} = pi_{p,q}
    kx, kw = gauss_2f1(_kernel_args(a, b, x, w)), gauss_2f1(_kernel_args(a, b, w, x))
    # at_zero * kx - at_zero * kw: the floats of EvalResult's operators, in one result.
    return EvalResult(at_zero * kx.value - at_zero * kw.value,
                      abs(at_zero) * kx.err_estimate + abs(at_zero) * kw.err_estimate,
                      _joined_route(kx.method, kw.method))


def delta(params: PQParams, r: float) -> float:
    """Difference function on [0, 1]; endpoint queries return the exact limits.

    Computed as the kernel closed form at x = r**p minus the same form at
    1 - x, which is regular at both endpoints and antisymmetric under the
    complement map by construction.
    """
    return delta_result(params, r).value


def delta_via_elliptic(params: PQParams, r: float) -> float:
    """Cross-check route: the difference function straight from K and E.

    Subtractive: (E - (1 - r**p) K) / r**p loses about 1e-16 / r**p, and the
    complementary term about 1e-16 / (1 - r**p). The route-equivalence
    certification skips r where r**p or 1 - r**p is below 1e-6.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"direct route requires r in (0, 1), got r={r}")
    x, w = _power_pair(params.p, r)
    return _defining_combination(params, x, w) - _defining_combination(params, w, x)


def _derivative_front(params: PQParams) -> tuple[float, float, float]:
    """(a1, b1, c1) of F1 = 2F1(a1, b1; c1; .), with c1 - a1 - b1 = 0; F2 raises
    each by one, so its gap is -1."""
    a1 = 1.0 + params.inv_q
    b1 = 2.0 - params.inv_p
    c1 = 3.0 + params.inv_q - params.inv_p
    return a1, b1, c1


def delta_prime_result(params: PQParams, r: float) -> EvalResult:
    if r == 0.0:
        return EvalResult(0.0, 0.0, METHOD_GAUSS_CLOSED_FORM)
    if not 0.0 < r < 1.0:
        raise DomainError(f"slope requires r in [0, 1), got r={r}")
    a1, b1, c1 = _derivative_front(params)
    x, w = _power_pair(params.p, r)
    scale = DeltaConstants.for_params(params).eta * r ** (params.p - 1.0)
    fx, fw = gauss_2f1(HypArgs(a1, b1, c1, x, w)), gauss_2f1(HypArgs(a1, b1, c1, w, x))
    # scale * (fx + fw): the floats of EvalResult's operators, in one result.
    return EvalResult(scale * (fx.value + fw.value),
                      abs(scale) * (fx.err_estimate + fw.err_estimate),
                      _joined_route(fx.method, fw.method))


def delta_prime(params: PQParams, r: float) -> float:
    """Closed-form slope of the difference function on [0, 1).

    eta * r**(p-1) times the sum of one contiguous hypergeometric value at
    r**p and one at 1 - r**p; strictly positive on (0, 1) for admissible
    parameters and 0 in the limit r -> 0 (p > 1).
    """
    return delta_prime_result(params, r).value


def _curvature(params: PQParams, r: float) -> tuple[EvalResult, float]:
    """eta * ((p-1) r**(p-2) [F1(x) + F1(y)] + p r**(2p-2) (a1 b1/c1) [F2(x) - F2(y)]),
    x = r**p, y = 1 - x, F2 = (c1/(a1 b1)) F1' from F1's pass; its estimate sums the four
    terms' errors. Also its transposed sign pattern's value: F1 terms subtracted, F2 added."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"curvature requires r in (0, 1), got r={r}")
    a1, b1, c1 = _derivative_front(params)
    x, y = _power_pair(params.p, r)
    (f1x, err1x, route1x), (d1x, errd1x, routed1x) = _gauss_2f1_with_derivative(a1, b1, c1, x, y)
    (f1y, err1y, route1y), (d1y, errd1y, routed1y) = _gauss_2f1_with_derivative(a1, b1, c1, y, x)
    p, to_f2 = params.p, c1 / (a1 * b1)
    front = (p - 1.0) * r ** (p - 2.0)
    back = p * r ** (2.0 * p - 2.0) * (a1 * b1 / c1)
    eta = DeltaConstants.for_params(params).eta
    f2x, f2y = to_f2 * d1x, to_f2 * d1y
    err = eta * (front * (err1x + err1y) + back * (to_f2 * errd1x + to_f2 * errd1y))
    return (EvalResult(eta * (front * (f1x + f1y) + back * (f2x - f2y)), err,
                       _joined_route(route1x, route1y, routed1x, routed1y)),
            eta * (front * (f1x - f1y) + back * (f2x + f2y)))


def delta_second_result(params: PQParams, r: float) -> EvalResult:
    return _curvature(params, r)[0]


def delta_second(params: PQParams, r: float) -> float:
    """Curvature of the difference function: the exact derivative of the
    closed-form slope.

    eta * ((p-1) * r**(p-2) * [F1(x) + F1(y)] + p * r**(2p-2) * (a1*b1/c1)
    * [F2(x) - F2(y)]) with x = r**p, y = 1 - x. Strictly positive wherever
    the admissibility conditions hold.
    """
    return delta_second_result(params, r).value


def delta_second_sign_variant(params: PQParams, r: float) -> float:
    """Sign-variant curvature expression (difference of F1 terms, sum of F2
    terms) kept for comparison.

    Disagrees with the analytic derivative of the slope except at isolated
    points; the finite-difference probe in the verification report records
    which form it supports.
    """
    return _curvature(params, r)[1]


def epsilon(p, q):
    """Admissibility margin of condition (2): a rational expression in 1/p, 1/q.

    Computed exactly on the ratios of p, q > 1 (DomainError otherwise): a
    Fraction for int or Fraction inputs, otherwise that value correctly
    rounded to a float.
    """
    return _admissibility(p, q)[1]


def condition1(p, q) -> bool:
    """First admissibility condition, decided in exact rational arithmetic.

    Arguments are taken as exact rationals (binary floats convert exactly)
    and the denominators cleared, making the mixed strict/non-strict
    boundary classification reproducible: 2 + 1/p + 1/p**2 <= 5/p + 1/q <
    3 + 1/p**2.
    """
    return _admissibility(p, q)[0]


def admissible(p, q) -> bool:
    """Both admissibility conditions: condition1 and epsilon > 0 (strict), exactly."""
    return _admissibility(p, q)[2]


def _admissibility(p, q) -> tuple[bool, Fraction | float, bool]:
    """(condition1, epsilon, admissible) from one exact reading of p = pn/pd and
    q = qn/qd (binary floats convert exactly), pd, qd > 0; p, q > 1 or DomainError."""
    (pn, pd), (qn, qd) = ((x if isinstance(x, (int, float, Fraction)) else Fraction(x))
                          .as_integer_ratio() for x in (p, q))
    if not (pn > pd and qn > qd):
        raise DomainError(f"admissibility requires p > 1 and q > 1, got p={p}, q={q}")
    # 2 + 1/p + 1/p**2 <= 5/p + 1/q < 3 + 1/p**2, each side times pn**2 qn > 0.
    middle = 5 * pd * pn * qn + qd * pn ** 2
    cond = 2 * pn ** 2 * qn + pd * pn * qn + pd ** 2 * qn <= middle < 3 * pn ** 2 * qn + pd ** 2 * qn
    # epsilon times pn**3 qn**2.
    numerator = (20 * pn ** 3 * qn ** 2 - 42 * pd * pn ** 2 * qn ** 2 + 6 * qd * pn ** 3 * qn
                 + 21 * pd ** 2 * pn * qn ** 2 - 2 * qd ** 2 * pn ** 3 - 20 * pd * qd * pn ** 2 * qn
                 + 9 * pd ** 2 * qd * pn * qn - 3 * pd ** 3 * qn ** 2 - pd ** 3 * qd * qn)
    denominator = pn ** 3 * qn ** 2
    eps = (Fraction(numerator, denominator) if isinstance(p, Rational) and isinstance(q, Rational)
           else numerator / denominator)  # int / int rounds correctly
    return cond, eps, cond and numerator > 0


def sharp_linear_bounds(params: PQParams, r: float) -> tuple[float, float]:
    """Sharp linear envelope (lower, upper) of the difference function.

    lower = delta0 (slope 0) and upper = delta0 + beta1 * r, strict on
    (0, 1) for admissible parameters; sharp as r -> 0 and, for the upper
    bound, also as r -> 1. Warns when the pair is inadmissible, where the
    envelope is unproven (evaluation still proceeds).
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"bounds require r in (0, 1), got r={r}")
    _warn_if_inadmissible(params)
    constants = DeltaConstants.for_params(params)
    return constants.delta0, constants.delta0 + constants.beta1 * r


def product_gap(params: PQParams, r: float, s: float) -> float:
    """Gap delta(r*s) - delta(r) - delta(s) for r, s in (0, 1)."""
    if not (0.0 < r < 1.0 and 0.0 < s < 1.0):
        raise DomainError(f"product gap requires r, s in (0, 1), got r={r}, s={s}")
    return delta(params, r * s) - delta(params, r) - delta(params, s)


def product_gap_in_bounds(params: PQParams, r: float, s: float) -> bool:
    """Whether the product gap lies strictly between the endpoint limits.

    True iff delta0 < gap < delta1; proven for admissible parameter pairs
    (warns and still evaluates otherwise).
    """
    _warn_if_inadmissible(params)
    constants = DeltaConstants.for_params(params)
    gap = product_gap(params, r, s)
    return constants.delta0 < gap < constants.delta1


def _warn_if_inadmissible(params: PQParams) -> None:
    if not admissible(params.p, params.q):
        warnings.warn(
            f"(p, q) = ({params.p}, {params.q}) fails the admissibility conditions;"
            " the requested bound is unproven there",
            InadmissibleWarning, stacklevel=3)
