"""Foundational real-valued special functions.

Log-gamma, beta, the unregularized incomplete beta, and a Gauss
hypergeometric evaluator that returns a value together with an a-posteriori
error estimate and a tag for the evaluation route that produced it.

Everything here is pure and stateless; all functions are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadrature import tanh_sinh_01


class DomainError(ValueError):
    """An argument lies outside the function's documented domain."""


class DivergenceError(ValueError):
    """The requested value is infinite (series diverges at the point)."""


# Evaluation-route tags carried by EvalResult.
METHOD_SERIES = "series"
METHOD_EULER_QUADRATURE = "euler_quadrature"
METHOD_GAUSS_CLOSED_FORM = "gauss_closed_form"

#: Hard cap on hypergeometric series terms.
MAX_TERMS = 200_000

#: Above this argument the raw series is not trusted on its own and the
#: evaluator switches to the Euler-integral quadrature route.
SERIES_SWITCH = 0.9

_SERIES_TOL = 1e-16


@dataclass(frozen=True)
class HypArgs:
    """Parameter/argument bundle (a, b; c; z) for the hypergeometric series.

    a, b and c must be finite, c must not be a non-positive integer (poles
    of the coefficients) and z is restricted to [0, 1]; z = 1 is only
    evaluable when c - a - b > 0.
    """

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a, self.b, self.c))):
            raise DomainError(
                f"a, b and c must be finite, got a={self.a}, b={self.b}, c={self.c}")
        if self.c <= 0 and self.c == math.floor(self.c):
            raise DomainError(f"c must not be a non-positive integer, got c={self.c}")
        if not 0.0 <= self.z <= 1.0:
            raise DomainError(f"z must lie in [0, 1], got z={self.z}")

    @property
    def convergent_at_one(self) -> bool:
        return self.c - self.a - self.b > 0.0


@dataclass(frozen=True)
class EvalResult:
    """A computed value with an upper bound on its observed residual.

    a + b and a - b add the error estimates, scale * a scales it by |scale|; a
    combined route tag lists the distinct routes, sorted and +-joined.
    """

    value: float
    err_estimate: float
    method: str

    def __add__(self, other: EvalResult) -> EvalResult:
        return EvalResult(self.value + other.value, self.err_estimate + other.err_estimate,
                          _joined_route(self, other))

    def __sub__(self, other: EvalResult) -> EvalResult:
        return EvalResult(self.value - other.value, self.err_estimate + other.err_estimate,
                          _joined_route(self, other))

    def __rmul__(self, scale: float) -> EvalResult:
        return EvalResult(scale * self.value, abs(scale) * self.err_estimate, self.method)


def _joined_route(a: EvalResult, b: EvalResult) -> str:
    return "+".join(sorted({*a.method.split("+"), *b.method.split("+")}))


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got x={x}")
    return math.lgamma(x)


def beta(a: float, b: float) -> float:
    """Classical beta function B(a, b) for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got a={a}, b={b}")
    return math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))


def inc_beta(z: float, a: float, b: float) -> float:
    """Unregularized incomplete beta B(z; a, b) = integral of t^(a-1)(1-t)^(b-1) on [0, z].

    b may sit in (0, 1], which keeps the endpoint singularity at t = 1
    integrable; z = 1 returns the complete beta function.
    """
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"inc_beta requires z in [0, 1], got z={z}")
    if not a > 0.0:
        raise DomainError(f"inc_beta requires a > 0, got a={a}")
    if not 0.0 < b <= 1.0:
        raise DomainError(f"inc_beta requires b in (0, 1], got b={b}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return beta(a, b)
    # B(z; a, b) = z^a / a * 2F1(a, 1 - b; a + 1; z) (DLMF 8.17.8). Past the pivot
    # the complement converges faster; its argument stays under 2/3 as b <= 1.
    # Below it the series hits the term cap only for large a, as the pivot nears 1.
    if z < (a + 1.0) / (a + b + 2.0):
        value, _, converged = _series_2f1(a, 1.0 - b, a + 1.0, z)
        if not converged:
            raise DomainError(f"incomplete beta series did not converge for a={a}, b={b}, z={z}")
        return z ** a / a * value
    w = 1.0 - z
    return beta(a, b) - w ** b / b * _series_2f1(b, 1.0 - a, b + 1.0, w)[0]


def _series_2f1(a: float, b: float, c: float, z: float) -> tuple[float, float, bool]:
    """Direct power series with running-ratio term recurrence.

    Returns (value, err_estimate, converged). The error estimate is the
    first omitted term inflated by the geometric tail bound
    |t_next| / (1 - |t_next / t_last|).
    """
    term = 1.0
    total = 1.0
    n = 0
    while n < MAX_TERMS:
        new = term * (a + n) * (b + n) * z / ((c + n) * (n + 1.0))
        total += new
        n += 1
        if abs(new) < _SERIES_TOL * abs(total) and abs(new) <= abs(term):
            nxt = new * (a + n) * (b + n) * z / ((c + n) * (n + 1.0))
            if new == 0.0:
                return total, 0.0, True
            ratio = abs(nxt / new)
            err = abs(nxt) / (1.0 - ratio) if ratio < 1.0 else math.inf
            return total, err, True
        term = new
    # Cap reached: report the geometric tail bound for the unconverged sum.
    ratio = abs(new / term) if term != 0.0 else 0.0
    err = abs(new) / (1.0 - ratio) if 0.0 < ratio < 1.0 else math.inf
    return total, err, False


def _euler_2f1(a: float, b: float, c: float, z: float) -> EvalResult | None:
    """Euler-integral route, valid when c > b > 0 (or c > a > 0 after swap)."""
    if not (c > b > 0.0):
        if c > a > 0.0:
            a, b = b, a
        else:
            return None
    one_minus_z = 1.0 - z
    prefactor = math.exp(ln_gamma(c) - ln_gamma(b) - ln_gamma(c - b))

    def integrand(t: float, tm: float) -> float:
        # 1 - z*t rewritten as tm + (1-z)*t: stable inside the t -> 1 layer.
        return t ** (b - 1.0) * tm ** (c - b - 1.0) * (tm + one_minus_z * t) ** (-a)

    value, err = tanh_sinh_01(integrand, rel_tol=5e-14, max_level=10)
    return EvalResult(prefactor * value, prefactor * err + 4e-16 * abs(prefactor * value),
                      METHOD_EULER_QUADRATURE)


def gauss_2f1(args: HypArgs) -> EvalResult:
    """Gauss hypergeometric function on [0, 1] with an error estimate.

    Series with tail-bound stopping up to z = 0.9; the Euler-integral
    quadrature route above that, or the series up to MAX_TERMS when no
    Euler ordering is valid; the gamma-ratio closed form exactly at z = 1
    (which requires c - a - b > 0).
    """
    a, b, c, z = args.a, args.b, args.c, args.z
    if z == 1.0:
        if not args.convergent_at_one:
            raise DivergenceError(
                f"2F1 diverges at z=1 when c-a-b <= 0 (got c-a-b={c - a - b})")
        value = gauss_value_at_one(a, b, c)
        return EvalResult(value, 8e-16 * abs(value), METHOD_GAUSS_CLOSED_FORM)
    if z > SERIES_SWITCH:
        result = _euler_2f1(a, b, c, z)
        if result is not None:
            return result
    value, err, _ = _series_2f1(a, b, c, z)
    return EvalResult(value, err, METHOD_SERIES)


def gauss_value_at_one(a: float, b: float, c: float) -> float:
    """Value of 2F1(a, b; c; 1) via the gamma-ratio closed form.

    Requires c - a - b > 0; a = 0 or b = 0 short-circuits to 1 since
    every term past n = 0 vanishes.
    """
    if a == 0.0 or b == 0.0:
        return 1.0
    s = c - a - b
    if s <= 0.0:
        raise DivergenceError(f"2F1 at z=1 requires c-a-b > 0, got {s}")
    if c <= 0.0 or c - a <= 0.0 or c - b <= 0.0:
        raise DomainError(
            f"gamma-ratio form needs positive c, c-a, c-b; got c={c}, a={a}, b={b}")
    return math.exp(ln_gamma(c) + ln_gamma(s) - ln_gamma(c - a) - ln_gamma(c - b))


def f21_derivative(args: HypArgs) -> float:
    """d/dz of 2F1 at z < 1: (ab/c) * 2F1(a+1, b+1; c+1; z)."""
    if args.z >= 1.0:
        raise DomainError(f"derivative requires z < 1, got z={args.z}")
    shifted = HypArgs(args.a + 1.0, args.b + 1.0, args.c + 1.0, args.z)
    return args.a * args.b / args.c * gauss_2f1(shifted).value


def contiguous_residual(sigma: float, alpha: float, rho: float, z: float) -> float:
    """Residual of the three-term contiguous relation at (sigma, alpha, rho, z).

    Returns (sigma-rho)*F(alpha,rho;sigma+1;z) - sigma*F(alpha,rho;sigma;z)
    + rho*F(alpha,rho+1;sigma+1;z); its magnitude bounds the violation of
    the identity, which is exactly zero in real arithmetic.
    """
    if not 0.0 <= z < 1.0:
        raise DomainError(f"contiguous residual requires z in [0, 1), got z={z}")
    f_up = gauss_2f1(HypArgs(alpha, rho, sigma + 1.0, z)).value
    f_mid = gauss_2f1(HypArgs(alpha, rho, sigma, z)).value
    f_shift = gauss_2f1(HypArgs(alpha, rho + 1.0, sigma + 1.0, z)).value
    return (sigma - rho) * f_up - sigma * f_mid + rho * f_shift
