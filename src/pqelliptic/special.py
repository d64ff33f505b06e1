"""Foundational real-valued special functions.

Log-gamma, beta, the unregularized incomplete beta, and a Gauss
hypergeometric evaluator that returns a value together with an a-posteriori
error estimate and a tag for the evaluation route that produced it: the
direct series up to z = 0.9 and a 1 - z connection formula for every gap
above it, with tanh-sinh quadrature only as the rescue of a poor estimate.

Every function is pure: its result depends on its arguments alone. The
direct series keeps each (a, b, c) family's coefficients, exactly as many as
were asked for, in one module-private cache of 2**18 coefficients (2 MiB,
which holds the largest warm working set measured; see _CoefficientTables),
and the log-case connection formula each family's gamma ratios and digamma
seeds in another (see _log_constants); both store a family on its first
request. Every table is an array built one way, a copy extended by the same
recurrence, and is never changed once stored; the tables are stored under a
lock and functools.lru_cache is thread-safe, so all functions are safe to
call concurrently.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from array import array
from dataclasses import dataclass, fields
from fractions import Fraction

from .quadrature import tanh_sinh_01


class DomainError(ValueError):
    """An argument lies outside the function's documented domain."""


class DivergenceError(ValueError):
    """The requested value is infinite (series diverges at the point)."""


# Evaluation-route tags carried by EvalResult.
METHOD_SERIES = "series"
METHOD_EULER_QUADRATURE = "euler_quadrature"
METHOD_GAUSS_CLOSED_FORM = "gauss_closed_form"
METHOD_CONNECTION = "connection"

#: Hard cap on hypergeometric series terms.
MAX_TERMS = 200_000

#: Above this argument the raw series is not trusted on its own and the
#: evaluator switches to a 1 - z connection formula (see _route_above_switch).
SERIES_SWITCH = 0.9

_SERIES_TOL = 1e-16
_LOG_SERIES_TOL = math.log(_SERIES_TOL)
_EPS = 2.0 ** -52
_EULER_GAMMA = 0.5772156649015329
_LOG_MAX = math.log(sys.float_info.max)  # the largest argument exp keeps finite
#: Relative error estimate up to which a connection-formula result is kept
#: without trying the quadrature rescue, and a joint F, F' pass without
#: falling back to two gauss_2f1 calls.
_CONNECTION_TRUST = 1e-13


@dataclass(frozen=True, slots=True)
class HypArgs:
    """Parameter/argument bundle (a, b; c; z) for the hypergeometric series.

    a, b and c must be finite, c must not be a non-positive integer (poles
    of the coefficients) and z is restricted to [0, 1]; z = 1 is only
    evaluable when c - a - b > 0. A caller that knows it passes w, the
    complement 1 - z to full relative precision (z may then round to 1
    while w > 0); `gauss_2f1` decides itself whether c - a - b is an integer.
    """

    a: float
    b: float
    c: float
    z: float
    w: float | None = None

    def __init__(self, a: float, b: float, c: float, z: float, w: float | None = None) -> None:
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise DomainError(f"a, b and c must be finite, got a={a}, b={b}, c={c}")
        if _pole(c):
            raise DomainError(f"c must not be a non-positive integer, got c={c}")
        if not 0.0 <= z <= 1.0:
            raise DomainError(f"z must lie in [0, 1], got z={z}")
        if w is not None and not (0.0 <= w <= 1.0 and abs(z - 1.0 + w) <= 1e-14):
            raise DomainError(f"w={w} is not the complement of z={z}")
        set_a, set_b, set_c, set_z, set_w = _HYP_ARGS_SLOTS
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_z(self, z)
        set_w(self, w)


def _slot_setters(cls: type) -> tuple:
    """Each field slot's __set__ of a frozen slots dataclass, in field order: an explicit
    __init__ stores through them, cheaper than the generated one's object.__setattr__."""
    return tuple(getattr(cls, field.name).__set__ for field in fields(cls))


_HYP_ARGS_SLOTS = _slot_setters(HypArgs)


def _integer_gap(a: float, b: float, c: float) -> int | None:
    """m = round(c - a - b) when the gap is within 8 eps (1 + |a| + |b| + |c|) of
    it, else None: families formed in floating point (1/q, 1 - 1/p, ...) sit a
    few ulps off their integer. Cephes' hyp2f1 picks its log case alike."""
    gap = c - a - b
    if not math.isfinite(gap):  # a, b, c near the double range
        return None
    m = round(gap)
    return m if abs(gap - m) <= 8.0 * _EPS * (1.0 + abs(a) + abs(b) + abs(c)) else None


def _pole(x: float) -> bool:
    """x is a non-positive integer: a pole of Gamma, and as a or b the end of a
    terminating 2F1 series of degree -x."""
    return x <= 0 and x == math.floor(x)


@dataclass(frozen=True, slots=True)
class EvalResult:
    """A computed value with an upper bound on its observed residual.

    a + b and a - b add the error estimates, scale * a scales it by |scale|; a
    combined route tag lists the distinct routes, sorted and +-joined.
    """

    value: float
    err_estimate: float
    method: str

    def __init__(self, value: float, err_estimate: float, method: str) -> None:
        set_value, set_err_estimate, set_method = _EVAL_RESULT_SLOTS
        set_value(self, value)
        set_err_estimate(self, err_estimate)
        set_method(self, method)

    def __add__(self, other: EvalResult) -> EvalResult:
        return EvalResult(self.value + other.value, self.err_estimate + other.err_estimate,
                          _joined_route(self.method, other.method))

    def __sub__(self, other: EvalResult) -> EvalResult:
        return EvalResult(self.value - other.value, self.err_estimate + other.err_estimate,
                          _joined_route(self.method, other.method))

    def __rmul__(self, scale: float) -> EvalResult:
        return EvalResult(scale * self.value, abs(scale) * self.err_estimate, self.method)


_EVAL_RESULT_SLOTS = _slot_setters(EvalResult)


def _joined_route(first: str, *rest: str) -> str:
    """The distinct tags of the routes, sorted and +-joined; a route all share as it is."""
    for route in rest:
        if route != first:
            return "+".join(sorted({tag for x in (first, *rest) for tag in x.split("+")}))
    return first


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
    # B(z; a, b) = z^a / a * 2F1(a, 1 - b; a + 1; z) (DLMF 8.17.8). Past the pivot
    # the complement converges faster; its argument stays under 2/3 as b <= 1.
    # Below it only a large a, as the pivot nears 1, hits the term cap (and raises).
    if z < (a + 1.0) / (a + b + 2.0):
        return z ** a / a * _series_2f1(a, 1.0 - b, a + 1.0, z)[0]
    w = 1.0 - z
    return beta(a, b) - w ** b / b * _series_2f1(b, 1.0 - a, b + 1.0, w)[0]


class _CoefficientTables:
    """The direct series' coefficients (a)_k (b)_k / ((c)_k k!), k = 0, 1, ...,
    per exact (a, b, c): a cache bounded by the coefficients it holds.

    Every table is an array("d") built one way: a copy of the stored table,
    or of the shared coefficient 0, extended to exactly the coefficients 0
    to n asked for. It is stored on its first request unless it is shorter
    than _MIN_KEPT or longer than the whole budget. A stored table is never
    changed: a longer one replaces it whole, and the oldest tables go first
    once the budget is exceeded. Coefficient k comes from the same
    recurrence whatever the cache held before, and the term count comes
    from the arguments alone, so no sum depends on the cache. Reads take no
    lock; storing takes one, so that concurrent callers never lose count of
    what is held.
    """

    _FIRST = array("d", [1.0])  # coefficient 0 of every family: where a cold build starts

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.stored = 0  # coefficients held, over every table
        self._tables: dict[tuple[float, float, float], array] = {}
        self._lock = threading.Lock()

    def get(self, a: float, b: float, c: float, n: int) -> array:
        """A table holding at least the coefficients 0 to n."""
        key = (a, b, c)
        table = self._tables.get(key, self._FIRST)
        if len(table) > n:
            return table
        fresh, coef, k = [], table[-1], len(table) - 1.0
        append = fresh.append
        while k < n:
            coef *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
            append(coef)
            k += 1.0
        table = table + array("d", fresh)  # on a copy: a stored table never changes
        if len(table) >= _MIN_KEPT:
            self._store(key, table)
        return table

    def _store(self, key: tuple[float, float, float], table: array) -> None:
        if len(table) > self.budget:
            return
        with self._lock:
            old = self._tables.pop(key, None)
            if old is not None:
                self.stored -= len(old)
            self._tables[key] = table
            self.stored += len(table)
            while self.stored > self.budget:  # dicts keep insertion order: oldest first
                self.stored -= len(self._tables.pop(next(iter(self._tables))))


#: Shorter tables are built on every request and never stored: a pointwise
#: pass (perfbench) asks for 1,901 of them, most for a tiny z met once, and
#: storing them as well raised its peak_rss_mb by 3.6% (bound 5%).
_MIN_KEPT = 16
#: Shared by every series sum, and sized to hold a whole warm working set: a
#: certify pass (`verify --grid p:1.5:4:6,q:1.5:4:6`) holds about 98,000
#: coefficients, the 7 scans of tabulate about 126,000 and a default `verify`
#: about 224,000; 2**18 of them take 2 MiB.
_COEFFICIENTS = _CoefficientTables(budget=1 << 18)


def _series_terms(a: float, b: float, c: float, z: float) -> int:
    """Where the terms of the direct series, falling off like k^(a+b-c-1) z^k,
    meet 1e-16, within [1, MAX_TERMS]: a start for the term count. At z = 1
    the algebraic factor alone decides; at z = 0 one term is enough. A
    terminating series (a or b a non-positive integer) takes its degree + 1."""
    e = a + b - c - 1.0
    if _pole(a) or _pole(b):
        n = 1 - int(max(x for x in (a, b) if _pole(x)))
    elif 0.0 < z < 1.0:
        log_z = math.log(z)
        n = 2 + int((_LOG_SERIES_TOL - e * math.log(1.0 + _LOG_SERIES_TOL / log_z)) / log_z)
    elif z == 1.0 and e < 0.0 and _LOG_SERIES_TOL / e < math.log(MAX_TERMS):
        n = 1 + int(math.exp(_LOG_SERIES_TOL / e))
    elif z == 1.0:
        n = MAX_TERMS
    else:
        n = 1
    return 1 if n < 1 else MAX_TERMS if n > MAX_TERMS else n


def _series_2f1(a: float, b: float, c: float, z: float) -> tuple[float, float]:
    """Direct power series: the sum of t_k = (a)_k (b)_k / ((c)_k k!) z^k over
    k <= n, by Horner's rule over the family's cached coefficients.

    n starts from _series_terms and grows by an eighth until
    |t_n| <= 1e-16 |sum| and |t_n| <= |t_(n-1)|; it depends on (a, b, c, z)
    alone, never on what the cache holds. Returns (value, err_estimate): the
    first omitted term inflated by the geometric tail bound
    |t_(n+1)| / (1 - |t_(n+1) / t_n|), plus _horner_rounding's bound for
    z > 0 (at z = 0 the sum is c_0 = 1, exactly). Raises DomainError when
    MAX_TERMS terms do not meet the stopping rule.
    """
    n = _series_terms(a, b, c, z)
    while True:
        table = _COEFFICIENTS.get(a, b, c, n + 1)
        total = 0.0
        for coef in table[n::-1]:
            total = total * z + coef
        power = z ** (n - 1)
        before = table[n - 1] * power
        last = table[n] * power * z
        if abs(last) <= _SERIES_TOL * abs(total) and abs(last) <= abs(before):
            break
        if n >= MAX_TERMS:
            raise DomainError(f"2F1 series did not converge in {MAX_TERMS} terms "
                              f"for a={a}, b={b}, c={c}, z={z}")
        n = min(MAX_TERMS, n + n // 8 + 1)
    err = 0.0
    if last != 0.0:
        nxt = table[n + 1] * power * z * z
        ratio = abs(nxt / last)
        err = abs(nxt) / (1.0 - ratio) if ratio < 1.0 else math.inf
    err += _horner_rounding(a, b, c, z, table, n, total, 0.0)[0] if z > 0.0 else 0.0
    return total, err


def _series_with_derivative(a: float, b: float, c: float,
                            z: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """F and F' = sum over k <= n of t'_k = (k + 1) c_(k+1) z^k in one Horner
    pass over the family's cached coefficients c_0 to c_(n+1).

    n starts from _series_terms of the shifted family (a + 1, b + 1; c + 1),
    whose terms are t'_k / (ab/c), and grows by an eighth until F' meets
    _series_2f1's stopping rule; it depends on (a, b, c, z) alone. Returns
    ((F, err_estimate), (F', err_estimate)). F''s tail is bounded as
    _series_2f1 bounds its own, and F's by z / (n + 2) of it, as
    t_(k+1) = t'_k z / (k + 1); each adds _horner_rounding's bound. Raises
    DomainError as _series_2f1 does.
    """
    n = _series_terms(a + 1.0, b + 1.0, c + 1.0, z)
    while True:
        table = _COEFFICIENTS.get(a, b, c, n + 2)
        value = slope = 0.0
        for coef in table[n + 1::-1]:
            slope = slope * z + value
            value = value * z + coef
        power = z ** (n - 1)
        before = n * table[n] * power
        last = (n + 1) * table[n + 1] * power * z
        if abs(last) <= _SERIES_TOL * abs(slope) and abs(last) <= abs(before):
            break
        if n >= MAX_TERMS:
            raise DomainError(f"2F1 series did not converge in {MAX_TERMS} terms "
                              f"for a={a}, b={b}, c={c}, z={z}")
        n = min(MAX_TERMS, n + n // 8 + 1)
    tail = 0.0
    if last != 0.0:
        nxt = (n + 2) * table[n + 2] * power * z * z
        ratio = abs(nxt / last)
        tail = abs(nxt) / (1.0 - ratio) if ratio < 1.0 else math.inf
    rounding, slope_rounding = _horner_rounding(a, b, c, z, table, n + 1, value, slope)
    return (value, z / (n + 2) * tail + rounding), (slope, tail + slope_rounding)


def _horner_rounding(a: float, b: float, c: float, z: float, table: array, n: int,
                     value: float, slope: float) -> tuple[float, float]:
    """Bounds 5 (n + 1) eps sum |c_k| z^k and, for F', 5 (n + 1) eps sum
    k |c_k| z^(k-1) on the rounding of Horner sums F, F' over c_0 to c_n:
    Horner rounds within 2n u of the sum of |t_k| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 5.1), and c_k carries about
    8k u of its own; u = eps / 2. When a, b, c > -1 every c_k past c_0 has
    the sign of abc, so the sums are 1 + |F - 1| and |F'|; else a second
    pass over |c_k| forms them."""
    magnitude, slope_magnitude = 1.0 + abs(value - 1.0), abs(slope)
    if a <= -1.0 or b <= -1.0 or c <= -1.0:
        magnitude = slope_magnitude = 0.0
        for coef in table[n::-1]:
            slope_magnitude = slope_magnitude * z + magnitude
            magnitude = magnitude * z + abs(coef)
    rounding = 5.0 * (n + 1) * _EPS
    return rounding * magnitude, rounding * slope_magnitude


def _euler_2f1(a: float, b: float, c: float, w: float, m: int | None) -> EvalResult | None:
    """Euler-integral rescue at z = 1 - w, valid when c > b > 0 (or c > a > 0
    after swap), of the family of m when the route rule read the gap as the
    integer m (c - b is then a + m); None without such an ordering, when the
    integrand overflows or when the quadrature does not converge."""
    for a, b in ((a, b), (b, a)):
        cb = c - b if m is None else a + m
        if b > 0.0 and cb > 0.0:
            break
    else:
        return None
    prefactor, size = _gamma_ratio((c,), (b, cb))

    def integrand(t: float, tm: float) -> float:
        # 1 - z*t rewritten as tm + w*t: stable inside the t -> 1 layer.
        return t ** (b - 1.0) * tm ** (cb - 1.0) * (tm + w * t) ** (-a)

    try:
        value, err = tanh_sinh_01(integrand, rel_tol=5e-14, max_level=10)
        # From the third halving on the nodes reach t and 1 - t below e^-600:
        # the integral left beyond them.
        err += math.exp(-600.0 * b) / b + w ** (-a) * math.exp(-600.0 * cb) / cb
    except (OverflowError, DomainError):  # (tm + w t)**(-a) past the double range, or
        return None  # the levels ran out: no quadrature either
    rounding = (4e-16 + _EPS * (size + 2.0 * (abs(a) + abs(b) + abs(c)))) * abs(prefactor * value)
    return EvalResult(prefactor * value, prefactor * err + rounding, METHOD_EULER_QUADRATURE)


def _digamma(x: float) -> float:
    """psi(x) for x not a non-positive integer: upward recurrence to x >= 14,
    then the asymptotic series (next omitted term below 2e-16)."""
    shift = 0.0
    while x < 14.0:
        shift += 1.0 / x
        x += 1.0
    s = 1.0 / (x * x)
    tail = s * (1 / 12 - s * (1 / 120 - s * (1 / 252 - s * (1 / 240 - s / 132))))
    return math.log(x) - 0.5 / x - tail - shift


def _gamma_ratio(num: tuple[float, ...], den: tuple[float, ...]) -> tuple[float, float]:
    """Product of Gamma over num divided by the product over den, formed from
    signed log-gammas so that single factors may overflow (inf past the
    double range), and the sum of the |log-gammas|, which bounds its
    relative rounding in ulps. Arguments lie off the non-positive integers."""
    sign, log, size = 1.0, 0.0, 1.0
    for power, args in ((1.0, num), (-1.0, den)):
        for x in args:
            # Gamma is negative on (-1, 0), (-3, -2), ...
            if x < 0.0 and math.floor(x) % 2 == 1:
                sign = -sign
            lg = math.lgamma(x)
            log += power * lg
            size += abs(lg)
    return sign * (math.exp(log) if log <= _LOG_MAX else math.inf), size


@functools.lru_cache(maxsize=256)
def _log_constants(a: float, b: float, m: int) -> tuple[tuple[float, ...], float, float,
                                                         float, float, float, float]:
    """The per-family constants of the log-case connection formula for
    2F1(a, b; a + b + m; 1 - w), m >= 0 (DLMF 15.8.10; Abramowitz & Stegun
    15.3.10-15.3.12):

        finite * (sum over k < m of f_k w^k)
          + lead * w^m * (sum over k of u_k w^k (ln w + e1_k + e2_k))

    with f_k = (a)_k (b)_k / (k! (1-m)_k), u_k = (a+m)_k (b+m)_k m! / (k! (k+m)!),
    e1_k = psi(a+m+k) - psi(k+1) and e2_k = psi(b+m+k) - psi(k+m+1).
    Returns (f, finite, finite_size, lead, lead_size, e1_0, e2_0), with
    finite = Gamma(m) Gamma(c) / (Gamma(a+m) Gamma(b+m)) (0 at m = 0),
    lead = -(-1)^m Gamma(c) / (Gamma(a) Gamma(b) m!) and each ratio's size as
    _gamma_ratio gives it. Kept for the last 256 families: a certify pass
    (`verify --grid p:1.5:4:6,q:1.5:4:6`) meets 243. A warm default `verify`
    rebuilds about 816 of its 10,929; keeping all its 734 families would
    cost a caller that never repeats one three times the memory.
    """
    c, am, bm = a + b + m, a + m, b + m
    f, harmonic = [1.0], 0.0  # harmonic: psi(m + 1) - psi(1)
    for k in range(1, m):
        f.append(f[-1] * (a + k - 1) * (b + k - 1) / (k * (k - m)))
        harmonic += 1.0 / k
    finite = finite_size = 0.0
    if m > 0:
        harmonic += 1.0 / m
        finite, finite_size = _gamma_ratio((m, c), (am, bm))
    lead, lead_size = _gamma_ratio((c,), (a, b, m + 1.0))
    e1 = _digamma(am) + _EULER_GAMMA
    e2 = _digamma(bm) + _EULER_GAMMA - harmonic
    return tuple(f[:m]), finite, finite_size, -(-1.0) ** m * lead, lead_size, e1, e2


def _connection_2f1(a: float, b: float, m: int, w: float) -> tuple[float, float]:
    """2F1(a, b; a + b + m; 1 - w) for 0 < w <= 1/2 by the 1 - z connection
    formula; returns (value, err_estimate), the value inf or nan past the
    double range.

    m >= 0: the family's _log_constants, its finite sum of m terms plus
    lead w^m (ln w U(w) + V(w)), where U and V sum u_k w^k and
    u_k (e1_k + e2_k) w^k in one forward pass. m < 0 goes through the Euler
    transformation w^m F(b + m, a + m; c; z) (DLMF 15.8.1): the log case of
    gap -m, or the polynomial when b + m or a + m is a non-positive integer.
    The term count n starts from _series_terms of the series in w, less m,
    and grows by an eighth until the bound on term n is below 1e-16 of the
    sum and a geometric tail bound holds from there: like the direct
    series' count it depends on the arguments alone. Needs a and b off the
    non-positive integers.
    """
    if m < 0:
        if _pole(a + m) or _pole(b + m):  # c from the pole: (a + b) + m may round to 0
            c = a + (b + m) if _pole(b + m) else b + (a + m)
            value, err = _series_2f1(b + m, a + m, c, 1.0 - w)
        else:
            value, err = _connection_2f1(b + m, a + m, -m, w)
        scale = w ** m if m * math.log(w) < 709.0 else math.inf
        return scale * value, scale * err + 2.0 * _EPS * abs(scale * value)
    f, finite, finite_size, lead, lead_size, e1, e2 = _log_constants(a, b, m)
    am, bm = a + m, b + m
    part = 0.0
    for coef in f[::-1]:
        part = part * w + coef
    finite *= part
    # lead is summed apart from finite: w^m may underflow to 0.
    lead *= w ** m
    log_w = math.log(w)
    abs_log_w = abs(log_w)
    # The log part enters w^m times the finite part's size: m terms fewer.
    n = max(1, _series_terms(am, bm, m + 1.0, w) - m)
    u = v = u_abs = e_abs = 0.0
    term, k, mf = 1.0, 0.0, float(m)  # term: u_k w^k; the loop adds floats alone
    while True:
        while k < n:  # comparisons, not abs, and single assignments: the cheaper bytecode
            size = term if term >= 0.0 else -term
            u += term
            v += term * (e1 + e2)
            u_abs += size
            e_abs += size * ((e1 if e1 >= 0.0 else -e1) + (e2 if e2 >= 0.0 else -e2))
            ak = am + k
            bk = bm + k
            k1 = k + 1.0
            km1 = k + mf + 1.0
            e1 += 1.0 / ak - 1.0 / k1
            e2 += 1.0 / bk - 1.0 / km1
            term *= ak * bk * w / (k1 * km1)
            k = k1
        total = finite + lead * (log_w * u + v)
        # Stop on the term's bound, not on the term: the bracket can cross zero.
        size = abs(term) * (abs_log_w + abs(e1) + abs(e2))
        if abs(lead) * size <= _SERIES_TOL * abs(total) and am + n > 0.0 and bm + n > 0.0:
            # From n on each factor of u_{k+1} w / u_k lies between its value
            # at k = n and 1, and |e1_k|, |e2_k| shrink: a geometric tail bound.
            ratio = w * max(1.0, (am + n) / (n + 1.0)) * max(1.0, (bm + n) / (n + m + 1.0))
            if ratio < 1.0:
                tail = size / (1.0 - ratio)
                break
        if n >= MAX_TERMS:
            tail = math.inf
            break
        n = min(MAX_TERMS, n + n // 8 + 1)
    # Rounding: the gamma ratios, the term and digamma recurrences, the sums.
    rounding = _EPS * ((2.0 * n + 24.0 + lead_size) * abs(lead) * (abs_log_w * u_abs + e_abs)
                       + (2.0 * m + 24.0 + finite_size) * abs(finite))
    return total, abs(lead) * tail + rounding


def _reflect(d: Fraction, num: list[float]) -> float:
    """1/Gamma(d) = Gamma(1 - d) sin(pi d) / pi, d exact: puts 1 - d in num, returns the sine."""
    n = round(d)
    num.append(float(1 - d))
    return (-1.0) ** n * math.sin(math.pi * float(d - n)) / math.pi


def _gauss_ratio(a: float, b: float, c: float) -> tuple[float, float, float]:
    """g = c - a - b and A = Gamma(c) Gamma(g) / (Gamma(c - a) Gamma(c - b)), Gauss's sum
    at z = 1 (DLMF 15.4.20) and DLMF 15.8.4's A, with its size as _gamma_ratio gives it.
    Read exactly where Gamma magnifies rounding: g below 1/2, and through _reflect each
    c - a or c - b below 0 or within rounding of 0, whose 1/Gamma is 0 at a pole (A and
    its size are then 0). Needs g off the non-positive integers."""
    g = c - a - b
    if g < 0.5:
        g = float(Fraction(c) - Fraction(a) - Fraction(b))
    num, den, scale = [c, g], [], 1.0
    for x in (a, b):
        if c - x < 0.0 or _integer_gap(x, 0.0, c) == 0:
            scale *= _reflect(Fraction(c) - Fraction(x), num)
        else:
            den.append(c - x)
    if scale == 0.0:
        return g, 0.0, 0.0  # lgamma raises at the poles where 1 / Gamma vanishes
    value, size = _gamma_ratio(tuple(num), tuple(den))
    return g, scale * value, size


def _gap_connection(a: float, b: float, c: float, w: float) -> tuple[float, float]:
    """2F1(a, b; c; 1 - w), 0 < w <= 1/2, for a gap g = c - a - b off the
    integers: A F(a, b; 1 - g; w) + B w^g F(c - a, c - b; 1 + g; w) (DLMF
    15.8.4), g and A as _gauss_ratio reads them (A is 0 where the Euler transform
    terminates) and B = Gamma(c) Gamma(-g) / (Gamma(a) Gamma(b)). The estimate
    adds to the series' own the rounding of the gamma ratios and of w^g, and that
    of g itself as w^g, Gamma(g) and Gamma(-g) feel it: about eps/delta at delta
    from an integer. Needs a and b off the non-positive integers.
    """
    g, first, first_size = _gauss_ratio(a, b, c)
    second, second_size = _gamma_ratio((c, -g), (a, b))
    log_w = math.log(w)
    second *= w ** g if g * log_w < 709.0 else math.inf
    value, err = _series_2f1(a, b, 1.0 - g, w)
    value2, err2 = _series_2f1(c - a, c - b, 1.0 + g, w)
    value, value2 = first * value, second * value2
    g_size = abs(a) + abs(b) + abs(c)  # g's rounding, in ulps
    # A bound on |psi(g)| + |psi(-g)|, the relative change of Gamma(g) and Gamma(-g) with g.
    psi_bound = 2.0 * (1.0 + math.log(2.0 + abs(g)) + 1.0 / abs(g - round(g)))
    rounding = ((24.0 + first_size) * abs(value)
                + (24.0 + second_size + abs(log_w) * (abs(g) + g_size)) * abs(value2)
                + g_size * psi_bound * abs(value + value2))
    return value + value2, abs(first) * err + abs(second) * err2 + _EPS * rounding


def _connection_with_derivative(a: float, b: float, m: int,
                                w: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """F = 2F1(a, b; a + b + m; 1 - w) and F' = dF/dz, m >= 0, in one pass
    of _connection_2f1's loop that also sums S1 = sum of k u_k w^k and
    T1 = sum of k u_k (e1_k + e2_k) w^k. With G = ln w U + V,
    F' = -(finite P'(w) + lead w^(m-1) (m G + U + ln w S1 + T1)). Term k of
    F''s bracket is at most |u_k w^k| (1 + (k + m) X_k), X_k the bound F
    stops on, so its geometric tail ratio is (n + m + 1) / (n + m) times
    F's. n grows until both meet _connection_2f1's stopping rule. Returns
    ((F, err_estimate), (F', err_estimate)), each with its own tail and
    rounding bound; needs what _connection_2f1 needs.
    """
    f, finite, finite_size, lead, lead_size, e1, e2 = _log_constants(a, b, m)
    am, bm = a + m, b + m
    part = part_slope = 0.0
    for coef in f[::-1]:
        part_slope = part_slope * w + part
        part = part * w + coef
    finite_slope = finite * part_slope
    finite *= part
    lead_slope = lead * w ** (m - 1) if m else lead / w
    lead *= w ** m
    log_w = math.log(w)
    abs_log_w = abs(log_w)
    n = max(1, _series_terms(am, bm, m + 1.0, w) - m)
    u = v = s = t = u_abs = e_abs = s_abs = t_abs = 0.0
    term, k, mf = 1.0, 0.0, float(m)  # term: u_k w^k; the loop as _connection_2f1's
    while True:
        while k < n:
            size = term if term >= 0.0 else -term
            spread = (e1 if e1 >= 0.0 else -e1) + (e2 if e2 >= 0.0 else -e2)
            e, k_term = e1 + e2, k * term
            u += term
            v += term * e
            s += k_term
            t += k_term * e
            u_abs += size
            e_abs += size * spread
            s_abs += k * size
            t_abs += k * size * spread
            ak = am + k
            bk = bm + k
            k1 = k + 1.0
            km1 = k + mf + 1.0
            e1 += 1.0 / ak - 1.0 / k1
            e2 += 1.0 / bk - 1.0 / km1
            term *= ak * bk * w / (k1 * km1)
            k = k1
        g = log_w * u + v
        total = finite + lead * g
        slope = finite_slope + lead_slope * (m * g + u + log_w * s + t)
        bound = abs_log_w + abs(e1) + abs(e2)
        size = abs(term) * bound
        size_slope = abs(term) * (1.0 + (n + m) * bound)
        if (abs(lead) * size <= _SERIES_TOL * abs(total)
                and abs(lead_slope) * size_slope <= _SERIES_TOL * abs(slope)
                and am + n > 0.0 and bm + n > 0.0):
            ratio = w * max(1.0, (am + n) / (n + 1.0)) * max(1.0, (bm + n) / (n + m + 1.0))
            ratio_slope = ratio * (n + m + 1.0) / (n + m)
            if ratio_slope < 1.0:
                tail, tail_slope = size / (1.0 - ratio), size_slope / (1.0 - ratio_slope)
                break
        if n >= MAX_TERMS:
            tail = tail_slope = math.inf
            break
        n = min(MAX_TERMS, n + n // 8 + 1)
    lead_rounding = _EPS * (2.0 * n + 24.0 + lead_size)
    finite_rounding = _EPS * (2.0 * m + 24.0 + finite_size)
    err = (abs(lead) * (tail + lead_rounding * (abs_log_w * u_abs + e_abs))
           + finite_rounding * abs(finite))
    slope_magnitude = m * (abs_log_w * u_abs + e_abs) + u_abs + abs_log_w * s_abs + t_abs
    err_slope = (abs(lead_slope) * (tail_slope + lead_rounding * slope_magnitude)
                 + finite_rounding * abs(finite_slope))
    return (total, err), (-slope, err_slope)


def _route_above_switch(a: float, b: float, c: float, z: float) -> tuple[str, int | None]:
    """The route above SERIES_SWITCH with w = 1 - z > 0, and the integer gap
    m it reads (None when c - a - b is not one): the one rule gauss_2f1 and
    gauss_2f1_with_derivative share. The direct series when it terminates (a
    or b a non-positive integer) or when so large a gap makes its terms fall
    off within fewer terms than the gap (the log case's finite sum has m, and
    DLMF 15.8.4's second series runs long); else the connection formula. An
    integer gap below -MAX_TERMS, whose log case sums -m terms, raises DomainError."""
    m = _integer_gap(a, b, c)
    gap = c - a - b if m is None else m
    if _pole(a) or _pole(b) or (
            gap > 1 and max(_series_terms(a, b, c, z), _series_terms(a, b, c, 1.0)) < gap):
        return METHOD_SERIES, m
    if m is not None and m < -MAX_TERMS:
        raise DomainError(f"2F1 gap {c - a - b:g} lies below -{MAX_TERMS} for a={a}, b={b}, c={c}")
    return METHOD_CONNECTION, m


def gauss_2f1(args: HypArgs) -> EvalResult:
    """Gauss hypergeometric function on [0, 1] with an error estimate.

    The series up to z = 0.9, its estimate bounding tail and rounding at
    every z. Above that, the route of _route_above_switch: the series, or a
    1 - z connection formula in w = 1 - z, the log case when c - a - b is
    within rounding of an integer m (and is then taken as m), else DLMF
    15.8.4. An estimate past 1e-13 relative is rescued by the Euler-integral
    quadrature where an Euler ordering is valid and its estimate is smaller.
    Exactly at z = 1 (w = 0) the gamma-ratio closed form, which requires
    c - a - b > 0. A series past MAX_TERMS terms, an integer gap below
    -MAX_TERMS above z = 0.9, or a result without a finite error estimate
    raises DomainError, a value past the double range DivergenceError.
    """
    a, b, c, z = args.a, args.b, args.c, args.z
    if z <= SERIES_SWITCH:
        return EvalResult(*_series_2f1(a, b, c, z), METHOD_SERIES)
    w = 1.0 - z if args.w is None else args.w
    if w == 0.0:
        value, size = _gauss_sum(a, b, c)
        return EvalResult(value, 16.0 * _EPS * size * abs(value), METHOD_GAUSS_CLOSED_FORM)
    route, m = _route_above_switch(a, b, c, z)
    if route == METHOD_SERIES:
        result = EvalResult(*_series_2f1(a, b, c, z), METHOD_SERIES)
    elif m is None:
        result = EvalResult(*_gap_connection(a, b, c, w), METHOD_CONNECTION)
    else:
        result = EvalResult(*_connection_2f1(a, b, m, w), METHOD_CONNECTION)
    # Large a, b let the log series cancel, a gap near an integer the two terms
    # of DLMF 15.8.4; the quadrature may then do better.
    if math.isfinite(result.value) and result.err_estimate > _CONNECTION_TRUST * abs(result.value):
        euler = _euler_2f1(a, b, c, w, m)
        if euler is not None and euler.err_estimate < result.err_estimate:
            result = euler
    if not math.isfinite(result.value):
        raise DivergenceError(f"2F1 exceeds the double range at z={z}, w={w}")
    if not math.isfinite(result.err_estimate):
        raise DomainError(f"2F1 did not converge for a={a}, b={b}, c={c}, z={z}, w={w}")
    return result


def gauss_value_at_one(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) by Gauss's sum Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    (DLMF 15.4.20), read as gauss_2f1 reads DLMF 15.8.4's A: signed, 0 at a pole of
    Gamma(c-a) or Gamma(c-b); c-a or c-b below or beside 0 and a gap below 1/2 are read
    exactly. Requires c - a - b > 0 beyond rounding (gauss_2f1's integer-gap tolerance:
    a gap within it of 0 diverges) and c off the non-positive integers; a = 0 or b = 0
    gives 1 as every term past n = 0 vanishes.
    """
    return _gauss_sum(a, b, c)[0]


def _gauss_sum(a: float, b: float, c: float) -> tuple[float, float]:
    """gauss_value_at_one and the size of its gamma ratio, which bounds its relative
    rounding in ulps (0 if exact)."""
    if a == 0.0 or b == 0.0:
        return 1.0, 0.0
    if c - a - b <= 0.0 or _integer_gap(a, b, c) == 0:
        raise DivergenceError(f"2F1 diverges at z=1 when c-a-b <= 0, a gap within rounding "
                              f"of 0 included (got c-a-b={c - a - b})")
    if _pole(c):
        raise DomainError(f"c must not be a non-positive integer, got c={c}")
    _, value, size = _gauss_ratio(a, b, c)
    if math.isinf(value):
        raise DivergenceError(f"2F1 exceeds the double range at z=1 for a={a}, b={b}, c={c}")
    return value, size


def gauss_2f1_with_derivative(args: HypArgs) -> tuple[EvalResult, EvalResult]:
    """2F1 and its z-derivative F' = (ab/c) 2F1(a+1, b+1; c+1; z), each with
    an error estimate.

    Up to z = 0.9 one Horner pass over the family's coefficients gives both,
    each estimate bounding tail and rounding as gauss_2f1's does. Above that,
    where gauss_2f1's route (_route_above_switch) is the connection formula
    with a gap m >= 0, one pass of the log-case series gives both
    (_connection_with_derivative), unless either estimate exceeds 1e-13
    relative or a value is not finite. Else F is gauss_2f1 of args and F'
    (ab/c) times gauss_2f1 of the shifted family at the same z and w, which
    raise as gauss_2f1 does.
    """
    w = 1.0 - args.z if args.w is None else args.w
    value, slope = _gauss_2f1_with_derivative(args.a, args.b, args.c, args.z, w)
    return EvalResult(*value), EvalResult(*slope)


def _gauss_2f1_with_derivative(a: float, b: float, c: float, z: float, w: float
                               ) -> tuple[tuple[float, float, str], tuple[float, float, str]]:
    """gauss_2f1_with_derivative of a valid HypArgs(a, b, c, z, w), each result
    as its (value, err_estimate, method): for callers whose family and
    arguments are valid by construction."""
    if z <= SERIES_SWITCH:
        (value, err), (slope, slope_err) = _series_with_derivative(a, b, c, z)
        return (value, err, METHOD_SERIES), (slope, slope_err, METHOD_SERIES)
    if w > 0.0:
        route, m = _route_above_switch(a, b, c, z)
        if route == METHOD_CONNECTION and m is not None and m >= 0:
            (value, err), (slope, slope_err) = _connection_with_derivative(a, b, m, w)
            if (math.isfinite(value) and err <= _CONNECTION_TRUST * abs(value)
                    and math.isfinite(slope) and slope_err <= _CONNECTION_TRUST * abs(slope)):
                return (value, err, route), (slope, slope_err, route)
    f = gauss_2f1(HypArgs(a, b, c, z, w))
    d = a * b / c * gauss_2f1(HypArgs(a + 1.0, b + 1.0, c + 1.0, z, w))
    return (f.value, f.err_estimate, f.method), (d.value, d.err_estimate, d.method)


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
