"""Independent high-precision references for the checked quantities.

Everything here uses mpmath at 30 significant digits and shares no code
with pqelliptic. The modulus enters through the exact internal argument
x = r**p and its exact complement 1 - x, both formed in mpmath from the
double inputs, so argument rounding inside the program counts against it.
The formulas are the hypergeometric representations stated in the
package documentation:

    K   = (pi_pq / 2) 2F1(1/q, 1 - 1/p; 1 - 1/p + 1/q; x)
    E   = (pi_pq / 2) 2F1(1/q,   - 1/p; 1 - 1/p + 1/q; x)
    Kc, Ec: the same at 1 - x (the complementary modulus has r'**p = 1 - x)
    delta  = C [F(x) - F(1 - x)],  F = 2F1(1/q, 1 - 1/p; 2 + 1/q - 1/p; .)
    delta' = eta r**(p-1) [F1(x) + F1(1 - x)]
    delta''= eta [(p-1) r**(p-2) (F1(x) + F1(1-x))
                  + p r**(2p-2) (a1 b1 / c1) (F2(x) - F2(1-x))]

with pi_pq = (2/q) B(1 - 1/p, 1/q), C = (1 - 1/p) pi_pq / (2 c), c = 1 + 1/q - 1/p,
eta = (p/q) (1 - 1/p)**2 pi_pq / (2 c (2 + 1/q - 1/p)), F1 = 2F1(a1, b1; c1; .)
with (a1, b1, c1) = (1 + 1/q, 2 - 1/p, 3 + 1/q - 1/p) and F2 the same with
every parameter raised by one.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DIGITS = 30

QUANTITIES = ("K", "E", "Kc", "Ec", "delta", "delta_prime", "delta_second")


def reference(quantity: str, p: float, q: float, r: float) -> float:
    """30-digit value of `quantity` at (p, q, r), rounded to a double."""
    with mpmath.workdps(DIGITS):
        return float(_reference(quantity, mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(r)))


def _reference(quantity: str, p, q, r):
    ip, iq = 1 / p, 1 / q
    x = r ** p
    y = mpmath.fsub(1, x, exact=True)
    pi_pq = 2 / q * mpmath.beta(1 - ip, iq)
    c = 1 - ip + iq
    hyp = mpmath.hyp2f1
    if quantity == "K":
        return pi_pq / 2 * hyp(iq, 1 - ip, c, x)
    if quantity == "E":
        return pi_pq / 2 * hyp(iq, -ip, c, x)
    if quantity == "Kc":
        return pi_pq / 2 * hyp(iq, 1 - ip, c, y)
    if quantity == "Ec":
        return pi_pq / 2 * hyp(iq, -ip, c, y)
    if quantity == "delta":
        big_c = (1 - ip) * pi_pq / (2 * c)
        return big_c * (hyp(iq, 1 - ip, 2 + iq - ip, x) - hyp(iq, 1 - ip, 2 + iq - ip, y))
    eta = (p / q) * (1 - ip) ** 2 * pi_pq / (2 * c * (2 + iq - ip))
    a1, b1, c1 = 1 + iq, 2 - ip, 3 + iq - ip
    f1 = hyp(a1, b1, c1, x) + hyp(a1, b1, c1, y)
    if quantity == "delta_prime":
        return eta * r ** (p - 1) * f1
    if quantity == "delta_second":
        f2 = hyp(a1 + 1, b1 + 1, c1 + 1, x) - hyp(a1 + 1, b1 + 1, c1 + 1, y)
        return eta * ((p - 1) * r ** (p - 2) * f1
                      + p * r ** (2 * p - 2) * (a1 * b1 / c1) * f2)
    raise KeyError(quantity)


def admissibility(p: float, q: float) -> tuple[bool, float, bool]:
    """(condition1, epsilon, admissible) decided in exact rationals.

    Condition 1: 2 + 1/p + 1/p**2 <= 5/p + 1/q < 3 + 1/p**2.
    Condition 2: epsilon(p, q) > 0 with
    epsilon = 20 - 42/p + 6/q + 21/p**2 - 2/q**2 - 20/(pq) + 9/(p**2 q)
              - 3/p**3 - 1/(p**3 q).
    """
    u, v = 1 / Fraction(p), 1 / Fraction(q)
    cond1 = 2 + u + u * u <= 5 * u + v < 3 + u * u
    eps = (20 - 42 * u + 6 * v + 21 * u ** 2 - 2 * v ** 2 - 20 * u * v
           + 9 * u ** 2 * v - 3 * u ** 3 - u ** 3 * v)
    return cond1, float(eps), cond1 and eps > 0
