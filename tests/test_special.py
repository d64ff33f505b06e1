"""Foundational special functions: values, identities, and oracles."""

import dataclasses
import math
import random
import statistics
import sys
import threading
from array import array
from fractions import Fraction

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pqelliptic import (
    DivergenceError,
    DomainError,
    HypArgs,
    K_pq,
    PQParams,
    beta,
    contiguous_residual,
    euler_integral_oracle,
    gauss_2f1,
    gauss_2f1_with_derivative,
    gauss_value_at_one,
    inc_beta,
    legendre_K_agm,
    ln_gamma,
    special,
)
from pqelliptic import delta_analysis, elliptic
from pqelliptic.cli import main
from pqelliptic.quadrature import tanh_sinh_01

# Frozen from the adaptive-quadrature oracle of the defining integral
# (Gauss-Kronrod with algebraic endpoint weights, abserr 3.0e-14).
BETA_HALF_TWOTHIRDS = 2.5871095592297904


class TestLnGamma:
    def test_at_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    def test_accuracy_band(self):
        # spot checks across (0, 100] against exact factorials
        for n in (2, 10, 20, 50, 100):
            assert ln_gamma(float(n)) == pytest.approx(
                math.log(math.factorial(n - 1)), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-1.5)


class TestBeta:
    def test_half_half_is_pi(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_one_b(self):
        for b in (0.3, 1.0, 2.5, 7.0):
            assert beta(1.0, b) == pytest.approx(1.0 / b, rel=1e-14)

    def test_against_quadrature_oracle(self):
        assert beta(0.5, 2.0 / 3.0) == pytest.approx(BETA_HALF_TWOTHIRDS, rel=1e-12)

    def test_quadrature_oracle_live(self):
        value, err = integrate.quad(lambda t: 1.0, 0.0, 1.0, weight="alg",
                                    wvar=(-0.5, -1.0 / 3.0), epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-12
        assert beta(0.5, 2.0 / 3.0) == pytest.approx(value, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -2.0)


class TestIncBeta:
    def test_full_integral(self):
        for a, b in ((0.5, 0.5), (1.5, 0.25), (2.0, 1.0)):
            assert inc_beta(1.0, a, b) == pytest.approx(beta(a, b), rel=1e-13)

    def test_empty_integral(self):
        assert inc_beta(0.0, 0.7, 0.9) == 0.0

    def test_arcsine_identity(self):
        # B(z; 1/2, 1/2) = 2*arcsin(sqrt(z)); at z = 0.25 this is pi/3
        assert inc_beta(0.25, 0.5, 0.5) == pytest.approx(math.pi / 3.0, rel=1e-13)

    def test_against_quadrature(self):
        value, err = integrate.quad(lambda t: t ** (-0.3) * (1 - t) ** (-0.6),
                                    0.0, 0.4, epsabs=1e-14, epsrel=1e-13)
        assert inc_beta(0.4, 0.7, 0.4) == pytest.approx(value, rel=1e-11)

    @given(st.floats(0.01, 0.99), st.floats(0.15, 5.0), st.floats(0.1, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_complete(self, z, a, b):
        assert 0.0 <= inc_beta(z, a, b) <= beta(a, b) * (1 + 1e-12)

    def test_against_mpmath_both_sides_of_pivot(self):
        # Half the samples over a in [0.15, 5], b in [0.1, 1]; half over the
        # arcsin_pq arguments a = 1/q, b = 1 - 1/p, z = x**q, p, q in
        # [1.05, 8]. One (a, b) pair in four per half adds z at the pivot
        # (a + 1)/(a + b + 2) where the complement form takes over, and the
        # next float past it.
        rng = random.Random(20261018)
        samples = []
        for i in range(80):
            if i % 2 == 0:
                a, b, q = rng.uniform(0.15, 5.0), rng.uniform(0.1, 1.0), 1.0
            else:
                p, q = rng.uniform(1.05, 8.0), rng.uniform(1.05, 8.0)
                a, b = 1.0 / q, 1.0 - 1.0 / p
            samples += [(rng.random() ** q, a, b), (rng.random() ** q, a, b)]
            if i % 8 < 2:
                pivot = (a + 1.0) / (a + b + 2.0)
                samples += [(pivot, a, b), (math.nextafter(pivot, 1.0), a, b)]
        assert len(samples) == 200
        with mpmath.workdps(40):
            for z, a, b in samples:
                exact = mpmath.betainc(a, b, 0, z)
                assert abs(inc_beta(z, a, b) - exact) <= 1e-13 * abs(exact), (z, a, b)

    def test_large_a_below_pivot_is_accurate_or_refused(self):
        # The pivot (a + 1)/(a + 2.5) nears 1 as a grows, so the series just
        # below it slows down; a sum the term cap cuts short is refused.
        def below_pivot(a):
            return (a + 1.0) / (a + 2.5) * (1.0 - 1e-12)

        z = below_pivot(1e3)
        with mpmath.workdps(40):
            exact = mpmath.betainc(1e3, 0.5, 0, z)
        assert abs(inc_beta(z, 1e3, 0.5) - exact) <= 1e-13 * abs(exact)
        with pytest.raises(DomainError, match="did not converge"):
            inc_beta(below_pivot(1e5), 1e5, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            inc_beta(1.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            inc_beta(0.5, -1.0, 0.5)
        with pytest.raises(DomainError):
            inc_beta(0.5, 0.5, 1.5)


class TestGauss2F1:
    def test_at_zero(self):
        res = gauss_2f1(HypArgs(0.3, 1.7, 2.2, 0.0))
        assert res.value == 1.0
        assert res.err_estimate == 0.0

    def test_log_closed_form(self):
        # F(1,1;2;z) = -log(1-z)/z
        res = gauss_2f1(HypArgs(1.0, 1.0, 2.0, 0.5))
        assert res.value == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_agm_anchor(self):
        # (2/pi)*K(0.8) frozen from the AGM oracle
        res = gauss_2f1(HypArgs(0.5, 0.5, 1.0, 0.64))
        assert res.value == pytest.approx(1.2702492001213228, rel=1e-13)
        assert res.value == pytest.approx(2.0 / math.pi * legendre_K_agm(0.8), rel=1e-13)

    def test_err_estimate_is_bound(self):
        res = gauss_2f1(HypArgs(0.5, 0.5, 1.0, 0.64))
        exact = 2.0 / math.pi * legendre_K_agm(0.8)
        assert abs(res.value - exact) <= res.err_estimate + 1e-14 * abs(exact)

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            gauss_2f1(HypArgs(0.5, 0.5, 1.0, 1.0))

    def test_terminating_sum_that_rounds_to_zero_stops(self):
        # A cubic in z (b = -3, no Euler ordering, so the series runs above
        # 0.9) whose four terms sum to 0.0: the stopping test must hold at a
        # zero sum (|t_n| <= 1e-16 |sum|), or the sum runs to MAX_TERMS terms.
        w = 8.16481449726225e-08
        args = HypArgs(158.4326093646746, -3.0, 157.4326093646746, 1.0 - w, w)
        with mpmath.workdps(40):
            a, b, c = map(mpmath.mpf, (args.a, args.b, args.c))
            z = 1 - mpmath.mpf(w)
            exact = (mpmath.hyp2f1(a, b, c, z), a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z))
        for res, ref in ((gauss_2f1(args), exact[0]),
                         *zip(gauss_2f1_with_derivative(args), exact)):
            assert res.method == "series"
            assert float(abs(mpmath.mpf(res.value) - ref)) <= res.err_estimate < 1e-13

    def test_z_domain(self):
        with pytest.raises(DomainError):
            HypArgs(0.5, 0.5, 1.0, -0.1)
        with pytest.raises(DomainError):
            HypArgs(0.5, 0.5, 1.0, 1.1)

    def test_c_pole(self):
        with pytest.raises(DomainError):
            HypArgs(0.5, 0.5, -1.0, 0.5)

    def test_non_finite_parameters(self):
        for bad in (math.nan, math.inf, -math.inf):
            for a, b, c in ((bad, 1.0, 2.0), (1.0, bad, 2.0), (1.0, 1.0, bad)):
                with pytest.raises(DomainError, match="finite"):
                    gauss_2f1(HypArgs(a, b, c, 0.5))

    def test_max_terms_env_override(self, monkeypatch):
        # A series the term cap cuts short is refused, not returned truncated.
        monkeypatch.setattr(special, "MAX_TERMS", 5)
        with pytest.raises(DomainError, match="did not converge"):
            gauss_2f1(HypArgs(0.5, 0.5, 1.0, 0.64))
        with pytest.raises(DomainError, match="did not converge"):
            K_pq(PQParams(2.0, 2.0), 0.8)
        result = CliRunner().invoke(main, ["eval", "--p", "2", "--q", "2", "--r", "0.8",
                                           "--quantity", "K"])
        assert result.exit_code == 2
        assert "did not converge" in result.output
        # Integer gap, no Euler ordering: a connection sum cut short is refused ...
        with pytest.raises(DomainError, match="did not converge"):
            gauss_2f1(HypArgs(-0.5, -0.25, 0.25, 0.95))
        # ... while one with an Euler ordering falls back on the quadrature.
        assert gauss_2f1(HypArgs(0.5, 0.5, 1.0, 0.95)).method == "euler_quadrature"

    def test_quadrature_route_above_switch(self):
        res = gauss_2f1(HypArgs(0.5, 0.5, 1.0, 0.95))
        assert res.method == "connection"
        exact = 2.0 / math.pi * legendre_K_agm(math.sqrt(0.95))
        assert res.value == pytest.approx(exact, rel=1e-11)


#: The exact gap m = c - a - b of each 2F1 family the library evaluates.
_FAMILY_GAPS = {"first kind": 0, "second kind": 1, "kernel": 1, "F1": 0, "F2": -1}


def _library_families(p, q, z, w):
    """The five 2F1 families the library evaluates, keyed as in _FAMILY_GAPS."""
    params = PQParams(p, q)
    a1, b1, c1 = delta_analysis._derivative_front(params)
    return {
        "first kind": elliptic._complete_args(params, True, z, w),
        "second kind": elliptic._complete_args(params, False, z, w),
        "kernel": delta_analysis._kernel_args(params.inv_q, params.inv_p, z, w),
        "F1": HypArgs(a1, b1, c1, z, w),
        "F2": HypArgs(a1 + 1.0, b1 + 1.0, c1 + 1.0, z, w),
    }


class TestConnectionRoute:
    def test_library_families_against_mpmath(self):
        # w log-uniform on [1e-12, 0.1]: the whole z > 0.9 band the route serves.
        rng = random.Random(20261018)
        for _ in range(60):
            p, q = rng.uniform(1.1, 6.0), rng.uniform(1.1, 6.0)
            w = 10.0 ** rng.uniform(-12.0, -1.0)
            for name, args in _library_families(p, q, 1.0 - w, w).items():
                res = gauss_2f1(args)
                assert res.method == "connection"
                with mpmath.workdps(30):
                    a, b = mpmath.mpf(args.a), mpmath.mpf(args.b)
                    exact = mpmath.hyp2f1(a, b, a + b + _FAMILY_GAPS[name], 1 - mpmath.mpf(w))
                    err = float(abs(mpmath.mpf(res.value) - exact))
                location = f"{name} at p={p!r}, q={q!r}, w={w!r}"
                assert err <= 1e-14 * abs(float(exact)), location
                assert err <= res.err_estimate, location

    def test_argument_rounded_to_one_uses_the_complement(self):
        w = 1e-20
        res = gauss_2f1(HypArgs(0.5, 0.5, 1.0, 1.0 - w, w))
        assert res.method == "connection"
        with mpmath.workdps(40):
            exact = float(mpmath.hyp2f1(0.5, 0.5, 1, 1 - mpmath.mpf(w)))
        assert res.value == pytest.approx(exact, rel=1e-14)

    def test_integer_gap_of_a_public_call_is_decided_exactly(self):
        # c - a - b = 1 exactly: gauss_2f1 finds the integer gap itself.
        res = gauss_2f1(HypArgs(0.25, 0.5, 1.75, 0.99))
        assert res.method == "connection"
        exact = float(mpmath.hyp2f1(0.25, 0.5, 1.75, 0.99))
        assert res.value == pytest.approx(exact, rel=1e-14)

    def test_large_parameters_against_mpmath(self):
        # Gamma(c) overflows a double at c = 200 (gap 199) and at c = 180; for
        # a = b = 90 the log series cancels and the quadrature takes over.
        for a, b, c in ((0.5, 0.5, 200.0), (90.0, 90.0, 180.0)):
            res = gauss_2f1(HypArgs(a, b, c, 0.95))
            with mpmath.workdps(30):
                exact = mpmath.hyp2f1(a, b, c, mpmath.mpf(0.95))
                err = float(abs(mpmath.mpf(res.value) - exact))
            assert err <= 1e-13 * abs(float(exact)), (a, b, c)
            assert err <= res.err_estimate, (a, b, c)

    def test_non_integer_gap_takes_the_connection_route(self):
        res = gauss_2f1(HypArgs(0.5, 0.5, 1.3, 0.95))
        assert res.method == "connection"
        exact = float(mpmath.hyp2f1(0.5, 0.5, 1.3, 0.95))
        assert res.value == pytest.approx(exact, rel=1e-14)

    def test_rejects_a_wrong_gap_or_complement(self):
        with pytest.raises(DomainError, match="complement"):
            HypArgs(0.5, 0.5, 1.0, 0.95, w=0.5)

    def test_derived_gap_of_every_library_family(self):
        # Each family's parameters are rounded floats, so its gap c - a - b
        # sits a few ulps off the integer; the derived gap must still be it.
        rng = random.Random(20261019)
        for i in range(4000):
            if i % 2:  # uniform on (1, 1000]
                p, q = (1.0 + 999.0 * (1.0 - rng.random()) for _ in range(2))
            else:  # log-uniform in p - 1, down to 1e-9
                p, q = (1.0 + 10.0 ** rng.uniform(-9.0, 3.0) for _ in range(2))
            for name, args in _library_families(p, q, 0.5, None).items():
                assert special._integer_gap(args.a, args.b, args.c) == _FAMILY_GAPS[name], (
                    name, p, q)
        # c - a - b past the double range is no integer (and does not raise).
        assert special._integer_gap(-1e308, -1e308, 1e308) is None

    def test_float_rounded_zero_gap_diverges_at_one(self):
        # c - a - b is +2.8e-17 in floating point here, but the family is K's.
        params = PQParams(1.11, 5.37)
        args = elliptic._complete_args(params, True, 1.0)
        assert args.c - args.a - args.b > 0.0
        with pytest.raises(DivergenceError):
            gauss_2f1(args)
        with pytest.raises(DivergenceError):
            gauss_value_at_one(args.a, args.b, args.c)
        # The oracle leaves z = 1 to Gauss's sum.
        with pytest.raises(DomainError, match="gauss_value_at_one"):
            euler_integral_oracle(args)

    def test_public_gap_near_an_integer(self):
        # A gap within rounding of an integer m is evaluated as the family of
        # m; the relative error that costs is about |delta| |ln w| / 2.
        for a, b, c in ((0.5, 0.5, 1.0 + 3e-15), (0.5, 0.5, 1.0 - 3e-15),
                        (0.25, 0.5, 1.75 + 3e-15)):
            delta = c - round(c - a - b) - a - b
            for w in (1e-12, 1e-8, 1e-4, 0.05):
                res = gauss_2f1(HypArgs(a, b, c, 1.0 - w, w))
                assert res.method == "connection"
                with mpmath.workdps(50):
                    exact = mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(w))
                    rel = float(abs((mpmath.mpf(res.value) - exact) / exact))
                assert rel <= abs(delta) * abs(math.log(w)) + 1e-14, (a, b, c, w)
        assert gauss_2f1(HypArgs(0.5, 0.5, 1.0 + 1e-9, 0.95)).method == "euler_quadrature"

    def test_large_gap_takes_the_shorter_series(self):
        # Gap c - 1: the direct series needs a few terms, the connection
        # route's finite sum c - 1 of them.
        for c in (300.0, 1e4, 1e7 + 1):
            res = gauss_2f1(HypArgs(0.5, 0.5, c, 0.95))
            assert res.method == "series", c
            with mpmath.workdps(30):
                a, z = mpmath.mpf(0.5), mpmath.mpf(0.95)
                # Pfaff's transformation (DLMF 15.8.1): mpmath's own 1 - z
                # route stalls on a gap of 1e7.
                exact = (1 - z) ** -a * mpmath.hyp2f1(a, c - a, c, z / (z - 1))
                err = float(abs(mpmath.mpf(res.value) - exact))
            assert err <= 1e-14 * abs(float(exact)), c
            assert err <= res.err_estimate, c

    def test_series_at_one_starts_from_the_algebraic_decay(self, monkeypatch):
        # Gap 14 and z rounded to 1: the shorter series starts at z = 1 from
        # where k^(a+b-c-1) = k^-15 alone meets 1e-16 (12 terms), and grows.
        requests = []
        get = special._COEFFICIENTS.get
        monkeypatch.setattr(special._COEFFICIENTS, "get",
                            lambda *args: requests.append(args) or get(*args))
        res = gauss_2f1(HypArgs(0.5, 0.5, 15.0, 1.0, 1e-20))
        assert res.method == "series"
        assert requests[0] == (0.5, 0.5, 15.0, special._series_terms(0.5, 0.5, 15.0, 1.0) + 1)
        assert res.value == pytest.approx(gauss_value_at_one(0.5, 0.5, 15.0), rel=1e-14)


def _shifted(args):
    """The family (a + 1, b + 1; c + 1) whose 2F1 times ab/c is F', at the same z and w."""
    return HypArgs(args.a + 1.0, args.b + 1.0, args.c + 1.0, args.z, args.w)


#: An Euler integrand (tm + w t)**(-a) past the double range: a large a at a tiny w.
_OVERFLOW_W = 8.7e-08
_OVERFLOW_FAMILY = HypArgs(107.156, 2.0, 110.156, 1.0 - _OVERFLOW_W, _OVERFLOW_W)

#: One family for each branch of the route rule, with the route that F and F' take.
_ROUTE_TABLE = [
    ("z <= 0.9", HypArgs(0.5, 0.3, 1.7, 0.5), "series"),
    ("w = 0", HypArgs(0.5, 0.5, 3.0, 1.0), "gauss_closed_form"),
    ("shorter series", HypArgs(0.5, 0.5, 300.0, 0.95), "series"),
    ("m = 0", HypArgs(0.5, 0.5, 1.0, 0.95), "connection"),
    ("m = 1", HypArgs(0.5, 0.5, 2.0, 0.95), "connection"),
    ("m = 2", HypArgs(0.5, 0.5, 3.0, 0.95), "connection"),
    ("m = -1", HypArgs(0.7, 0.8, 0.5, 0.95), "connection"),
    ("polynomial", HypArgs(-2.0, 0.5, 1.5, 0.95), "series"),
    # Gaps 0.5 and -0.5 (F'). At (0.5, 0.3; 1.7) F''s gap is -0.1: |A| is about
    # 4 |F|, the series' bounds put the estimate past 1e-13 and the rescue runs.
    ("non-integer gap", HypArgs(0.5, 0.3, 1.3, 0.95), "connection"),
    ("large a, low trust", _OVERFLOW_FAMILY, "connection"),
]


class TestRouteAboveSwitch:
    @pytest.mark.parametrize("args, route", [row[1:] for row in _ROUTE_TABLE],
                             ids=[row[0] for row in _ROUTE_TABLE])
    def test_both_functions_share_the_route(self, args, route):
        value, slope = gauss_2f1_with_derivative(args)
        plain = gauss_2f1(args)
        shifted = args.a * args.b / args.c * gauss_2f1(_shifted(args))
        assert plain.method == value.method == slope.method == route
        assert abs(value.value - plain.value) <= value.err_estimate + plain.err_estimate
        assert abs(slope.value - shifted.value) <= slope.err_estimate + shifted.err_estimate

    def test_euler_route_is_symmetric_in_a_and_b(self):
        # Only c > a > 0 holds for (0.3, 2.5; 1.7), so the rescue swaps a and b
        # into the ordering c > b > 0 that (2.5, 0.3; 1.7) has as given.
        # The gap -1.1 is no integer: m is None.
        swapped, given = (special._euler_2f1(a, b, 1.7, 0.05, None)
                          for a, b in ((0.3, 2.5), (2.5, 0.3)))
        assert swapped == given
        assert given.method == "euler_quadrature"
        with mpmath.workdps(30):
            exact = mpmath.hyp2f1(0.3, 2.5, 1.7, 0.95)
        assert float(abs(mpmath.mpf(given.value) - exact)) <= given.err_estimate

    def test_an_overflowing_euler_integrand_is_no_quadrature(self):
        # The connection estimate is past 1e-13 relative, so the quadrature
        # is tried; its overflow leaves the connection value.
        args = _OVERFLOW_FAMILY
        assert special._euler_2f1(args.a, args.b, args.c, args.w, 1) is None  # the gap 1
        res = gauss_2f1(args)
        assert res.method == "connection"
        with mpmath.workdps(40):
            a = mpmath.mpf(args.a)
            exact = mpmath.hyp2f1(a, 2, a + 3, 1 - mpmath.mpf(args.w))  # the exact gap 1
        assert float(abs(mpmath.mpf(res.value) - exact)) <= res.err_estimate
        # b = 0 makes F = 1 and F' = 0; the shifted family's integrand overflows.
        w = 0.0008932080339733927
        value, slope = gauss_2f1_with_derivative(
            HypArgs(210.89458327501592, 0.0, 209.89458327501592, 1.0 - w, w))
        assert (value.value, slope.value) == (1.0, 0.0)


def _exact_above_switch(args, c=None):
    """2F1 of args at z = 1 - w to 40 digits, of the family (a, b; c) when c is given."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(args.a), mpmath.mpf(args.b)
        return mpmath.hyp2f1(a, b, mpmath.mpf(args.c) if c is None else c(a, b),
                             1 - mpmath.mpf(args.w))


def _assert_within_estimate(res, exact):
    err = float(abs(mpmath.mpf(res.value) - exact))
    assert err <= res.err_estimate, (res, float(exact))
    return err


def _public_families(seed, per_kind):
    """Seeded public families above z = 0.9, per_kind of each of four kinds:
    a gap far from an integer; a gap m + delta, m in [-2, 3] and |delta|
    log-uniform on [1e-15, 0.5]; a a non-positive integer; and c - a or c - b
    a non-positive integer in floating point (b = fl(c + n)). w is
    log-uniform on [1e-12, 0.1], a and b uniform on [-3, 3], c on [0.05, 5];
    a and b are swapped at random."""
    rng = random.Random(seed)
    families = []
    for kind in range(4):
        while len(families) < (kind + 1) * per_kind:
            w = 10.0 ** rng.uniform(-12.0, -1.0)
            a, b, c = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.05, 5.0)
            if kind == 1:
                delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, math.log10(0.5))
                c = a + b + rng.randint(-2, 3) + delta
            elif kind == 2:
                a = float(-rng.randint(0, 3))
            elif kind == 3:
                b = c + rng.randint(0, 2)
            if 0.05 <= c <= 5.0 and b <= 3.0:
                a, b = (a, b) if rng.random() < 0.5 else (b, a)
                families.append(HypArgs(a, b, c, 1.0 - w, w))
    return families


class TestEveryGap:
    def test_terminating_series_stops_at_its_degree(self, monkeypatch):
        # A cubic in z near 1: 5 coefficients, none stored, a rounding bound only.
        requests = []
        get = special._COEFFICIENTS.get
        monkeypatch.setattr(special._COEFFICIENTS, "get",
                            lambda *args: requests.append(args) or get(*args))
        stored = special._COEFFICIENTS.stored
        args = HypArgs(-3.0, 10.0, 2.0, 1.0 - 1e-10, 1e-10)
        res = gauss_2f1(args)
        assert res.method == "series"
        assert requests == [(-3.0, 10.0, 2.0, 5)]  # coefficients 0 to 5: the sum takes 0 to 4
        assert special._COEFFICIENTS.stored == stored
        exact = _exact_above_switch(args)
        _assert_within_estimate(res, exact)
        assert res.err_estimate <= 1e-13 * abs(float(exact))

    def test_refused_public_families_are_answered(self):
        # c = a: F = 1/w, the Euler transform w^-1 F(0, a - 1; c; z) terminates.
        w = 1.7990732368750818e-06
        res = gauss_2f1(HypArgs(85.08327075354856, 1.0, 85.08327075354856, 1.0 - w, w))
        assert res.method == "connection"
        with mpmath.workdps(40):
            _assert_within_estimate(res, 1 / mpmath.mpf(w))
        # c = a below b's rounding: F = w^-b, and (a + b) + m rounds to 0 (raised
        # ZeroDivisionError); c is formed from the pole, a + (b + m).
        for a, b in ((1e-17, 3.0), (1e-15, 100.0)):
            res = gauss_2f1(HypArgs(a, b, a, 0.95, 0.05))
            assert res.method == "connection"
            with mpmath.workdps(40):
                _assert_within_estimate(res, mpmath.mpf(0.05) ** -b)
        # Gap 0.25 and no Euler ordering: DLMF 15.8.4.
        args = HypArgs(-0.5, 0.5, 0.25, 1.0 - 1e-12, 1e-12)
        res = gauss_2f1(args)
        assert res.method == "connection"
        exact = _exact_above_switch(args)
        assert _assert_within_estimate(res, exact) <= 1e-14 * abs(float(exact))

    def test_power_estimate_counts_the_rounding_of_the_gap(self):
        # g = -5.57 at w = 1.5e-9: w^g is 1e49, and g's rounding moves it by |ln w| of itself.
        w = 1.4556213425306354e-09
        args = HypArgs(1.5667804182802794, 4.629848222832525, 0.6298482228325244, 1.0 - w, w)
        res = gauss_2f1(args)
        assert res.method == "connection"
        _assert_within_estimate(res, _exact_above_switch(args))

    def test_difference_rounded_onto_a_pole(self):
        # b = fl(c + 1): c - b is -1 in floating point but not exactly, so A
        # is about 1e-17 and not 0, and A F(a, b; 1 - g; w) is the value.
        w = 2.3001470010187162e-11
        args = HypArgs(-2.4086215710799745, 1.0528540724197473, 0.05285407241974721, 1.0 - w, w)
        assert args.c - args.b == -1.0 and Fraction(args.c) - Fraction(args.b) != -1
        res = gauss_2f1(args)
        assert res.method == "connection"
        exact = _exact_above_switch(args)
        assert _assert_within_estimate(res, exact) <= 1e-13 * abs(float(exact))

    def test_rescue_that_does_not_converge_keeps_the_connection_value(self):
        # Gap -1 + 8.6e-13: the estimate passes 1e-13, and the tanh-sinh
        # rescue, though c > b > 0, does not converge in its 10 levels.
        w = 1.5778187794450053e-08
        args = HypArgs(1.027407505245253, 1.4260744708677207, 1.4534819761138305, 1.0 - w, w)
        assert special._euler_2f1(args.a, args.b, args.c, w, None) is None
        res = gauss_2f1(args)
        assert res.method == "connection"
        assert res.value == pytest.approx(6.43e7, rel=1e-3)
        _assert_within_estimate(res, _exact_above_switch(args))

    def test_rescue_integrates_the_family_of_the_integer_gap(self):
        # Gap -1 within rounding, a and b near 3: the log series cancels and
        # the quadrature of (a, b; a + b - 1) takes over.
        w = 0.07667167242413932
        args = HypArgs(3.2442516205489764, 3.643454888927116, 5.887706509476093, 1.0 - w, w)
        res = gauss_2f1(args)
        assert res.method == "euler_quadrature"
        _assert_within_estimate(res, _exact_above_switch(args, c=lambda a, b: a + b - 1))

    @pytest.mark.parametrize("args", [
        # Gap -1e15 - 0.25, within _integer_gap's tolerance of -1e15: the log
        # case would sum 1e15 finite-part terms (ran for minutes).
        HypArgs(1e15 + 0.5, 0.25, 0.5, 1.0 - 1e-3, 1e-3),
        # Gap -1e200 with b + m = 0: the polynomial's c = a + b + m cancels to 0
        # (raised ZeroDivisionError).
        HypArgs(0.5, 1e200, 3.0, 0.999, 1e-3),
    ])
    def test_gap_below_the_term_cap_is_refused(self, args):
        for evaluate in (gauss_2f1, gauss_2f1_with_derivative):
            with pytest.raises(DomainError, match="lies below"):
                evaluate(args)

    def test_public_family_sweep(self):
        # Every family with a finite value is answered, within 1e-13 or its
        # estimate. The exceptions allowed are the gaps within _integer_gap's
        # tolerance of an integer m but not m, evaluated as the family of m
        # (the README's |delta| |ln w| caveat); the draw has 9 of them.
        in_tolerance = []
        for args in _public_families(11, 200):
            exact = _exact_above_switch(args)
            if not (mpmath.isfinite(exact) and abs(exact) < 1e300):
                continue
            res = gauss_2f1(args)
            err = float(abs(mpmath.mpf(res.value) - exact))
            a, b, c = args.a, args.b, args.c
            m = special._integer_gap(a, b, c)
            delta = Fraction(c) - Fraction(a) - Fraction(b) - (m or 0)
            if m is not None and delta != 0:
                in_tolerance.append(args)
                bound = float(abs(delta)) * abs(math.log(args.w)) + 1e-14
                assert err <= bound * abs(float(exact)), (args, res, float(exact))
            else:
                assert err <= max(res.err_estimate, 1e-13 * abs(float(exact))), (
                    args, res, float(exact))
        assert len(in_tolerance) == 9, in_tolerance


def _series_samples(seed, pairs, per_pair):
    """Seeded (p, q) pairs, each with per_pair arguments z in (0, 0.9]: the
    five library families and the two incomplete-beta families of arcsin_pq
    (a = 1/q, b = 1 - 1/p below the pivot and its complement), pair by pair."""
    rng = random.Random(seed)
    samples = []
    for _ in range(pairs):
        p, q = rng.uniform(1.1, 6.0), rng.uniform(1.1, 6.0)
        a, b = 1.0 / q, 1.0 - 1.0 / p
        for _ in range(per_pair):
            z = 0.9 * (1.0 - rng.random())
            samples += [*_library_families(p, q, z, None).values(),
                        HypArgs(a, 1.0 - b, a + 1.0, z), HypArgs(b, 1.0 - a, b + 1.0, z)]
    return samples


def _connection_samples(seed, pairs, per_pair):
    """The five library families at seeded (p, q) pairs, each at per_pair
    complements w log-uniform on [1e-12, 0.1]: the connection route's band."""
    rng = random.Random(seed)
    samples = []
    for _ in range(pairs):
        p, q = rng.uniform(1.1, 6.0), rng.uniform(1.1, 6.0)
        for _ in range(per_pair):
            w = 10.0 ** rng.uniform(-12.0, -1.0)
            samples += _library_families(p, q, 1.0 - w, w).values()
    return samples


def _bits(samples):
    return [(res.value, res.err_estimate, res.method) for res in map(gauss_2f1, samples)]


def _joint_bits(samples):
    """_bits of gauss_2f1_with_derivative: F and F' at each sample."""
    return [tuple((res.value, res.err_estimate, res.method) for res in pair)
            for pair in map(gauss_2f1_with_derivative, samples)]


def _library_walk(seed):
    """The library families of 4 seeded (p, q) pairs, walked up z = 0.2 ... 0.9
    pair by pair."""
    rng = random.Random(seed)
    walk = []
    for _ in range(4):
        p, q = rng.uniform(1.1, 6.0), rng.uniform(1.1, 6.0)
        walk += [family for z in (0.2, 0.35, 0.5, 0.62, 0.75, 0.84, 0.9)
                 for family in _library_families(p, q, z, None).values()]
    return walk


def _asked(tables):
    """The most coefficients each family asks `tables` for, filled in as sums run."""
    asked = {}
    get = tables.get

    def counted(a, b, c, n):
        asked[a, b, c] = max(asked.get((a, b, c), 0), n + 1)
        return get(a, b, c, n)

    tables.get = counted
    return asked


class TestCoefficientTables:
    """The direct series sums per-family coefficient tables from a shared
    cache; no result may depend on what the cache holds."""

    @pytest.fixture()
    def fresh_tables(self, monkeypatch):
        def install(budget=special._COEFFICIENTS.budget):
            tables = special._CoefficientTables(budget)
            monkeypatch.setattr(special, "_COEFFICIENTS", tables)
            return tables
        return install

    def test_same_bits_cold_warm_evicted_and_reversed(self, fresh_tables):
        samples = _series_samples(20261018, 12, 6)

        def bits(order):  # F alone, then F and F' from the joint pass, which asks for more
            return list(zip(_bits(order), _joint_bits(order)))

        fresh_tables()
        cold = bits(samples)  # each family's table first built, then extended
        warm = bits(samples)
        fresh_tables()
        backwards = bits(samples[::-1])[::-1]
        # Tables for z near 0.9 exceed this budget and are never kept; the
        # shorter ones evict each other.
        tables = fresh_tables(budget=150)
        evicted = bits(samples)
        assert 0 < tables.stored <= 150
        assert cold == warm == backwards == evicted
        assert {res[2] for alone, joint in cold for res in (alone, *joint)} == {"series"}

    def test_term_cap_refuses_with_a_warm_table(self, monkeypatch):
        samples = _series_samples(7, 1, 1)
        families = [dataclasses.replace(args, z=0.64) for args in samples]
        _bits([dataclasses.replace(args, z=0.9) for args in samples])  # warm, past 5 terms
        monkeypatch.setattr(special, "MAX_TERMS", 5)
        for args in families:
            for evaluate in (gauss_2f1, gauss_2f1_with_derivative):
                with pytest.raises(DomainError, match="did not converge"):
                    evaluate(args)

    def test_series_route_against_mpmath(self):
        with mpmath.workdps(30):
            for args in _series_samples(11, 40, 2):
                res = gauss_2f1(args)
                assert res.method == "series"
                exact = mpmath.hyp2f1(args.a, args.b, args.c, args.z)
                err = abs(mpmath.mpf(res.value) - exact)
                assert float(err / abs(exact)) <= 2e-15, args
                assert float(err) <= res.err_estimate, args

    def test_threads_share_the_tables(self, fresh_tables):
        samples = _series_samples(5, 4, 4) + _connection_samples(6, 4, 4)
        fresh_tables()
        expected = _bits(samples)
        tables = fresh_tables(budget=600)
        results = {}

        def work(shift):  # each thread walks the samples from its own start
            rotated = _bits(samples[shift:] + samples[:shift])
            results[shift] = rotated[len(samples) - shift:] + rotated[:len(samples) - shift]

        workers = [threading.Thread(target=work, args=(7 * k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(results[7 * k] == expected for k in range(6))
        # A lost update would leave the count off the tables actually held.
        assert tables.stored == sum(map(len, tables._tables.values())) <= 600

    def test_connection_same_bits_cold_warm_evicted_and_reversed(self):
        samples = _connection_samples(20261020, 10, 5)
        special._log_constants.cache_clear()
        cold = _bits(samples)
        warm = _bits(samples)
        special._log_constants.cache_clear()
        backwards = _bits(samples[::-1])[::-1]
        evicted = []
        for args in samples:  # every call rebuilds its family's constants
            special._log_constants.cache_clear()
            evicted += _bits([args])
        assert cold == warm == backwards == evicted
        assert {method for _, _, method in cold} == {"connection"}

    def test_connection_constants_built_once_per_family(self, monkeypatch):
        calls = {"_gamma_ratio": 0, "_digamma": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(special, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(special, name, counted)
        special._log_constants.cache_clear()
        special._log_constants(0.3, 0.75, 1)
        build = dict(calls)
        assert build == {"_gamma_ratio": 2, "_digamma": 2}
        special._log_constants.cache_clear()
        calls.update(dict.fromkeys(calls, 0))
        for k in range(20):  # one gap-1 family at w from 1e-12 to 0.09
            w = 10.0 ** (-12.0 + 11.0 * k / 19) * 0.9
            assert gauss_2f1(HypArgs(0.3, 0.75, 2.05, 1.0 - w, w)).method == "connection"
        assert calls == build

    @pytest.mark.parametrize("n", [0, 1, special._MIN_KEPT - 2, special._MIN_KEPT - 1, 40])
    def test_a_table_is_an_array_of_exactly_the_terms_asked(self, fresh_tables, n):
        tables = fresh_tables()
        table = tables.get(0.25, 0.5, 1.5, n)
        assert isinstance(table, array) and table.typecode == "d"
        assert len(table) == n + 1
        # Only tables of at least _MIN_KEPT coefficients are stored.
        assert tables.stored == (n + 1 if n + 1 >= special._MIN_KEPT else 0)
        assert fresh_tables().get(0.25, 0.5, 1.5, 60)[:n + 1] == table

    def test_tables_hold_exactly_the_terms_asked(self, fresh_tables):
        walk = _library_walk(20261021)
        exact = []
        for args in walk:
            fresh_tables()  # every table built to the length this call needs
            exact.append(_bits([args])[0])
        tables = fresh_tables()
        asked = _asked(tables)
        assert _bits(walk) == exact
        assert tables._tables
        assert all(len(table) == asked[key] for key, table in tables._tables.items())

    def test_a_working_set_within_the_budget_is_stored_once(self, fresh_tables, monkeypatch):
        walk = _library_walk(20261022)[::-1]  # each family's longest table first
        asked = _asked(fresh_tables(budget=1 << 30))
        expected = _bits(walk)
        tables = fresh_tables(budget=sum(asked.values()))
        assert _bits(walk) == expected  # stored on each family's first request
        stores = []
        store = tables._store
        monkeypatch.setattr(tables, "_store", lambda *args: stores.append(args) or store(*args))
        assert _bits(walk) == expected
        assert stores == []


class TestEvalResultArithmetic:
    def test_sum_and_difference_add_the_errors(self):
        a = special.EvalResult(2.0, 0.25, "series")
        b = special.EvalResult(0.5, 0.125, "series")
        assert a + b == special.EvalResult(2.5, 0.375, "series")
        assert a - b == special.EvalResult(1.5, 0.375, "series")

    def test_negative_scale_keeps_the_error_non_negative(self):
        scaled = -3.0 * special.EvalResult(2.0, 0.25, "euler_quadrature")
        assert scaled == special.EvalResult(-6.0, 0.75, "euler_quadrature")

    def test_results_and_arguments_use_slots(self):
        assert not hasattr(special.EvalResult(1.0, 0.0, "series"), "__dict__")
        args = HypArgs(0.5, 0.5, 1.0, 0.5)
        assert not hasattr(args, "__dict__")
        assert dataclasses.replace(args, z=0.25) == HypArgs(0.5, 0.5, 1.0, 0.25)

    @pytest.mark.parametrize("build, field", [
        (lambda: HypArgs(a=0.5, b=0.25, c=1.5, z=0.75, w=0.25), "z"),
        (lambda: special.EvalResult(value=1.5, err_estimate=1e-16, method="series"), "value"),
        (lambda: PQParams(p=2.5, q=3.0), "pi_pq"),
    ])
    def test_records_keep_the_frozen_dataclass_contract(self, build, field):
        record, twin = build(), build()
        assert record.__dataclass_params__.frozen and not hasattr(record, "__dict__")
        assert record == twin and record is not twin and hash(record) == hash(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 0.5)
        assert record == twin
        shown = ", ".join(f"{f.name}={getattr(record, f.name)!r}"
                          for f in dataclasses.fields(record))
        assert repr(record) == f"{type(record).__name__}({shown})"

    def test_arguments_validate_on_every_construction(self):
        args = HypArgs(a=0.5, b=0.25, c=1.5, z=0.75)
        assert args.w is None
        assert args == HypArgs(0.5, 0.25, 1.5, 0.75)
        with pytest.raises(DomainError):
            dataclasses.replace(args, z=1.5)
        with pytest.raises(DomainError):
            dataclasses.replace(args, c=-2.0)
        params = PQParams(2.5, 3.0)
        assert (params.inv_p, params.inv_q) == (1.0 / 2.5, 1.0 / 3.0)
        assert dataclasses.replace(params, q=4.0) == PQParams(2.5, 4.0)
        with pytest.raises(DomainError):
            dataclasses.replace(params, p=1.0)

    def test_route_tags_join_their_distinct_parts(self):
        def tagged(method):
            return special.EvalResult(1.0, 0.0, method)

        assert (tagged("euler_quadrature+series") + tagged("series")).method == (
            "euler_quadrature+series")
        assert (tagged("gauss_closed_form+series") - tagged("euler_quadrature")).method == (
            "euler_quadrature+gauss_closed_form+series")
        same = tagged("connection+series")
        assert (same + tagged("connection+series")).method is same.method


class TestGaussValueAtOne:
    def test_gamma_ratio(self):
        assert gauss_value_at_one(0.5, 0.5, 2.0) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_vanishing_parameter(self):
        assert gauss_value_at_one(0.0, 3.7, 1.2) == 1.0
        # c - a - b = -1, but every term past n = 0 vanishes, as at z < 1.
        assert gauss_2f1(HypArgs(0.0, 2.0, 1.0, 1.0)).value == 1.0

    def test_kernel_endpoint_ingredient(self):
        # (1/q, 1-1/p, 2+1/q-1/p) at p=q=2 gives the same 4/pi ratio
        assert gauss_value_at_one(0.5, 0.5, 2.0) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_divergent(self):
        with pytest.raises(DivergenceError):
            gauss_value_at_one(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("a, b, c", [(-0.5, 0.5, 0.25), (-1.2, -0.3, -0.5)])
    def test_negative_gamma_arguments_give_a_signed_value(self, a, b, c):
        # c - a or c - b (and c) negative: a finite sum, -2.18844 and 0.469141.
        with mpmath.workdps(30):
            exact = float(mpmath.hyp2f1(a, b, c, 1))
        assert gauss_value_at_one(a, b, c) == pytest.approx(exact, rel=1e-14)

    def test_signed_value_through_gauss_2f1(self):
        result = gauss_2f1(HypArgs(-0.5, 0.5, 0.25, 1.0))
        assert result.value == gauss_value_at_one(-0.5, 0.5, 0.25)
        assert result.method == "gauss_closed_form"

    def test_pole_of_a_denominator_gamma_gives_zero(self):
        # Gamma(c - a) = Gamma(-1) is a pole, where 1 / Gamma vanishes.
        assert gauss_value_at_one(2.0, -2.5, 1.0) == 0.0

    def test_difference_rounding_onto_a_pole_is_not_a_pole(self):
        # c - b is -1 in floating point, -1 - 2**-54 exactly: Gamma(c - b) is finite.
        a, c = -2.4086215710799745, 0.05285407241974721
        b = c + 1.0
        assert c - b == -1.0
        result = gauss_2f1(HypArgs(a, b, c, 1.0))
        assert result.value == gauss_value_at_one(a, b, c)
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c), 1)
        assert float(exact) == pytest.approx(6.9957e-16, rel=1e-4)
        assert float(abs(mpmath.mpf(result.value) - exact)) <= result.err_estimate

    def test_estimate_bounds_the_error(self):
        # The gamma ratio's rounding grows with its log-gammas, past 8e-16 relative
        # on about half of these samples.
        rng = random.Random(20261021)
        checked = 0
        while checked < 100:
            a, b, c = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.01, 6.0)
            if c - a - b < 0.05:
                continue
            result = gauss_2f1(HypArgs(a, b, c, 1.0))
            with mpmath.workdps(40):
                exact = mpmath.hyp2f1(mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c), 1)
            assert float(abs(mpmath.mpf(result.value) - exact)) <= result.err_estimate, (a, b, c)
            checked += 1

    @staticmethod
    def _error_at_one(a, b, c):
        """gauss_2f1 at z = 1 and its error against 40-digit mpmath, relative to the value."""
        result = gauss_2f1(HypArgs(a, b, c, 1.0))
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c), 1)
            err = float(abs(mpmath.mpf(result.value) - exact))
        assert err <= result.err_estimate, (a, b, c)
        return result, err / abs(float(exact))

    def test_small_gap_is_read_exactly(self):
        # c - a - b is 1.09995e-12 exactly but 1.09990e-12 in floating point, and
        # Gamma(gap) magnified that rounding to 5.0e-5 relative.
        result, rel = self._error_at_one(0.3, 0.7 - 1e-12, 1.0 + 1e-13)
        assert result.value == pytest.approx(2.341172753e11, rel=1e-9)
        assert rel <= 1e-14

    @pytest.mark.parametrize("distance", [1e-14, 1e-12, 1e-8])
    def test_difference_beside_a_negative_pole_is_read_exactly(self, distance):
        # c - b lies about `distance` past -1, outside _integer_gap's tolerance: the
        # rounding of its float was magnified 1 / distance times (5.6e-3 relative at 1e-14).
        a, c = -2.4086215710799745, 0.05285407241974721
        result, rel = self._error_at_one(a, c + 1.0 - distance, c)
        assert result.value == pytest.approx(-1.26024e-13 * distance / 1e-14, rel=0.01)
        assert rel <= 1e-14

    def test_negative_differences_lie_within_their_estimates(self):
        # c - b negative: between two poles, beside the pole above it or beside the one below.
        rng = random.Random(20261023)
        checked = 0
        while checked < 150:
            c, a = rng.uniform(-4.0, 4.0), rng.uniform(-6.0, 1.0)
            near = 10.0 ** rng.uniform(-14.0, -1.0)
            b = c + rng.randint(0, 3) + rng.choice((rng.random(), near, 1.0 - near))
            if c - b >= 0.0 or c - a - b < 0.05 or special._pole(c):
                continue
            self._error_at_one(a, b, c)
            checked += 1

    def test_connection_formula_meets_the_sum_as_w_vanishes(self):
        # At w = 1e-300 DLMF 15.8.4's second term is below an ulp of its first, and
        # F(a, b; 1 - g; w) = 1: A, read by the same reader, is the sum bit for bit.
        rng = random.Random(30)
        families = []
        for _ in range(400):
            a, b, g = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 0.9)
            if 0.05 < a + b + g < 6.0:
                families.append((a, b, a + b + g))
        assert len(families) == 219
        for a, b, c in families:
            result = gauss_2f1(HypArgs(a, b, c, 1.0, 1e-300))
            assert result.method == "connection", (a, b, c)
            assert result.value == gauss_value_at_one(a, b, c), (a, b, c)

    def test_c_at_a_pole_is_refused(self):
        # c - a - b = 1 converges, but Gamma(c) = Gamma(-1) is a pole.
        with pytest.raises(DomainError, match="non-positive integer"):
            gauss_value_at_one(-2.5, 0.5, -1.0)

    def test_double_range_edge(self):
        # exp(709.09) = 8.99e307 is kept; about 2^1200 is refused, not inf.
        assert gauss_value_at_one(-511.75, -511.75, 0.5) == pytest.approx(
            8.98956350187315e307, rel=1e-12)
        with pytest.raises(DivergenceError, match="double range"):
            gauss_value_at_one(-600.5, -600.5, 0.5)


class TestTanhSinh:
    def test_refuses_when_the_levels_run_out(self):
        # Two halvings cannot resolve cos(400 t); the last estimate, 0.0951,
        # is far from sin(400) / 400 = -0.00213.
        def integrand(t, tm):
            return math.cos(400.0 * t)

        with pytest.raises(DomainError, match="did not converge"):
            tanh_sinh_01(integrand, max_level=2)
        value, _ = tanh_sinh_01(integrand)
        assert value == pytest.approx(math.sin(400.0) / 400.0, rel=1e-12)


def _slope(args):
    return gauss_2f1_with_derivative(args)[1].value


class TestDerivative:
    def test_at_zero(self):
        assert _slope(HypArgs(0.7, 1.3, 2.1, 0.0)) == pytest.approx(0.7 * 1.3 / 2.1, rel=1e-14)

    def test_fd_oracle_log_case(self):
        # frozen central difference of F(1,1;2;.) at 0.5, step 1e-5
        assert _slope(HypArgs(1.0, 1.0, 2.0, 0.5)) == pytest.approx(1.227411277959778, abs=1e-8)

    def test_fd_oracle_elliptic_case(self):
        assert _slope(HypArgs(0.5, 0.5, 1.0, 0.25)) == pytest.approx(
            0.34487720618203704, abs=1e-8)

    def test_fd_parameter_grid(self):
        # 5x5x5 parameter grid, three arguments each
        h = 1e-5
        values = [0.25, 0.75, 1.25, 1.75, 2.25]
        for a in values:
            for b in values:
                for c_shift in values:
                    c = max(a, b) + c_shift
                    for z in (0.1, 0.5, 0.9):
                        analytic = _slope(HypArgs(a, b, c, z))
                        up = gauss_2f1(HypArgs(a, b, c, z + h)).value
                        down = gauss_2f1(HypArgs(a, b, c, z - h)).value
                        fd = (up - down) / (2.0 * h)
                        assert analytic == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_at_one_is_gauss_sum_of_the_shifted_family(self):
        # F' = (ab/c) 2F1(a+1, b+1; c+1; 1): finite when the shifted gap
        # c - a - b - 1 is positive, a divergence when it is not.
        value, slope = gauss_2f1_with_derivative(HypArgs(0.5, 0.5, 3.0, 1.0))
        assert value.method == slope.method == "gauss_closed_form"
        assert slope.value == pytest.approx(0.28294212105225836, rel=1e-14)
        with pytest.raises(DivergenceError):
            gauss_2f1_with_derivative(HypArgs(0.5, 0.5, 1.5, 1.0))

    def test_with_derivative_against_mpmath(self):
        # The five library families and generic ones with a negative a or b,
        # at z = 0, a seeded interior z and the switch: the joint series pass.
        rng = random.Random(20261020)
        families = []
        for _ in range(6):
            p, q = rng.uniform(1.1, 6.0), rng.uniform(1.1, 6.0)
            families += _library_families(p, q, 0.0, None).values()
        for _ in range(30):
            a, b = rng.uniform(-3.0, -0.05), rng.uniform(0.05, 3.0)
            families.append(HypArgs(*((a, b) if rng.random() < 0.5 else (b, a)),
                                    rng.uniform(0.3, 4.0), 0.0))
        with mpmath.workdps(30):
            for family in families:
                a, b, c = family.a, family.b, family.c
                for z in (0.0, rng.uniform(0.0, 0.9), special.SERIES_SWITCH):
                    args = HypArgs(a, b, c, z)
                    value, slope = gauss_2f1_with_derivative(args)
                    exact = (mpmath.hyp2f1(a, b, c, z),
                             a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z))
                    # The plain pass, on its own term count, under the same contract.
                    plain = gauss_2f1(args)
                    for res, ref in zip((value, slope, plain), (*exact, exact[0])):
                        assert res.method == "series"
                        err = float(abs(mpmath.mpf(res.value) - ref))
                        assert err <= 1e-14 * max(1.0, abs(float(ref))), (family, z)
                        assert err <= res.err_estimate, (family, z)

    def test_with_derivative_above_the_switch_is_the_shifted_family(self):
        # A gap m >= 0 takes the joint connection pass; F2's gap -1 and a
        # non-integer gap fall back to exactly gauss_2f1 and its shifted family.
        samples = _connection_samples(3, 2, 2)
        samples += [HypArgs(0.5, 0.3, 1.7, args.z, args.w) for args in samples[::5]]
        for args in samples:
            m = special._integer_gap(args.a, args.b, args.c)
            pair = gauss_2f1_with_derivative(args)
            if m is None or m < 0:
                assert pair == (gauss_2f1(args),
                                args.a * args.b / args.c * gauss_2f1(_shifted(args)))
                continue
            for res, ref in zip(pair, _exact_with_derivative(args, m)):
                assert res.method == "connection"
                err = float(abs(mpmath.mpf(res.value) - ref))
                assert err <= 1e-14 * abs(float(ref)), args
                assert err <= res.err_estimate, args

    def test_gauss_2f1_calls_above_the_switch(self, monkeypatch):
        calls = []
        monkeypatch.setattr(special, "gauss_2f1",
                            lambda args, real=special.gauss_2f1: calls.append(args) or real(args))
        gauss_2f1_with_derivative(HypArgs(0.5, 0.3, 0.8, 0.95))  # gap 0: the joint connection pass
        assert calls == []
        # A non-integer gap: the family, then its shifted family.
        gauss_2f1_with_derivative(HypArgs(0.5, 0.3, 1.7, 0.95))
        assert [args.c for args in calls] == [1.7, 2.7]

    def test_connection_pass_calibration(self):
        # The curvature's family (1 + 1/q, 2 - 1/p; 3 + 1/q - 1/p), always on
        # the joint connection pass, and generic a, b > 0 with m = 0, 1, 2,
        # which may fall back; w log-uniform on [1e-12, 0.1].
        rng = random.Random(20261020)
        ratios = []
        for i in range(200):
            w = 10.0 ** rng.uniform(-12.0, -1.0)
            if i % 2 == 0:
                p, q = rng.uniform(1.1, 6.0), rng.uniform(1.1, 6.0)
                args, m = HypArgs(1.0 + 1.0 / q, 2.0 - 1.0 / p, 3.0 + 1.0 / q - 1.0 / p,
                                  1.0 - w, w), 0
            else:
                a, b, m = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0), rng.choice((0, 1, 2))
                args = HypArgs(a, b, a + b + m, 1.0 - w, w)
            pair = gauss_2f1_with_derivative(args)
            for res, ref in zip(pair, _exact_with_derivative(args, m)):
                assert res.method == "connection" or i % 2, args
                err = float(abs(mpmath.mpf(res.value) - ref))
                assert err <= 1e-13 * abs(float(ref)), args
                assert err <= res.err_estimate, args
                ratios.append(res.err_estimate / err if err else math.inf)
        assert statistics.median(ratios) <= 100.0


def _exact_with_derivative(args, m):
    """30-digit F and F' of (a, b; a + b + m) at z = 1 - w, the gap taken exact."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(args.a), mpmath.mpf(args.b)
        c, z = a + b + m, 1 - mpmath.mpf(args.w)
        return mpmath.hyp2f1(a, b, c, z), a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)


class TestContiguousResidual:
    def test_vanishes_at_zero_up_to_rounding(self):
        # every series is exactly 1 at z = 0, so only coefficient rounding remains
        assert abs(contiguous_residual(2.3, 0.7, 1.1, 0.0)) < 1e-15

    def test_proof_instantiation(self):
        p = q = 2.0
        sigma = 3.0 + 1.0 / q - 1.0 / p
        alpha = 1.0 + 1.0 / q
        rho = 2.0 - 1.0 / p
        z = 1.0 - 0.5 ** p
        assert abs(contiguous_residual(sigma, alpha, rho, z)) < 1e-11

    @given(st.floats(1.0, 5.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
           st.floats(0.0, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_identity_sweep(self, sigma, alpha, rho, z):
        assert abs(contiguous_residual(sigma, alpha, rho, z)) < 1e-10


class TestSeriesIntegralAgreement:
    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0),
           st.floats(0.0, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_oracle_coherence(self, a, b, c_shift, z):
        c = b + c_shift
        args = HypArgs(a, b, c, z)
        series = gauss_2f1(args).value
        oracle = euler_integral_oracle(args).value
        assert abs(series - oracle) < 1e-9 * (1.0 + abs(series))


class TestBoundaryConsistency:
    def test_monotone_approach_to_closed_form(self):
        # parameter family with c - a - b = 1, well above the 0.2 guard
        for p, q in ((1.5, 2.0), (2.0, 3.0), (4.0, 1.5)):
            a, b, c = 1.0 / q, 1.0 - 1.0 / p, 2.0 + 1.0 / q - 1.0 / p
            limit = gauss_value_at_one(a, b, c)
            diffs = [abs(gauss_2f1(HypArgs(a, b, c, z)).value - limit)
                     for z in (1 - 1e-3, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6)]
            assert diffs[-1] < 1e-4
            assert all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))


class TestLegendreTransformationAnchor:
    def test_quadratic_transformation(self):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            lhs = math.pi / 2.0 * gauss_2f1(HypArgs(0.5, 0.5, 1.0, r * r)).value
            assert abs(lhs - legendre_K_agm(r)) < 1e-12
