"""The difference function: kernel identities, derivatives, admissibility,
and the sharp bounds."""

import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqelliptic import (
    CancellationWarning,
    DeltaConstants,
    DivergenceError,
    DomainError,
    E_pq,
    EvalResult,
    H_closed,
    H_def,
    HypArgs,
    InadmissibleWarning,
    K_pq,
    PQParams,
    admissible,
    condition1,
    delta,
    delta_prime,
    delta_second,
    delta_second_sign_variant,
    delta_via_elliptic,
    epsilon,
    gauss_2f1,
    gauss_2f1_with_derivative,
    legendre_E_agm,
    legendre_K_agm,
    pi_pq,
    product_gap,
    product_gap_in_bounds,
    sharp_linear_bounds,
)
from pqelliptic import delta_analysis, elliptic, gentrig
from pqelliptic.delta_analysis import delta_prime_result, delta_result, delta_second_result

P22 = PQParams(2.0, 2.0)

# AGM-backed direct-formula oracles, frozen:
DELTA_22_AT_06 = -0.04526963881488244
GAP_22_HALF_HALF = 0.0012503640104155611


def classical_delta_agm(r: float) -> float:
    """Independent route: the defining formula with AGM-backed K and E."""
    comp = math.sqrt((1.0 - r) * (1.0 + r))
    k, e = legendre_K_agm(r), legendre_E_agm(r)
    kc, ec = legendre_K_agm(comp), legendre_E_agm(comp)
    r2 = r * r
    return (e - (1.0 - r2) * k) / r2 - (ec - r2 * kc) / (1.0 - r2)


class TestKernel:
    def test_defining_form_unfolds_to_classical_integrals(self):
        # H(r) = (E - (r')**2 K) / r**2 at p = q = 2, with AGM-backed K, E
        for r in (0.3, 0.5, 0.8):
            k, e = legendre_K_agm(r), legendre_E_agm(r)
            expected = (e - (1.0 - r * r) * k) / (r * r)
            assert H_def(0.5, 0.5, r) == pytest.approx(expected, abs=1e-10)

    def test_right_endpoint_drops_second_term(self):
        # at r = 1 only the first series term survives the bracket
        a, b = 0.35, 0.6
        at_one = gauss_2f1(HypArgs(a, -b, 1.0 + a - b, 1.0)).value
        expected = pi_pq(1.0 / b, 1.0 / a) / 2.0 * at_one
        assert H_def(a, b, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_defining_vs_closed_form_point(self):
        assert H_def(0.5, 0.5, 0.8) == pytest.approx(H_closed(0.5, 0.5, 0.8), abs=1e-10)

    @given(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.3, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_defining_vs_closed_form_random(self, a, b, r):
        # the strategy bounds keep the internal argument above ~6e-6, where
        # the defining combination still carries enough digits for 1e-9
        # even inside the warned cancellation band
        closed = H_closed(a, b, r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CancellationWarning)
            defined = H_def(a, b, r)
        assert abs(defined - closed) < 1e-9 * (1.0 + abs(closed))

    def test_cancellation_warning(self):
        with pytest.warns(CancellationWarning):
            H_def(0.5, 0.5, 0.04)  # internal argument 0.0016

    def test_closed_form_endpoints(self):
        for p, q in ((2.0, 2.0), (1.7, 3.1), (4.0, 1.4)):
            a, b = 1.0 / q, 1.0 / p
            at_zero = H_closed(a, b, 0.0)
            expected = (1.0 - 1.0 / p) * PQParams(p, q).pi_pq / (2.0 * (1.0 + a - b))
            assert at_zero == pytest.approx(expected, rel=1e-13)
            assert H_closed(a, b, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_classical_endpoint_is_gamma_ratio(self):
        # (pi/4) * F(1/2, 1/2; 2; 1) = (pi/4) * (4/pi) = 1
        assert H_closed(0.5, 0.5, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_defining_form_is_the_public_combination(self):
        # H_{a,b} is (E - (1 - r**p) K) / r**p at (p, q) = (1/b, 1/a), with
        # 1 - r**p formed exactly as the integrals form it.
        rng = random.Random(17)
        for _ in range(200):
            a, b = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            r = rng.uniform(delta_analysis.CANCELLATION_THRESHOLD ** b, 1.0)
            params = PQParams(1.0 / b, 1.0 / a)
            x, w = gentrig._power_pair(params.p, r)
            expected = (E_pq(params, r).value - w * K_pq(params, r).value) / x
            assert abs(H_def(a, b, r) - expected) <= 4 * math.ulp(expected)

    def test_underflowing_power_is_a_domain_error(self):
        # r**2 underflows to 0: the combination divides by it, and no warning comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                H_def(0.5, 0.5, 1e-200)

    def test_domains(self):
        with pytest.raises(DomainError):
            H_def(0.5, 0.5, 0.0)
        with pytest.raises(DomainError):
            H_closed(0.5, 1.2, 0.5)


class TestDelta:
    def test_classical_endpoint_limits(self):
        assert delta(P22, 0.0) == pytest.approx(math.pi / 4.0 - 1.0, abs=1e-10)
        assert delta(P22, 1.0) == pytest.approx(1.0 - math.pi / 4.0, abs=1e-10)

    def test_vanishes_at_self_complementary_point(self):
        for p, q in ((2.0, 2.0), (3.0, 1.5), (1.6, 2.4)):
            params = PQParams(p, q)
            assert abs(delta(params, 2.0 ** (-1.0 / p))) < 1e-12

    def test_against_agm_backed_direct_formula(self):
        assert delta(P22, 0.6) == pytest.approx(DELTA_22_AT_06, abs=1e-10)
        for r in (0.2, 0.45, 0.85):
            assert delta(P22, r) == pytest.approx(classical_delta_agm(r), abs=1e-10)

    def test_route_equivalence(self):
        for p, q in ((2.0, 2.0), (2.5, 1.8), (1.5, 3.5)):
            params = PQParams(p, q)
            for r in (0.05, 0.3, 0.6, 0.95):
                assert abs(delta(params, r) - delta_via_elliptic(params, r)) < 1e-9

    @given(st.floats(1.1, 5.0), st.floats(1.1, 5.0), st.floats(0.02, 0.98))
    @settings(max_examples=80, deadline=None)
    def test_antisymmetry(self, p, q, r):
        params = PQParams(p, q)
        comp = (1.0 - r ** p) ** (1.0 / p)
        assert abs(delta(params, comp) + delta(params, r)) < 1e-12

    def test_route_tag_names_every_route(self):
        # At r = 0.2 the kernel argument is x = 0.04, so the 2F1 at 1 - x = 0.96
        # runs on the connection formula while the one at x runs on the series.
        for result in (delta_result, delta_prime_result, delta_second_result):
            assert result(P22, 0.2).method == "connection+series"
            assert result(P22, 0.5).method == "series"

    @pytest.mark.parametrize("r", [1e-3, 0.2, 0.5, 0.93, 0.9999])
    def test_one_result_has_the_bits_of_the_operator_expression(self, r):
        # K_pq, E_pq, delta and delta_prime compose floats as EvalResult's
        # scale *, + and - do; the operator expressions are the reference.
        params = PQParams(2.5, 3.0)
        x, w = gentrig._power_pair(params.p, r)
        half_pi = 0.5 * params.pi_pq
        for first_kind, result in ((True, K_pq), (False, E_pq)):
            expected = half_pi * gauss_2f1(elliptic._complete_args(params, first_kind, x, w))
            assert result(params, r) == expected
        a, b = params.inv_q, params.inv_p
        at_zero = delta_analysis._kernel_at_zero(a, b, params.pi_pq)
        assert delta_result(params, r) == (
            at_zero * gauss_2f1(delta_analysis._kernel_args(a, b, x, w))
            - at_zero * gauss_2f1(delta_analysis._kernel_args(a, b, w, x)))
        a1, b1, c1 = delta_analysis._derivative_front(params)
        scale = DeltaConstants.for_params(params).eta * r ** (params.p - 1.0)
        assert delta_prime_result(params, r) == scale * (
            gauss_2f1(HypArgs(a1, b1, c1, x, w)) + gauss_2f1(HypArgs(a1, b1, c1, w, x)))
        # The curvature reads the floats of the joint pass's private core: the public
        # wrapper's results, composed by the same formula, are its reference.
        f1x, d1x = gauss_2f1_with_derivative(HypArgs(a1, b1, c1, x, w))
        f1y, d1y = gauss_2f1_with_derivative(HypArgs(a1, b1, c1, w, x))
        p, to_f2 = params.p, c1 / (a1 * b1)
        front = (p - 1.0) * r ** (p - 2.0)
        back = p * r ** (2.0 * p - 2.0) * (a1 * b1 / c1)
        eta = DeltaConstants.for_params(params).eta
        f2x, f2y = to_f2 * d1x.value, to_f2 * d1y.value
        err = eta * (front * (f1x.err_estimate + f1y.err_estimate)
                     + back * (to_f2 * d1x.err_estimate + to_f2 * d1y.err_estimate))
        assert delta_second_result(params, r) == EvalResult(
            eta * (front * (f1x.value + f1y.value) + back * (f2x - f2y)), err,
            (f1x + f1y + d1x + d1y).method)
        assert delta_second_sign_variant(params, r) == (
            eta * (front * (f1x.value - f1y.value) + back * (f2x + f2y)))

    def test_subnormal_power_reaches_the_zero_limit(self):
        # r**p = 1e-320 is subnormal; the kernel at 1 - r**p runs on its complement.
        limit = DeltaConstants.for_params(P22).delta0
        assert delta(P22, 1e-160) == pytest.approx(limit, rel=1e-14)
        # The F2 term at the complement grows like r**-p, past the double range.
        with pytest.raises(DivergenceError):
            delta_second(P22, 1e-160)

    def test_kernel_coefficient_is_the_cached_constant(self, monkeypatch):
        # The kernel's r = 0 value needs pi_{1/b,1/a} = pi_{p,q}, which
        # PQParams already holds: no pi_pq call per point.
        calls = []

        def counted(*args):
            calls.append(args)
            return pi_pq(*args)

        monkeypatch.setattr(delta_analysis, "pi_pq", counted)
        delta_result(PQParams(2.5, 3.0), 0.4)
        assert calls == []

    def test_domain(self):
        with pytest.raises(DomainError):
            delta(P22, -0.2)
        with pytest.raises(DomainError):
            delta_via_elliptic(P22, 1.0)


class TestDeltaConstants:
    def test_sign_split(self):
        for p, q in ((1.2, 1.2), (2.0, 5.0), (8.0, 1.5), (3.3, 2.7)):
            c = DeltaConstants.for_params(PQParams(p, q))
            assert c.delta0 < 0.0 < c.delta1
            assert c.delta1 == -c.delta0
            assert c.beta1 == pytest.approx(-2.0 * c.delta0, rel=1e-15)

    @pytest.mark.parametrize("p, q", [(1.5, 4.0), (2.5, 3.0), (3.7, 1.6), (6.0, 1.2)])
    def test_endpoint_limits_against_mpmath(self, p, q):
        # delta0 = H(0) - 1 with H(0) = (1 - 1/p) pi_pq / (2 (1 + 1/q - 1/p)) (Lemma 2.4);
        # H(0) is near 1, so the subtraction leaves an absolute, not relative, rounding.
        c = DeltaConstants.for_params(PQParams(p, q))
        with mpmath.workdps(30):
            ip, iq = 1 / mpmath.mpf(p), 1 / mpmath.mpf(q)
            pi = 2 * iq * mpmath.beta(1 - ip, iq)
            expected = float((1 - ip) * pi / (2 * (1 + iq - ip)) - 1)
        assert c.delta0 == pytest.approx(expected, abs=1e-14)
        assert c.delta1 == -c.delta0

    def test_built_once_per_pair(self):
        assert DeltaConstants.for_params(PQParams(2.5, 3.0)) is DeltaConstants.for_params(
            PQParams(2.5, 3.0))

    def test_classical_values(self):
        c = DeltaConstants.for_params(P22)
        assert c.delta0 == pytest.approx(math.pi / 4.0 - 1.0, rel=1e-14)
        assert c.beta1 == pytest.approx(2.0 - math.pi / 2.0, rel=1e-14)
        assert round(c.beta1, 5) == 0.42920


def _mp_slope_and_curvature(p, q, r):
    """30-digit closed-form slope and curvature at the double inputs (p, q, r)."""
    with mpmath.workdps(30):
        p, q, r = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(r)
        ip, iq = 1 / p, 1 / q
        pi_pq = 2 / q * mpmath.beta(1 - ip, iq)
        eta = (p / q) * (1 - ip) ** 2 * pi_pq / (2 * (1 + iq - ip) * (2 + iq - ip))
        a1, b1, c1 = 1 + iq, 2 - ip, 3 + iq - ip
        x = r ** p
        f1 = mpmath.hyp2f1(a1, b1, c1, x) + mpmath.hyp2f1(a1, b1, c1, 1 - x)
        f2 = (mpmath.hyp2f1(a1 + 1, b1 + 1, c1 + 1, x)
              - mpmath.hyp2f1(a1 + 1, b1 + 1, c1 + 1, 1 - x))
        slope = eta * r ** (p - 1) * f1
        curvature = eta * ((p - 1) * r ** (p - 2) * f1
                           + p * r ** (2 * p - 2) * (a1 * b1 / c1) * f2)
        return float(slope), float(curvature)


class TestDerivatives:
    def test_small_r_against_mpmath(self):
        # 1 - r**p rounds to 1 at the first point (r**p = 8.6e-19), and the
        # complement terms run at z > 0.9 at the others.
        slope, _ = _mp_slope_and_curvature(4.996, 3.859, 2.43e-4)
        assert slope == pytest.approx(1.5213e-13, rel=1e-4)
        assert delta_prime(PQParams(4.996, 3.859), 2.43e-4) == pytest.approx(slope, rel=1e-13)
        slope, _ = _mp_slope_and_curvature(5.75, 3.31, 0.089)
        assert delta_prime(PQParams(5.75, 3.31), 0.089) == pytest.approx(slope, rel=1e-13)
        _, curvature = _mp_slope_and_curvature(2.0, 2.0, 1e-3)
        assert delta_second(P22, 1e-3) == pytest.approx(curvature, rel=1e-13)

    def test_slope_matches_finite_differences(self):
        h = 1e-5
        for p, q in ((2.0, 2.0), (2.25, 3.0), (2.5, 1.6)):
            params = PQParams(p, q)
            for r in (0.15, 0.5, 0.85):
                fd = (delta(params, r + h) - delta(params, r - h)) / (2.0 * h)
                assert delta_prime(params, r) == pytest.approx(fd, abs=1e-8)

    def test_slope_limit_at_zero(self):
        assert delta_prime(P22, 0.0) == 0.0
        values = [abs(delta_prime(PQParams(2.5, 1.8), r)) for r in (1e-2, 1e-3, 1e-4)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-4  # decays like r**(p-1) * log(1/r)

    def test_slope_symmetric_point_closed_form(self):
        # both hypergeometric terms coincide at the self-complementary
        # point, collapsing the slope to a single series value; the
        # finite-difference probe confirms the c parameter is 3 + 1/q - 1/p
        params = PQParams(2.0, 2.0)
        c = DeltaConstants.for_params(params)
        r = 2.0 ** -0.5
        f_half = gauss_2f1(HypArgs(1.5, 1.5, 3.0, 0.5)).value
        closed = c.eta * r * 2.0 * f_half
        assert delta_prime(params, r) == pytest.approx(closed, rel=1e-13)
        h = 1e-5
        fd = (delta(params, r + h) - delta(params, r - h)) / (2.0 * h)
        assert closed == pytest.approx(fd, abs=1e-8)

    def test_curvature_matches_second_differences_of_delta(self):
        h = 1e-4
        fd2 = (delta(P22, 0.5 + h) - 2.0 * delta(P22, 0.5) + delta(P22, 0.5 - h)) / (h * h)
        assert delta_second(P22, 0.5) == pytest.approx(fd2, abs=1e-6)

    def test_curvature_matches_slope_differences(self):
        h = 1e-6
        for p, q in ((2.0, 2.0), (2.25, 2.5)):
            params = PQParams(p, q)
            for r in (0.3, 0.7):
                fd = (delta_prime(params, r + h) - delta_prime(params, r - h)) / (2.0 * h)
                assert delta_second(params, r) == pytest.approx(fd, abs=1e-7)

    def test_curvature_symmetric_point_drops_difference_term(self):
        params = PQParams(2.2, 1.8)
        c = DeltaConstants.for_params(params)
        p = params.p
        r = 2.0 ** (-1.0 / p)
        f1_half = gauss_2f1(HypArgs(1.0 + params.inv_q, 2.0 - params.inv_p,
                                    3.0 + params.inv_q - params.inv_p, 0.5)).value
        expected = c.eta * (p - 1.0) * 2.0 ** ((2.0 - p) / p) * 2.0 * f1_half
        assert delta_second(params, r) == pytest.approx(expected, rel=1e-12)

    def test_sign_variant_disagrees_with_finite_differences(self):
        # the finite-difference probe arbitrates between the two printed
        # sign patterns: the termwise derivative wins everywhere
        h = 1e-6
        params = PQParams(2.25, 3.0)
        r = 0.4
        fd = (delta_prime(params, r + h) - delta_prime(params, r - h)) / (2.0 * h)
        analytic = delta_second(params, r)
        variant = delta_second_sign_variant(params, r)
        assert abs(analytic - fd) < 1e-7
        assert abs(variant - fd) > 1e-2

    @staticmethod
    def _curvature_inputs(rng):
        """A seeded (params, r) with r near 0, inside, or near 1, the shift
        a1*b1/c1, x = r**p, and F1, F2 at x and at 1 - x, with
        F2 = (c1/(a1 b1)) F1' from the one pass that gives F1 and F1'."""
        params = PQParams(rng.uniform(1.1, 6.0), rng.uniform(1.1, 6.0))
        r = rng.choice((rng.uniform(1e-6, 1e-3), rng.uniform(1e-3, 1.0 - 1e-3),
                        1.0 - rng.uniform(1e-6, 1e-3)))
        a1, b1, c1 = 1.0 + params.inv_q, 2.0 - params.inv_p, 3.0 + params.inv_q - params.inv_p
        x, y = gentrig._power_pair(params.p, r)
        (f1x, d1x), (f1y, d1y) = (gauss_2f1_with_derivative(HypArgs(a1, b1, c1, z, w))
                                  for z, w in ((x, y), (y, x)))
        f2x, f2y = (c1 / (a1 * b1)) * d1x, (c1 / (a1 * b1)) * d1y
        return params, r, a1 * b1 / c1, x, f1x, f1y, f2x, f2y

    def test_curvature_is_the_analytic_composition_bit_for_bit(self):
        rng = random.Random(18)
        for _ in range(60):
            params, r, shift, _, f1x, f1y, f2x, f2y = self._curvature_inputs(rng)
            eta, p = DeltaConstants.for_params(params).eta, params.p
            front, back = (p - 1.0) * r ** (p - 2.0), p * r ** (2.0 * p - 2.0) * shift
            result = delta_second_result(params, r)
            assert result.value == eta * (front * (f1x.value + f1y.value)
                                          + back * (f2x.value - f2y.value))
            assert result.err_estimate == eta * (
                front * (f1x.err_estimate + f1y.err_estimate)
                + back * (f2x.err_estimate + f2y.err_estimate))

    def test_sign_variant_is_the_transposed_composition(self):
        # eta r**(p-2) ((p-1)(F1x - F1y) + p (a1 b1/c1) x (F2x + F2y)), to rounding
        rng = random.Random(18)
        for _ in range(60):
            params, r, shift, x, f1x, f1y, f2x, f2y = self._curvature_inputs(rng)
            eta, p = DeltaConstants.for_params(params).eta, params.p
            f1x, f1y, f2x, f2y = (f.value for f in (f1x, f1y, f2x, f2y))
            expected = eta * r ** (p - 2.0) * ((p - 1.0) * (f1x - f1y)
                                               + p * shift * x * (f2x + f2y))
            scale = eta * r ** (p - 2.0) * ((p - 1.0) * (abs(f1x) + abs(f1y))
                                            + p * shift * x * (abs(f2x) + abs(f2y)))
            assert abs(delta_second_sign_variant(params, r) - expected) <= 8 * math.ulp(scale)

    def test_domains(self):
        with pytest.raises(DomainError):
            delta_prime(P22, 1.0)
        with pytest.raises(DomainError):
            delta_second(P22, 0.0)


class TestAdmissibility:
    def test_epsilon_exact_rational(self):
        assert epsilon(Fraction(2), Fraction(2)) == Fraction(39, 16)
        assert epsilon(2, 2) == Fraction(39, 16)
        assert float(epsilon(Fraction(2), Fraction(2))) == 2.4375

    def test_epsilon_independent_arithmetic(self):
        # recomputed term by term: 20 - 21 + 2 + 21/4 - 2/9 - 10/3 + 3/4 - 3/8 - 1/24
        assert epsilon(Fraction(2), Fraction(3)) == Fraction(109, 36)

    def test_epsilon_float_inputs(self):
        # A float in either place gives the exact value, correctly rounded.
        rng = random.Random(20261019)
        pairs = [(2.0, 2.0), (2, 2.0)]
        pairs += [(rng.uniform(1.01, 6.0), rng.uniform(1.01, 6.0)) for _ in range(2000)]
        for p, q in pairs:
            value = epsilon(p, q)
            assert isinstance(value, float)
            assert value == float(epsilon(Fraction(p), Fraction(q))), (p, q)
        assert epsilon(2.0, 2.0) == 2.4375

    def test_epsilon_limit(self):
        assert epsilon(1e9, 1e9) == pytest.approx(20.0, abs=1e-6)

    def test_condition1_cases(self):
        assert condition1(2, 2) is True  # 2.75 <= 3 < 3.25
        assert condition1(1.2, 2) is False  # 5/p alone exceeds 3 + 1/p**2
        # exact upper boundary: 5/2 + 3/4 = 13/4 = 3 + 1/4 -> strict < fails
        assert condition1(2, Fraction(4, 3)) is False
        # exact lower boundary: equality is allowed
        assert condition1(2, 4) is True

    def test_admissible_cases(self):
        assert admissible(2, 2) is True
        assert admissible(1.2, 2) is False

    def test_admissibility_is_conjunction_with_strict_epsilon(self):
        # pins the definition: condition1 AND epsilon strictly positive
        # (an exact zero margin must classify as inadmissible)
        for p, q in ((2, 2), (1.2, 2), (2, 4), (2, Fraction(4, 3)), (3, 1.2),
                     (2.5, 1.75), (10, 10)):
            expected = condition1(p, q) and epsilon(Fraction(p), Fraction(q)) > 0
            assert admissible(p, q) == expected

    def test_exact_classification_near_epsilon_root(self):
        # epsilon(., 2) changes sign between p = 1.2 and p = 2; after 80
        # exact bisections the bracket is ~1e-24 wide, yet the rational
        # arithmetic still classifies both sides unambiguously
        lo, hi = Fraction(12, 10), Fraction(2, 1)
        for _ in range(80):
            mid = (lo + hi) / 2
            if epsilon(mid, Fraction(2)) > 0:
                hi = mid
            else:
                lo = mid
        assert epsilon(hi, Fraction(2)) > 0
        assert epsilon(lo, Fraction(2)) <= 0
        assert hi - lo < Fraction(1, 10 ** 20)

    def test_domain(self):
        with pytest.raises(DomainError):
            admissible(1.0, 2.0)
        with pytest.raises(DomainError):
            condition1(2.0, 0.3)

    @pytest.mark.parametrize("p, error", [(math.inf, OverflowError), (math.nan, ValueError)])
    @pytest.mark.parametrize("decide", [condition1, epsilon])
    def test_non_finite_inputs_raise(self, decide, p, error):
        with pytest.raises(error):
            decide(p, 2.0)

    @pytest.mark.parametrize("p, q", [(0, 2), (0.5, 2), (1, 2.0), (2.0, 1.0),
                                      (Fraction(3, 2), Fraction(1, 2))])
    def test_epsilon_refuses_exponents_at_most_one(self, p, q):
        # The margin is defined only for p, q > 1, where condition1 and admissible are.
        with pytest.raises(DomainError):
            epsilon(p, q)


class TestSharpBounds:
    def test_classical_slope(self):
        lower, upper = sharp_linear_bounds(P22, 0.5)
        assert lower == pytest.approx(math.pi / 4.0 - 1.0, rel=1e-14)
        assert upper - lower == pytest.approx((2.0 - math.pi / 2.0) * 0.5, rel=1e-13)

    def test_strict_on_admissible_samples(self):
        for p, q in ((2.0, 2.0), (2.0, 3.0), (2.25, 2.0), (2.5, 1.75)):
            assert admissible(p, q)
            params = PQParams(p, q)
            for r in (0.05, 0.3, 0.6, 0.95):
                lower, upper = sharp_linear_bounds(params, r)
                assert lower < delta(params, r) < upper

    def test_upper_bound_sharp_at_one(self):
        # upper envelope at r -> 1 hits delta(1): delta0 + beta1 = delta1
        c = DeltaConstants.for_params(P22)
        assert c.delta0 + c.beta1 == pytest.approx(c.delta1, rel=1e-13)

    def test_both_bounds_squeeze_the_left_endpoint(self):
        c = DeltaConstants.for_params(P22)
        lower, upper = sharp_linear_bounds(P22, 1e-12)
        assert lower == pytest.approx(c.delta0, abs=1e-14)
        assert upper == pytest.approx(c.delta0, abs=1e-11)

    def test_sharpness_sequences(self):
        params = PQParams(2.0, 3.0)
        c = DeltaConstants.for_params(params)
        low = [(delta(params, r) - c.delta0) / r for r in (1e-2, 1e-3, 1e-4)]
        assert low[0] > low[1] > low[2] > 0.0
        up = [c.delta0 + c.beta1 * r - delta(params, r) for r in (1 - 1e-2, 1 - 1e-3)]
        assert up[0] > up[1] > 0.0

    def test_inadmissible_warns_but_evaluates(self):
        params = PQParams(1.2, 2.0)
        with pytest.warns(InadmissibleWarning):
            lower, upper = sharp_linear_bounds(params, 0.5)
        assert lower < upper


class TestProductGap:
    def test_classical_value_against_agm_route(self):
        gap = product_gap(P22, 0.5, 0.5)
        assert gap == pytest.approx(GAP_22_HALF_HALF, abs=1e-10)
        assert gap == pytest.approx(
            classical_delta_agm(0.25) - 2.0 * classical_delta_agm(0.5), abs=1e-10)

    def test_endpoint_collapse_as_s_to_one(self):
        c = DeltaConstants.for_params(P22)
        gap = product_gap(P22, 0.4, 1.0 - 1e-9)
        assert gap == pytest.approx(c.delta0, abs=1e-6)

    def test_endpoint_value_as_r_to_zero(self):
        # gap(0, s) -> -delta(s)
        gap = product_gap(P22, 1e-9, 0.5)
        assert gap == pytest.approx(-delta(P22, 0.5), abs=1e-9)

    def test_in_bounds_point(self):
        assert product_gap_in_bounds(P22, 0.3, 0.7) is True

    def test_in_bounds_near_upper_corner(self):
        assert product_gap_in_bounds(P22, 1.0 - 1e-6, 1.0 - 1e-6) is True

    def test_grid(self):
        c = DeltaConstants.for_params(P22)
        for i in range(1, 20):
            for j in range(1, 20):
                r, s = i / 20.0, j / 20.0
                gap = product_gap(P22, r, s)
                assert c.delta0 < gap < c.delta1

    def test_inadmissible_warns(self):
        with pytest.warns(InadmissibleWarning):
            product_gap_in_bounds(PQParams(1.2, 2.0), 0.4, 0.6)


class TestMonotoneConvex:
    def test_increasing_and_convex_on_admissible_samples(self):
        for p, q in ((2.0, 2.0), (2.25, 2.5), (2.5, 1.75)):
            params = PQParams(p, q)
            grid = [0.05 * k for k in range(1, 20)]
            values = [delta(params, r) for r in grid]
            assert all(values[i] < values[i + 1] for i in range(len(grid) - 1))
            assert all(delta_second(params, r) > 0.0 for r in grid)
