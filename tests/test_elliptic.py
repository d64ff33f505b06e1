"""First/second-kind integrals, oracles, and the family bridges."""

import math
import random
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pqelliptic import (
    DivergenceError,
    DomainError,
    E_comp,
    E_pq,
    HypArgs,
    K_comp,
    K_pq,
    K_theta_integral,
    Modulus,
    PQParams,
    borwein_E,
    borwein_K,
    euler_integral_oracle,
    gauss_2f1,
    legendre_E_agm,
    legendre_K_agm,
    takeuchi_bridge_residual,
)
from pqelliptic import claims, elliptic
from pqelliptic.claims import AxisRange, ScanGrid
from pqelliptic.gentrig import _power_pair

P22 = PQParams(2.0, 2.0)

# AGM oracle values, frozen (see also the live comparisons below).
K_AGM_08 = 1.9953027776647292
E_AGM_06 = 1.4180833944486246
# Adaptive quadrature of the defining theta integral at r = 0.5 (abserr < 1e-13).
K_QUAD_05 = 1.6857503548125963


class TestEndpoints:
    def test_first_kind_at_zero_classical(self):
        assert K_pq(P22, 0.0).value == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_half_period_normalization(self):
        for p, q in ((1.5, 3.0), (4.0, 1.3), (2.5, 2.5)):
            params = PQParams(p, q)
            assert K_pq(params, 0.0).value == pytest.approx(0.5 * params.pi_pq, abs=1e-13)
            assert E_pq(params, 0.0).value == pytest.approx(0.5 * params.pi_pq, abs=1e-13)

    def test_second_kind_at_one_classical(self):
        # gamma-ratio value (pi/2) * 2/pi = 1; the occasionally-quoted 0 is wrong
        res = E_pq(P22, 1.0)
        assert res.value == pytest.approx(1.0, rel=1e-13)
        assert res.method == "gauss_closed_form"

    def test_second_kind_at_one_general(self):
        params = PQParams(3.0, 2.0)
        expected = 0.5 * params.pi_pq * math.exp(
            math.lgamma(1.0 - params.inv_p + params.inv_q) + math.lgamma(1.0)
            - math.lgamma(1.0 - params.inv_p) - math.lgamma(1.0 + params.inv_q))
        assert E_pq(params, 1.0).value == pytest.approx(expected, rel=1e-13)

    def test_first_kind_divergence(self):
        # Finite, if large, for every r < 1; r = 1 itself is outside the domain.
        r = 1.0 - 1e-10
        with mpmath.workdps(30):
            exact = mpmath.ellipk(mpmath.mpf(r) ** 2)
        assert K_pq(P22, r).value == pytest.approx(float(exact), rel=1e-13)
        with pytest.raises(DomainError):
            K_pq(P22, 1.5)


class TestAGMAnchor:
    def test_first_kind(self):
        for i in range(1, 10):
            r = i / 10.0
            assert abs(K_pq(P22, r).value - legendre_K_agm(r)) < 1e-12

    def test_second_kind(self):
        for i in range(1, 10):
            r = i / 10.0
            assert abs(E_pq(P22, r).value - legendre_E_agm(r)) < 1e-12

    def test_frozen_values(self):
        assert legendre_K_agm(0.8) == pytest.approx(K_AGM_08, rel=1e-15)
        assert legendre_E_agm(0.6) == pytest.approx(E_AGM_06, rel=1e-15)

    def test_agm_against_quadrature_oracle(self):
        value, err = integrate.quad(
            lambda t: 1.0 / math.sqrt(1.0 - 0.25 * math.sin(t) ** 2),
            0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-12
        assert legendre_K_agm(0.5) == pytest.approx(K_QUAD_05, abs=1e-13)
        assert legendre_K_agm(0.5) == pytest.approx(value, abs=1e-11)

    def test_classical_endpoints(self):
        assert legendre_K_agm(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert legendre_E_agm(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert legendre_E_agm(1.0) == 1.0
        with pytest.raises(DivergenceError):
            legendre_K_agm(1.0)


class TestMonotonicity:
    def test_k_increases_e_decreases(self):
        for p, q in ((1.5, 1.5), (2.0, 3.0), (3.5, 1.8)):
            params = PQParams(p, q)
            grid = [0.05 + 0.05 * k for k in range(19)]
            k_vals = [K_pq(params, r).value for r in grid]
            e_vals = [E_pq(params, r).value for r in grid]
            assert all(k_vals[i] < k_vals[i + 1] for i in range(len(grid) - 1))
            assert all(e_vals[i] > e_vals[i + 1] for i in range(len(grid) - 1))


class TestComplements:
    def test_definition_unfold(self):
        # At r = 1/2 the complement evaluates its 2F1 at exactly (z, w) =
        # (0.875, 0.125), the direct form at the rounded r' one ulp further:
        # the same bits at the same arguments, a few ulps across the step.
        params = PQParams(3.0, 2.0)
        expected_modulus = (1.0 - 0.5 ** 3) ** (1.0 / 3.0)
        assert expected_modulus ** 3.0 == math.nextafter(0.875, 1.0)
        for comp, direct, first_kind in ((K_comp, K_pq, True), (E_comp, E_pq, False)):
            value = comp(params, 0.5).value
            args = elliptic._complete_args(params, first_kind, 0.875, 0.125)
            assert value == 0.5 * params.pi_pq * gauss_2f1(args).value
            assert abs(value - direct(params, expected_modulus).value) <= 4 * math.ulp(value)

    def test_self_complementary_point(self):
        r = 2.0 ** -0.5
        assert K_comp(P22, r).value == pytest.approx(K_pq(P22, r).value, rel=1e-13)

    def test_complement_limit_is_value_at_one(self):
        params = PQParams(2.5, 1.5)
        near = E_comp(params, 1e-7).value
        assert near == pytest.approx(E_pq(params, 1.0).value, abs=1e-9)

    def test_small_modulus_complement_against_mpmath(self):
        # 1 - r**2 is 1 - 1e-6 and 1 - 1e-8: the complement r**2 carries the digits.
        for r in (1e-3, 1e-4):
            with mpmath.workdps(30):
                exact = float(mpmath.ellipk(1 - mpmath.mpf(r) ** 2))
            res = K_comp(P22, r)
            assert res.value == pytest.approx(exact, rel=1e-13)
            assert abs(res.value - exact) <= res.err_estimate + 1e-16 * exact

    def test_subnormal_power_against_the_zero_limit(self):
        # r**p is subnormal: 1e-320 and 1e-321; the next terms are O(r**p ln r).
        for params, r in ((P22, 1e-160), (PQParams(3.0, 2.0), 1e-107)):
            e_res = E_comp(params, r)
            assert e_res.value == pytest.approx(E_pq(params, 1.0).value, rel=1e-14)
            assert math.isfinite(e_res.err_estimate)
        # Classical K'(r) = ln(4 / sqrt(w)) + O(w ln w) with w = r**2, which
        # rounds to a subnormal with about four significant digits.
        w = 1e-160 ** 2
        assert K_comp(P22, 1e-160).value == pytest.approx(math.log(4.0 / math.sqrt(w)), rel=1e-14)

    def test_finite_ends_are_the_direct_values(self):
        # r' = 0 at r = 1 and r' = 1 at r = 0: the same 2F1 at the same (z, w).
        for params in (P22, PQParams(3.0, 1.5), PQParams(1.05, 2.0), PQParams(6.0, 1.1)):
            assert K_comp(params, 1.0).value == K_pq(params, 0.0).value
            assert E_comp(params, 0.0).value == E_pq(params, 1.0).value
            assert E_comp(params, 1.0).value == E_pq(params, 0.0).value

    def test_domain(self):
        with pytest.raises(DomainError):
            K_comp(P22, 0.0)
        assert E_comp(P22, 1.0).value == E_pq(P22, 0.0).value
        with pytest.raises(DomainError):
            E_comp(P22, 1.5)


class TestModulus:
    def test_involution_is_exact_swap(self):
        params = PQParams(3.0, 2.0)
        m = Modulus.for_params(params, 0.37)
        back = m.complement().complement()
        assert back.r == m.r
        assert abs(back.r - 0.37) < 1e-15

    @given(st.floats(1.1, 6.0), st.floats(1.1, 6.0), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_complement_in_open_interval(self, p, q, r):
        m = Modulus.for_params(PQParams(p, q), r)
        assert 0.0 < m.r_comp < 1.0

    def test_complement_near_one_against_mpmath(self):
        # 1 - r**p formed in double precision costs 2.5e-11 and 5.1e-12 relative here.
        for p, r in ((2.0, 1.0 - 1e-10), (3.0, 1.0 - 1e-6)):
            comp = Modulus.for_params(PQParams(p, 2.0), r).r_comp
            with mpmath.workdps(40):
                exact = (1 - mpmath.mpf(r) ** p) ** (1 / mpmath.mpf(p))
                assert abs(comp - exact) <= 1e-15 * exact, (p, r)

    def test_domain(self):
        with pytest.raises(DomainError):
            Modulus.for_params(P22, 0.0)
        with pytest.raises(DomainError):
            Modulus.for_params(P22, 1.0)


class TestEulerOracle:
    def test_normalization_at_zero(self):
        res = euler_integral_oracle(HypArgs(0.7, 0.9, 1.6, 0.0))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_against_series(self):
        args = HypArgs(0.5, 0.5, 1.0, 0.49)
        assert abs(euler_integral_oracle(args).value - gauss_2f1(args).value) < 1e-9

    def test_first_kind_consistency(self):
        params = PQParams(3.0, 2.0)
        args = HypArgs(params.inv_q, 1.0 - params.inv_p,
                       1.0 - params.inv_p + params.inv_q, 0.5 ** 3)
        ratio = K_pq(params, 0.5).value / (0.5 * params.pi_pq)
        assert abs(euler_integral_oracle(args).value - ratio) < 1e-9

    def test_validity_condition(self):
        with pytest.raises(DomainError):
            euler_integral_oracle(HypArgs(0.5, -0.5, 1.0, 0.3))  # b <= 0
        with pytest.raises(DomainError):
            euler_integral_oracle(HypArgs(0.5, 2.0, 1.5, 0.3))  # c <= b

    def test_against_mpmath_over_the_documented_domain(self):
        # Seeded sweep: half the samples with z up to 0.9, half with 1 - z log-uniform
        # down to the documented limit. z = 1 is refused even where c - a - b > 0.
        rng = random.Random(20)
        limit = elliptic.EULER_ORACLE_MIN_W
        samples = []
        for i in range(120):
            a, b, gap = rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
            z = (rng.uniform(0.0, 0.9) if i % 2
                 else 1.0 - 10.0 ** rng.uniform(math.log10(limit), -1.0))
            samples.append((a, b, b + gap, z))
            if gap - a > 0.05:  # c - a - b
                with pytest.raises(DomainError, match="gauss_value_at_one"):
                    euler_integral_oracle(HypArgs(a, b, b + gap, 1.0))
        samples.append((0.5, 0.5, 1.0, 1.0 - limit))
        with mpmath.workdps(30):
            for a, b, c, z in samples:
                res = euler_integral_oracle(HypArgs(a, b, c, z))
                exact = mpmath.hyp2f1(a, b, c, z)
                err = float(abs(res.value - exact))
                assert err <= 1e-13 * float(abs(exact)), (a, b, c, z)
                assert err <= res.err_estimate, (a, b, c, z)

    def test_refuses_just_past_the_documented_limit(self):
        w = 0.9 * elliptic.EULER_ORACLE_MIN_W
        for args in (HypArgs(0.5, 0.5, 1.0, 1.0 - w), HypArgs(0.5, 0.5, 2.0, 1.0, w=1e-17)):
            with pytest.raises(DomainError, match="requires 1 - z >="):
                euler_integral_oracle(args)

    def test_refuses_what_its_top_level_does_not_resolve(self):
        with pytest.raises(DomainError, match="did not converge"):
            euler_integral_oracle(HypArgs(0.5, 100.5, 200.0, 0.99))

    def test_coherence_claim_checks_the_calls_the_library_makes(self, monkeypatch):
        # K_pq and E_pq pass gauss_2f1 their family at x = r**p with its exact
        # complement w, a and b as given; only the oracle's copy of E's is swapped.
        calls = []
        monkeypatch.setattr(claims, "gauss_2f1", lambda args: calls.append(args) or gauss_2f1(args))
        grid = ScanGrid(AxisRange(1.5, 4.0, 3), AxisRange(1.5, 4.0, 2), AxisRange(0.05, 0.95, 4))
        result = claims.run_claim("euler.coherence", grid)
        assert result.status == "pass" and not result.notes  # nothing skipped
        assert calls == [elliptic._complete_args(PQParams(p, q), first_kind, *_power_pair(p, r))
                         for p, q in grid.pq_points() for r in grid.r.points()
                         for first_kind in (True, False)]

    def test_package_import_leaves_scipy_unloaded(self):
        # Neither the package nor its Euler-integral oracle needs scipy or numpy.
        code = ("import sys\n"
                "from pqelliptic.cli import main\n"
                "try:\n"
                "    main(['verify', '--claims', 'euler.coherence', '--p', '2', '--q', '3'])\n"
                "finally:\n"
                "    print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("PASS    euler.coherence")
        assert proc.stdout.splitlines()[-1] == "[]"


class TestThetaIntegral:
    def test_equal_exponents_reduce_directly(self):
        res = K_theta_integral(P22, 0.5)
        assert abs(res.value - K_pq(P22, 0.5).value) < 1e-9

    def test_modulus_shift_for_unequal_exponents(self):
        params = PQParams(3.0, 2.0)
        shifted = K_pq(params, 0.5 ** (2.0 / 3.0)).value
        assert abs(K_theta_integral(params, 0.5).value - shifted) < 1e-8

    def test_at_zero(self):
        params = PQParams(2.5, 1.5)
        assert K_theta_integral(params, 0.0).value == pytest.approx(
            0.5 * params.pi_pq, rel=1e-10)

    def test_sample_set(self):
        for p, q in ((2.0, 3.0), (3.0, 2.0), (2.5, 1.5)):
            params = PQParams(p, q)
            for r in (0.2, 0.5, 0.8):
                theta = K_theta_integral(params, r).value
                shifted = K_pq(params, r ** (q / p)).value
                assert abs(theta - shifted) < 1e-7


class TestOneParameterFamily:
    def test_at_zero(self):
        assert borwein_K(0.3, 0.0) == 1.0
        assert borwein_E(-0.4, 0.0) == 1.0

    def test_classical_limits(self):
        for r in (0.2, 0.5, 0.8):
            assert borwein_K(0.0, r) == pytest.approx(
                2.0 / math.pi * legendre_K_agm(r), rel=1e-12)
        assert borwein_E(0.0, 0.5) == pytest.approx(
            2.0 / math.pi * legendre_E_agm(0.5), rel=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            borwein_K(0.5, 0.3)
        with pytest.raises(DomainError):
            borwein_E(-0.6, 0.3)


class TestBridge:
    def test_classical_reduction(self):
        assert takeuchi_bridge_residual(0.0, 0.5) < 1e-11

    def test_stated_samples(self):
        assert takeuchi_bridge_residual(0.25, 0.3) < 1e-10
        assert takeuchi_bridge_residual(-0.2, 0.7) < 1e-10

    def test_sample_grid(self):
        for s in (-0.2, 0.0, 0.25):
            for r in (0.3, 0.5, 0.7):
                assert takeuchi_bridge_residual(s, r) < 1e-10
