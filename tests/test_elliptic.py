"""First/second-kind integrals, oracles, and the family bridges."""

import math
import subprocess
import sys

import mpmath
import pytest
from scipy import integrate

from pqelliptic import (
    DivergenceError,
    DomainError,
    E_comp,
    E_pq,
    K_comp,
    K_pq,
    K_theta_integral,
    PQParams,
    borwein_E,
    borwein_K,
    gauss_2f1,
    legendre_E_agm,
    legendre_K_agm,
    takeuchi_bridge_residual,
)
from pqelliptic import claims, elliptic
from pqelliptic.claims import AxisRange, ScanGrid

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


class TestLegendreRelation:
    def test_claim_calls_the_four_public_integrals(self, monkeypatch):
        # At q = p, whatever the grid's q axis holds, and at each grid r as given.
        calls = []

        def recording(name, original):
            def call(params, r):
                calls.append((name, params.p, params.q, r))
                return original(params, r)
            return call

        for name in ("K_pq", "E_pq", "K_comp", "E_comp"):
            monkeypatch.setattr(elliptic, name, recording(name, getattr(elliptic, name)))
        grid = ScanGrid(AxisRange(1.5, 4.0, 3), AxisRange(1.5, 4.0, 2), AxisRange(0.05, 0.95, 4))
        result = claims.run_claim("legendre.relation", grid)
        assert result.status == "pass" and not result.notes  # nothing skipped
        assert result.pass_count == 12
        assert calls == [(name, p, p, r) for p in grid.p.points() for r in grid.r.points()
                         for name in ("K_pq", "E_pq", "K_comp", "E_comp")]


class TestVerifyWithoutScipy:
    def test_package_import_leaves_scipy_unloaded(self):
        # Neither the package nor any claim of the default verify needs scipy or numpy.
        code = ("import sys\n"
                "from pqelliptic.cli import main\n"
                "try:\n"
                "    main(['verify'])\n"
                "finally:\n"
                "    print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("PASS    lemma2.1")
        assert "PASS    legendre.relation" in proc.stdout
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
