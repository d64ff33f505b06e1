"""Generalized trigonometric layer: half period, arcsine, sine inversion."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pqelliptic import (
    DomainError, PQParams, arcsin_pq, claims, gentrig, pi_pq, sin_pq, special)


def count_inc_beta(monkeypatch):
    """Record the arguments of every incomplete-beta call made by gentrig."""
    calls = []

    def counted(*args):
        calls.append(args)
        return special.inc_beta(*args)

    monkeypatch.setattr(gentrig, "inc_beta", counted)
    return calls


# Frozen from adaptive quadrature of (1 - t**2)**(-1/3) on [0, 0.7]
# (the adopted integrand at p=3, q=2; abserr 1.4e-14).
ARCSIN_32_AT_07 = 0.748620370456861


class TestParams:
    def test_rejects_boundary_exponents(self):
        with pytest.raises(DomainError):
            PQParams(1.0, 2.0)
        with pytest.raises(DomainError):
            PQParams(2.0, 0.9)
        for p, q in ((math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0)):
            with pytest.raises(DomainError, match="finite"):
                PQParams(p, q)
        with pytest.raises(TypeError):
            PQParams(2.0, 3.0, pi_pq=99.0)  # derived fields are not arguments

    def test_cached_constants(self):
        params = PQParams(2.0, 3.0)
        assert params.inv_p == 0.5
        assert params.inv_q == pytest.approx(1.0 / 3.0)
        assert params.pi_pq == pytest.approx(pi_pq(2.0, 3.0))
        assert params.half_period == 0.5 * params.pi_pq


class TestPiPQ:
    def test_classical(self):
        assert pi_pq(2.0, 2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_gamma_reflection_value(self):
        # (1/2)*B(3/4, 1/4) = pi / (2*sin(pi/4)) = pi / sqrt(2)
        assert pi_pq(4.0, 4.0) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-13)

    def test_twice_arcsine_at_one(self):
        for p, q in ((1.5, 2.5), (3.0, 2.0), (2.0, 3.0), (5.0, 1.2)):
            params = PQParams(p, q)
            assert 2.0 * arcsin_pq(params, 1.0) == pytest.approx(params.pi_pq, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            pi_pq(1.0, 2.0)
        with pytest.raises(DomainError):
            pi_pq(2.0, 0.5)
        with pytest.raises(DomainError):
            pi_pq(2.0, math.inf)


class TestArcsin:
    def test_classical_half(self):
        assert arcsin_pq(PQParams(2.0, 2.0), 0.5) == pytest.approx(math.pi / 6.0, rel=1e-13)

    def test_at_zero(self):
        assert arcsin_pq(PQParams(3.0, 1.5), 0.0) == 0.0

    def test_against_quadrature_oracle(self):
        params = PQParams(3.0, 2.0)
        assert arcsin_pq(params, 0.7) == pytest.approx(ARCSIN_32_AT_07, abs=1e-11)

    def test_quadrature_oracle_live(self):
        params = PQParams(2.5, 1.7)
        value, err = integrate.quad(lambda t: (1.0 - t ** 1.7) ** (-1.0 / 2.5),
                                    0.0, 0.6, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-12
        assert arcsin_pq(params, 0.6) == pytest.approx(value, abs=1e-11)

    def test_strictly_increasing(self):
        params = PQParams(1.8, 3.2)
        values = [arcsin_pq(params, 0.05 * k) for k in range(21)]
        assert all(values[i] < values[i + 1] for i in range(20))

    def test_near_one(self):
        # The mirror form takes 1 - x**q exactly, not from the rounded x**q.
        mpmath = pytest.importorskip("mpmath")
        classical, params = PQParams(2.0, 2.0), PQParams(3.0, 1.5)
        with mpmath.workdps(40):
            for k in range(6, 15):
                x = 1.0 - 10.0 ** -k
                assert abs(arcsin_pq(classical, x) - math.asin(x)) <= 2e-15
                exact = mpmath.betainc(1 / mpmath.mpf(1.5), 1 - 1 / mpmath.mpf(3), 0,
                                       mpmath.mpf(x) ** 1.5) / 1.5
                assert abs(arcsin_pq(params, x) - float(exact)) <= 2e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            arcsin_pq(PQParams(2.0, 2.0), -0.1)
        with pytest.raises(DomainError):
            arcsin_pq(PQParams(2.0, 2.0), 1.0001)


class TestSin:
    def test_endpoints(self):
        params = PQParams(2.7, 1.4)
        assert sin_pq(params, 0.0) == 0.0
        assert sin_pq(params, params.half_period) == 1.0

    def test_classical_quarter(self):
        assert sin_pq(PQParams(2.0, 2.0), math.pi / 4.0) == pytest.approx(
            math.sqrt(0.5), abs=1e-13)

    def test_monotone_on_grid(self):
        params = PQParams(1.3, 4.0)
        grid = [params.half_period * k / 40.0 for k in range(41)]
        values = [sin_pq(params, t) for t in grid]
        assert all(values[i] <= values[i + 1] for i in range(40))

    def test_derivative_law(self):
        # d/dt sin = (1 - sin**q)**(1/p) via central differences
        h = 1e-6
        for p, q in ((2.0, 2.0), (3.0, 1.5), (1.4, 2.8)):
            params = PQParams(p, q)
            for frac in (0.2, 0.5, 0.8):
                t = frac * params.half_period
                fd = (sin_pq(params, t + h) - sin_pq(params, t - h)) / (2.0 * h)
                s = sin_pq(params, t)
                assert fd == pytest.approx((1.0 - s ** q) ** (1.0 / p), abs=1e-6)

    def test_stops_once_the_bracket_is_two_ulps_wide(self, monkeypatch):
        # Near x = 1 the mirror form's Newton iteration stops within two ulps
        # after a few incomplete-beta evaluations; bisection there took 40.
        params = PQParams(2.0, 3.0)
        calls = count_inc_beta(monkeypatch)
        assert sin_pq(params, 0.9999 * params.half_period) == 0.9999999852541401
        assert len(calls) <= 10

    def test_few_steps_near_both_ends(self, monkeypatch):
        calls = count_inc_beta(monkeypatch)
        rng = random.Random(16)
        for _ in range(300):
            params = PQParams(rng.uniform(1.01, 51.0), rng.uniform(1.01, 51.0))
            for x in (rng.uniform(0.0, 1e-14), 1.0 - rng.uniform(0.0, 1e-14), rng.random()):
                t = arcsin_pq(params, x)
                calls.clear()
                assert abs(sin_pq(params, t) - x) < 4e-15
                assert len(calls) <= 10

    def test_monotone_across_the_split(self):
        # Below t* the lower form is solved, above it the mirror image.
        rng = random.Random(17)
        for _ in range(10):
            params = PQParams(rng.uniform(1.01, 51.0), rng.uniform(1.01, 51.0))
            b = 1.0 - params.inv_p
            split = b * params.q * params.half_period / (1.0 + b * params.q)
            for spacing in (1e-8, 1e-13):
                values = [sin_pq(params, split * (1.0 + spacing * k)) for k in range(-20, 21)]
                assert all(values[i] <= values[i + 1] for i in range(40))

    def test_start_is_the_root_where_x_to_the_q_underflows(self):
        # F(y) = (y/a) (1 + O(u)), so once u = y**(1/a) is below eps no step is taken.
        assert sin_pq(PQParams(2.0, 51.0), 1e-10) == 1e-10
        assert arcsin_pq(PQParams(2.0, 51.0), 1e-10) == 1e-10
        params = PQParams(1.01, 2.0)  # u = 1 - x**q underflows within 0.04 of half
        assert sin_pq(params, params.half_period - 1e-6) == 1.0

    def test_small_t_is_its_own_sine(self):
        # sin t = t (1 + O(t**q)): far below eps**(1/q) the value is t itself.
        params = PQParams(2.0, 2.0)
        for t in (1e-15, 1e-300):
            assert sin_pq(params, t) == t

    def test_next_float_above_half_is_the_end(self):
        # half = 11.18 at (1.05, 2), where one ulp of half is 1.8e-15.
        params = PQParams(1.05, 2.0)
        assert sin_pq(params, math.nextafter(params.half_period, math.inf)) == 1.0

    def test_refuses_after_the_step_cap(self, monkeypatch):
        monkeypatch.setattr(gentrig, "inc_beta", lambda *args: math.nan)
        params = PQParams(2.0, 3.0)
        with pytest.raises(DomainError, match="200 iterations for t=0.5"):
            sin_pq(params, 0.5)

    def test_domain(self):
        params = PQParams(2.0, 2.0)
        with pytest.raises(DomainError):
            sin_pq(params, -0.01)
        with pytest.raises(DomainError):
            sin_pq(params, params.half_period + 0.01)


class TestRoundTrip:
    def test_grid(self):
        for p in (1.2, 1.5, 2.0, 3.0, 5.0):
            for q in (1.2, 1.5, 2.0, 3.0, 5.0):
                params = PQParams(p, q)
                for k in range(21):
                    x = 0.05 * k
                    assert abs(sin_pq(params, arcsin_pq(params, x)) - x) < 1e-11

    @given(st.floats(1.05, 8.0), st.floats(1.05, 8.0), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_random(self, p, q, x):
        params = PQParams(p, q)
        assert abs(sin_pq(params, arcsin_pq(params, x)) - x) < 1e-11


class TestIntegrandConvention:
    def test_adopted_exponent_placement_matches_beta_form(self):
        # For the adopted integrand (1 - t**q)**(-1/p), twice the full
        # integral reproduces the beta-form constant; the transposed
        # placement does not for p != q.
        p, q = 2.0, 3.0
        adopted, err_a = integrate.quad(lambda t: (1.0 - t ** q) ** (-1.0 / p),
                                        0.0, 1.0, epsabs=1e-12, epsrel=1e-11)
        transposed, err_t = integrate.quad(lambda t: (1.0 - t ** p) ** (-1.0 / q),
                                           0.0, 1.0, epsabs=1e-12, epsrel=1e-11)
        target = pi_pq(p, q)
        assert 2.0 * adopted == pytest.approx(target, abs=1e-9)
        assert abs(2.0 * transposed - target) > 0.1  # finite, clear disagreement

    def test_note_states_the_transposed_value_in_closed_form(self):
        # Twice the transposed integral is (2/p) B(1/p, 1 - 1/q) = pi_{q,p}.
        transposed, _ = integrate.quad(lambda t: (1.0 - t ** 2.0) ** (-1.0 / 3.0),
                                       0.0, 1.0, epsabs=1e-12, epsrel=1e-11)
        assert 2.0 * transposed == pytest.approx(pi_pq(3.0, 2.0), abs=1e-9)
        note = claims._integrand_convention_note(2.0, 3.0)
        assert f"{pi_pq(2.0, 3.0):.12f}" in note
        assert f"{pi_pq(3.0, 2.0):.12f}" in note
