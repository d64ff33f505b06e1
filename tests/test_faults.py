"""Fault injection: a 2F1 route whose output is off by a relative eps fails some claim.

Each test scales one route's output by (1 + eps) and runs every registered
claim on a small grid; at least one claim must fail. The joint routes that
the curvature reads (special._series_with_derivative and
special._connection_with_derivative) are not injected: no claim catches them
below eps = 1e-5, which is ROADMAP item 1's open work.
"""

import pytest

from pqelliptic import elliptic, special
from pqelliptic.claims import CLAIMS, AxisRange, ScanGrid, build_report

GRID = ScanGrid(AxisRange(1.5, 4.0, 3), AxisRange(1.5, 4.0, 3), AxisRange(0.05, 0.95, 7))


def _scaled_pair(original, eps):
    """A (value, err_estimate) route with its value scaled by 1 + eps."""
    def faulty(*args):
        value, err = original(*args)
        return value * (1.0 + eps), err
    return faulty


def _second_kind_only(original, eps):
    def faulty(params, first_kind, z, w):
        result = original(params, first_kind, z, w)
        return result if first_kind else (1.0 + eps) * result
    return faulty


def _lead_off_c_one(original, eps):
    """The log-case lead constant scaled on families with c != 1 only, which the
    p = q Legendre relation never meets."""
    def faulty(a, b, m):
        f, finite, finite_size, lead, lead_size, e1, e2 = original(a, b, m)
        if abs(a + b + m - 1.0) > 1e-12:
            lead *= 1.0 + eps
        return f, finite, finite_size, lead, lead_size, e1, e2
    return faulty


FAULTS = [
    (special, "_series_2f1", _scaled_pair, 1e-12),
    (special, "_connection_2f1", _scaled_pair, 1e-12),
    (special, "_gauss_sum", _scaled_pair, 1e-12),
    (elliptic, "_complete_integral", _second_kind_only, 1e-12),
    (special, "_log_constants", _lead_off_c_one, 1e-10),
]


@pytest.mark.parametrize("module, name, fault, eps", FAULTS,
                         ids=[f"{name}-{eps:g}" for _, name, _, eps in FAULTS])
def test_some_claim_fails(monkeypatch, module, name, fault, eps):
    monkeypatch.setattr(module, name, fault(getattr(module, name), eps))
    assert not build_report(list(CLAIMS), GRID)["all_pass"]


def test_a_raising_claim_becomes_a_failed_entry(monkeypatch):
    # At this eps theta.bridge's quadrature of the perturbed sin_pq does not converge.
    monkeypatch.setattr(special, "_series_2f1", _scaled_pair(special._series_2f1, 1e-7))
    report = build_report(list(CLAIMS), GRID)
    assert len(report["claims"]) == len(CLAIMS) and not report["all_pass"]
    theta = next(claim for claim in report["claims"] if claim["id"] == "theta.bridge")
    assert theta["status"] == "fail"
    assert theta["notes"][0].startswith("raised DomainError: ")
