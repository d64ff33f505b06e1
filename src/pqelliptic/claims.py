"""Claim registry: every certified identity, monotonicity, convexity, and
bound statement, runnable over a parameter grid with deterministic results.

Two claim kinds exist. Identity claims track the largest absolute (or
normalized) residual and pass when it stays below the claim tolerance.
Strictness claims track the smallest margin of a strict inequality and pass
when it stays positive. Randomized sweeps use fixed seeds so repeated runs
are byte-identical.
"""

from __future__ import annotations

import contextvars
import functools
import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

from . import delta_analysis as d
from . import elliptic as el
from .gentrig import PQParams, _power_pair, arcsin_pq, pi_pq, sin_pq
from .special import (
    DomainError,
    HypArgs,
    contiguous_residual,
    gauss_2f1,
    gauss_value_at_one,
)

MAX_ABS_RESIDUAL = "max_abs_residual"
MIN_MARGIN = "min_margin"


@dataclass(frozen=True)
class AxisRange:
    """Inclusive sampling range: steps evenly spaced points from lo to hi."""

    lo: float
    hi: float
    steps: int

    def points(self) -> list[float]:
        if self.steps == 1:
            return [self.lo]
        span = self.hi - self.lo
        return [self.lo + i * span / (self.steps - 1) for i in range(self.steps - 1)] + [self.hi]


@dataclass(frozen=True)
class ScanGrid:
    """Cartesian scan grid over p, q, r and (optionally) s."""

    p: AxisRange
    q: AxisRange
    r: AxisRange
    s: AxisRange | None = None

    def __post_init__(self) -> None:
        for name, axis in (("p", self.p), ("q", self.q)):
            if not axis.lo > 1.0:
                raise DomainError(f"{name} range requires lo > 1, got {axis.lo}")
            _check_axis(name, axis)
        for name, axis in (("r", self.r), ("s", self.s)):
            if axis is None:
                continue
            if not 0.0 < axis.lo <= axis.hi < 1.0:
                raise DomainError(f"{name} range requires 0 < lo <= hi < 1, got {axis}")
            _check_axis(name, axis)

    def pq_points(self) -> list[tuple[float, float]]:
        return [(p, q) for p in self.p.points() for q in self.q.points()]

    def as_dict(self) -> dict:
        return asdict(self)


def _check_axis(name: str, axis: AxisRange) -> None:
    if not (math.isfinite(axis.lo) and math.isfinite(axis.hi)):
        raise DomainError(f"{name} range requires finite lo and hi, got {axis}")
    if axis.steps < 1:
        raise DomainError(f"{name} range requires steps >= 1, got {axis.steps}")
    if axis.hi < axis.lo:
        raise DomainError(f"{name} range requires hi >= lo, got {axis}")


DEFAULT_GRID = ScanGrid(
    p=AxisRange(1.5, 4.0, 11),
    q=AxisRange(1.5, 4.0, 11),
    r=AxisRange(0.05, 0.95, 19),
)

#: Pair grid used by the product-gap claim when the scan grid has no s axis.
DEFAULT_PAIR_AXIS = AxisRange(0.05, 0.95, 20)


@dataclass
class ClaimResult:
    """Outcome of one claim: per-sample counts, the worst residual (or
    smallest margin) with its coordinates, and every failing sample."""

    claim_id: str
    description: str
    status: str  # "pass" | "fail" | "skipped"
    pass_count: int
    fail_count: int
    residual_kind: str
    tolerance: float | None
    worst_residual: float | None
    worst_location: dict | None
    failures: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, value: float, ok: bool, location: dict) -> None:
        if ok:
            self.pass_count += 1
        else:
            self.fail_count += 1
            self.failures.append({"value": value, **location})
        if self.worst_residual is None or (
            value > self.worst_residual if self.residual_kind == MAX_ABS_RESIDUAL
            else value < self.worst_residual
        ):
            self.worst_residual = value
            self.worst_location = dict(location)

    def residual(self, value: float, tol: float, location: dict) -> None:
        self.record(value, value < tol, location)

    def margin(self, value: float, location: dict) -> None:
        self.record(value, value > 0.0, location)

    def as_dict(self) -> dict:
        out = asdict(self)
        out["id"] = out.pop("claim_id")
        return out


def _fmt(x: float) -> str:
    return f"{x:.6e}"


def _skip_notes(who: str, skipped: list[str], why: str) -> list[str]:
    """The note on the samples a check skipped: their count, why, and the first."""
    return ([f"{who} skipped {len(skipped)} sample(s) {why}, first at {skipped[0]}"]
            if skipped else [])


#: The running build_report's grid values, keyed by (function, p, q, r): None outside
#: a report, so run_claim alone computes every value, and never shared between threads.
_RUN_VALUES: contextvars.ContextVar[dict | None] = contextvars.ContextVar("run_values")


def _shared(fn, params: PQParams, r: float | None):
    """fn(params, r), read from the running report's store, which keeps it on first use."""
    store = _RUN_VALUES.get(None)
    if store is None:
        return fn(params, r)
    if (value := store.get(key := (fn, params.p, params.q, r))) is None:
        value = store[key] = fn(params, r)
    return value


def _admissible(params: PQParams, r: None) -> bool:
    return d.admissible(params.p, params.q)


def _grid_params(grid: ScanGrid,
                 admissible_only: bool = False) -> Iterator[tuple[float, float, PQParams]]:
    """Walk the (p, q) grid in order, yielding (p, q, PQParams(p, q))."""
    for p, q in grid.pq_points():
        params = PQParams(p, q)
        if not admissible_only or _shared(_admissible, params, None):
            yield p, q, params


# --------------------------------------------------------------------------
# identity claims
# --------------------------------------------------------------------------

def _claim_lemma21(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    rng = random.Random(20210409)
    for _ in range(200):
        a = rng.uniform(0.1, 0.9)
        b = rng.uniform(0.1, 0.9)
        # Keep the internal argument above the documented cancellation
        # threshold; below it the defining combination cannot reach the
        # certification tolerance in double precision.
        r = rng.uniform(d.CANCELLATION_THRESHOLD ** b, 1.0)
        closed = d.H_closed(a, b, r)
        defined = d.H_def(a, b, r)
        rel = abs(defined - closed) / (1.0 + abs(closed))
        result.residual(rel, tol, {"a": a, "b": b, "r": r})


def _claim_lemma23(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    rng = random.Random(20141105)
    for _ in range(100):
        sigma = rng.uniform(1.0, 5.0)
        alpha = rng.uniform(0.0, 3.0)
        rho = rng.uniform(0.0, 3.0)
        z = rng.uniform(0.0, 0.9)
        res = abs(contiguous_residual(sigma, alpha, rho, z))
        result.residual(res, tol, {"sigma": sigma, "alpha": alpha, "rho": rho, "z": z})
    skipped: list[str] = []
    for p, q, params in _grid_params(grid):
        alpha, rho, sigma = d._derivative_front(params)
        for r in (0.3, 0.5, 0.7):
            z = 1.0 - r ** p  # rounds to 1 for large p, where F(alpha, rho; sigma; z) diverges
            if z == 1.0:
                skipped.append(f"p={p:g}, q={q:g}, r={r:g}")
            else:
                res = abs(contiguous_residual(sigma, alpha, rho, z))
                result.residual(res, tol, {"p": p, "q": q, "r": r})
    return _skip_notes("proof instantiation", skipped, "where 1 - r**p rounds to 1")


def _claim_lemma24(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    for p, q, params in _grid_params(grid):
        a, b = params.inv_q, params.inv_p
        at_one = d.H_closed(a, b, 1.0)
        result.residual(abs(at_one - 1.0), tol, {"p": p, "q": q, "r": 1.0})
        at_zero = d.H_closed(a, b, 0.0)
        expected = (1.0 - b) * params.pi_pq / (2.0 * (1.0 + a - b))
        result.residual(abs(at_zero - expected), tol, {"p": p, "q": q, "r": 0.0})


def _claim_prop12(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    params = PQParams(2.0, 2.0)
    constants = d.DeltaConstants.for_params(params)
    lower_limit = math.pi / 4.0 - 1.0
    result.residual(abs(d.delta(params, 0.0) - lower_limit), tol, {"endpoint": 0.0})
    result.residual(abs(d.delta(params, 1.0) + lower_limit), tol, {"endpoint": 1.0})
    beta1_expected = 2.0 - math.pi / 2.0
    result.residual(abs(constants.beta1 - beta1_expected), tol, {"constant": "beta1"})
    return [
        f"classical degeneration: delta0 = {_fmt(constants.delta0)} (pi/4 - 1), "
        f"beta1 = {constants.beta1:.7f} = 0.42920 to five decimals",
    ]


def _claim_legendre_anchor(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    params = PQParams(2.0, 2.0)
    for i in range(1, 10):
        r = i / 10.0
        res_k = abs(el.K_pq(params, r).value - el.legendre_K_agm(r))
        res_e = abs(el.E_pq(params, r).value - el.legendre_E_agm(r))
        result.residual(res_k, tol, {"quantity": "K", "r": r})
        result.residual(res_e, tol, {"quantity": "E", "r": r})
    return ["second-kind value at r=1 equals the gamma-ratio closed form "
            f"{el.E_pq(params, 1.0).value:.12f} (= 1), not 0 as sometimes stated"]


def _claim_euler_coherence(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    skipped: list[str] = []
    for p, q, params in _grid_params(grid):
        for r in grid.r.points():
            x, w = _power_pair(p, r)  # as K_pq and E_pq call gauss_2f1
            k, e = (el._complete_args(params, first_kind, x, w) for first_kind in (True, False))
            # E's a and b swapped for the oracle, which needs c > b > 0 (2F1 is symmetric in them)
            for tag, args, ordered in (("K", k, k), ("E", e, HypArgs(e.b, e.a, e.c, x, w))):
                try:
                    oracle = el.euler_integral_oracle(ordered).value
                except DomainError:
                    skipped.append(f"p={p:g}, q={q:g}, r={r:g}, quantity={tag}")
                    continue
                res = abs(gauss_2f1(args).value - oracle)
                result.residual(res, tol, {"p": p, "q": q, "r": r, "quantity": tag})
    return _skip_notes("Euler quadrature", skipped,
                       f"it refuses (1 - r**p < {el.EULER_ORACLE_MIN_W:g}, or no convergence)")


def _claim_gauss_boundary(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    p_probes = sorted({grid.p.lo, grid.p.points()[len(grid.p.points()) // 2], grid.p.hi})
    q_probes = sorted({grid.q.lo, grid.q.points()[len(grid.q.points()) // 2], grid.q.hi})
    z_ladder = [1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6]
    for p in p_probes:
        for q in q_probes:
            params = PQParams(p, q)
            # second-kind family and kernel family, both convergent at z = 1
            for at_one in (el._complete_args(params, False, 1.0),
                           d._kernel_args(params.inv_q, params.inv_p, 1.0)):
                limit = gauss_value_at_one(at_one.a, at_one.b, at_one.c)
                diffs = [abs(gauss_2f1(replace(at_one, z=z)).value - limit)
                         for z in z_ladder]
                location = {"p": p, "q": q, "a": at_one.a, "b": at_one.b, "c": at_one.c}
                result.residual(diffs[-1], tol, location)
                monotone = all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))
                result.record(diffs[-1], monotone, {**location, "check": "monotone"})


def _claim_gentrig_roundtrip(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    pq_values = (1.2, 1.5, 2.0, 3.0, 5.0)
    for p in pq_values:
        for q in pq_values:
            params = PQParams(p, q)
            for k in range(21):
                x = 0.05 * k
                res = abs(sin_pq(params, arcsin_pq(params, x)) - x)
                result.residual(res, tol, {"p": p, "q": q, "x": x})
            endpoint = abs(2.0 * arcsin_pq(params, 1.0) - params.pi_pq)
            result.residual(endpoint, tol, {"p": p, "q": q, "check": "endpoint"})
    return [_integrand_convention_note(2.0, 3.0)]


def _integrand_convention_note(p: float, q: float) -> str:
    """Record the two candidate arcsine-integrand conventions numerically. The
    transposed placement, twice the integral of (1 - t**p)**(-1/q) on [0, 1],
    is (2/p) B(1/p, 1 - 1/q) = pi_{q,p} in closed form."""
    return (
        f"arcsine integrand convention at (p, q) = ({p:g}, {q:g}): adopted exponent "
        f"placement gives half period * 2 = {pi_pq(p, q):.12f} matching the beta form; the "
        f"transposed placement integrates to {pi_pq(q, p):.12f} and is inconsistent "
        f"with the beta form for p != q"
    )


def _claim_theta_bridge(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    for p, q in ((2.0, 3.0), (3.0, 2.0), (2.5, 1.5)):
        params = PQParams(p, q)
        for r in (0.2, 0.5, 0.8):
            theta_val = el.K_theta_integral(params, r).value
            shifted = el.K_pq(params, r ** (q / p)).value
            result.residual(abs(theta_val - shifted), tol, {"p": p, "q": q, "r": r})
    return ["theta-form integral carries r**q where the hypergeometric form carries "
            "r**p; the two agree after the modulus shift r -> r**(q/p)"]


def _claim_borwein_takeuchi(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    for s in (-0.2, 0.0, 0.25):
        for r in (0.3, 0.5, 0.7):
            res = el.takeuchi_bridge_residual(s, r)
            result.residual(res, tol, {"s": s, "r": r})


def _claim_delta_antisymmetry(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    for p, q, params in _grid_params(grid):
        for r in grid.r.points():
            comp = el.Modulus.for_params(params, r).r_comp
            res = abs(d.delta(params, comp) + _shared(d.delta, params, r))
            result.residual(res, tol, {"p": p, "q": q, "r": r})


#: delta.routes skips samples with r**p or 1 - r**p below this: the direct route
#: (E - (r')**p K) / r**p loses about 1e-16 over the smaller of the two.
ROUTES_MIN_X = 1e-6


def _claim_delta_routes(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    skipped: list[str] = []
    for p, q, params in _grid_params(grid):
        for r in grid.r.points():
            if min(_power_pair(p, r)) < ROUTES_MIN_X:
                skipped.append(f"p={p:g}, q={q:g}, r={r:g}")
                continue
            gap = d.delta_via_elliptic(params, r) - _shared(d.delta, params, r)
            result.residual(abs(gap), tol, {"p": p, "q": q, "r": r})
    return _skip_notes("direct route", skipped, f"with r**p or 1 - r**p < {ROUTES_MIN_X:g}, "
                       "where its subtraction loses digits")


def _claim_delta_range(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    for p, q, params in _grid_params(grid):
        constants = d.DeltaConstants.for_params(params)
        a, b = params.inv_q, params.inv_p
        low = d.H_closed(a, b, 0.0) - d.H_closed(a, b, 1.0)
        high = -low  # a - b = -(b - a) exactly
        result.residual(abs(low - constants.delta0), tol, {"p": p, "q": q, "end": 0.0})
        result.residual(abs(high - constants.delta1), tol, {"p": p, "q": q, "end": 1.0})


def _claim_derivatives(grid: ScanGrid, tol: float, result: ClaimResult) -> list[str] | None:
    # tol applies to the slope check, 10x tol to the curvature check (1e-7 / 1e-6 by default).
    # The slope probe's truncation error grows like (h1/d)**2, d = min(r, 1 - r): skip where
    # it may pass the registered tolerance, whatever tol is given, so that a tighter tol
    # probes the same samples (h1 <= d/2 also keeps r +- h1 inside [0, 1]).
    probe_tol = CLAIMS["derivatives"].tolerance
    variant_worst = 0.0
    h1, h2 = 1e-5, 1e-6
    skipped: list[str] = []
    for p, q, params in _grid_params(grid, admissible_only=True):
        for r in grid.r.points():
            if (h1 / min(r, 1.0 - r)) ** 2 > probe_tol:
                skipped.append(f"p={p:g}, q={q:g}, r={r:g}")
                continue
            fd_slope = (d.delta(params, r + h1) - d.delta(params, r - h1)) / (2.0 * h1)
            slope = d.delta_prime(params, r)
            rel = abs(slope - fd_slope) / max(abs(slope), 1e-30)
            result.residual(rel, tol, {"p": p, "q": q, "r": r, "order": 1})

            fd_curv = (d.delta_prime(params, r + h2) - d.delta_prime(params, r - h2)) / (2.0 * h2)
            curv, variant = _shared(d._curvature, params, r)
            rel2 = abs(curv.value - fd_curv) / max(abs(curv.value), 1e-30)
            result.residual(rel2, 10.0 * tol, {"p": p, "q": q, "r": r, "order": 2})

            variant_worst = max(variant_worst,
                                abs(variant - fd_curv) / max(abs(fd_curv), 1e-30))
    notes = [
        "analytic termwise curvature (sum of F1 terms, difference of F2 terms) matches "
        "finite differences; the transposed sign pattern (difference of F1, sum of F2) "
        f"deviates from the same probe by up to {_fmt(variant_worst)} relative",
    ] if result.pass_count + result.fail_count else []
    return notes + _skip_notes("finite-difference probe", skipped, "where its truncation error "
                               f"(h/d)**2, d = min(r, 1 - r), may pass the registered tolerance "
                               f"{probe_tol:g}")


# --------------------------------------------------------------------------
# strictness claims
# --------------------------------------------------------------------------

def _claim_thm13_monotone(grid: ScanGrid, tol: None, result: ClaimResult) -> list[str] | None:
    for p, q, params in _grid_params(grid, admissible_only=True):
        values = [_shared(d.delta, params, r) for r in grid.r.points()]
        for i in range(len(values) - 1):
            margin = values[i + 1] - values[i]
            result.margin(margin, {"p": p, "q": q, "r": grid.r.points()[i + 1]})


def _claim_thm13_convex(grid: ScanGrid, tol: None, result: ClaimResult) -> list[str] | None:
    for p, q, params in _grid_params(grid, admissible_only=True):
        for r in grid.r.points():
            result.margin(_shared(d._curvature, params, r)[0].value, {"p": p, "q": q, "r": r})


def _claim_thm13_bounds(grid: ScanGrid, tol: None, result: ClaimResult) -> list[str] | None:
    notes: list[str] = []
    for p, q, params in _grid_params(grid, admissible_only=True):
        constants = d.DeltaConstants.for_params(params)
        for r in grid.r.points():
            value = _shared(d.delta, params, r)
            lower, upper = d.sharp_linear_bounds(params, r)
            result.margin(value - lower, {"p": p, "q": q, "r": r, "side": "lower"})
            result.margin(upper - value, {"p": p, "q": q, "r": r, "side": "upper"})
        # Sharpness at both ends: the normalized gaps must shrink monotonically.
        low_seq = [(d.delta(params, r) - constants.delta0) / r
                   for r in (1e-2, 1e-3, 1e-4)]
        for i in range(len(low_seq) - 1):
            result.margin(low_seq[i] - low_seq[i + 1],
                          {"p": p, "q": q, "check": "sharp-at-0", "step": i})
        up_seq = [constants.delta0 + constants.beta1 * r - d.delta(params, r)
                  for r in (1.0 - 1e-2, 1.0 - 1e-3)]
        result.margin(up_seq[0] - up_seq[1], {"p": p, "q": q, "check": "sharp-at-1"})
        if (p, q) == (2.0, 2.0) and not notes:
            notes.append(f"recorded sharp upper slope at (2, 2): beta1 = {constants.beta1:.7f}")
    return notes


def _claim_thm14_bounds(grid: ScanGrid, tol: None, result: ClaimResult) -> list[str] | None:
    pair_axis = grid.s if grid.s is not None else DEFAULT_PAIR_AXIS
    r_points = grid.r.points() if grid.s is not None else DEFAULT_PAIR_AXIS.points()
    s_points = pair_axis.points()
    for p, q, params in _grid_params(grid, admissible_only=True):
        constants = d.DeltaConstants.for_params(params)
        delta_at = functools.cache(functools.partial(d.delta, params))
        for r in r_points:
            for s in s_points:
                gap = delta_at(r * s) - delta_at(r) - delta_at(s)
                location = {"p": p, "q": q, "r": r, "s": s}
                result.margin(gap - constants.delta0, {**location, "side": "lower"})
                result.margin(constants.delta1 - gap, {**location, "side": "upper"})


_INADMISSIBLE = "inadmissible: no (p, q) grid point satisfies the conditions"


@dataclass(frozen=True)
class ClaimSpec:
    """A registered claim. A tolerance of None marks a strictness claim;
    skip_note is the note of a run with no evaluable samples."""

    fn: object
    description: str
    tolerance: float | None
    skip_note: str = "no evaluable samples"


CLAIMS: dict[str, ClaimSpec] = {
    "lemma2.1": ClaimSpec(_claim_lemma21, "kernel defining combination equals its closed "
                          "hypergeometric form (200 random samples, normalized residual)", 1e-9),
    "lemma2.3": ClaimSpec(_claim_lemma23, "three-term contiguous relation residual vanishes "
                          "(random sweep plus the proof instantiation on the grid)", 1e-10),
    "lemma2.4": ClaimSpec(_claim_lemma24, "kernel closed form equals 1 at the right endpoint and "
                          "the beta-form constant at the left endpoint", 1e-12),
    "prop1.2": ClaimSpec(_claim_prop12, "classical p=q=2 degeneration: endpoint limits pi/4-1 and "
                         "1-pi/4, sharp slope 2-pi/2", 1e-10),
    "legendre.anchor": ClaimSpec(_claim_legendre_anchor, "first/second-kind values at p=q=2 match "
                                 "the AGM oracles", 1e-12),
    "euler.coherence": ClaimSpec(_claim_euler_coherence, "series evaluator agrees with the "
                                 "Euler-integral quadrature oracle over the scan grid", 1e-9),
    "gauss.boundary": ClaimSpec(_claim_gauss_boundary, "series value approaches the gamma-ratio "
                                "closed form monotonically as z -> 1", 1e-4),
    "gentrig.roundtrip": ClaimSpec(_claim_gentrig_roundtrip, "generalized sine inverts the "
                                   "generalized arcsine; endpoint normalization ties the half "
                                   "period to the beta form", 1e-11),
    "theta.bridge": ClaimSpec(_claim_theta_bridge, "theta-form first-kind integral equals the "
                              "hypergeometric form at the shifted modulus r**(q/p)", 1e-7),
    "borwein.takeuchi": ClaimSpec(_claim_borwein_takeuchi, "one-parameter and two-parameter "
                                  "families agree through the p = 2/(2s+1) bridge", 1e-10),
    "delta.antisymmetry": ClaimSpec(_claim_delta_antisymmetry, "difference function is "
                                    "antisymmetric under the complement map", 1e-12),
    "delta.routes": ClaimSpec(_claim_delta_routes, "kernel route and direct first/second-kind "
                              "route agree on the interior band", 1e-9),
    "delta.range": ClaimSpec(_claim_delta_range, "difference-function endpoint limits match the "
                             "closed-form constants", 1e-10),
    "derivatives": ClaimSpec(_claim_derivatives, "closed-form slope and curvature match central "
                             "finite differences (adjudicates the curvature sign pattern)", 1e-7,
                             skip_note="no admissible (p, q) grid point with r far enough "
                             "from 0 and 1 for the finite-difference probe"),
    "thm1.3.monotone": ClaimSpec(_claim_thm13_monotone, "difference function strictly increases "
                                 "along r on every admissible grid point", None,
                                 skip_note=_INADMISSIBLE),
    "thm1.3.convex": ClaimSpec(_claim_thm13_convex, "curvature strictly positive at every "
                               "admissible interior sample", None, skip_note=_INADMISSIBLE),
    "thm1.3.bounds": ClaimSpec(_claim_thm13_bounds, "strict sharp linear envelope, with monotone "
                               "sharpness sequences at both ends", None, skip_note=_INADMISSIBLE),
    "thm1.4.bounds": ClaimSpec(_claim_thm14_bounds, "product gap lies strictly between the "
                               "endpoint limits on the pair grid", None, skip_note=_INADMISSIBLE),
}


def run_claim(claim_id: str, grid: ScanGrid, tol: float | None = None) -> ClaimResult:
    """Run one registered claim; unknown ids raise KeyError."""
    spec = CLAIMS[claim_id]
    strict = spec.tolerance is None
    # Strictness claims ignore the tolerance override and report none.
    tolerance = None if strict else (tol if tol is not None else spec.tolerance)
    result = ClaimResult(claim_id, spec.description, "skipped", 0, 0,
                         MIN_MARGIN if strict else MAX_ABS_RESIDUAL, tolerance, None, None)
    notes = spec.fn(grid, tolerance, result) or []
    if result.pass_count == result.fail_count == 0:
        result.notes = [spec.skip_note, *notes]
    else:
        result.status = "pass" if result.fail_count == 0 else "fail"
        result.notes = notes
    return result


def build_report(claim_ids: list[str], grid: ScanGrid, tol: float | None = None) -> dict:
    """Run the listed claims in order, sharing one store of grid values, and assemble the report."""
    token = _RUN_VALUES.set({})
    try:
        results = [run_claim(cid, grid, tol) for cid in claim_ids]
    finally:
        _RUN_VALUES.reset(token)
    return {
        "grid": grid.as_dict(),
        "tolerance_override": tol,
        "claims": [res.as_dict() for res in results],
        "all_pass": all(res.status != "fail" for res in results),
    }
