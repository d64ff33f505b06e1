"""The three benchmark workloads.

Each workload is built from a seed, runs one pass at a time through the
public API or the CLI commands in-process (single process, single thread),
and checks its outputs independently after all timed passes.

- certify: ``pqelliptic verify`` with all 18 claims on a 6 x 6 (p, q)
  sub-grid of the default grid, with the default r axis.
- tabulate: ``scan`` of the seven r-dependent quantities on a band where
  every 2F1 argument lies in [0.1, 0.9] (series route only), then
  ``regions`` on a 60 x 60 (p, q) grid.
- pointwise: a closed loop with one caller making single API calls, each
  with a freshly built ``PQParams``.

A pass returns its wall time, the duration of each request (one claim of
the verify command, one tabulate CLI command, one pointwise API call; the
same requests in the same order every pass) and the outputs the check
needs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from click.testing import CliRunner

import reference

#: A checked value fails when its error exceeds this share of max(1, |ref|).
REL_TOL = 1e-9

#: pointwise: calls whose internal argument x = r**p is at least this are
#: gated. Below it, 1 - x formed in double precision no longer carries the
#: digits that the complement modulus and the derivative closed forms need
#: (the known defects: K_comp refuses finite values, delta_prime and
#: delta_second raise or return wrong values); such failures are counted
#: in `failed` only. At the seed commit every call with x >= 1e-6 passes.
GATE_MIN_X = 1e-5


@dataclass
class PassResult:
    wall_s: float
    requests: Sequence[float]  # seconds per request, in the same order every pass
    ops: int  # operations completed, for ops_per_s
    op_requests: slice  # the requests that complete those operations
    outputs: object  # what the check compares across passes; kept small


@dataclass
class CheckResult:
    attempted: int
    failed: int
    checked: int = 0  # results compared with the mpmath reference
    max_rel_err: float = 0.0
    err_bound_misses: int = 0
    problems: list[str] = field(default_factory=list)  # correctness gate failures
    notes: list[str] = field(default_factory=list)

    @property
    def gate_ok(self) -> bool:
        return not self.problems

    def compare(self, value: float, err_estimate: float, ref: float) -> bool:
        """Record one reference comparison; True when within tolerance."""
        self.checked += 1
        err = abs(value - ref)
        scale = max(1.0, abs(ref))
        self.max_rel_err = max(self.max_rel_err, err / scale)
        if not err <= err_estimate:
            self.err_bound_misses += 1
        return err <= REL_TOL * scale


def _invoke(pq, args: list[str]) -> tuple[float, int]:
    """Run one CLI command in-process; returns (seconds, exit code)."""
    runner = CliRunner()
    start = time.perf_counter()
    result = runner.invoke(pq.cli.main, args)
    elapsed = time.perf_counter() - start
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return elapsed, result.exit_code


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: Every other (p, q) point of the default 11 x 11 grid; r keeps its default
#: 19 points. On the full default grid the longest claims take about 1 s
#: and a 30 s run repeats each only 6-9 times, too few for a steady best
#: time on a host whose speed drifts; on this sub-grid the longest claim
#: takes about 0.4 s and every claim still runs and passes.
CERTIFY_GRID = "p:1.5:4:6,q:1.5:4:6"
CERTIFY_GRID_TINY = "p:2:3:2,q:2:3:2,r:0.3:0.7:3"


class Certify:
    name = "certify"

    def __init__(self, pq, workdir: Path, seed: int, tiny: bool = False) -> None:
        # The grid is fixed; the seed is only recorded.
        self.pq = pq
        self.report_path = workdir / "certify_report.json"
        self.args = ["verify", "--grid", CERTIFY_GRID_TINY if tiny else CERTIFY_GRID,
                     "--out", str(self.report_path)]

    def run_pass(self) -> PassResult:
        claims = self.pq.claims
        run_claim = claims.run_claim
        durations = []

        def timed_claim(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_claim(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)

        # One clock pair per claim: negligible next to a claim's milliseconds.
        claims.run_claim = timed_claim
        try:
            elapsed, code = _invoke(self.pq, self.args)
        finally:
            claims.run_claim = run_claim
        report = self.report_path.read_bytes()
        verdicts = json.loads(report)["claims"]
        if len(durations) != len(verdicts):
            raise RuntimeError(f"timed {len(durations)} claims but the report holds "
                               f"{len(verdicts)}: verify no longer runs claims through "
                               "claims.run_claim")
        samples = sum(c["pass_count"] + c["fail_count"] for c in verdicts)
        return PassResult(elapsed, durations, samples, slice(None), (code, report))

    def check(self, passes: list[PassResult]) -> CheckResult:
        code, report = passes[0].outputs
        claims = json.loads(report)["claims"]
        expected = len(self.pq.claims.CLAIMS)
        failing = [c["id"] for c in claims if c["status"] != "pass"]
        out = CheckResult(attempted=len(claims), failed=len(failing))
        if len(claims) != expected:
            out.problems.append(f"report holds {len(claims)} claims, expected {expected}")
        if failing:
            out.problems.append(f"claims not passing: {', '.join(failing)}")
        for i, other in enumerate(passes):
            if other.outputs[0] != 0:
                out.problems.append(f"pass {i}: verify exited with {other.outputs[0]}")
            if other.outputs[1] != report:
                out.problems.append(f"pass {i}: report differs from pass 0")
        return out


SCAN_QUANTITIES = ("K", "E", "Kc", "Ec", "delta", "delta_prime", "delta_second")
SCAN_GRID = "p:1.5:4:11,q:1.5:4:11,r:0.57:0.93:19"
REGIONS_GRID = "p:1.05:4:60,q:1.05:4:60"
SCAN_GRID_TINY = "p:1.5:4:2,q:1.5:4:2,r:0.57:0.93:3"
REGIONS_GRID_TINY = "p:1.05:4:4,q:1.05:4:4"


class Tabulate:
    name = "tabulate"

    def __init__(self, pq, workdir: Path, seed: int, tiny: bool = False) -> None:
        self.pq = pq
        self.rng = random.Random(seed)
        self.sample_size = 20 if tiny else 500
        scan_grid = SCAN_GRID_TINY if tiny else SCAN_GRID
        regions_grid = REGIONS_GRID_TINY if tiny else REGIONS_GRID
        self.commands = [
            (f"scan.{qty}", ["scan", "--grid", scan_grid, "--quantity", qty,
                             "--out", str(workdir / f"scan_{qty}.csv")])
            for qty in SCAN_QUANTITIES
        ]
        self.commands.append(("regions", ["regions", "--grid", regions_grid,
                                          "--out", str(workdir / "regions.csv")]))

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        durations, codes, digests = [], [], []
        for key, args in self.commands:
            elapsed, code = _invoke(self.pq, args)
            durations.append(elapsed)
            codes.append(code)
            digests.append(_digest(Path(args[-1])))
        wall = time.perf_counter() - start
        rows = sum(_count_rows(Path(args[-1])) for _, args in self.commands[:-1])
        # ops_per_s counts scan rows over the scan commands only.
        return PassResult(wall, durations, rows, slice(0, len(SCAN_QUANTITIES)),
                          (codes, digests))

    def check(self, passes: list[PassResult]) -> CheckResult:
        out = CheckResult(attempted=0, failed=0)
        first_codes, first_digests = passes[0].outputs
        for i, other in enumerate(passes):
            codes, digests = other.outputs
            if any(codes):
                out.problems.append(f"pass {i}: exit codes {codes}")
            if digests != first_digests:
                out.problems.append(f"pass {i}: output files differ from pass 0")
        scan_rows: list[tuple[str, dict]] = []
        for key, args in self.commands:
            rows = _read_rows(Path(args[-1]))
            if key == "regions":
                self._check_regions(rows, out)
                continue
            quantity = key.split(".", 1)[1]
            for row in rows:
                out.attempted += 1
                value, err = float(row["value"]), float(row["err_estimate"])
                if row["note"] or not (math.isfinite(value) and math.isfinite(err)):
                    out.failed += 1
                    out.notes.append(f"{quantity} row {row} failed")
                scan_rows.append((quantity, row))
        sample = self.rng.sample(range(len(scan_rows)), min(self.sample_size, len(scan_rows)))
        for index in sorted(sample):
            quantity, row = scan_rows[index]
            value, err = float(row["value"]), float(row["err_estimate"])
            if not math.isfinite(value):
                continue  # already counted as failed
            ref = reference.reference(quantity, float(row["p"]), float(row["q"]),
                                      float(row["r"]))
            if not out.compare(value, err, ref):
                out.failed += 1
                out.notes.append(f"{quantity} at p={row['p']} q={row['q']} r={row['r']}: "
                                 f"{value!r} vs reference {ref!r}")
        if out.failed:
            out.problems.append(f"{out.failed} tabulated rows failed")
        return out

    @staticmethod
    def _check_regions(rows: list[dict], out: CheckResult) -> None:
        wrong = 0
        for row in rows:
            out.attempted += 1
            cond1, eps, adm = reference.admissibility(float(row["p"]), float(row["q"]))
            if (row["cond1"] != str(cond1).lower() or row["admissible"] != str(adm).lower()
                    or float(row["epsilon"]) != eps):
                wrong += 1
        if wrong:
            out.failed += wrong
            out.problems.append(f"{wrong} region rows disagree with the exact classification")


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _count_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


#: pointwise: API function per quantity, looked up on the module at pass time
#: so that a traced pass sees the wrapped functions.
POINTWISE_CALLS = (
    ("K", "elliptic", "K_pq"),
    ("E", "elliptic", "E_pq"),
    ("Kc", "elliptic", "K_comp"),
    ("Ec", "elliptic", "E_comp"),
    ("delta", "delta_analysis", "delta_result"),
    ("delta_prime", "delta_analysis", "delta_prime_result"),
    ("delta_second", "delta_analysis", "delta_second_result"),
)

#: Draws per (function, r family): 7 x 3 x 150 = 3150 distinct calls per pass.
DRAWS_PER_STRATUM = 150


def _spread_uniforms(rng: random.Random, n: int) -> list[float]:
    """n uniforms on (0, 1), one in each interval [k/n, (k+1)/n), shuffled.

    Each marginal stays exactly uniform, but the sample covers it evenly,
    so the cost distribution (and its tail) varies less from seed to seed.
    """
    values = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return [v if v > 0.0 else 0.5 / n for v in values]


def _r_from_uniform(u: float, family: int) -> float:
    """Family 0: uniform on (0, 1); 1: log-uniform down to 1e-6; 2:
    log-uniform in 1 - r down to 1e-6."""
    if family == 0:
        return u
    if family == 1:
        return 10.0 ** (-6.0 * u)
    return 1.0 - 10.0 ** (-6.0 * u)


class Pointwise:
    name = "pointwise"

    def __init__(self, pq, workdir: Path, seed: int, tiny: bool = False) -> None:
        self.pq = pq
        rng = random.Random(seed)
        draws = 2 if tiny else DRAWS_PER_STRATUM
        calls = []
        for index in range(len(POINTWISE_CALLS)):
            for family in range(3):
                columns = [_spread_uniforms(rng, draws) for _ in range(3)]
                for up, uq, ur in zip(*columns):
                    calls.append((index, 1.1 + 4.9 * up, 1.1 + 4.9 * uq,
                                  _r_from_uniform(ur, family)))
        rng.shuffle(calls)
        self.calls = calls
        self.first_outcomes: list | None = None

    def run_pass(self) -> PassResult:
        pq = self.pq
        funcs = [getattr(getattr(pq, module), attr) for _, module, attr in POINTWISE_CALLS]
        params_cls = pq.PQParams
        clock = time.perf_counter
        durations = array("d")
        outcomes = []
        start = clock()
        for index, p, q, r in self.calls:
            t0 = clock()
            try:
                outcome = funcs[index](params_cls(p, q), r)
            except (ArithmeticError, ValueError) as exc:
                outcome = exc
            durations.append(clock() - t0)
            outcomes.append(outcome)
        wall = clock() - start
        if self.first_outcomes is None:
            self.first_outcomes = outcomes
        fingerprint = hash(tuple(_fingerprint(o) for o in outcomes))
        return PassResult(wall, durations, len(self.calls), slice(None), fingerprint)

    def check(self, passes: list[PassResult]) -> CheckResult:
        out = CheckResult(attempted=len(self.calls), failed=0)
        for i, other in enumerate(passes[1:], start=1):
            if other.outputs != passes[0].outputs:
                out.problems.append(f"pass {i}: outcomes differ from pass 0")
        gated_failures = 0
        for (index, p, q, r), outcome in zip(self.calls, self.first_outcomes):
            quantity = POINTWISE_CALLS[index][0]
            ok = False
            if not isinstance(outcome, Exception) and math.isfinite(outcome.value):
                ok = out.compare(outcome.value, outcome.err_estimate,
                                 reference.reference(quantity, p, q, r))
            if not ok:
                out.failed += 1
                gated_failures += r ** p >= GATE_MIN_X
                what = (type(outcome).__name__ if isinstance(outcome, Exception)
                        else repr(outcome.value))
                out.notes.append(f"{quantity}(p={p!r}, q={q!r}, r={r!r}) -> {what}")
        if gated_failures:
            out.problems.append(f"{gated_failures} calls failed with r**p >= {GATE_MIN_X}")
        return out


def _fingerprint(outcome) -> tuple:
    """What must repeat exactly across passes: the value bits and route, or
    the exception type."""
    if isinstance(outcome, Exception):
        return (type(outcome).__name__,)
    return (float(outcome.value).hex(), float(outcome.err_estimate).hex(), outcome.method)


WORKLOADS = {cls.name: cls for cls in (Certify, Tabulate, Pointwise)}

