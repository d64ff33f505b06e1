"""Command-line surface: point evaluation, grid scans, claim verification,
and admissibility region maps.

Exit codes: 0 on success (verify: all claims pass or are skipped), 1 when
any verified claim fails, 2 on usage or domain errors. CSV and JSON output
is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from types import SimpleNamespace

import click

from . import claims as claims_mod
from . import delta_analysis as delta_mod
from . import elliptic
from .claims import AxisRange, ScanGrid
from .gentrig import PQParams
from .special import (
    METHOD_GAUSS_CLOSED_FORM,
    DivergenceError,
    DomainError,
    EvalResult,
)

#: The evaluator of each quantity at a modulus r; "pi" needs no r.
_EVALUATORS = {
    "K": elliptic.K_pq,
    "E": elliptic.E_pq,
    "Kc": elliptic.K_comp,
    "Ec": elliptic.E_comp,
    "delta": delta_mod.delta_result,
    "delta_prime": delta_mod.delta_prime_result,
    "delta_second": delta_mod.delta_second_result,
}
QUANTITIES = (*_EVALUATORS, "pi")

EXIT_FAIL = 1
EXIT_USAGE = 2


def _evaluate(quantity: str, params: PQParams, r: float | None) -> EvalResult:
    if quantity == "pi":
        return EvalResult(params.pi_pq, 4e-16 * params.pi_pq, METHOD_GAUSS_CLOSED_FORM)
    if r is None:
        raise DomainError(f"quantity {quantity} requires --r")
    return _EVALUATORS[quantity](params, r)


def _parse_grid(text: str | None, **pins: float | None) -> ScanGrid:
    """Parse 'p:lo:hi:n,q:lo:hi:n,r:lo:hi:n[,s:lo:hi:n]' with defaults; an axis
    given a pinned value (p=2.0) holds that single value."""
    axes = {
        "p": claims_mod.DEFAULT_GRID.p,
        "q": claims_mod.DEFAULT_GRID.q,
        "r": claims_mod.DEFAULT_GRID.r,
        "s": None,
    }
    if text:
        for chunk in text.split(","):
            parts = chunk.split(":")
            if len(parts) != 4 or parts[0] not in axes:
                raise click.UsageError(
                    f"bad grid component {chunk!r}; expected axis:lo:hi:n with axis "
                    "one of p, q, r, s")
            try:
                lo, hi, steps = float(parts[1]), float(parts[2]), int(parts[3])
            except ValueError as exc:
                raise click.UsageError(f"bad grid component {chunk!r}: {exc}") from exc
            axes[parts[0]] = AxisRange(lo, hi, steps)
    for name, value in pins.items():
        if value is not None:
            axes[name] = AxisRange(value, value, 1)
    try:
        return ScanGrid(**axes)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
def main() -> None:
    """Numerical library and certification tool for generalized elliptic
    integrals and their difference function."""


@main.command("eval")
@click.option("--p", "p_", type=float, required=True, help="First exponent, > 1.")
@click.option("--q", "q_", type=float, required=True, help="Second exponent, > 1.")
@click.option("--r", "r_", type=float, default=None, help="Modulus (not needed for pi).")
@click.option("--quantity", type=click.Choice(QUANTITIES), required=True)
def cmd_eval(p_: float, q_: float, r_: float | None, quantity: str) -> None:
    """Evaluate one quantity at a single point."""
    try:
        params = PQParams(p_, q_)
        result = _evaluate(quantity, params, r_)
    except (DomainError, DivergenceError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    click.echo(f"value = {result.value:.10f}")
    click.echo(f"err_estimate = {result.err_estimate:.3e}")
    click.echo(f"method = {result.method}")


@main.command("scan")
@click.option("--grid", "grid_text", default=None,
              help="Grid axes p:lo:hi:n,q:lo:hi:n,r:lo:hi:n (defaults per axis).")
@click.option("--quantity", type=click.Choice(QUANTITIES), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_scan(grid_text: str | None, quantity: str, out_path: str) -> None:
    """Scan a quantity over a grid and write a CSV table.

    Rows are emitted in lexicographic (p, q, r) order; per-point domain
    errors become nan rows with a diagnostic note instead of aborting.
    """
    grid = _parse_grid(grid_text)
    r_points = [(r, f"{r:.17g}") for r in grid.r.points()]
    lines = ["p,q,r,value,err_estimate,method,note\n"]
    # A row with a note goes through csv, which quotes what the note may hold.
    note_writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    for p, q, params in claims_mod._grid_params(grid):
        p_text, q_text = f"{p:.17g}", f"{q:.17g}"
        for r, r_text in r_points:
            try:
                result = _evaluate(quantity, params, r)
                lines.append(f"{p_text},{q_text},{r_text},{result.value:.17g},"
                             f"{result.err_estimate:.17g},{result.method},\n")
            except (DomainError, DivergenceError) as exc:
                note_writer.writerow([p_text, q_text, r_text, "nan", "nan", "", str(exc)])
    with open(out_path, "w", newline="") as handle:
        handle.write("".join(lines))
    click.echo(f"wrote {len(lines) - 1} rows to {out_path}")


@main.command("verify")
@click.option("--claims", "claims_text", default=None,
              help="Comma-separated claim ids (default: every registered claim).")
@click.option("--grid", "grid_text", default=None, help="Grid axes as for scan.")
@click.option("--p", "p_", type=float, default=None, help="Pin the p axis to one value.")
@click.option("--q", "q_", type=float, default=None, help="Pin the q axis to one value.")
@click.option("--r", "r_", type=float, default=None, help="Pin the r axis to one value.")
@click.option("--s", "s_", type=float, default=None, help="Pin the s axis to one value.")
@click.option("--tol", type=float, default=None,
              help="Override the residual tolerance of identity claims.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report here.")
def cmd_verify(claims_text: str | None, grid_text: str | None, p_: float | None,
               q_: float | None, r_: float | None, s_: float | None,
               tol: float | None, out_path: str | None) -> None:
    """Run certification claims over a grid and report pass/fail per claim."""
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise click.UsageError(f"--tol must be finite and > 0, got {tol}")
    grid = _parse_grid(grid_text, p=p_, q=q_, r=r_, s=s_)
    if claims_text:
        claim_ids = [cid.strip() for cid in claims_text.split(",") if cid.strip()]
    else:
        claim_ids = list(claims_mod.CLAIMS)
    unknown = [cid for cid in claim_ids if cid not in claims_mod.CLAIMS]
    if unknown:
        click.echo(f"error: unknown claim id(s): {', '.join(unknown)}; known ids: "
                   f"{', '.join(claims_mod.CLAIMS)}", err=True)
        sys.exit(EXIT_USAGE)
    report = claims_mod.build_report(claim_ids, grid, tol)
    for claim in report["claims"]:
        worst = claim["worst_residual"]
        detail = "n/a" if worst is None else f"{worst:.3e}"
        click.echo(f"{claim['status'].upper():7s} {claim['id']}"
                   f" ({claim['residual_kind']}={detail})")
        for note in claim["notes"]:
            click.echo(f"        note: {note}")
    if out_path is not None:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        click.echo(f"wrote report to {out_path}")
    sys.exit(0 if report["all_pass"] else EXIT_FAIL)


@main.command("regions")
@click.option("--grid", "grid_text", default=None,
              help="Grid axes; only the p and q components are used.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_regions(grid_text: str | None, out_path: str) -> None:
    """Map the admissibility region over (p, q) to a CSV table.

    Conditions are decided in exact rational arithmetic; epsilon is
    reported in full precision. Suitable for external plotting.
    """
    grid = _parse_grid(grid_text)
    lines = ["p,q,cond1,epsilon,admissible\n"]
    for p, q in grid.pq_points():
        cond, eps, adm = delta_mod._admissibility(p, q)
        lines.append(f"{p:.17g},{q:.17g},{str(cond).lower()},{eps:.17g},{str(adm).lower()}\n")
    with open(out_path, "w", newline="") as handle:
        handle.write("".join(lines))
    click.echo(f"wrote region map to {out_path}")


if __name__ == "__main__":
    main()
