"""Command-line surface: formats, determinism, and the exit-code contract."""

import csv
import io
import json
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from pqelliptic import cli, delta_analysis
from pqelliptic.claims import CLAIMS, DEFAULT_GRID, AxisRange, ScanGrid, build_report, run_claim
from pqelliptic.cli import main
from pqelliptic.special import DomainError

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def read_rows(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def assert_csv_writer_bytes(path):
    """The file is what csv.writer writes for its parsed rows."""
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    expected = io.StringIO(newline="")
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode()
    return rows


class TestEval:
    def test_first_kind_at_zero(self, runner):
        result = invoke(runner, "eval", "--p", "2", "--q", "2", "--r", "0",
                        "--quantity", "K")
        assert result.exit_code == 0
        assert "value = 1.5707963268" in result.output
        assert "method = " in result.output
        assert "err_estimate = " in result.output

    def test_pi_without_r(self, runner):
        result = invoke(runner, "eval", "--p", "2", "--q", "2", "--quantity", "pi")
        assert result.exit_code == 0
        assert "value = 3.1415926536" in result.output

    def test_agm_cross_check(self, runner):
        from pqelliptic import legendre_K_agm

        result = invoke(runner, "eval", "--p", "2", "--q", "2", "--r", "0.8",
                        "--quantity", "K")
        value = float(re.search(r"value = ([-\d.]+)", result.output).group(1))
        assert abs(value - legendre_K_agm(0.8)) < 1e-9  # printed to 10 decimals

    def test_domain_error_exit_code_and_diagnostic(self, runner):
        result = runner.invoke(main, ["eval", "--p", "2", "--q", "2", "--r", "1",
                                      "--quantity", "K"])
        assert result.exit_code == 2
        assert "r in [0, 1)" in result.output

    def test_missing_r_is_domain_error(self, runner):
        result = runner.invoke(main, ["eval", "--p", "2", "--q", "2",
                                      "--quantity", "delta"])
        assert result.exit_code == 2
        assert "requires --r" in result.output


class TestScan:
    def test_monotone_delta_column(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        result = invoke(runner, "scan", "--grid", "p:2:2:1,q:2:2:1,r:0.1:0.9:9",
                        "--quantity", "delta", "--out", str(out))
        assert result.exit_code == 0
        rows = read_rows(out)
        assert len(rows) == 9
        values = [float(row["value"]) for row in rows]
        assert all(values[i] < values[i + 1] for i in range(8))
        assert all(row["note"] == "" for row in rows)

    def test_header(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        invoke(runner, "scan", "--grid", "p:2:2:1,q:2:2:1,r:0.5:0.5:1",
               "--quantity", "E", "--out", str(out))
        header = out.read_text().splitlines()[0]
        assert header == "p,q,r,value,err_estimate,method,note"

    def test_domain_error_point_becomes_nan_row(self, runner, tmp_path):
        # r**p underflows to 0 at r = 1e-200, so the first-kind 2F1 of the
        # complement sits at z = 1 exactly and raises DivergenceError.
        out = tmp_path / "scan.csv"
        result = invoke(runner, "scan",
                        "--grid", "p:2:2:1,q:2:2:1,r:1e-200:1e-200:1",
                        "--quantity", "Kc", "--out", str(out))
        assert result.exit_code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0]["value"] == "nan"
        assert rows[0]["note"] != ""

    def test_rows_are_the_bytes_csv_writes(self, runner, tmp_path, monkeypatch):
        # Rows without a note are joined as plain lines; a note goes through csv,
        # which quotes its comma and doubles its quotes.
        note = 'bad, "quoted" note'
        evaluate = cli._EVALUATORS["delta"]

        def refusing(params, r):
            if r == 0.5:
                raise DomainError(note)
            return evaluate(params, r)

        monkeypatch.setitem(cli._EVALUATORS, "delta", refusing)
        out = tmp_path / "scan.csv"
        invoke(runner, "scan", "--grid", "p:1.5:3:2,q:2:3:2,r:0.1:0.9:5",
               "--quantity", "delta", "--out", str(out))
        rows = assert_csv_writer_bytes(out)
        assert len(rows) == 1 + 2 * 2 * 5
        refused = [row for row in rows[1:] if row[-1]]
        assert [row[2:] for row in refused] == [["0.5", "nan", "nan", "", note]] * 4
        assert '"bad, ""quoted"" note"' in out.read_text()

    def test_byte_identical_reruns(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            invoke(runner, "scan", "--grid", "p:1.5:3:4,q:1.5:3:4,r:0.1:0.9:5",
                   "--quantity", "delta", "--out", str(out))
        assert out1.read_bytes() == out2.read_bytes()

    def test_in_process_scan_equals_a_fresh_process(self, runner, tmp_path):
        # Series coefficient tables left by earlier scans (the slope shares its
        # 2F1 family with the curvature) must not change a digit.
        grid = "p:1.5:3:4,q:1.5:3:4,r:0.05:0.95:7"
        warm, fresh = tmp_path / "warm.csv", tmp_path / "fresh.csv"
        invoke(runner, "scan", "--grid", grid, "--quantity", "delta_prime",
               "--out", str(tmp_path / "slope.csv"))
        invoke(runner, "scan", "--grid", grid, "--quantity", "delta_second", "--out", str(warm))
        subprocess.run([sys.executable, "-m", "pqelliptic", "scan", "--grid", grid,
                        "--quantity", "delta_second", "--out", str(fresh)],
                       check=True, capture_output=True, timeout=120)
        assert warm.read_bytes() == fresh.read_bytes()

    def test_axis_ends_exactly_at_hi(self, runner, tmp_path):
        # 0.1 + 3 * (0.8 / 3) rounds to 0.9000000000000001
        out = tmp_path / "scan.csv"
        invoke(runner, "scan", "--grid", "p:2:2:1,q:2:2:1,r:0.1:0.9:4",
               "--quantity", "delta", "--out", str(out))
        rows = read_rows(out)
        assert [float(row["r"]) for row in (rows[0], rows[-1])] == [0.1, 0.9]

    def test_bad_grid_is_usage_error(self, runner):
        result = runner.invoke(main, ["scan", "--grid", "p:0.5:2:3",
                                      "--quantity", "K", "--out", "x.csv"])
        assert result.exit_code == 2


class TestVerify:
    def test_single_claim_pass(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "lemma2.1",
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert "PASS" in result.output
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        claim = report["claims"][0]
        assert claim["id"] == "lemma2.1"
        assert claim["fail_count"] == 0
        assert claim["worst_residual"] < 1e-9

    def test_bounds_claim_records_classical_slope(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "thm1.3.bounds",
                                      "--p", "2", "--q", "2", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert any("0.4292037" in note for note in report["claims"][0]["notes"])

    def test_inadmissible_point_skips(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "thm1.3.convex",
                                      "--p", "1.2", "--q", "2", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        claim = report["claims"][0]
        assert claim["status"] == "skipped"
        assert any("inadmissible" in note for note in claim["notes"])

    def test_unknown_claim_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--claims", "no.such.claim"])
        assert result.exit_code == 2
        assert "unknown claim" in result.output

    def test_pair_grid_from_s_axis(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "thm1.4.bounds",
                                      "--p", "2", "--q", "2",
                                      "--grid", "r:0.2:0.8:4,s:0.2:0.8:5",
                                      "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        # 4 x 5 pairs, two strict sides each
        assert claim["pass_count"] == 40
        assert claim["status"] == "pass"

        result = runner.invoke(main, ["verify", "--claims", "thm1.4.bounds",
                                      "--p", "2", "--q", "2", "--r", "0.5", "--s", "0.4",
                                      "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert claim["pass_count"] == 2  # the single pinned pair, both sides
        assert claim["status"] == "pass"

    def test_routes_claim_notes_samples_the_direct_route_refuses(self, runner, tmp_path):
        # At p = 6, r = 0.05 has r**p = 1.6e-8, below the direct route's accuracy floor.
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "delta.routes",
                                      "--p", "6", "--q", "2", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert claim["status"] == "pass"
        assert claim["pass_count"] == 18
        assert claim["notes"] == ["direct route skipped 1 sample(s) with r**p or 1 - r**p "
                                  "< 1e-06, where its subtraction loses digits, first at p=6, "
                                  "q=2, r=0.05"]

    def test_routes_claim_certifies_r_near_both_ends(self, runner, tmp_path):
        # r = 0.01 and 0.99 have r**2 = 1e-4 and 1 - r**2 = 0.0199, both above the floor.
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "delta.routes", "--p", "2",
                                      "--q", "2", "--grid", "r:0.01:0.99:3", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert (claim["status"], claim["pass_count"], claim["notes"]) == ("pass", 3, [])

    def test_derivatives_claim_skips_r_too_near_the_ends_for_its_probe(self, runner, tmp_path):
        # At r = 0.001 the slope probe's truncation error (1e-5/0.001)**2 = 1e-4 passes 1e-7.
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "derivatives",
                                      "--grid", "r:0.001:0.999:9", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert claim["status"] == "pass" and claim["fail_count"] == 0
        assert claim["notes"][1] == (
            "finite-difference probe skipped 50 sample(s) where its truncation error "
            "(h/d)**2, d = min(r, 1 - r), may pass the registered tolerance 1e-07, "
            "first at p=1.75, q=2.25, r=0.001")

        result = runner.invoke(main, ["verify", "--claims", "derivatives", "--p", "2",
                                      "--q", "2", "--r", "0.001", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert (claim["status"], claim["notes"]) == ("skipped", [
            CLAIMS["derivatives"].skip_note,
            "finite-difference probe skipped 1 sample(s) where its truncation error "
            "(h/d)**2, d = min(r, 1 - r), may pass the registered tolerance 1e-07, "
            "first at p=2, q=2, r=0.001"])

    def test_derivatives_claim_probes_the_same_samples_under_a_tighter_tol(self, runner,
                                                                           tmp_path):
        # The probe's skip rule reads the registered 1e-7, so --tol only tightens the test.
        out = tmp_path / "report.json"
        claims = {}
        for tol in (None, "1e-9", "1e-30"):
            args = ["verify", "--claims", "derivatives", "--p", "2", "--q", "2",
                    "--out", str(out)] + (["--tol", tol] if tol else [])
            runner.invoke(main, args)
            claims[tol] = json.loads(out.read_text())["claims"][0]
        counts = {tol: c["pass_count"] + c["fail_count"] for tol, c in claims.items()}
        assert counts == {None: 38, "1e-9": 38, "1e-30": 38}
        assert (claims[None]["status"], claims["1e-30"]["status"]) == ("pass", "fail")

    def test_derivatives_skip_note_names_the_registered_tolerance(self, runner, tmp_path):
        # The skips are decided by the registered 1e-7, not by --tol 1e-9.
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "derivatives", "--grid",
                                      "r:0.001:0.999:9", "--tol", "1e-9", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert claim["status"] == "pass" and claim["fail_count"] == 0
        assert claim["notes"][1] == (
            "finite-difference probe skipped 50 sample(s) where its truncation error "
            "(h/d)**2, d = min(r, 1 - r), may pass the registered tolerance 1e-07, "
            "first at p=1.75, q=2.25, r=0.001")

    def test_claim_with_no_evaluated_sample_keeps_its_own_notes(self, runner, tmp_path):
        # r**p = 1.6e-8: delta.routes skips the only sample and says which and why.
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "delta.routes", "--p", "6",
                                      "--q", "2", "--r", "0.05", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert (claim["status"], claim["notes"]) == ("skipped", [
            CLAIMS["delta.routes"].skip_note,
            "direct route skipped 1 sample(s) with r**p or 1 - r**p < 1e-06, where its "
            "subtraction loses digits, first at p=6, q=2, r=0.05"])

    def test_euler_claim_notes_samples_the_oracle_refuses(self, runner, tmp_path):
        # At p = 1.5, r = 0.9995 has 1 - r**p = 7.5e-4, below the oracle's 1e-3.
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "euler.coherence", "--p", "1.5",
                                      "--q", "2", "--grid", "r:0.5:0.9995:3", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert (claim["status"], claim["pass_count"]) == ("pass", 4)
        assert claim["notes"] == ["Euler quadrature skipped 2 sample(s) it refuses "
                                  "(1 - r**p < 0.001, or no convergence), first at p=1.5, "
                                  "q=2, r=0.9995, quantity=K"]

    def test_lemma23_notes_samples_where_the_argument_rounds_to_one(self, runner, tmp_path):
        # At p = 40, r = 0.3 the proof instantiation's z = 1 - r**p rounds to 1.
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "lemma2.3",
                                      "--grid", "p:31:40:2,q:1.5:4:2", "--out", str(out)])
        assert result.exit_code == 0
        claim = json.loads(out.read_text())["claims"][0]
        assert claim["status"] == "pass"
        assert claim["notes"] == ["proof instantiation skipped 2 sample(s) where 1 - r**p "
                                  "rounds to 1, first at p=40, q=1.5, r=0.3"]

    def test_report_schema(self, runner, tmp_path):
        # The layout documented under "Verification report JSON" in README.md.
        out = tmp_path / "report.json"
        runner.invoke(main, ["verify", "--claims", "prop1.2,thm1.3.convex",
                             "--p", "1.2", "--q", "2", "--out", str(out)])
        report = json.loads(out.read_text())
        assert set(report) == {"grid", "tolerance_override", "claims", "all_pass"}
        assert report["grid"] == {"p": {"lo": 1.2, "hi": 1.2, "steps": 1},
                                  "q": {"lo": 2.0, "hi": 2.0, "steps": 1},
                                  "r": {"lo": 0.05, "hi": 0.95, "steps": 19},
                                  "s": None}
        assert report["tolerance_override"] is None
        assert report["all_pass"] is True
        keys = {"id", "description", "status", "pass_count", "fail_count", "residual_kind",
                "tolerance", "worst_residual", "worst_location", "failures", "notes"}
        passed, skipped = report["claims"]
        assert set(passed) == keys and set(skipped) == keys
        assert (passed["id"], passed["status"]) == ("prop1.2", "pass")
        assert passed["residual_kind"] == "max_abs_residual"
        assert passed["tolerance"] == 1e-10
        assert passed["worst_location"] is not None
        assert (skipped["id"], skipped["status"]) == ("thm1.3.convex", "skipped")
        assert skipped["residual_kind"] == "min_margin"
        assert skipped["tolerance"] is None
        assert skipped["pass_count"] == skipped["fail_count"] == 0
        assert skipped["worst_residual"] is None and skipped["worst_location"] is None
        assert skipped["failures"] == []

    def test_byte_identical_reports(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--claims", "lemma2.4,prop1.2,delta.range",
                "--grid", "p:1.5:3:3,q:1.5:3:3,r:0.1:0.9:5"]
        runner.invoke(main, args + ["--out", str(out1)])
        runner.invoke(main, args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_tolerance_override_can_fail_a_claim(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--claims", "lemma2.1",
                                      "--tol", "1e-30", "--out", str(out)])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        claim = json.loads(out.read_text())["claims"][0]
        assert claim["fail_count"] == len(claim["failures"]) > 0
        # every failing sample carries its coordinates
        assert all({"a", "b", "r"} <= set(entry) for entry in claim["failures"])


def _sub_grid(r: AxisRange) -> ScanGrid:
    # 7 of its 36 (p, q) pairs are admissible.
    return ScanGrid(AxisRange(1.5, 4.0, 6), AxisRange(1.5, 4.0, 6), r)


def _counting_delta(monkeypatch) -> Counter:
    """Count delta_result calls per thread."""
    calls: Counter = Counter()
    original = delta_analysis.delta_result

    def counted(params, r):
        calls[threading.get_ident()] += 1
        return original(params, r)

    monkeypatch.setattr(delta_analysis, "delta_result", counted)
    return calls


class TestSharedGridValues:
    """One build_report shares its grid values between claims, and no value
    outlives the report or crosses to another thread's."""

    GRID = _sub_grid(AxisRange(0.05, 0.95, 7))

    def test_each_entry_equals_its_claim_run_alone(self, monkeypatch):
        calls = _counting_delta(monkeypatch)
        report = build_report(list(CLAIMS), self.GRID)
        shared = sum(calls.values())
        calls.clear()
        alone = [run_claim(cid, self.GRID).as_dict() for cid in CLAIMS]
        assert report["claims"] == alone
        assert shared < sum(calls.values())  # the report reads some values twice

    def test_the_store_does_not_outlive_its_report(self, monkeypatch):
        calls = _counting_delta(monkeypatch)
        build_report(list(CLAIMS), self.GRID)
        first = sum(calls.values())
        calls.clear()
        build_report(list(CLAIMS), self.GRID)
        assert sum(calls.values()) == first

    def test_concurrent_reports_equal_reports_run_alone(self, monkeypatch):
        # Four of the first grid's r points are the second's: a store shared by
        # both reports, or ended by one, would change the other's delta calls.
        grids = (self.GRID, _sub_grid(AxisRange(0.05, 0.95, 4)))
        calls = _counting_delta(monkeypatch)
        alone = []
        for grid in grids:
            calls.clear()
            alone.append((build_report(list(CLAIMS), grid), sum(calls.values())))
        calls.clear()
        barrier, together = threading.Barrier(len(grids)), [None] * len(grids)

        def run(i):
            barrier.wait()
            together[i] = (build_report(list(CLAIMS), grids[i]), calls[threading.get_ident()])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(grids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert together == alone


class TestRegions:
    def test_rows(self, runner, tmp_path):
        out = tmp_path / "regions.csv"
        result = invoke(runner, "regions", "--grid", "p:1.2:2:2,q:2:2:1",
                        "--out", str(out))
        assert result.exit_code == 0
        rows = {row["p"]: row for row in read_rows(out)}
        assert rows["2"]["cond1"] == "true"
        assert rows["2"]["epsilon"] == "2.4375"
        assert rows["2"]["admissible"] == "true"
        assert rows["1.2"]["cond1"] == "false"
        assert rows["1.2"]["admissible"] == "false"

    def test_rows_are_the_bytes_csv_writes(self, runner, tmp_path):
        out = tmp_path / "regions.csv"
        invoke(runner, "regions", "--grid", "p:1.05:4:12,q:1.05:4:12", "--out", str(out))
        rows = assert_csv_writer_bytes(out)
        assert len(rows) == 1 + 12 * 12
        assert {row[2] for row in rows[1:]} == {row[4] for row in rows[1:]} == {"true", "false"}

    def test_axis_ends_exactly_at_hi(self, runner, tmp_path):
        # 1.05 + 3 * (2.95 / 3) rounds to 4.000000000000001
        out = tmp_path / "regions.csv"
        invoke(runner, "regions", "--grid", "p:1.05:4:4,q:2:2:1", "--out", str(out))
        assert read_rows(out)[-1]["p"] == "4"

    def test_large_exponent_corner(self, runner, tmp_path):
        out = tmp_path / "regions.csv"
        invoke(runner, "regions", "--grid", "p:10:10:1,q:10:10:1", "--out", str(out))
        row = read_rows(out)[0]
        assert row["cond1"] == "false"  # 0.6 < 2.11: lower inequality fails
        assert row["admissible"] == "false"
        # epsilon tends to 20 only in the p, q -> infinity limit
        assert float(row["epsilon"]) == pytest.approx(16.3959, abs=1e-4)


class TestExitCodeContractViaSubprocess:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "pqelliptic", *args],
                              capture_output=True, text=True)

    def test_pass_is_zero(self):
        proc = self.run_cli("verify", "--claims", "prop1.2")
        assert proc.returncode == 0

    def test_fail_is_one(self):
        proc = self.run_cli("verify", "--claims", "prop1.2", "--tol", "1e-30")
        assert proc.returncode == 1

    def test_usage_error_is_two(self):
        proc = self.run_cli("verify", "--claims", "bogus")
        assert proc.returncode == 2
        proc = self.run_cli("eval", "--p", "2", "--q", "2", "--r", "2",
                            "--quantity", "K")
        assert proc.returncode == 2
        # An infinite exponent is refused, not evaluated as a limit.
        proc = self.run_cli("eval", "--p", "inf", "--q", "2", "--r", "0.5",
                            "--quantity", "K")
        assert proc.returncode == 2
        assert "finite p > 1" in proc.stderr

    @pytest.mark.parametrize("args", [
        *((command, "--grid", grid) for command in ("scan", "regions", "verify")
          for grid in ("p:1.5:inf:3", "q:1.5:nan:3")),
        *(("verify", "--claims", "prop1.2", "--tol", tol) for tol in ("nan", "inf", "0", "-1")),
    ])
    def test_non_finite_grid_or_non_positive_tolerance_is_two(self, args, tmp_path):
        if args[0] == "scan":
            args += ("--quantity", "K")
        if args[0] != "verify":
            args += ("--out", str(tmp_path / "out.csv"))
        proc = self.run_cli(*args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "Error:" in proc.stderr


class TestRegistryCompleteness:
    def test_every_documented_claim_is_registered_and_runnable(self):
        text = README.read_text()
        section = text.split("## Claim registry", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `([a-z0-9.]+)` \|", section,
                                    flags=re.MULTILINE))
        assert documented == set(CLAIMS)

    def test_all_claims_have_descriptions(self):
        for claim_id, spec in CLAIMS.items():
            assert spec.description, claim_id

    def test_unknown_claim_id_raises_key_error(self):
        with pytest.raises(KeyError) as raised:
            run_claim("bogus", DEFAULT_GRID)
        assert raised.value.args == ("bogus",)
