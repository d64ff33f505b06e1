"""Fast self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Covers: every workload emits
every metric named in BENCHMARK.json on a tiny input; a traced pass
restores every wrapped attribute; traced counts repeat exactly; and the
tabulate workload stays on the series route with no tanh-sinh calls.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _counts(tracer: Tracer) -> dict:
    summary = tracer.summary()
    counts = {name: entry["calls"] for name, entry in summary["by_name"].items()}
    counts.update({key: entry["calls"] for key, entry in summary["by_tag"].items()})
    counts["integrand_evals"] = tracer.integrand_evals
    counts["f21_distinct"] = len(tracer.f21_args)
    counts["delta_distinct"] = len(tracer.delta_args)
    return counts


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.pq = run.load_package()
        cls.workdir = run.OUT / "selftest"
        cls.workdir.mkdir(parents=True, exist_ok=True)

    def test_tiny_run_emits_every_metric(self) -> None:
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = run.run(name, seed=7, seconds=0.01, trace=True, tiny=True)
                self.assertTrue(result["correct"], result["gate_problems"])
                self.assertEqual(set(result["end_to_end"]), e2e)
                self.assertEqual(set(result["per_layer"]), layers)
                for metric in (*result["end_to_end"].values(), *result["per_layer"].values()):
                    self.assertIsInstance(metric["value"], (int, float))
                for metric in result["end_to_end"].values():
                    self.assertGreater(metric["value"], 0.0)

    def test_traced_pass_restores_every_attribute(self) -> None:
        workload = WORKLOADS["pointwise"](self.pq, self.workdir, 3, tiny=True)
        tracer = Tracer(self.pq)
        tracer.install()
        sites = tracer.patched_sites
        try:
            workload.run_pass()
        finally:
            tracer.restore()
        self.assertGreater(len(sites), 50)
        for owner, attr, original in sites:
            self.assertIs(getattr(owner, attr), original, f"{owner}.{attr}")
        for module in tracer._modules():
            for attr, value in vars(module).items():
                self.assertNotEqual(getattr(value, "__module__", None), "layertrace",
                                    f"{module.__name__}.{attr} still wrapped")

    def test_traced_counts_repeat(self) -> None:
        for name in ("pointwise", "certify"):
            with self.subTest(workload=name):
                counts = []
                for _ in range(2):
                    workload = WORKLOADS[name](self.pq, self.workdir, 5, tiny=True)
                    tracer, _ = run.traced_pass(self.pq, workload)
                    counts.append(_counts(tracer))
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["special.gauss_2f1"], 0)

    def test_tabulate_takes_only_the_series_route(self) -> None:
        workload = WORKLOADS["tabulate"](self.pq, self.workdir, 1)
        tracer, _ = run.traced_pass(self.pq, workload)
        summary = tracer.summary()
        self.assertNotIn("quadrature.tanh_sinh_01", summary["by_name"])
        self.assertEqual(tracer.integrand_evals, 0)
        routes = {key.split("|", 1)[1] for key in summary["by_tag"]
                  if key.startswith("special.gauss_2f1|")}
        self.assertEqual(routes, {"series"})


if __name__ == "__main__":
    unittest.main()
