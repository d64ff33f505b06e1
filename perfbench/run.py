"""pqelliptic benchmark runner.

    python3 perfbench/run.py --workload {certify,tabulate,pointwise} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory (nothing needs installing or building). One run:

1. times ``import pqelliptic`` in fresh interpreters (``setup_s``);
2. builds the workload's inputs from the seed and runs untraced passes for
   about ``--seconds`` seconds;
3. checks the outputs against independent references, outside every timed
   region;
4. with ``--trace 1``, additionally runs one traced pass and an
   ``-X importtime`` interpreter and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The full result, with run metadata, is written to ``perfbench/out/``.
Exit code 0 when the correctness gate passes, 1 when it fails and 2 when
the program cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Fresh interpreters timed for setup_s (after one untimed warm-up that
#: also fills the bytecode cache).
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120

CLAIM_IDS = (
    "lemma2.1", "lemma2.3", "lemma2.4", "prop1.2", "legendre.anchor", "euler.coherence",
    "gauss.boundary", "gentrig.roundtrip", "theta.bridge", "borwein.takeuchi",
    "delta.antisymmetry", "delta.routes", "delta.range", "derivatives",
    "thm1.3.monotone", "thm1.3.convex", "thm1.3.bounds", "thm1.4.bounds",
)
IMPORT_GROUPS = ("scipy", "numpy", "click")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "peak_rss_mb": "MB",
}


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_import(extra_args: tuple[str, ...] = ()) -> tuple[float, str]:
    """Import pqelliptic in a fresh interpreter; returns (seconds, stderr)."""
    cmd = [sys.executable, *extra_args, "-c", "import pqelliptic"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_subprocess_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    _run_import()
    return [_run_import()[0] for _ in range(repeats)]


def import_breakdown() -> dict[str, float]:
    """Self import time per top-level package from ``-X importtime``."""
    _, stderr = _run_import(("-X", "importtime"))
    groups = {name: 0.0 for name in (*IMPORT_GROUPS, "pqelliptic_own", "total")}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        try:
            self_us = int(fields[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        groups["total"] += self_us * 1e-6
        if top == "pqelliptic":
            groups["pqelliptic_own"] += self_us * 1e-6
        elif top in groups:
            groups[top] += self_us * 1e-6
    return groups


def load_package():
    """Import pqelliptic from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pqelliptic

    if Path(pqelliptic.__file__).resolve().parent != (SRC / "pqelliptic").resolve():
        raise ImportError(f"pqelliptic imported from {pqelliptic.__file__}, not {SRC}")
    # Submodules are reached as attributes (pq.cli.main and so on).
    import pqelliptic.cli  # noqa: F401

    return pqelliptic


def measure(workload, seconds: float) -> list:
    """Run passes until the next one would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolation percentile (inclusive), share in [0, 1]."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_latencies(passes: list) -> list[float]:
    """Each request's best duration over the passes, in seconds.

    The host's speed drifts by tens of percent over tens of seconds, so a
    whole pass is often slowed; the best of a request's repeats is its cost
    with the least interference and is the steadiest figure from run to run.
    """
    return [min(column) for column in zip(*(p.requests for p in passes))]


def end_to_end(setup: list[float], passes: list, peak_rss_mb: float) -> dict:
    best = best_latencies(passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best),
        "ops_per_s": passes[0].ops / sum(best[passes[0].op_requests]),
        "call_p50_us": percentile(best, 0.50) * 1e6,
        "call_p99_us": percentile(best, 0.99) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(summary: dict, tracer, imports: dict[str, float], traced_s: float,
              untraced_s: float, check) -> dict:
    by_name, by_tag = summary["by_name"], summary["by_tag"]

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return by_name.get(name, {}).get("self_s", 0.0)

    def us_per_call(name: str) -> float:
        entry = by_name.get(name)
        return entry["total_s"] / entry["calls"] * 1e6 if entry else 0.0

    def route(name: str, tag: str) -> tuple[int, float]:
        entry = by_tag.get(f"{name}|{tag}")
        if not entry:
            return 0, 0.0
        return entry["calls"], entry["total_s"] / entry["calls"] * 1e6

    f21 = "special.gauss_2f1"
    tanh = "quadrature.tanh_sinh_01"
    m: dict[str, tuple[float, str]] = {}
    m[f"{tanh}.calls"] = (calls(tanh), "count")
    m[f"{tanh}.self_s"] = (self_s(tanh), "s")
    m[f"{tanh}.integrand_evals"] = (tracer.integrand_evals, "count")
    m[f"{tanh}.evals_per_call"] = (tracer.integrand_evals / calls(tanh) if calls(tanh) else 0.0,
                                   "evals/call")
    m[f"{f21}.calls"] = (calls(f21), "count")
    for tag in ("series", "euler_quadrature", "gauss_closed_form"):
        n, us = route(f21, tag)
        m[f"{f21}.calls.{tag}"] = (n, "count")
        if tag != "gauss_closed_form":
            m[f"{f21}.us_per_call.{tag}"] = (us, "us")
    m[f"{f21}.calls.z_gt_0.9"] = (tracer.f21_z_gt_09, "count")
    m[f"{f21}.self_s"] = (self_s(f21), "s")
    m[f"{f21}.distinct_frac"] = (len(tracer.f21_args) / calls(f21) if calls(f21) else 0.0, "ratio")
    m[f"{f21}.nonfinite_err"] = (tracer.f21_nonfinite_err, "count")
    m["special.inc_beta.self_s"] = (self_s("special.inc_beta"), "s")
    m["gentrig.pi_pq.calls"] = (calls("gentrig.pi_pq"), "count")
    for name in ("gentrig.sin_pq", "gentrig.arcsin_pq", "elliptic.euler_integral_oracle",
                 "elliptic.K_theta_integral", "delta_analysis.admissible", "cli.scan"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["delta_analysis.admissible.calls"] = (calls("delta_analysis.admissible"), "count")
    for name in ("elliptic.K_pq", "elliptic.E_pq", "elliptic.K_comp",
                 "delta_analysis.delta_result", "delta_analysis.delta_prime_result",
                 "delta_analysis.delta_second_result"):
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    delta = "delta_analysis.delta_result"
    m[f"{delta}.distinct_frac"] = (len(tracer.delta_args) / calls(delta) if calls(delta) else 0.0,
                                   "ratio")
    m["cli.regions.wall_s"] = (by_name.get("cli.regions", {}).get("total_s", 0.0), "s")
    for claim_id in CLAIM_IDS:
        m[f"claims.{claim_id}.wall_s"] = (by_name.get(f"claims.{claim_id}", {}).get("total_s", 0.0),
                                          "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (sum(entry["self_s"] for name, entry in by_name.items()
                                          if name.split(".", 1)[0] == layer), "s")
    for group, seconds in imports.items():
        m[f"setup.import_s.{group}"] = (seconds, "s")
    m["trace.spans"] = (summary["spans"], "count")
    m["trace.pass_s"] = (traced_s, "s")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    m["gate.failed_frac"] = (check.failed / check.attempted, "ratio")
    m["gate.checked"] = (check.checked, "count")
    m["gate.max_rel_err"] = (check.max_rel_err, "ratio")
    m["gate.err_bound_miss_frac"] = (check.err_bound_misses / check.checked if check.checked
                                     else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_pass(pq, workload):
    """One pass with every layer wrapped; the originals are always restored."""
    tracer = Tracer(pq)
    tracer.install()
    try:
        result = workload.run_pass()
    finally:
        tracer.restore()
    return tracer, result


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _commit() -> str:
    """The git commit when the checkout is a repository, else a hash of src/."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "pqelliptic").rglob("*.py"))


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full result (see the module docstring).

    `tiny` shrinks the inputs and the set-up repeats for the self-tests.
    """
    if not (SRC / "pqelliptic" / "__init__.py").is_file():
        raise FileNotFoundError(f"no pqelliptic package under {SRC}")
    meta = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "loadavg_start": _loadavg(), "commit": _commit(), "src_lines": _src_lines(),
    }
    setup = measure_setup(1 if tiny else SETUP_REPEATS)
    pq = load_package()
    workdir = OUT / ("selftest" if tiny else "work")
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](pq, workdir, seed, tiny=tiny)
    passes = measure(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check = workload.check(passes)
    result = {
        "meta": meta,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "requests_per_pass": len(passes[0].requests),
        "correct": check.gate_ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "gate_problems": check.problems,
        "failures": check.notes[:200],
        "end_to_end": end_to_end(setup, passes, peak_rss_mb),
    }
    if trace:
        imports = import_breakdown()
        tracer, traced = traced_pass(pq, workload)
        untraced_s = statistics.median(p.wall_s for p in passes)
        summary = tracer.summary()
        result["per_layer"] = per_layer(summary, tracer, imports, traced.wall_s,
                                        untraced_s, check)
        result["trace_summary"] = summary
        tracer.write_spans(OUT / f"spans_{workload_name}.csv.gz")
    meta["loadavg_end"] = _loadavg()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    meta = result["meta"]
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"requests/pass={result['requests_per_pass']} python={meta['python']} "
          f"cpus={meta['cpu_count']} commit={meta['commit']} src_lines={meta['src_lines']}")
    print(f"# loadavg start={meta['loadavg_start']!r} end={meta['loadavg_end']!r}")
    for problem in result["gate_problems"]:
        print(f"# GATE FAILED: {problem}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"(first failures: {result['failures'][:3]})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
