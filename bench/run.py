"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`, so
nothing has to be installed.  With `--trace 0` the last line of standard
output is a JSON object whose metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` they are its per-layer metrics.  The
line before it describes the run: versions, job names, failures.

Every workload runs in its own fresh worker process with the BLAS and
OpenMP thread counts set to 1.  Set-up time is measured in separate
fresh interpreters that only import `holosphere.cli`.  Every timing is
scaled to a reference host speed by the calibration loops of
`calibration.py`, timed right before and after it.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibration import calibration_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 5        # fresh imports timed for setup_s
IMPORTTIME_RUNS = 3   # fresh `-X importtime` imports for the breakdown
WORKER_TIMEOUT_S = 160
# Timings are scaled to a host on which `calibration_s` returns this;
# see README.md, "Timings".
REFERENCE_CALIBRATION_S = 0.005
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Spans whose self time is reported; together with trace.unspanned_s they
# add up to trace.wall_s.
SPANS = (
    "chain.f_chain_eval", "chain.jets_at", "chain.gram_schmidt", "chain.scan_grid",
    "chain.build_alpha_chain", "chain.recursion_crosscheck",
    "expr.eval_expr", "quadrature.integrate_segment", "fd.wirtinger",
    "geometry.verify_all", "geometry.minimality_residual", "geometry.calabi_check",
    "applications.kaehler_point", "applications.kaehler_immersion_check",
    "applications.ruled_minimality_probe",
    "reconstruct.probe_termination", "reconstruct.sample_xi", "reconstruct.xi_fit",
    "reconstruct.xi_jet", "reconstruct.roundtrip",
    "meshio.mesh_from_grid", "meshio.write_obj", "meshio.write_surface_csv",
    "meshio.write_ply",
    "cli.main", "config.validate_config",
)
# Counts reported as they are (per traced pass).
COUNTS = (
    "chain.f_chain_eval.calls", "chain.f_chain_eval.points",
    "expr.eval_expr.calls", "quadrature.integrate_segment.calls", "quadrature.panels",
    "expr.antiderivative.cache_entries",
    "fd.wirtinger.calls", "fd.wirtinger.stencil_points",
    "geometry.surface_evaluator.points",
    "applications.kaehler_point.calls", "applications.ruled_point.calls",
    "reconstruct.sampled_points",
    "meshio.bytes_written", "cli.json_bytes",
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def time_imports(env, runs):
    """Median wall time of fresh interpreters that import holosphere.cli,
    each scaled to the reference host speed."""
    cmd = [sys.executable, "-c", "import holosphere.cli"]
    times = []
    for _ in range(runs):
        before = calibration_s()
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        elapsed = perf_counter() - t0
        calibration = (before + calibration_s()) / 2
        times.append(elapsed * REFERENCE_CALIBRATION_S / calibration)
    return statistics.median(times)


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def import_breakdown(env, runs):
    """numpy, scipy and holosphere's own share of `import holosphere.cli`
    from `python -X importtime`, medians over `runs` fresh imports."""
    terms = {"numpy": [], "scipy": [], "holosphere": []}
    cmd = [sys.executable, "-X", "importtime", "-c", "import holosphere.cli"]
    for _ in range(runs):
        err = subprocess.run(cmd, env=env, check=True, cwd=ROOT,
                             capture_output=True, text=True).stderr
        lines = [(len(m.group(3)), m.group(4).split(".")[0], int(m.group(2)))
                 for m in map(_IMPORTTIME.match, err.splitlines()) if m]
        # importtime prints children before parents; walk it reversed so
        # that each line's ancestors are on the stack.
        sums = dict.fromkeys(terms, 0)
        stack = []
        for depth, top, cumulative_us in reversed(lines):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            outer = {name for _, name in stack}
            if top in sums and not outer & {"numpy", "scipy", top}:
                sums[top] += cumulative_us
            stack.append((depth, top))
        for name in terms:
            own = sums[name] - (sums["numpy"] + sums["scipy"]
                                if name == "holosphere" else 0)
            terms[name].append(own / 1e6)
    return {f"setup.import_{k}_s": statistics.median(v) for k, v in terms.items()}


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "holosphere").glob("*.py")))


def run_worker(args, env, workdir):
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def job_times(passes):
    """Each job's median latency over the given passes, every run of it
    scaled to the reference host speed."""
    scaled = [[t * REFERENCE_CALIBRATION_S / c
               for t, c in zip(p["latencies"], p["calibration_s"])] for p in passes]
    return [statistics.median(runs) for runs in zip(*scaled)]


def end_to_end(raw, setup_s):
    typical = job_times([p for p in raw["passes"] if not p["traced"]])
    return {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "job_p50_s": statistics.median(typical),
        "peak_rss_mb": raw["peak_rss_mb"],
        "pass_ratio": 1.0 - raw["failed"] / raw["attempted"],
        "tol_margin_decades": raw["tol_margin_decades"],
    }


def per_layer(raw, breakdown):
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]

    def count(key):
        return _mean([p["counts"].get(key, 0) for p in traced])

    out = dict(breakdown)
    for span in SPANS:
        out[f"{span}.self_s"] = _mean([p["self_s"].get(span, 0.0) for p in traced])
    for key in COUNTS:
        out[key] = count(key)
    unknown = {k for p in traced for k in p["self_s"]} - set(SPANS)
    if unknown:
        raise SystemExit(f"spans without a metric: {sorted(unknown)}")

    calls = out["chain.f_chain_eval.calls"]
    out["chain.f_chain_eval.points_per_call"] = (
        out["chain.f_chain_eval.points"] / calls if calls else 0.0)
    hits = count("expr.antiderivative.hits")
    lookups = hits + out["expr.antiderivative.cache_entries"]
    out["expr.antiderivative.hit_ratio"] = hits / lookups if lookups else 0.0
    sampled = out["reconstruct.sampled_points"]
    out["geometry.surface_evaluator.points_per_sample"] = (
        out["geometry.surface_evaluator.points"] / sampled if sampled else 0.0)
    out["reconstruct.termination_residual_max"] = raw["observed"].get(
        "reconstruct.termination_residual", 0.0)

    wall = _mean([p["wall_s"] for p in traced])
    out["trace.wall_s"] = wall
    out["trace.unspanned_s"] = wall - sum(out[f"{s}.self_s"] for s in SPANS)
    out["trace.overhead_s"] = wall - _mean([p["wall_s"] for p in untraced])
    out["run.unscaled_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    out["run.calibration_s"] = statistics.median(
        c for p in raw["passes"] for c in p["calibration_s"])
    out["setup.warmup_s"] = raw["warmup_s"]
    out["fail_ratio"] = raw["failed"] / raw["attempted"]
    out["jobs.per_pass"] = raw["jobs_per_pass"]
    out["code.src_lines"] = src_lines()
    out["code.public_names"] = raw["public_names"]
    out["env.nproc"] = raw["env"]["nproc"]
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small grids for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "holosphere" / "__init__.py").is_file():
        print(f"error: no holosphere sources under {SRC}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    if args.trace:
        setup = import_breakdown(env, IMPORTTIME_RUNS)
    else:
        setup = time_imports(env, SETUP_RUNS)

    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        raw = run_worker(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer(raw, setup) if args.trace else end_to_end(raw, setup)
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    if any(values[n] is None for n in names):
        raise SystemExit("a metric has no value")

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "env": raw["env"], "jobs_per_pass": raw["jobs_per_pass"],
        "jobs": raw["job_names"],
        "latencies": [[round(t, 4) for t in p["latencies"]] for p in raw["passes"]],
        "calibration_s": [[round(c, 5) for c in p["calibration_s"]] for p in raw["passes"]],
        "failures": raw["failures"], "wrong": raw["wrong"],
    }))
    print(json.dumps({
        "correct": not raw["wrong"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
