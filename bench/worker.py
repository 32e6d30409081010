"""One workload in one fresh process: runs passes over the seeded jobs
and prints their raw measurements as one JSON line.

Usage (from `run.py`, with the package on PYTHONPATH):

    python3 bench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --size full|tiny --workdir DIR

Every timed pass runs the same jobs on the same inputs.  Passes repeat
while the next one still ends within `--seconds`, and there are always
at least three, so every job's timing is a median over at least three
runs and its output files can be compared byte for byte.  With
`--trace 1` passes alternate untraced and traced; the difference of
their wall times is the tracing overhead.

The calibration loops of `calibration.py` are timed before the first
job of a pass and after every job, so that `run.py` can scale each
latency to a fixed reference host speed by the mean of the two
calibrations around it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import holosphere
import workloads
from calibration import calibration_s
from tracing import Tracer
from workloads import Check


def _digest(outdir):
    """sha256 of every output file of a job, by relative path."""
    if not outdir.is_dir():
        return {}
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def run_job(job):
    """Run one job; returns (latency_s, Check)."""
    shutil.rmtree(job.outdir, ignore_errors=True)
    job.outdir.mkdir(parents=True)
    t0 = perf_counter()
    try:
        result = job.run()
    except Exception:
        latency = perf_counter() - t0
        chk = Check()
        chk.bad("raised: " + traceback.format_exc(limit=-1).strip().splitlines()[-1])
        return latency, chk
    latency = perf_counter() - t0
    try:
        chk = job.check(result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        chk = Check()
        reason = f"result {result!r}, unreadable output: {exc}"
        # A job that exited with an error code already reported its failure.
        if result == 0:
            chk.bad(reason)
        else:
            chk.fail(reason)
    return latency, chk


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    jobs = workloads.build(args.workload, args.seed, workdir, args.size)
    tracer = Tracer() if args.trace else None

    # One untimed pass over the same jobs at the smallest size first, so
    # that first-call costs (lazy imports inside numpy and scipy) do not
    # land in the first timed pass; its time is reported on its own.
    t0 = perf_counter()
    for job in workloads.build(args.workload, args.seed, workdir / "warmup", "tiny"):
        run_job(job)
    warmup_s = perf_counter() - t0

    # {"traced", "wall_s", "latencies", "calibration_s", "self_s", "counts"}
    passes = []
    failures = {}      # job name -> first failure reason
    wrong = {}         # job name -> first wrong-output reason
    margins = []
    observed = {}
    digests = {}
    attempted = failed = 0
    # Stop when the next pass would end after --seconds, once three are done.
    deadline = perf_counter() + args.seconds
    pass_s = 0.0        # the last pass, checks and calibrations included
    while len(passes) < 3 or perf_counter() + pass_s <= deadline:
        pass_t0 = perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        latencies = []
        calibrations = []   # per job: mean of the calibrations around it
        before = calibration_s()
        try:
            for job in jobs:
                latency, chk = run_job(job)
                after = calibration_s()
                latencies.append(latency)
                calibrations.append((before + after) / 2)
                before = after
                attempted += 1
                digest = _digest(job.outdir)
                if digests.setdefault(job.name, digest) != digest:
                    chk.bad("output files differ between runs of identical inputs")
                if chk.failure is not None:
                    failed += 1
                    failures.setdefault(job.name, chk.failure)
                if chk.wrong is not None:
                    wrong.setdefault(job.name, chk.wrong)
                margins.extend(chk.margins)
                for key, value in chk.observed.items():
                    observed[key] = max(observed.get(key, value), value)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({
            "traced": traced,
            "wall_s": sum(latencies),
            "latencies": latencies,
            "calibration_s": calibrations,
            "self_s": dict(tracer.self_s) if traced else None,
            "counts": dict(tracer.counts) if traced else None,
        })
        pass_s = perf_counter() - pass_t0

    print(json.dumps({
        "jobs_per_pass": len(jobs),
        "job_names": [job.name for job in jobs],
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "wrong": wrong,
        "tol_margin_decades": min(margins) if margins else None,
        "observed": observed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warmup_s": warmup_s,
        "public_names": len(holosphere.__all__),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
