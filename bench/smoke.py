"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Checks that BENCHMARK.json is well formed (keys, names, units,
bounds), runs every workload once at the tiny size with tracing off and
on, and checks the result line: its keys, the metric names and units,
and that the traced self times plus the unspanned remainder add up to
the traced wall time.
Last, it checks that run.py refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and the benchmark.  Exits 1
on the first failed check.  Takes about a minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def expect(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], f"workload {w}")
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"metric {m}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
               f"unit or direction of {m['name']}")
        names.append(m["name"])
    expect(all(NAME.match(n) for n in names), "name syntax")
    expect(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s metric")
    expect(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace={trace} exit {proc.returncode}:"
           f" {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(isinstance(result["correct"], bool), "correct is a bool")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int)
           and 0 <= result["failed"] <= result["attempted"], "job counts")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in wanted],
           f"{workload} trace={trace}: metric names")
    for m in wanted:
        got = metrics[m["name"]]
        expect(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
               f"unit of {m['name']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"value of {m['name']}")
    if trace:
        values = {k: v["value"] for k, v in metrics.items()}
        spans = sum(v for k, v in values.items() if k.endswith(".self_s"))
        wall = values["trace.wall_s"]
        expect(abs(spans + values["trace.unspanned_s"] - wall) <= 1e-9 * max(wall, 1.0),
               "self times plus remainder add up to trace.wall_s")
        expect(values["trace.unspanned_s"] >= 0, "remainder is not negative")
    else:
        expect(metrics["setup_s"]["value"] > 0, "setup_s is positive")
    print(f"ok   {workload} trace={trace}: {result['attempted']} jobs,"
          f" {result['failed']} failed, correct={result['correct']}")


def check_refuses_without_sources(spec):
    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0, "run.py exits non-zero without the sources")
        expect('"metrics"' not in proc.stdout, "and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without the package sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok   BENCHMARK.json")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
