#!/usr/bin/env python3
"""End-to-end Database::Query benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload paper_count|mixed_sql --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (and the engine under src/) into $CARGO_TARGET_DIR or
.bench_build, then runs the workload in PROCESSES fresh processes with every
FTS_* variable and glibc malloc tuning removed from the environment. Each
process ingests, runs its first query and a fixed warm-up, then a closed
loop for S / PROCESSES seconds, checking every answer. A metric is the
median over the processes. Prints a human-readable report, then one JSON
line: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESSES = 3
DEADLINE_S = 170  # Whole run, build excluded.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "fts").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT}")
    jobs = str(os.cpu_count() or 1)
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "fts_perfbench",
         "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return build_dir / "fts_perfbench"


def clean_env(tmp_dir):
    """The environment a default user has: no FTS_* knobs, default malloc."""
    env, removed = {}, []
    for key, value in os.environ.items():
        if key.startswith(("FTS_", "MALLOC_")) or key == "GLIBC_TUNABLES":
            removed.append(key)
        else:
            env[key] = value
    env["TMPDIR"] = str(tmp_dir)  # JIT compiler scratch stays in the build dir.
    return env, removed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_count", "mixed_sql"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir / "perfbench")
    tmp_dir = build_dir / "tmp"
    trace_dir = build_dir / "traces"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    env, removed = clean_env(tmp_dir)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} processes={PROCESSES} nproc={os.cpu_count()}")
    print("environment: unset " + (", ".join(sorted(removed)) or "nothing") +
          f"; TMPDIR={tmp_dir}; no GLIBC_TUNABLES or MALLOC_* set")

    start = time.monotonic()
    runs = []
    for i in range(PROCESSES):
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PROCESSES),
               "--trace", str(args.trace)]
        if args.trace:
            trace_file = trace_dir / f"{args.workload}-seed{args.seed}-{i}.json"
            cmd += ["--trace-file", str(trace_file)]
        remaining = DEADLINE_S - (time.monotonic() - start)
        try:
            done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            fail(f"process {i} exceeded the {DEADLINE_S} s budget")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            fail(f"process {i} exited with {done.returncode}")
        run = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(run)
        m = run["metrics"]
        print(f"process {i}: " + ", ".join(
            f"{name}={m[name]['value']:.4g}" for name in (
                "setup_s", "count_ms.p50", "peak_rss_mb",
                "exec.minor_faults_per_query") if name in m))
        if args.trace:
            print(f"process {i}: spans written to {trace_file}")

    names = list(runs[0]["metrics"])
    merged = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs
                  if name in run["metrics"]]
        merged[name] = {"value": statistics.median(values),
                        "unit": runs[0]["metrics"][name]["unit"]}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    merged["error_rate"] = {"value": failed / max(attempted, 1),
                            "unit": "fraction"}

    print(f"{'metric':<32} {'median':>14}  unit   (over {PROCESSES} processes)")
    for name, metric in merged.items():
        print(f"{name:<32} {metric['value']:>14.6g}  {metric['unit']}")

    missing = [name for name in wanted if name not in merged]
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: merged[name] for name in wanted},
    }))


if __name__ == "__main__":
    main()
