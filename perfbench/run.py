#!/usr/bin/env python3
"""phonolid benchmark: offline train+eval and the scoring daemon.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline|serve_open|serve_backlog \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library sources it compiles) into .bench_build/,
runs the workload for about S seconds and prints, as its last stdout line,
one JSON object with the keys correct, attempted, failed and metrics: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1.  The line before it records the run's environment.  Exits
non-zero when the build fails or an output check fails.  See README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "phonolid_perfbench"
WORKLOADS = ("offline", "serve_open", "serve_backlog")
# A run must end within this many seconds of its start (after the build).
RUN_LIMIT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(jobs):
    """Configure once, then build incrementally; output goes to stderr."""
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs),
                  "--target", "phonolid_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env(threads):
    """The program sees only what the benchmark pins: pool size, no tracing,
    profiling or energy accounting, warnings-only logging."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PHONOLID_")}
    env.update(PHONOLID_THREADS=str(threads), PHONOLID_LOG="warn",
               PHONOLID_ENERGY="off", PHONOLID_PROFILE="off")
    return env


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    nproc = len(os.sched_getaffinity(0))
    try:
        build(nproc)
    except (OSError, RuntimeError) as e:
        log(f"error: {e}")
        return 1

    start = time.monotonic()
    env = child_env(nproc)
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = BUILD / "traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(exist_ok=True)
    trace_out = traces / f"{args.workload}-seed{args.seed}.json"
    try:
        prep = subprocess.run(
            [str(BINARY), "prep", "--work-dir", str(work)],
            env=env, stdout=sys.stderr, timeout=RUN_LIMIT_S)
        if prep.returncode:
            log("error: training the model failed")
            return 1
        cmd = [str(BINARY), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
        if args.trace:
            cmd += ["--trace-out", str(trace_out)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(10, RUN_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("error: the benchmark program ran out of time")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"error: the benchmark program printed no result (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)

    wanted = expected_metrics(args.trace)
    metrics = {}
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            log(f"error: metric {name} missing or not in {unit}")
            return 1
        metrics[name] = {"value": got["value"], "unit": unit}

    info = result.get("info", {})
    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "threads_pinned": nproc,
        "pool_threads": info.get("pool_threads"),
        "build_type": info.get("build_type"),
        "cpu_model": cpu_model(),
        "input_hash": info.get("input_hash"),
        "valid": info.get("valid", True),
        "open_loop_passes": info.get("open_loop_passes"),
        "invalid_reason": info.get("invalid_reason"),
        "samples": info.get("samples"),
        "checks": result.get("checks"),
    }
    if args.trace:
        env_record["span_log"] = str(trace_out.relative_to(ROOT))
    print(json.dumps({"env": env_record}))
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
