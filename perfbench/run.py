#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload access19_map --seed 1 --seconds 45 --trace 0

Builds ../src and the benchmark binary into .bench_build/perfbench (first run only),
runs the workload, checks the binary's output, and prints as its last line

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The line before it records the host and
configuration the numbers were measured on. Exits non-zero, printing no
result, when the build or the run fails.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("access19_map", "scale2k_map", "access19_churn")
# A run must end within 180 s; the binary gets 170 of them (a first run
# builds before it, with a longer allowance).
RUN_LIMIT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources next to the benchmark")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(cpus())])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return BINARY.is_file()


def _have(tool):
    return any((Path(d) / tool).is_file()
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def source_digest():
    """sha256 over the library and benchmark sources: names the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: binary timed out")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: binary exited {proc.returncode}")
        return None
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unreadable binary output:", lines[-1][:200])
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small scenario family (the self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    out = run(args)
    if out is None:
        return 1

    problems = list(out.get("problems", []))
    metrics = {}
    for name, unit in expected_metrics(args.trace).items():
        got = out["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            problems.append(f"metric {name} missing or not in {unit}")
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
            continue
        metrics[name] = {"value": value, "unit": unit}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, **out["host"], "commit": commit(),
              "source_digest": source_digest(), "problems": problems}
    print("config: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems and out["failed"] == 0,
                      "attempted": max(1, int(out["attempted"])),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
