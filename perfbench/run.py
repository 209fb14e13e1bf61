#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_rw --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # the benchmark's own unit tests

Run from the repository root. The first call builds the engine and the
`perfbench` program from source into `.bench_build/` (CMake + Ninja, Release);
later calls rebuild only what changed. The program's result line is checked
against BENCHMARK.json: with `--trace 0` it must hold exactly the end-to-end
metrics, with `--trace 1` the per-layer ones (a per-layer metric the workload
does not exercise is reported as 0). The last line printed is the result
`{"correct", "attempted", "failed", "metrics"}`; the line before it records
the seed, thread counts, build type and source revision.

Exits non-zero, printing no result, when the build, the run or the check of
its output fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_LIMIT_S = 170  # every run must end within 180 s...
BUILD_LIMIT_S = 700  # ...but the first one in a checkout, which builds, 900 s


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    and waits for it, so no process outlives this script."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=None if capture else sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(target, deadline):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release", *generator],
                      timeout=max(1, deadline - time.monotonic()))
        if code != 0:
            return False
    code, _ = run(["cmake", "--build", str(BUILD_DIR), "--target", target,
                   "-j", jobs], timeout=max(1, deadline - time.monotonic()))
    return code == 0


def revision():
    """The git commit when the tree is a repository, and always a digest of
    the sources the benchmark builds (engine and benchmark)."""
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def checked_metrics(result, spec, trace):
    """The result's metrics, checked against BENCHMARK.json's list for the
    mode; per-layer metrics the workload does not measure are filled as 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    extra = sorted(set(got) - set(units))
    if extra:
        raise ValueError(f"metrics not in BENCHMARK.json: {extra}")
    for name, metric in got.items():
        if metric["unit"] != units[name]:
            raise ValueError(f"{name}: unit {metric['unit']} != {units[name]}")
    missing = sorted(set(units) - set(got))
    if missing and not trace:
        raise ValueError(f"end-to-end metrics missing: {missing}")
    out = {}
    for name in units:
        metric = got.get(name, {"value": 0.0, "unit": units[name]})
        out[name] = {"value": metric["value"], "unit": metric["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    start = time.monotonic()
    first_build = not (BUILD_DIR / "perfbench").exists()
    deadline = start + (BUILD_LIMIT_S if first_build or args.test
                        else RUN_LIMIT_S)
    target = "perfbench_test" if args.test else "perfbench"
    try:
        if not build(target, deadline):
            log("build failed")
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1
    if args.test:
        code, _ = run([str(BUILD_DIR / "perfbench_test")], timeout=RUN_LIMIT_S)
        return code

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.csv")]
    # A run that built gets its full measuring budget after the build.
    remaining = RUN_LIMIT_S - (0 if first_build else time.monotonic() - start)
    try:
        code, out = run(cmd, timeout=max(1, remaining), capture=True)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or len(lines) < 2:
        log(f"perfbench exited with {code}")
        return 1
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        metrics = checked_metrics(result, spec, args.trace == 1)
    except (ValueError, KeyError) as err:
        log(f"bad perfbench output: {err}")
        return 1
    info["commit"], info["source_digest"] = revision()
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
