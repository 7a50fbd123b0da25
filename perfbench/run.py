#!/usr/bin/env python3
"""Builds the cepshed benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The first run configures and builds a
Release build of the library, cepshed_server and the driver into
$CARGO_TARGET_DIR (default .bench_build); later runs only check the build.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The line before it, "provenance {...}", records the command, seed, host,
compiler, flags, build type and pass counts.

Besides the driver's own checks, the counts that must repeat exactly for a
seed are kept per seed and build in the build directory; a later run of
the same seed and build that reads different counts is failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time the driver may take beyond --seconds: inputs, reference runs, the
# last pass that crosses the deadline and the server's shutdown.
DRIVER_MARGIN_S = 110


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, env):
    """Runs a build step with its output on stderr; fails the run on error."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs], env)


def cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def provenance(args, build_dir, passes):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
        "-std=c++20 -Wall -Wextra"]))
    return {
        "command": ["python3", "perfbench/run.py"] + sys.argv[1:],
        "workload": args.workload,
        "seed": args.seed,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version,
        "flags": flags,
        "build_type": build_type,
        "passes": passes,
    }


def binaries_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def check_counts(out_root, args, digest, counts):
    """Compares this run's exact counts with earlier runs of the same seed and
    build. Returns the names that differ."""
    path = os.path.join(out_root, "counts",
                        "%s-seed%d.json" % (args.workload, args.seed))
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
        if stored.get("build") == digest:
            known = stored["counts"]
    differing = sorted(k for k in counts
                       if k in known and known[k] != counts[k])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"build": digest, "counts": {**known, **counts}}, f,
                  sort_keys=True)
    return differing


def run_driver(cmd, timeout_s):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out")
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    return out.splitlines()


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    fail("driver printed no %s line" % tag)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    expected = [(m["name"], m["unit"]) for m in
                bench["per_layer" if args.trace else "end_to_end"]]

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    build(build_dir)
    driver = os.path.join(build_dir, "perfbench_driver")
    server = os.path.join(build_dir, "cepshed_server")
    work = os.path.join(out_root, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        lines = run_driver([driver, "--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--server", server, "--work-dir", work],
                           args.seconds + DRIVER_MARGIN_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(lines[-1])
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if printed != expected:
        fail("driver metrics %s differ from BENCHMARK.json %s" %
             (printed, expected))
    differing = check_counts(out_root, args, binaries_digest([driver, server]),
                             tagged(lines, "counts"))
    if differing:
        print("run.py: counts differ from an earlier run of this seed: " +
              ", ".join(differing), file=sys.stderr)
        result["failed"] += len(differing)
        result["correct"] = False
    if args.trace:
        print("shares " + json.dumps(tagged(lines, "shares")))
    print("provenance " + json.dumps(
        provenance(args, build_dir, tagged(lines, "passes"))))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
