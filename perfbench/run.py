#!/usr/bin/env python3
"""End-to-end benchmark of the SPT framework: build, self-test, run, check.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 \\
        --seconds 45 --trace 0

It configures and builds perfbench/ (which compiles the framework from
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the metric self-tests, then runs one workload. Everything the
benchmark binary prints is forwarded; the last line of stdout is the
result JSON. With --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass.

Besides the checks the benchmark binary makes inside one run, this script
keeps the run's deterministic numbers (reports, cycle, instruction and
fork counts, partition counters, cache hits) per (binary, workload, seed)
in the build directory and fails a run whose numbers differ from an
earlier run of the same seed: drift there is nondeterminism, not noise.

Exit code 0 means the run was correct; any failure exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite", "serve-generated")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
ENV = dict(os.environ)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=ENV)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("%s failed: %s" % (cmd[0], err))
        return False
    return done.returncode == 0


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", out, "-j", str(cpus()),
                      "--target", "spt_perfbench", "spt_perfbench_selftest"],
                     BUILD_TIMEOUT_S)


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_digest(out, binary, workload, seed, digest_path):
    """Compares this run's deterministic numbers with the first run of the
    same binary, workload and seed; returns an error message or None."""
    with open(digest_path) as f:
        digest = f.read()
    store = os.path.join(out, "digests")
    os.makedirs(store, exist_ok=True)
    key = "%s-%s-%s.txt" % (file_hash(binary)[:16], workload, seed)
    path = os.path.join(store, key)
    if not os.path.exists(path):
        with open(path, "w") as f:
            f.write(digest)
        return None
    with open(path) as f:
        first = f.read()
    if first == digest:
        return None
    diff = [b for a, b in zip(first.splitlines(), digest.splitlines())
            if a != b]
    return "deterministic numbers differ from an earlier run of seed %s: %s" % (
        seed, (diff or ["line count differs"])[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    ENV["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not build(out):
        log("build failed")
        return 1
    if not run_quiet([os.path.join(out, "spt_perfbench_selftest")], 60):
        log("metric self-test failed")
        return 1

    binary = os.path.join(out, "spt_perfbench")
    digest_path = os.path.join(out, "last-digest-%d.txt" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digest", digest_path]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("benchmark did not finish: %s" % err)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        log("benchmark printed no result (exit code %d)" % done.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    if done.returncode == 0 and os.path.exists(digest_path):
        err = check_digest(out, binary, args.workload, args.seed, digest_path)
        result["attempted"] += 1
        if err:
            print("CHECK FAILED: " + err)
            result["failed"] += 1
            result["correct"] = False
    if os.path.exists(digest_path):
        os.remove(digest_path)

    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
