#!/usr/bin/env python3
"""Repository benchmark: builds the nucleus library, nucleus_server and the
benchmark driver from this checkout, runs one workload, and prints its
result.

    python3 perfbench/run.py --workload cold_build|served_reads|churn \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; graphs, server logs, result
details and span traces go to <build>/runs. The last line of standard
output is the result object; the line before it holds the host/build header
and the details behind each figure. Build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold_build", "served_reads", "churn")
BUILD_TIMEOUT_S = 840
# Files whose content identifies the code under test (the checkout is not
# necessarily a git repository, so the digest stands in for a commit sha).
DIGEST_ROOTS = ("CMakeLists.txt", "cmake", "src", "tools", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_ROOTS:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for base, dirs, names in os.walk(path):
            dirs.sort()
            files += [os.path.join(base, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    bench_build = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               bench_build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(bench_build, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bench_build, "--target", "perfbench_driver",
           "nucleus_server", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return (os.path.join(bench_build, "perfbench_driver"),
            os.path.join(bench_build, "nucleus", "tools", "nucleus_server"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    # The benchmark builds the program from the checkout's own sources.
    for needed in ("CMakeLists.txt", "src/core/session.h",
                   "tools/nucleus_server.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no nucleus sources in %s (missing %s)" % (ROOT, needed))

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    driver, server = build(build_dir)
    workdir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" %
                           (args.workload, args.seed, args.trace))
    os.makedirs(workdir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server", server, "--workdir", workdir,
           "--source-digest", source_digest(), "--git-sha", git_sha()]
    # A session of its own, so a timeout can stop the driver and the server
    # it started together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # A run measures for --seconds; set-up, checks, the traced run's fixed
    # probes and the open loop's drain take well under twice that plus
    # two minutes, even on a slow host.
    run_timeout = 3 * args.seconds + 110
    try:
        out, _ = proc.communicate(timeout=run_timeout)
    except subprocess.TimeoutExpired:
        out = None
        proc.kill()
        proc.wait()
    finally:
        # Whatever the driver left running (a server after a crash) goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        fail("run exceeded %g s" % run_timeout)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if len(lines) < 2:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        fh.write(lines[-2] + "\n" + lines[-1] + "\n")
    print(lines[-2])
    print(lines[-1])


if __name__ == "__main__":
    main()
