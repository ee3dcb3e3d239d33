#!/usr/bin/env python3
"""The lswc benchmark: builds lswc from ../src and runs one workload.

    python3 perfbench/run.py --workload pop_thai --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. The first run configures and builds
the `lswc_bench` program (perfbench/CMakeLists.txt, RelWithDebInfo, the
repository's default flags) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs only rebuild what changed. The workload runs
in its own process, in a work directory under .bench_work/ that is
removed afterwards. With --trace 0 the last stdout line holds the
end-to-end metrics, with --trace 1 the per-layer metrics (see
perfbench/README.md). The exit code is non-zero when the build or the
run fails, and no result line is printed then.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("pop_thai", "parse_japanese", "batch_k16", "ooc_journal")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "lswc_bench")


def run_logged(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build():
    """Builds lswc_bench and returns its path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: lswc sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", out, "--target", "lswc_bench",
                       "-j", jobs]):
        return None
    binary = os.path.join(out, "lswc_bench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--workdir=" + workdir,
           "--pins=" + os.path.join(BENCH_DIR, "pins.txt")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: workload exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # Another run still uses it.
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        print("run.py: lswc_bench exited with %d" % result.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
