#!/usr/bin/env python3
"""CLI tests for the flags every bench harness shares, run under ctest.

Usage: bench_cli_test.py /path/to/fig3_simple_thai

Every harness parses its command line through BenchArgs::Parse, so one
harness (fig3, three cells) stands for all of them: bad input must exit
2 with the usage text, --only must filter the grid, and --journal-dir
must write one decision journal per cell. Runs are kept tiny (2,000
pages) so the suite takes seconds.
"""

import os
import subprocess
import sys
import tempfile

PASSES = []
FAILURES = []


def run(binary, *flags, cwd=None):
    return subprocess.run([binary, *flags], capture_output=True, text=True,
                          timeout=300, cwd=cwd)


def check(name, condition, detail):
    if condition:
        PASSES.append(name)
    else:
        FAILURES.append(f"{name}: {detail}")


def expect_usage(name, result):
    check(name, result.returncode == 2,
          f"expected exit 2, got {result.returncode}")
    check(name + " prints usage", "usage:" in result.stderr,
          f"no usage text in stderr: {result.stderr!r}")


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} /path/to/fig3_simple_thai")
        return 2
    binary = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")

        # --- Invalid input: exit 2 + usage text ---------------------------
        expect_usage("unknown flag", run(binary, "--bogus=1", cwd=tmp))
        expect_usage("jobs zero", run(binary, "--jobs=0", cwd=tmp))
        # The harnesses replay through mmap or ram only.
        expect_usage("store disk", run(binary, "--store=disk", cwd=tmp))

        r = run(binary, "--checkpoint-every=100", cwd=tmp)
        check("checkpoint without snapshot dir exits 2", r.returncode == 2,
              f"exit {r.returncode}")
        check("checkpoint without snapshot dir names both flags",
              "--checkpoint-every" in r.stderr
              and "--snapshot-dir" in r.stderr,
              f"stderr: {r.stderr!r}")

        # --- --only filters the grid --------------------------------------
        r = run(binary, "--pages=2000", "--only=nomatch",
                f"--out-dir={out_dir}", cwd=tmp)
        check("only with no match exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        check("only with no match runs no cell",
              "running 0 of 3 cells" in r.stdout, f"stdout: {r.stdout!r}")

        # --- --journal-dir writes one journal per cell --------------------
        journals = os.path.join(tmp, "journals")
        r = run(binary, "--pages=2000", "--jobs=2", f"--out-dir={out_dir}",
                f"--journal-dir={journals}", cwd=tmp)
        check("journaled run exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        written = sorted(os.listdir(journals)) if os.path.isdir(journals) \
            else []
        check("one journal per cell",
              len(written) == 3
              and all(name.endswith(".jrnl") for name in written),
              f"journal dir has {written}")

    print(f"{len(PASSES)} checks passed")
    if FAILURES:
        print(f"{len(FAILURES)} checks FAILED:")
        for failure in FAILURES:
            print(f"  - {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
