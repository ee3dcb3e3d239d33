#!/usr/bin/env python3
"""CLI smoke tests for lswc_sim, run under ctest.

Usage: lswc_sim_cli_test.py /path/to/lswc_sim

Exercises the flag-parsing surface end to end against the real binary:
bad input must exit non-zero and print the usage text, strategy lists
must fan out into one summary per strategy, and the checkpoint/resume
trio must roundtrip (snapshot a run, resume it, see "resuming from").
Simulations are kept tiny (a few thousand pages) so the whole suite
runs in seconds.
"""

import os
import subprocess
import sys
import tempfile

PASSES = []
FAILURES = []


def run(binary, *flags):
    return subprocess.run([binary, *flags], capture_output=True, text=True,
                          timeout=300)


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
        print(f"usage: {sys.argv[0]} /path/to/lswc_sim")
        return 2
    binary = sys.argv[1]

    # --- Invalid input: exit 2 + usage text -------------------------------
    expect_usage("unknown flag", run(binary, "--bogus=1"))
    expect_usage("jobs zero", run(binary, "--jobs=0"))
    expect_usage("jobs not a number", run(binary, "--jobs=banana"))
    expect_usage("pages zero", run(binary, "--pages=0"))
    expect_usage("politeness missing interval", run(binary, "--politeness=16"))
    expect_usage("checkpoint-every zero",
                 run(binary, "--checkpoint-every=0", "--snapshot-dir=x"))
    expect_usage("empty snapshot dir", run(binary, "--snapshot-dir="))

    r = run(binary, "--checkpoint-every=100")
    expect_usage("checkpoint without snapshot dir", r)
    check("checkpoint without snapshot dir message",
          "--checkpoint-every requires --snapshot-dir" in r.stderr,
          f"stderr: {r.stderr!r}")

    # --- Bad semantic input past the parser: exit 1 -----------------------
    r = run(binary, "--dataset=thai", "--pages=1500", "--strategy=nosuch")
    check("unknown strategy exits 1", r.returncode == 1,
          f"exit {r.returncode}, stderr {r.stderr!r}")

    with tempfile.TemporaryDirectory() as tmp:
        r = run(binary, "--dataset=thai", "--pages=1500",
                "--strategy=bfs,soft", f"--resume={tmp}/no-such.snap")
        check("resume file with strategy list exits 1", r.returncode == 1,
              f"exit {r.returncode}")
        check("resume file with strategy list message",
              "needs a single strategy" in r.stderr,
              f"stderr: {r.stderr!r}")

        r = run(binary, "--dataset=thai", "--pages=1500", "--strategy=soft",
                f"--resume={tmp}/no-such.snap")
        check("resume from missing file fails", r.returncode != 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")

    # --- Batch regime flags -----------------------------------------------
    expect_usage("frontier unknown kind", run(binary, "--frontier=stack"))

    r = run(binary, "--batch-k=64")
    expect_usage("batch-k without batch frontier", r)
    check("batch-k without batch frontier message",
          "--batch-k requires --frontier=batch" in r.stderr,
          f"stderr: {r.stderr!r}")

    r = run(binary, "--scorers=lang:1.0")
    expect_usage("scorers without batch frontier", r)
    check("scorers without batch frontier message",
          "--scorers requires --frontier=batch" in r.stderr,
          f"stderr: {r.stderr!r}")

    expect_usage("batch with politeness",
                 run(binary, "--frontier=batch", "--politeness=16,1.0"))
    expect_usage("batch with frontier capacity",
                 run(binary, "--frontier=batch", "--frontier-capacity=100"))
    # Flags the chosen simulator would ignore are refused, not dropped.
    expect_usage("frontier capacity with politeness",
                 run(binary, "--frontier-capacity=10", "--politeness=4,0.5"))
    expect_usage("parse-html with politeness",
                 run(binary, "--parse-html", "--politeness=4,0.5"))
    expect_usage("shard-batch without shards",
                 run(binary, "--shard-batch=7"))

    r = run(binary, "--dataset=thai", "--pages=1500", "--strategy=soft",
            "--frontier=batch", "--batch-k=32", "--scorers=lang:1.0,nope")
    check("unknown scorer exits 1", r.returncode == 1,
          f"exit {r.returncode}, stderr {r.stderr!r}")
    check("unknown scorer is named", "nope" in r.stderr,
          f"stderr: {r.stderr!r}")

    # Non-finite weights would make NaN scores, which have no order.
    for weights in ("lang:nan", "lang:inf,parent:1", "lang:-inf",
                    "lang:1e400"):
        r = run(binary, "--dataset=thai", "--pages=1500", "--strategy=soft",
                "--frontier=batch", "--scorers=" + weights)
        check(f"scorer weights {weights} exit 1", r.returncode == 1,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        token = weights.split(",")[0]
        check(f"scorer weights {weights} name the token",
              "non-finite weight '%s'" % token.split(":")[1] in r.stderr
              and "'lang'" in r.stderr,
              f"stderr: {r.stderr!r}")

    r = run(binary, "--dataset=thai", "--pages=1500", "--strategy=soft",
            "--frontier=batch", "--batch-k=32",
            "--scorers=lang:1.0,indegree:0.5")
    check("batch run exits 0", r.returncode == 0,
          f"exit {r.returncode}, stderr {r.stderr!r}")
    check("batch run prints a summary", "strategy soft-focused" in r.stdout,
          f"stdout: {r.stdout!r}")

    # The batch regime is partition-invariant: sharded output equals the
    # serial output for the same configuration.
    sharded = run(binary, "--dataset=thai", "--pages=1500", "--strategy=soft",
                  "--frontier=batch", "--batch-k=32",
                  "--scorers=lang:1.0,indegree:0.5", "--shards=3")
    check("sharded batch run exits 0", sharded.returncode == 0,
          f"exit {sharded.returncode}, stderr {sharded.stderr!r}")
    serial_summary = [l for l in r.stdout.splitlines() if "crawled" in l]
    shard_summary = [l for l in sharded.stdout.splitlines() if "crawled" in l]
    check("sharded batch matches serial", serial_summary == shard_summary,
          f"serial {serial_summary!r} vs sharded {shard_summary!r}")

    # --- Comma-separated strategy lists fan out ---------------------------
    r = run(binary, "--dataset=thai", "--pages=1500",
            "--strategy=bfs,soft,plimited:2", "--jobs=2")
    check("strategy list exits 0", r.returncode == 0,
          f"exit {r.returncode}, stderr {r.stderr!r}")
    for name in ("breadth-first", "soft-focused",
                 "prioritized-limited-distance"):
        check(f"strategy list ran {name}", f"strategy {name}" in r.stdout,
              f"summary missing from stdout: {r.stdout!r}")
    check("strategy list prints dataset once",
          r.stdout.count("dataset:") == 1, f"stdout: {r.stdout!r}")

    # --- Checkpoint + resume roundtrip ------------------------------------
    # Both runs use the same --max-pages: the auto sample interval is
    # resolved from the crawl budget, and the fingerprint check (rightly)
    # rejects a resume whose sampling cadence differs from the snapshot's.
    with tempfile.TemporaryDirectory() as tmp:
        snap_dir = os.path.join(tmp, "snaps")
        common = ["--dataset=thai", "--pages=3000", "--strategy=soft",
                  "--max-pages=600"]
        # checkpoint-every=250 -> the rolling snapshot ends at page 500,
        # before the 600-page budget, so the resume has work left to do.
        r = run(binary, *common, "--checkpoint-every=250",
                f"--snapshot-dir={snap_dir}")
        check("checkpointed run exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        snap = os.path.join(snap_dir, "soft.snap")
        check("snapshot file written", os.path.exists(snap),
              f"{snap} missing; dir has {os.listdir(tmp)}")

        # Resume via directory (resume-if-exists).
        r = run(binary, *common, f"--resume={snap_dir}")
        check("resumed run exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        check("resumed run says so", "resuming from" in r.stdout,
              f"stdout: {r.stdout!r}")
        check("resumed run finished the crawl", "crawled 600" in r.stdout,
              f"stdout: {r.stdout!r}")

        # Resume via explicit file path.
        r = run(binary, *common, f"--resume={snap}")
        check("resume from explicit file exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")

    print(f"{len(PASSES)} checks passed")
    if FAILURES:
        print(f"{len(FAILURES)} checks FAILED:")
        for failure in FAILURES:
            print(f"  - {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
