#!/usr/bin/env python3
"""End-to-end out-of-core roundtrip, run under ctest.

Usage: lswc_dataset_cli_test.py /path/to/lswc_dataset /path/to/lswc_sim

The determinism contract under test: a stream-generated LSWCDS1 file,
replayed through any store backend (mmap, ram, disk) and any engine
(serial or sharded), must produce byte-identical series to a same-seed
run that generated the graph in RAM. Plus the CLI surface: info/verify
output, flag validation, and corruption rejection.
"""

import os
import subprocess
import sys
import tempfile

PASSES = []
FAILURES = []


def run(*cmd):
    return subprocess.run(list(cmd), capture_output=True, text=True,
                          timeout=300)


def check(name, condition, detail):
    if condition:
        PASSES.append(name)
    else:
        FAILURES.append(f"{name}: {detail}")


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} /path/to/lswc_dataset /path/to/lswc_sim")
        return 2
    dataset_bin, sim_bin = sys.argv[1], sys.argv[2]

    with tempfile.TemporaryDirectory() as tmp:
        ds = os.path.join(tmp, "thai.ds")

        # --- generate + info + verify ---------------------------------
        r = run(dataset_bin, "generate", "--dataset=thai", "--pages=3000",
                f"--out={ds}")
        check("generate exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        check("dataset file written", os.path.exists(ds), f"{ds} missing")
        check("no temp files left",
              not any(f.endswith(".tmp") for f in os.listdir(tmp)),
              f"dir has {os.listdir(tmp)}")

        r = run(dataset_bin, "info", ds)
        check("info exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        check("info prints page count", "pages 3000" in r.stdout,
              f"stdout: {r.stdout!r}")
        check("info prints language", "target language" in r.stdout,
              f"stdout: {r.stdout!r}")

        r = run(dataset_bin, "verify", ds)
        check("verify exits 0", r.returncode == 0,
              f"exit {r.returncode}, stderr {r.stderr!r}")
        check("verify reports checksums", "checksums OK" in r.stdout,
              f"stdout: {r.stdout!r}")

        # --- bad CLI input --------------------------------------------
        check("generate without --out fails",
              run(dataset_bin, "generate").returncode == 2, "expected exit 2")
        check("unknown command fails",
              run(dataset_bin, "frobnicate", ds).returncode == 2,
              "expected exit 2")
        check("info on missing file fails",
              run(dataset_bin, "info", ds + ".nope").returncode == 1,
              "expected exit 1")

        # Telemetry flags that would crash or do nothing are refused by
        # every command, like lswc_sim refuses them.
        for name, flags in (
                ("watchdog-abort alone", ["--watchdog-abort"]),
                ("flight recorder alone", ["--flight-recorder-events=64"]),
                ("flight recorder past the cap",
                 [f"--telemetry-dump={tmp}/dump.txt",
                  "--flight-recorder-events=100000000000000000"])):
            r = run(dataset_bin, "generate", "--pages=1000",
                    f"--out={tmp}/refused.ds", *flags)
            check(f"generate with {name} exits 2", r.returncode == 2,
                  f"exit {r.returncode}, stderr {r.stderr!r}")
            check(f"generate with {name} prints usage", "usage:" in r.stderr,
                  f"stderr {r.stderr!r}")
            r = run(dataset_bin, *flags, "info", ds)
            check(f"info with {name} exits 2", r.returncode == 2,
                  f"exit {r.returncode}, stderr {r.stderr!r}")
        check("refused generate wrote nothing",
              not os.path.exists(os.path.join(tmp, "refused.ds")),
              f"dir has {os.listdir(tmp)}")

        # --- replay identity across backends and engines --------------
        # The preset seed governs both paths; --pages on the replay side
        # is ignored in favor of the file's own size.
        def sim(out, *flags):
            path = os.path.join(tmp, out)
            r = run(sim_bin, "--strategy=soft", f"--out={path}", *flags)
            check(f"sim {out} exits 0", r.returncode == 0,
                  f"exit {r.returncode}, stderr {r.stderr!r}")
            with open(path, "rb") as f:
                return f.read()

        generated = sim("gen.dat", "--dataset=thai", "--pages=3000")
        mmap = sim("mmap.dat", f"--dataset-file={ds}", "--store=mmap")
        ram = sim("ram.dat", f"--dataset-file={ds}", "--store=ram")
        disk = sim("disk.dat", f"--dataset-file={ds}", "--store=disk",
                   "--memory-budget-mb=64")
        sharded = sim("shard.dat", f"--dataset-file={ds}", "--store=mmap",
                      "--shards=4")
        budgeted = sim("budget.dat", f"--dataset-file={ds}", "--store=mmap",
                       "--memory-budget-mb=64")

        check("mmap replay == generated", mmap == generated,
              "series bytes differ")
        check("ram replay == generated", ram == generated,
              "series bytes differ")
        check("disk replay == generated", disk == generated,
              "series bytes differ")
        check("sharded mmap replay == generated", sharded == generated,
              "series bytes differ")
        check("budgeted mmap replay == generated", budgeted == generated,
              "series bytes differ")

        # --- replay flag validation -----------------------------------
        r = run(sim_bin, f"--dataset-file={ds}", "--store=floppy")
        check("bad store rejected", r.returncode == 2,
              f"exit {r.returncode}")
        r = run(sim_bin, f"--dataset-file={ds}", "--log=x.log")
        check("dataset-file + log rejected", r.returncode == 2,
              f"exit {r.returncode}")

        # --- corruption rejection -------------------------------------
        with open(ds, "rb") as f:
            blob = f.read()
        corrupt = os.path.join(tmp, "corrupt.ds")
        with open(corrupt, "wb") as f:
            f.write(blob[: len(blob) // 2])
        check("truncated file rejected by verify",
              run(dataset_bin, "verify", corrupt).returncode == 1,
              "expected exit 1")
        r = run(sim_bin, f"--dataset-file={corrupt}", "--strategy=soft")
        check("truncated file rejected by sim", r.returncode == 1,
              f"exit {r.returncode}, stderr {r.stderr!r}")

        flipped = os.path.join(tmp, "flipped.ds")
        body = bytearray(blob)
        body[len(body) // 3] ^= 0xFF  # Somewhere inside a section payload.
        with open(flipped, "wb") as f:
            f.write(body)
        check("bit flip rejected by verify",
              run(dataset_bin, "verify", flipped).returncode == 1,
              "expected exit 1")

    print(f"{len(PASSES)} checks passed")
    if FAILURES:
        print(f"{len(FAILURES)} checks FAILED:")
        for failure in FAILURES:
            print(f"  - {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
