#!/usr/bin/env python3
"""End-to-end test of lswc_top against a live crawl, run under ctest.

Usage: lswc_top_cli_test.py /path/to/lswc_top /path/to/lswc_sim

Starts a crawl that freezes itself after a few fetches (--stall-after,
the watchdog fault-injection hook) with a unix-socket telemetry
endpoint, so the telemetry server stays up indefinitely with a stable
document. Then drives `lswc_top --once` at each served path and checks
the fetched documents: /top names the run, /progress is JSON with the
process header, /metrics is Prometheus text carrying the lswc_build_info
provenance gauge. Bad invocations must exit 2 with usage text.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

PASSES = []
FAILURES = []


def check(name, condition, detail):
    if condition:
        PASSES.append(name)
    else:
        FAILURES.append(f"{name}: {detail}")


def top_once(top, endpoint, *flags):
    return subprocess.run([top, "--once", *flags, endpoint],
                          capture_output=True, text=True, timeout=60)


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} /path/to/lswc_top /path/to/lswc_sim")
        return 2
    top, sim = sys.argv[1], sys.argv[2]

    # --- Bad invocations fail fast, no endpoint needed. -------------------
    result = subprocess.run([top], capture_output=True, text=True, timeout=60)
    check("no endpoint exits 2", result.returncode == 2,
          f"exit {result.returncode}")
    check("no endpoint prints usage", "usage:" in result.stderr,
          repr(result.stderr))
    result = subprocess.run([top, "--once", "--path=metrics", "unix:/x"],
                           capture_output=True, text=True, timeout=60)
    check("bad path exits 2", result.returncode == 2,
          f"exit {result.returncode}")
    # A NaN refresh period is a bad value, refused before any fetch.
    result = top_once(top, "unix:/nonexistent", "--interval=nan")
    check("nan interval exits 2", result.returncode == 2,
          f"exit {result.returncode}")
    check("nan interval prints usage", "usage:" in result.stderr,
          repr(result.stderr))
    result = top_once(top, "unix:/nonexistent/never.sock")
    check("dead endpoint fails", result.returncode != 0, "exit 0")

    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "crawl.sock")
        # The crawl freezes after 40 fetches but its telemetry thread
        # keeps serving, giving the viewer a stable live endpoint.
        crawl = subprocess.Popen(
            [sim, "--dataset=thai", "--pages=8000", "--strategy=soft",
             "--stall-after=40", "--progress-every=10",
             f"--telemetry=unix:{sock}"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(sock):
                if time.monotonic() > deadline:
                    check("endpoint appears", False, "socket never bound")
                    return finish()
                if crawl.poll() is not None:
                    check("crawl stays up", False,
                          f"exited {crawl.returncode}")
                    return finish()
                time.sleep(0.05)
            endpoint = f"unix:{sock}"

            # /top (the default document) names the run and the header.
            # Retry briefly: the board publishes on a cadence tick, so
            # the very first fetch can race an empty snapshot list.
            deadline = time.monotonic() + 60
            while True:
                result = top_once(top, endpoint)
                if result.returncode == 0 and "soft" in result.stdout:
                    break
                if time.monotonic() > deadline:
                    break
                time.sleep(0.2)
            check("top exits 0", result.returncode == 0,
                  f"exit {result.returncode}: {result.stderr!r}")
            check("top shows header", "lswc telemetry" in result.stdout,
                  repr(result.stdout))
            check("top names the run", "soft" in result.stdout,
                  repr(result.stdout))

            # /progress parses as JSON with the process/runs split.
            result = top_once(top, endpoint, "--path=/progress")
            check("progress exits 0", result.returncode == 0,
                  f"exit {result.returncode}: {result.stderr!r}")
            try:
                doc = json.loads(result.stdout)
                check("progress has process", "process" in doc, result.stdout)
                check("progress has runs", "runs" in doc, result.stdout)
            except json.JSONDecodeError as e:
                check("progress is JSON", False, f"{e}: {result.stdout!r}")

            # /metrics is Prometheus text with the build provenance gauge.
            result = top_once(top, endpoint, "--path=/metrics")
            check("metrics exits 0", result.returncode == 0,
                  f"exit {result.returncode}: {result.stderr!r}")
            check("metrics has build info",
                  "lswc_build_info{" in result.stdout, repr(result.stdout))
            check("metrics has crawl counter",
                  "lswc_pages_crawled_total" in result.stdout,
                  repr(result.stdout))
        finally:
            crawl.send_signal(signal.SIGKILL)
            crawl.wait(timeout=60)
    return finish()


def finish():
    for name in PASSES:
        print(f"PASS {name}")
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print(f"{len(PASSES)} passed, {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
