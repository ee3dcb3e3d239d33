#!/usr/bin/env python3
"""Overhead gate: instrumented vs baseline throughput.

Compares the aggregate pages/sec of BENCH_*.json reports from the SAME
binary on the SAME workload — one side instrumented (the obs registry,
or an opt-in feature like --journal-dir), one side the baseline — and
fails when the instrumented side is more than --max-overhead slower.
This is the overhead contract from docs/ARCHITECTURE.md: always-on
probes must cost < 5% of throughput (tracing is opt-in and exempt).

Both flags are repeatable. With several reports per side, the gate
compares the BEST pages/sec of each side — best-of-N is the standard
answer to scheduler noise on shared CI runners, where single-run
throughput jitters by more than the budget itself.

With --records (the decision records one instrumented run writes, as
`lswc_journal info` counts them) the gate bounds the instrumentation's
own cost per record instead: (best instrumented crawl time - best
baseline crawl time) / records must stay under --max-ns-per-record.
That is the journal's gate: a fraction of throughput stops measuring
the journal once the rest of the crawl step gets cheaper, while its
cost per record does not depend on the rest of the step.

Also asserts every report's per-run series hashes are identical across
all reports on both sides: flipping observability must never change
what the crawler does.

Usage: check_obs_overhead.py --instrumented=BENCH.json [...]
                             --disabled=BENCH.json [...]
                             [--max-overhead=0.05 |
                              --records=N [--max-ns-per-record=200]]
"""

import argparse
import json
import sys


def load(paths):
    reports = []
    for path in paths:
        with open(path) as f:
            reports.append((path, json.load(f)))
    return reports


def hashes_of(report):
    return {r["name"]: r.get("series_hash") for r in report.get("runs", [])}


def best_pps(reports):
    return max(report.get("pages_per_sec", 0.0) for _, report in reports)


def best_wall(reports):
    return min(report.get("wall_time_sec", 0.0) for _, report in reports)


def check_fraction(instrumented, disabled, max_overhead, best_of):
    """The pages/sec gate; returns its failures."""
    on_pps = best_pps(instrumented)
    off_pps = best_pps(disabled)
    floor = off_pps * (1.0 - max_overhead)
    overhead = 1.0 - on_pps / off_pps if off_pps > 0 else 0.0
    print(f"pages/sec: instrumented {on_pps:.0f}, disabled {off_pps:.0f} "
          f"(overhead {overhead:+.1%}, budget {max_overhead:.0%})"
          f"{best_of}")
    if off_pps > 0 and on_pps < floor:
        return [f"instrumented pages/sec {on_pps:.0f} < floor {floor:.0f} "
                f"({max_overhead:.0%} of disabled {off_pps:.0f})"]
    return []


def check_per_record(instrumented, disabled, records, max_ns, best_of):
    """The cost-per-record gate; returns its failures."""
    on_s = best_wall(instrumented)
    off_s = best_wall(disabled)
    ns = (on_s - off_s) * 1e9 / records
    print(f"crawl time: instrumented {on_s:.3f} s, disabled {off_s:.3f} s"
          f"{best_of}: {ns:.0f} ns per record over {records} records "
          f"(budget {max_ns:.0f} ns)")
    if ns > max_ns:
        return [f"instrumentation costs {ns:.0f} ns per record > "
                f"{max_ns:.0f} ns"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instrumented", required=True, action="append",
                        help="BENCH report(s) from the instrumented run "
                             "(repeatable; best throughput is used)")
    parser.add_argument("--disabled", required=True, action="append",
                        help="BENCH report(s) from the baseline run "
                             "(repeatable; best throughput is used)")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="max tolerated fractional pages/sec cost")
    parser.add_argument("--records", type=int,
                        help="records one instrumented run writes; gates "
                             "the cost per record instead of pages/sec")
    parser.add_argument("--max-ns-per-record", type=float, default=200.0,
                        help="max tolerated crawl-time cost per record "
                             "(with --records)")
    args = parser.parse_args()
    if args.records is not None and args.records <= 0:
        parser.error("--records must be > 0")

    instrumented = load(args.instrumented)
    disabled = load(args.disabled)

    failures = []
    ref_path, ref_report = disabled[0]
    ref_hashes = hashes_of(ref_report)
    for path, report in instrumented + disabled[1:]:
        if hashes_of(report) != ref_hashes:
            failures.append(
                f"series hashes differ: {path} vs {ref_path}: "
                f"{hashes_of(report)} vs {ref_hashes} — instrumentation "
                f"changed crawl behavior")

    best_of = (f" (best of {len(args.instrumented)}/{len(args.disabled)})"
               if len(args.instrumented) > 1 or len(args.disabled) > 1
               else "")
    if args.records is not None:
        failures += check_per_record(instrumented, disabled, args.records,
                                     args.max_ns_per_record, best_of)
    else:
        failures += check_fraction(instrumented, disabled, args.max_overhead,
                                   best_of)

    if failures:
        print("OBS OVERHEAD GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("obs overhead gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
