#!/usr/bin/env python3
"""Validate an obs stats document (--stats-json output, or the "obs"
block of a schema-v2 BENCH_*.json when given --from-bench).

Checks:

  * the four sections exist: stages, counters, gauges, histograms;
  * the stage set is exactly the profiler's nine crawl phases, each
    with a non-negative integer call count (merge stays zero in serial
    runs, rescore outside the batch regime);
  * counters are non-negative integers; gauges carry value <= max;
  * every histogram's count equals the sum of its bucket counts, and
    min <= max when non-empty;
  * each --require-counter NAME is present and positive (what CI uses
    to assert a real crawl actually recorded metrics).

Usage: check_obs_stats.py STATS_JSON [--from-bench]
                          [--require-counter NAME]...
"""

import argparse
import json
import sys

EXPECTED_STAGES = ["fetch", "classify", "extract", "strategy",
                   "frontier-push", "sample", "checkpoint", "merge",
                   "rescore"]


def is_count(value):
    return isinstance(value, int) and value >= 0


def check(stats, require_counters):
    errors = []
    for section in ("stages", "counters", "gauges", "histograms"):
        if not isinstance(stats.get(section), dict):
            errors.append(f"missing section {section!r}")
    if errors:
        return errors

    stages = stats["stages"]
    if sorted(stages) != sorted(EXPECTED_STAGES):
        errors.append(f"stage set {sorted(stages)} != expected "
                      f"{sorted(EXPECTED_STAGES)}")
    for name, stage in stages.items():
        if not is_count(stage.get("calls")):
            errors.append(f"stage {name!r}: bad calls {stage.get('calls')!r}")

    for name, value in stats["counters"].items():
        if not is_count(value):
            errors.append(f"counter {name!r}: bad value {value!r}")

    for name, gauge in stats["gauges"].items():
        if not is_count(gauge.get("value")) or not is_count(gauge.get("max")):
            errors.append(f"gauge {name!r}: bad fields {gauge!r}")
        elif gauge["value"] > gauge["max"]:
            errors.append(f"gauge {name!r}: value {gauge['value']} > max "
                          f"{gauge['max']}")

    for name, hist in stats["histograms"].items():
        count = hist.get("count")
        buckets = hist.get("buckets")
        if not is_count(count) or not isinstance(buckets, list):
            errors.append(f"histogram {name!r}: bad fields")
            continue
        bucket_total = sum(b[1] for b in buckets)
        if bucket_total != count:
            errors.append(f"histogram {name!r}: bucket total {bucket_total} "
                          f"!= count {count}")
        if count > 0 and hist.get("min", 0) > hist.get("max", 0):
            errors.append(f"histogram {name!r}: min > max")

    for name in require_counters:
        if stats["counters"].get(name, 0) <= 0:
            errors.append(f"required counter {name!r} missing or zero")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stats", help="stats JSON (or BENCH_*.json)")
    parser.add_argument("--from-bench", action="store_true",
                        help="read the 'obs' block of a BENCH report")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME", help="counter that must be > 0")
    args = parser.parse_args()

    try:
        with open(args.stats) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {args.stats}: {e}")
        return 1
    if args.from_bench:
        if doc.get("schema_version", 1) < 2 or "obs" not in doc:
            print(f"error: {args.stats}: no obs block "
                  f"(schema_version {doc.get('schema_version')})")
            return 1
        doc = doc["obs"]

    errors = check(doc, args.require_counter)
    if errors:
        print(f"OBS STATS CHECK FAILED: {args.stats}")
        for error in errors[:20]:
            print(f"  - {error}")
        return 1
    print(f"obs stats ok: {args.stats} "
          f"({len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
          f"{len(doc['histograms'])} histograms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
