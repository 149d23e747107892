#!/usr/bin/env python3
"""Append one experiment's trend record to the campaign trend file.

Usage: append_trend.py EXPERIMENT RESULT_JSON TREND_JSON

Reads the experiment's result (regemu-cgfuzz/1, regemu-cert/1, or a
regemu-bench/3 keyspace document), distills the few numbers worth tracking over time,
and appends a regemu-explore-trend/1 record to TREND_JSON (a JSON
array, created on first use) kept beside BENCH_live.json.  If an
elapsed_s.txt sits next to the result (written by `make run`), rates
are derived from it.
"""

import json
import os
import sys
import time


def metrics_of(doc, elapsed):
    schema = doc.get("schema")
    if schema == "regemu-cgfuzz/1":
        runs = doc["runs"]
        m = {
            "runs": runs,
            "corpus": doc["corpus"],
            "schedules": doc["schedules"],
            "edges": doc["edges"],
            "failing_runs": doc["failing_runs"],
            "violation_kinds": sorted(
                {",".join(v["key"]) for v in doc.get("violations", [])}
            ),
            "new_digest_rate": doc["schedules"] / runs if runs else 0.0,
        }
        if elapsed:
            m["schedules_per_sec"] = round(runs / elapsed, 2)
        return m
    if schema == "regemu-cert/1":
        return {
            "verdict": doc["verdict"],
            "explored": doc["explored"],
            "pruned": doc["pruned"],
            "pruned_ratio": doc["pruned_ratio"],
            "brute_force_floor": doc["brute_force_floor"],
            "terminal_runs": doc["terminal_runs"],
            "distinct_states": doc["distinct_states"],
            "max_depth": doc["max_depth"],
            "exhaustive": doc["exhaustive"],
        }
    if schema == "regemu-bench/3" and doc.get("doc") == "keyspace":
        rows = doc["rows"]  # one per zipf skew
        return {
            "skews": len(rows),
            "completed": sum(r["ops"] for r in rows),
            "violations": sum(r["violations"] for r in rows),
            "min_ops_per_s": min(r["ops_per_s"] for r in rows),
            "max_resident_ops": max(r["resident_ops"] for r in rows),
            "within_budget": all(
                r["resident_ops"] <= r["budget_ops"] for r in rows),
        }
    raise SystemExit(f"append_trend: unhandled result schema {schema!r}")


def main():
    if len(sys.argv) != 4:
        raise SystemExit(__doc__.strip())
    experiment, result_path, trend_path = sys.argv[1:]

    with open(result_path) as fh:
        doc = json.load(fh)

    elapsed = None
    elapsed_path = os.path.join(os.path.dirname(result_path) or ".",
                                "elapsed_s.txt")
    if os.path.exists(elapsed_path):
        with open(elapsed_path) as fh:
            elapsed = float(fh.read().strip())

    record = {
        "schema": "regemu-explore-trend/1",
        "experiment": experiment,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "source_schema": doc.get("schema"),
        "elapsed_s": elapsed,
        "metrics": metrics_of(doc, elapsed),
    }

    trend = []
    if os.path.exists(trend_path):
        with open(trend_path) as fh:
            trend = json.load(fh)
        if not isinstance(trend, list):
            raise SystemExit(f"append_trend: {trend_path} is not a JSON array")
    trend.append(record)

    tmp = trend_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(trend, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, trend_path)
    print(f"appended {experiment} trend record "
          f"({len(trend)} total) to {trend_path}")


if __name__ == "__main__":
    main()
