#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark against a parent commit.

    python3 tools/perf_ab.py --parent REV --workload NAME [--pairs 10]
        [--seed 1]

Run from the repository root.  Exports REV into a temporary directory
(``git archive``, so nothing is added to the repository's own git
state), builds the benchmark there and in the working tree, then runs
``perfbench/run.py`` PAIRS times on each side, alternating which side
runs first.  Both sides run with the same arguments, at the run
length the benchmark itself uses (``--seconds 10 --trace 0``).

For every metric the last JSON line of a run reports, it prints each
side's median and quartiles, the change's median over the parent's,
the pairs the change won (ties count for neither side), and whether
the gain rule holds: the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range.  An end-to-end metric with a bound in BENCHMARK.json is also
marked when the change's median is worse than the parent's by more
than that bound.  It also sums each side's ``failed`` and
``attempted`` operations over its runs and prints both failed shares.
Exits 1 when any run failed a correctness gate, or when the change's
failed share is larger than the parent's.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

BENCH_EXE = "./perfbench/bench/main.exe"


def fail(msg):
    print("perf-ab: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH (nor opam to provide it)")


def export(rev, dest):
    """Write the tree of commit [rev] into [dest]."""
    archive = os.path.join(dest, "parent.tar")
    with open(archive, "wb") as fh:
        done = subprocess.run(["git", "archive", "--format=tar", rev],
                              stdout=fh)
    if done.returncode != 0:
        fail("git archive %s failed" % rev)
    tree = os.path.join(dest, "parent")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(dune_command() + ["build", "--root", ".", BENCH_EXE],
                          cwd=tree, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        fail("build failed in " + tree)


def run_once(tree, args):
    """One benchmark run in [tree]: its result line and exit code."""
    cmd = [sys.executable, "perfbench/run.py"] + args
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.stderr.write(done.stderr[-2000:])
        fail("no result line from a run in " + tree)
    return json.loads(lines[-1]), done.returncode


def quantile(xs, q):
    """The q-quantile of [xs] by linear interpolation between ranks."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(name, parent, change, better, bound):
    """One row: quartiles of each side, wins, and the two verdicts."""
    pairs = list(zip(parent, change))
    if better == "higher":
        wins = sum(1 for p, c in pairs if c > p)
    else:
        wins = sum(1 for p, c in pairs if c < p)
    p50, c50 = quantile(parent, 0.5), quantile(change, 0.5)
    iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    moved = (c50 - p50) if better == "higher" else (p50 - c50)
    gain = wins * 10 >= 9 * len(pairs) and moved > iqr
    row = {
        "metric": name,
        "better": better,
        "parent": [quantile(parent, q) for q in (0.25, 0.5, 0.75)],
        "change": [quantile(change, q) for q in (0.25, 0.5, 0.75)],
        "ratio": c50 / p50 if p50 else None,
        "wins": wins,
        "pairs": len(pairs),
        "gain": gain,
    }
    if bound is not None and p50:
        worse = (p50 - c50) / p50 if better == "higher" else (c50 - p50) / p50
        row["over_bound"] = worse > bound
    return row


def fmt(x):
    return "%.4g" % x


def print_rows(rows):
    print("%-28s %-30s %-30s %8s %6s %5s %s" % (
        "metric", "parent p25/p50/p75", "change p25/p50/p75", "c/p",
        "wins", "gain", "bound"))
    for r in rows:
        bound = {True: "OVER", False: "ok"}.get(r.get("over_bound"), "-")
        print("%-28s %-30s %-30s %8s %6s %5s %s" % (
            r["metric"], "/".join(map(fmt, r["parent"])),
            "/".join(map(fmt, r["change"])),
            "-" if r["ratio"] is None else "x%.3f" % r["ratio"],
            "%d/%d" % (r["wins"], r["pairs"]),
            "yes" if r["gain"] else "no", bound))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isfile("BENCHMARK.json")):
        fail("run from the repository root")
    if a.pairs < 1:
        fail("--pairs must be positive")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"]
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", "10", "--trace", "0"]
    scratch = tempfile.mkdtemp(prefix="perf-ab-")
    try:
        sides = {"parent": export(a.parent, scratch), "change": "."}
        for tree in sides.values():
            build(tree)
        values = {"parent": {}, "change": {}}
        ops = {"parent": [0, 0], "change": [0, 0]}  # failed, attempted
        gates_failed = 0
        for i in range(a.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                res, code = run_once(sides[side], args)
                if code != 0 or not res.get("correct", False):
                    gates_failed += 1
                ops[side][0] += res.get("failed", 0)
                ops[side][1] += res.get("attempted", 0)
                for name, m in res.get("metrics", {}).items():
                    values[side].setdefault(name, []).append(m["value"])
            print("pair %d/%d done (%s first)" % (i + 1, a.pairs, order[0]),
                  file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    names = [n for n in values["parent"]
             if len(values["change"].get(n, [])) == len(values["parent"][n])]
    rows = [summarize(n, values["parent"][n], values["change"][n],
                      better.get(n, "lower"), bounds.get(n))
            for n in names]
    print("%s: %d pairs, seed %d, parent %s, nproc %d" % (
        a.workload, a.pairs, a.seed, a.parent, os.cpu_count() or 0))
    print_rows(rows)
    share = {side: f / a if a else 0.0 for side, (f, a) in ops.items()}
    print("failed share: parent %d/%d (%.4g), change %d/%d (%.4g)" % (
        ops["parent"][0], ops["parent"][1], share["parent"],
        ops["change"][0], ops["change"][1], share["change"]))
    status = 0
    if gates_failed:
        print("perf-ab: %d runs failed a correctness gate" % gates_failed,
              file=sys.stderr)
        status = 1
    if share["change"] > share["parent"]:
        print("perf-ab: the change fails a larger share of operations",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
