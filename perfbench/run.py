#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload register-closed|kv-open|search|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench/main.exe with dune
(the shared dune cache off, so nothing is written outside the tree),
then runs it with the same arguments plus the commit (or, outside a git
checkout, a hash of the sources).  The executable prints its report,
ending with one JSON result line, and exits non-zero when a correctness
gate fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH (nor opam to provide it)")


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for root in ["dune-project", "lib", "perfbench"]:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(root)
            if not d.startswith(os.path.join("perfbench", "out"))
            for f in files)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune_command() + ["build", "--root", ".", "./" + EXE.split("default/", 1)[1]]
    try:
        # dune's progress goes to stderr; keep stdout for the report
        done = subprocess.run(build, stdout=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")
    proc = subprocess.Popen([EXE] + argv + ["--commit", source_id()])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
