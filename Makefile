# Convenience targets; dune is the source of truth.

.PHONY: all build test check bench perfbench perfbench-trace perf-ab perf-bench live-bench tail-bench compare-bench chaos-bench keyspace-bench dst-fuzz explore-smoke explore-exhaustive experiments trace-demo verify examples clean loc

all: build

build:
	dune build @all

test:
	dune runtest

# everything a merge should pass: the build, the test suite (which
# replays the trace demo), and — where odoc is installed — the API docs
check: build test
	@if command -v odoc >/dev/null 2>&1; \
	then dune build @doc; \
	else echo "odoc not installed; skipping the doc build"; fi

bench:
	dune exec bench/main.exe

# the repository benchmark (BENCHMARK.json): all three workloads, 10 s
# each, end-to-end metrics; perfbench-trace reports the per-layer ones
perfbench:
	python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

perfbench-trace:
	python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

# an interleaved A/B of one benchmark workload against commit PARENT:
# PAIRS alternating-order runs per side, then each metric's median and
# quartiles per side, the change's wins, and whether the gain rule
# (9 in 10 wins, medians apart by more than the parent's IQR) holds
PARENT ?= HEAD
WORKLOAD ?= register-closed
PAIRS ?= 10
perf-ab:
	python3 tools/perf_ab.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS)

# the tracked perf trajectory: the interleaved backend A/B (threads vs
# socket, ABD, 16..256 client threads, median of 3 per point) in the
# regemu-bench/2 schema, with per-point speedup-vs-threads on the
# socket rows
perf-bench:
	dune exec bin/regemu.exe -- live --saturate --ops 200 --seed 42 --json BENCH_live.json

# real threads, fault injection, online checking; writes BENCH_live_suite.json
live-bench:
	dune exec bin/regemu.exe -- live --bench --json BENCH_live_suite.json

# the tail-latency A/B: baseline vs unhedged vs hedged under a single
# 10x gray straggler, median of 5 interleaved rounds per arm; writes
# BENCH_tail.json in the regemu-tail/1 schema (validated before persisting)
tail-bench:
	dune exec bin/regemu.exe -- live --tail --json BENCH_tail.json

# the three-way space-vs-throughput-vs-fault-tolerance race: ABD,
# Algorithm 2, and the CDS data store at each load point on the
# threads fabric, median of 3 per cell; writes
# BENCH_compare.json in the regemu-compare/1 schema (validated before
# the write and re-parsed from disk after it)
compare-bench:
	dune exec bin/regemu.exe -- compare --json BENCH_compare.json

# the full nemesis campaign against the live cluster; writes BENCH_chaos.json
chaos-bench:
	dune exec bin/regemu.exe -- chaos --json BENCH_chaos.json

# the multi-register keyspace under open-loop load: one run per zipf
# skew with the memory-bounded online checker live; writes
# BENCH_keyspace.json (schema-validated before persisting)
keyspace-bench:
	dune exec bin/regemu.exe -- keyspace --json BENCH_keyspace.json

# deterministic-schedule fuzzing: 500 quiet + 500 chaos seeds must be
# clean, then a hunt sweep that shrinks its first counterexample
dst-fuzz:
	dune exec bin/regemu.exe -- dst --fuzz 500 --profile quiet --seed 1
	dune exec bin/regemu.exe -- dst --fuzz 500 --profile chaos --seed 1
	dune exec bin/regemu.exe -- dst --fuzz 50 --profile hunt --seed 1 --shrink --out dst_counterexample.json

# the bounded explore suite dune runtest also replays: a tiny
# exhaustive DPOR run whose certificate must round-trip and validate,
# plus a 200-schedule coverage-guided burst that must stay clean (≤30 s)
explore-smoke:
	dune exec bin/regemu.exe -- explore --smoke

# prove the acceptance configuration violation-free and keep the
# machine-checkable certificates
explore-exhaustive:
	dune exec bin/regemu.exe -- explore --exhaustive --algo abd-max -f 1 -n 3 --ops-each 2 --cert-out experiments/exhaustive-abd/cert.json
	dune exec bin/regemu.exe -- explore --exhaustive --algo algorithm2 -f 1 -n 3 --ops-each 2 --cert-out experiments/exhaustive-alg2/cert.json

# the whole campaign matrix: run every arm, then append its trend
# record to BENCH_explore.json (see EXPERIMENTS.md)
experiments:
	for d in experiments/*/; do $(MAKE) -C $$d run analyze || exit $$?; done

# re-execute the committed DST counterexample with tracing on and
# write the Chrome trace + text timeline the observability docs walk
# through; dune runtest replays the same command
trace-demo:
	dune exec bin/regemu.exe -- trace --replay test/dst_replay_sample.json --out trace_demo.json --timeline

verify:
	dune exec bin/regemu.exe -- verify

examples:
	dune exec examples/quickstart.exe
	dune exec examples/cloud_kv.exe
	dune exec examples/space_planner.exe
	dune exec examples/adversary_demo.exe
	dune exec examples/message_abd.exe
	dune exec examples/bug_hunt.exe

clean:
	dune clean

loc:
	@printf '%8d non-blank lines in lib/ + bin/\n' \
	  "$$(find lib bin \( -name '*.ml' -o -name '*.mli' \) | xargs cat | grep -cv '^[[:space:]]*$$')"
	@find . \( -name '*.ml' -o -name '*.mli' \) -not -path './_build/*' | xargs wc -l | tail -1
