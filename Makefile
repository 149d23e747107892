# Convenience targets; dune is the source of truth.

.PHONY: all build test check bench micro perfbench perfbench-trace perf-ab chaos-bench dst-fuzz explore-smoke explore-exhaustive experiments trace-demo verify examples clean loc

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

# every committed live benchmark document, regenerated from one commit
# (each records it): the backend saturation A/B, the tail-latency A/B,
# the three-way space comparison and the open-loop keyspace, in the
# regemu-bench/3 schema (validated before the write and on read-back);
# about two minutes on 2 vCPUs, most of it the keyspace's 3 x 400k ops
bench:
	dune build bin/regemu.exe
	./_build/default/bin/regemu.exe bench saturate --json BENCH_live.json
	./_build/default/bin/regemu.exe bench tail --json BENCH_tail.json
	./_build/default/bin/regemu.exe bench compare --json BENCH_compare.json
	./_build/default/bin/regemu.exe bench keyspace --json BENCH_keyspace.json

# every paper claim, then the Bechamel micro-benchmarks
micro:
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

# the full nemesis campaign against the live cluster; writes BENCH_chaos.json
chaos-bench:
	dune exec bin/regemu.exe -- chaos --json BENCH_chaos.json

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
