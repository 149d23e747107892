#!/bin/sh
# Distill the regemu-bench/3 keyspace document into a trend record.
set -e
cd "$(dirname "$0")"
exec python3 ../append_trend.py keyspace-fuzz out.json ../../BENCH_explore.json
