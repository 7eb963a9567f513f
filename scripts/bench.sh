#!/usr/bin/env bash
# Regenerate BENCH_sim.json, the committed benchmark baseline that
# cmd/benchgate gates CI against.
#
# Usage:
#   scripts/bench.sh            # run gated benchmarks, compare against baseline
#   scripts/bench.sh -update    # run gated benchmarks, rewrite the baseline
#   scripts/bench.sh -scaling   # run the multi-domain scaling benchmarks and
#                               # print the parallel speedup curve
#   scripts/bench.sh -gated     # print the gated -bench regex and exit; CI's
#                               # regression gate reads it from here
#
# Run on an idle machine: events/s is wall-clock throughput. The
# "history" section of BENCH_sim.json is preserved across -update; add
# entries there by hand when recording a before/after milestone (the
# parallel scaling curve of a multicore machine belongs there).
set -euo pipefail
cd "$(dirname "$0")/.."

GATED='^(BenchmarkScenario4HopChain|BenchmarkScenarioGrid|BenchmarkScenarioLargeRandom|BenchmarkScenario1000Node|BenchmarkEventChurn|BenchmarkHoldModel|BenchmarkScheduleCancel|BenchmarkTimerRearm|BenchmarkTransmitFanout|BenchmarkTransmitMobile|BenchmarkSenderPacing|BenchmarkDCFExchange|BenchmarkRREQHandling|BenchmarkEncodeResult)$'
if [ "${1:-}" = "-gated" ]; then
    echo "$GATED"
    exit 0
fi
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

if [ "${1:-}" = "-scaling" ]; then
    shift
    go test -run '^$' -bench '^(BenchmarkScenarioGrid|BenchmarkScenarioLargeRandom|BenchmarkScenario1000Node)$' -benchtime 2s . | tee "$OUT"
    go run ./cmd/benchgate -scaling BenchmarkScenarioGrid "$@" "$OUT"
    go run ./cmd/benchgate -scaling BenchmarkScenarioLargeRandom "$OUT"
    go run ./cmd/benchgate -scaling BenchmarkScenario1000Node "$OUT"
    exit 0
fi

go test -run '^$' -bench "$GATED" -benchtime 2s . ./internal/sim ./internal/phy ./internal/mac ./internal/tcp ./internal/aodv ./internal/jobs | tee "$OUT"
go run ./cmd/benchgate -baseline BENCH_sim.json "$@" "$OUT"
