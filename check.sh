#!/bin/sh
# Tier-1 verification entrypoint: static checks, formatting, build, tests,
# race tests, coverage on the observability spine, and a one-iteration
# benchmark smoke run (benchmarks must at least execute).
set -eux

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race ./...
go test -cover ./internal/obs/ ./internal/core/ ./internal/opshttp/ ./internal/placement/ ./internal/telemetry/
# Ops-surface smoke: a real listener on :0 must answer 200 on /metrics,
# /healthz, /debug/traces, /debug/events, /debug/heat and /debug/wss.
go test -run '^TestSmoke$' -count=1 ./internal/opshttp/
# Exposition gate: the /metrics page must survive a strict Prometheus
# text-format parser — adversarial label values, histograms and the
# telemetry families included.
go test -run '^TestMetricsPageParses$' -count=1 ./internal/opshttp/
# Telemetry-consistency gate: heat ranking must agree with the coldest-first
# victim order, fault causes must be attributed, and the thrash health check
# must flip degraded and recover.
go test -run '^TestHeatRankingMatchesEvictionOrder$|^TestFaultCauseAttribution$|^TestThrashHealthFlips$' -count=1 .
# Codec-bench smoke: the binary wire codec's decode/encode ns ratio must stay
# far below the XML baseline (~17.54, BENCH_codec.json) and within its
# allocation budget (BENCH_wire.json records the numbers).
go test -run '^TestCodecBenchSmoke$' -count=1 ./internal/wire/
# Generate-drift gate: obicomp output must stay in sync with its schema
# sources — regenerating every //go:generate package must be a no-op.
BEFORE=$(find . -name '*_gen.go' -o -name '*_gen.xml' | sort | xargs sha256sum)
go generate ./...
AFTER=$(find . -name '*_gen.go' -o -name '*_gen.xml' | sort | xargs sha256sum)
if [ "$BEFORE" != "$AFTER" ]; then
    echo "obicomp output drifted from its sources (rerun go generate ./... and commit):" >&2
    echo "$BEFORE" >/tmp/obicomp-gen-before.$$
    echo "$AFTER" >/tmp/obicomp-gen-after.$$
    diff /tmp/obicomp-gen-before.$$ /tmp/obicomp-gen-after.$$ >&2 || true
    rm -f /tmp/obicomp-gen-before.$$ /tmp/obicomp-gen-after.$$
    exit 1
fi
# Generated-codec smoke: decoding through an obicomp codec must allocate
# strictly less than the generic path, and generated dispatch must not
# regress past the closure table it replaces (BENCH_obicomp.json records the
# numbers).
go test -run '^TestGenBenchSmoke$' -count=1 ./internal/schema/gentest/
# Shard-soak smoke: the sharded-core soak harness (control and default shard
# counts) must execute at GOMAXPROCS 1 and 4. Full figures: BENCH_shard.json.
go test -bench 'BenchmarkShardSoak' -benchtime=1x -cpu 1,4 -run '^$' .
# Guard: the sharded core must never ship hardcoded to a single shard. Only
# tests and the soak control may pin shards=1; WithShards(0)/Shards:0 means
# "use DefaultShards".
PINNED=$(grep -rnE 'WithShards\(1\)|Shards:[[:space:]]*1([^0-9]|$)|shards[[:space:]]*=[[:space:]]*1([^0-9]|$)' \
    --include='*.go' . | grep -v '_test\.go' || true)
if [ -n "$PINNED" ]; then
    echo "sharded core pinned to a single shard outside tests:" >&2
    echo "$PINNED" >&2
    exit 1
fi
# Fault-storm smoke: 64 goroutines faulting 8 swapped clusters must issue
# exactly 8 donor fetches (single-flight coalescing), race-clean at
# GOMAXPROCS 1 and 4.
go test -race -run '^TestFaultStormCoalesces$' -count=1 -cpu 1,4 ./internal/core/
# Fault-bench smoke: a pointer chase with the prefetcher on must serve at
# least half its cluster boundaries from the prefetch inventory, with the
# mean prefetch-hit crossing >= 10x cheaper than a demand fault
# (BENCH_fault.json records the full numbers).
go test -run '^TestFaultBenchSmoke$' -count=1 .
go test -bench . -benchtime=1x -run '^$' ./...
# Swap-benchmark gate: perfbench is its own module, so ./... above skips it.
# Its TestPhaseSums checks that every SwapEvent's phases add up to its
# duration, that the per-layer phase view adds up to objectswap_swap_seconds,
# and that an explicit swap-out's wall time stays close to its span.
(cd perfbench && GOFLAGS= GOPROXY=off go vet . && go test -race -count=1 .)
