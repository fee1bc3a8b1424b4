# Build, test and experiment targets for the vsp repository.

GO ?= go
BIN := bin

.PHONY: all build test vet bench bench-json bench-smoke race soak chaos-soak chaos-bench cover fuzz figures results examples failover-demo sharded-demo load-demo bench-load clean

all: build vet test

build:
	$(GO) build ./...
	mkdir -p $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

soak:
	$(GO) test -tags soak -run TestSoak -v .

# Invariant-checking chaos soak: a paced trace through a 3-shard gateway
# under a seed-deterministic fault schedule (partitions, flapping, gray
# latency, 5xx bursts), asserting exactly-once commits, per-shard audit,
# merged-plan validity, and that no breaker wedges open (see
# internal/gateway/chaos_soak_test.go).
chaos-soak:
	$(GO) test -race -tags chaossoak -run TestChaosSoak -v ./internal/gateway

# Gray-failure benchmark: one shard 2s slow, measured through vspload's
# harness with breakers off and on; records both runs into
# BENCH_load.json (p99 with breakers must be >=5x lower).
chaos-bench:
	CHAOS_BENCH_OUT=$(CURDIR)/BENCH_load.json $(GO) test -tags chaossoak \
		-run TestGrayFailureBreakerBenefit -v -timeout 20m ./internal/gateway

# Short fuzz passes over the parsers that face untrusted bytes: the WAL
# decoder (crash/corruption trichotomy), the schedule API decoder and the
# intake decoders of the server and the gateway.
fuzz:
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/wal
	$(GO) test -fuzz=FuzzScheduleDecode -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzReservationDecode -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzReservationDecode -fuzztime=10s ./internal/gateway

cover:
	$(GO) test -cover ./internal/... .

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable scheduler benchmark record (ns/op, allocs/op for the
# one-shot solver, the rejective greedy's single re-plan under SORP, and
# the rolling-horizon incremental extension, plus their speedup ratio),
# stamped with the machine it ran on (core count, GOMAXPROCS, CPU
# model). The first run is pinned to -cpu 1: benchjson keys
# results by (name, cpu), and a suffix-free line keys as cpu 1, so the
# committed BenchmarkSchedule baseline stays comparable with bench-smoke
# on any core count. The later runs exercise the parallel fan-out at
# -cpu 1,4 — both the isolated phase 1 and the full 10k-request solve —
# so benchjson can derive phase1_parallel_speedup from the matched pair,
# and the gateway submit pair at -cpu 4 so it can derive
# gateway_submit_speedup_3shards. Committed as BENCH_scheduler.json.
bench-json:
	( $(GO) test -run='^$$' -bench='BenchmarkSchedule$$|BenchmarkScheduleFileRejective$$|BenchmarkHorizonAdvance$$|BenchmarkFullResolve$$' \
		-cpu 1 -benchmem ./internal/scheduler ./internal/ivs ./internal/horizon ; \
	  $(GO) test -run='^$$' -bench='BenchmarkSchedulePhase1$$' -cpu 1,4 \
		-benchmem ./internal/scheduler ; \
	  $(GO) test -run='^$$' -bench='BenchmarkGatewaySubmit' -cpu 4 \
		-benchmem ./internal/gateway ; \
	  $(GO) test -run='^$$' -bench='BenchmarkSchedule10k$$' -cpu 1,4 -benchtime=1x \
		-timeout=60m -benchmem ./internal/scheduler ) \
		| $(GO) run ./cmd/benchjson -out BENCH_scheduler.json

# Quick regression smoke for CI: a short BenchmarkSchedule run (best of
# 3 single iterations) must stay within 2x of the committed
# BENCH_scheduler.json baseline. Catches order-of-magnitude hot-path
# regressions without the cost or noise-sensitivity of a full bench run.
# Pinned to -cpu 1 to match the baseline's (name, cpu) key on multi-core
# runners, which would otherwise print BenchmarkSchedule-N.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkSchedule$$' -short -benchtime=1x -count=3 -cpu 1 \
		./internal/scheduler \
		| $(GO) run ./cmd/benchjson -check BENCH_scheduler.json -max-ratio 2

# Regenerate every paper figure/table as text (see EXPERIMENTS.md).
results: build
	$(BIN)/vspexp -exp all -scale paper -repeats 3

# Regenerate the figures as SVG charts under figures/.
figures: build
	mkdir -p figures
	for f in fig5 fig6 fig7 fig8 fig9 fig-online fig-replication fig-locality; do \
		$(BIN)/vspexp -exp $$f -scale paper -repeats 3 -format svg -out figures; \
	done

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/metro-vod
	$(GO) run ./examples/heat-metrics
	$(GO) run ./examples/capacity-planning
	$(GO) run ./examples/trace-replay
	$(GO) run ./examples/replication
	$(GO) run ./examples/fault-repair
	$(GO) run ./examples/rolling-horizon
	$(GO) run ./examples/failover
	$(GO) run ./examples/sharded-intake
	$(GO) run ./examples/load-demo

# Two-node failover demo: durable primary + warm standby in one process,
# kill, fence, promote, byte-identical plan check (examples/failover).
failover-demo:
	$(GO) run ./examples/failover

# Sharded intake demo: a routing gateway over three horizon shards (one
# a durable primary/standby pair), placement policy comparison, merged
# plan validation, and a live primary kill with automatic promotion
# (examples/sharded-intake).
sharded-demo:
	$(GO) run ./examples/sharded-intake

# Load harness demo: a flash-crowd Pattern trace streamed straight into
# the closed-loop harness against a 2-shard auto-advancing gateway
# (examples/load-demo).
load-demo:
	$(GO) run ./examples/load-demo

# Closed-loop load measurement against an in-repo 2-shard gateway:
# generate a structured trace with vspgen, replay it with vspload, and
# record latency percentiles/shed rate as BENCH_load.json. Needs a
# running target: `make bench-load TARGET=http://127.0.0.1:8080`.
bench-load: build
	$(BIN)/vspgen -kind topology -gen metro -storages 6 -users 4 > /tmp/vsp-load-topo.json
	$(BIN)/vspgen -kind catalog -titles 50 > /tmp/vsp-load-catalog.json
	$(BIN)/vspgen -kind trace -topo /tmp/vsp-load-topo.json -catalog /tmp/vsp-load-catalog.json \
		-requests 20000 -diurnal 0.5 -flash 20h:3:0:0.7 -format jsonl -out /tmp/vsp-load-trace.jsonl
	$(BIN)/vspload -target $(TARGET) -trace /tmp/vsp-load-trace.jsonl -c 16 -out BENCH_load.json

clean:
	rm -rf $(BIN) figures
