GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet bench bench-smoke bench-json bench-compare fuzz golden serve cluster-smoke sim-smoke obs-smoke tenant-smoke slo-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Load-harness smoke: a short single-target churn run against an
# in-process cpackd must achieve nonzero throughput, zero 5xx and valid
# JSON, the flashcrowd scenario must demonstrate singleflight coalescing,
# and a three-process replicated cluster must hold the warm-hit floor
# while members crash and rejoin mid-run.
bench-smoke:
	$(GO) test -race -count=1 -run 'TestBenchSmoke|TestFlashcrowdCoalesces|TestChurnClusterWarmFloor' ./cmd/cpackbench

# Record the codec microbenchmarks (ns/op, MB/s, allocs/op for
# encode/decode and the served path cold and warm; ten samples each) as
# the regression gate's next baseline: make bench-json BENCH_N=<pr>
# writes BENCH_<pr>.json. End-to-end numbers come from perfbench
# (perfbench/README.md).
bench-json:
	@test -n "$(BENCH_N)" || { echo "usage: make bench-json BENCH_N=<pr>"; exit 2; }
	$(GO) run ./cmd/benchcompare -record BENCH_$(BENCH_N).json
	@echo wrote BENCH_$(BENCH_N).json

# Guard the codec microbenchmarks against regression: re-run them ten
# times and fail if a shared benchmark's anchor-normalized samples are
# slower than the committed trajectory's by a Mann-Whitney U test
# (p < 0.05) and by more than 20% in the median (see docs/BENCH.md).
bench-compare:
	$(GO) run ./cmd/benchcompare

# Short fuzz pass over every fuzz target (FUZZTIME=10s per target).
fuzz:
	$(GO) test -run xxx -fuzz 'FuzzAssemble$$' -fuzztime $(FUZZTIME) ./internal/asm
	$(GO) test -run xxx -fuzz 'FuzzExecute$$' -fuzztime $(FUZZTIME) ./internal/asm
	$(GO) test -run xxx -fuzz 'FuzzUnmarshalCompressed$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz 'FuzzDecodeCorruptRegion$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz 'FuzzDecodeEquivalence$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz 'FuzzCompressEquivalence$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz 'FuzzBitStream$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz 'FuzzLoadCacheEntry$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run xxx -fuzz 'FuzzRecoverCacheDir$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run xxx -fuzz 'FuzzMembershipMessage$$' -fuzztime $(FUZZTIME) ./internal/peer
	$(GO) test -run xxx -fuzz 'FuzzTenantConfig$$' -fuzztime $(FUZZTIME) ./internal/tenant
	$(GO) test -run xxx -fuzz 'FuzzSLOConfig$$' -fuzztime $(FUZZTIME) ./internal/obs

# Regenerate the pinned experiment tables after an intentional change.
golden:
	$(GO) test ./internal/harness -run TestGolden -update-golden

# Run the compression service locally (ctrl-C drains gracefully);
# the cache persists across restarts in ./.cpackd-cache.
serve:
	$(GO) run ./cmd/cpackd -addr :8321 -cache-dir .cpackd-cache

# Boot real cpackd processes as a warm-cache cluster and assert the
# tier serves cross-instance with zero recompression, degrades cleanly
# when one instance is killed, hands entries off on a graceful leave,
# and — at -replicas 2 — survives a primary crash via replica
# fallthrough, including reads through the restarted, empty primary.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestTwoInstanceCluster|TestDynamicJoinAndLeave|TestReplicatedClusterCrashFailover' ./cmd/cpackd
	$(GO) test -race -count=1 -run 'TestPeer' ./internal/server

# Replay the pinned deterministic fault schedules — partition,
# crash/restart, message duplication, and the R=2 replication set
# (primary crash with zero recompressions, partition staleness bounds)
# — against the real membership and ring code in virtual time, plus the
# impostor check and the same-seed ⇒ byte-identical event-log
# determinism guard.
sim-smoke:
	$(GO) test -race -count=1 ./internal/peer/sim

# Multi-tenant isolation smoke: fair admission must keep a light
# tenant's p99 under the pinned bound while a 10x-heavier tenant sheds
# via its own 429s; signed peer traffic must warm-hit while unsigned
# internal requests are rejected; hot reload must not race admission.
tenant-smoke:
	$(GO) test -race -count=1 -run 'TestTenantFairnessSmoke' ./cmd/cpackbench
	$(GO) test -race -count=1 -run 'TestPeerSignedClusterWarmHit|TestTenantAdmissionReloadStress' ./internal/server
	$(GO) test -race -count=1 -run 'TestSighupReloadsTenants' ./cmd/cpackd

# Observability smoke: a real cpackd process serves pprof and the trace
# ring on -debug-addr only, and the span/stage instrumentation holds its
# golden tree, cross-node stitching and histogram labels under -race.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestDebugListenerServesDiagnostics' ./cmd/cpackd
	$(GO) test -race -count=1 -run 'TestCompressMissSpanTree|TestSpanPropagatesAcrossPeerFetch|TestStageHistogramsRendered|TestSlowTraceLogged' ./internal/server

# SLO smoke: on a two-member signed cluster, injected latency must flip
# the fast-burn alert to page within one evaluation tick, the page must
# land a CPU profile in the on-disk ring, the OpenMetrics scrape must
# carry an exemplar that resolves in /debug/trace/recent, and
# /debug/cluster must aggregate SLO burn from both members. Also lints
# the full /metrics exposition in both formats and checks the lock-free
# histogram under -race.
slo-smoke:
	$(GO) test -race -count=1 -run 'TestSLOSmoke|TestMetricsExpositionLint|TestLintRejectsMalformed|TestExemplarResolvesInTraceRing|TestHistogramAtomicConsistency' ./internal/server
	$(GO) test -race -count=1 ./internal/obs

clean:
	$(GO) clean ./...
