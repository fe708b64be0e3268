GO ?= go

.PHONY: all build vet test race bench ci serve-smoke fed-smoke \
	soak soak-selftest bench-json bench-baseline bench-check determinism \
	scaling lint

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages (analyzer worker pool, ingest
# pipeline, tsdb, wire, the alert/API console tier, the tenant
# scheduler, and the federated control plane) get a dedicated race pass
# with repetition; everything else runs once. The streaming hub, the
# tsdb follower, console reads across a follower CatchUp, and the
# reader-swarm chaos scenario get named extra repetitions: they are the
# concurrency hot spots of the serving tier. So does the ingest
# consumers' park/wake ping-pong: their condvar is the only wake path,
# and a lost wake-up strands a batch. The simulated spine's
# per-device packet pools and per-agent record pools must stay owned by
# one engine goroutine each; the sharded golden at GOMAXPROCS=8 is the
# run where pods recycle packets onto other pods' devices concurrently.
# The wire server calls its controller and sink from every connection at
# once; the stalled-upload test is the one that holds a sink call open
# while other connections' control ops run.
race:
	$(GO) test -race -count=2 ./internal/proto ./internal/analyzer ./internal/pipeline ./internal/tsdb ./internal/wire ./internal/alert ./internal/api ./internal/controller
	$(GO) test -race -count=2 ./internal/fed ./internal/qos ./internal/sim ./internal/rnic ./internal/agent
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestShardedGoldenEquivalence' .
	$(GO) test -race -count=4 -run 'TestHub|TestSSEStreamAndShutdownDrain|TestLongPollReplayAndPark|TestConsoleReadsDuringCatchUp' ./internal/api
	$(GO) test -race -count=4 -run 'TestFollower' ./internal/tsdb
	$(GO) test -race -count=4 -run 'TestConsumerWakesOnEveryEnqueue' ./internal/pipeline
	$(GO) test -race -count=4 -run 'TestControlOpsDuringStalledUpload' ./internal/wire
	$(GO) test -race -count=2 -run 'TestShardedScenario|TestAPIReadersScenarioGreen' ./internal/chaos
	$(GO) test -race -timeout 30m ./...

# Boot the live daemon with the ops console and smoke-test it over real
# HTTP: /healthz and /api/incidents must both answer 200 (curl -f fails
# the target otherwise), and /api/series must come with a Content-Length
# and not chunked — every response is built whole before it is sent.
# Both listeners bind :0 — the actual addresses
# are parsed from the daemon's wire-addr=/http-addr= stdout lines, so
# parallel CI jobs never collide on a hardcoded port.
serve-smoke:
	$(GO) build -o bin/rpmesh-controller ./cmd/rpmesh-controller
	@set -e; \
	rm -f bin/smoke.log; \
	./bin/rpmesh-controller -listen 127.0.0.1:0 -serve 127.0.0.1:0 >bin/smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	addr=; for i in $$(seq 1 50); do \
	  addr=$$(sed -n 's/^http-addr=//p' bin/smoke.log 2>/dev/null | head -n1); \
	  [ -n "$$addr" ] && break; \
	  kill -0 $$pid 2>/dev/null || { echo "serve-smoke: daemon died"; cat bin/smoke.log; exit 1; }; \
	  sleep 0.2; \
	done; \
	[ -n "$$addr" ] || { echo "serve-smoke: http-addr never printed"; cat bin/smoke.log; exit 1; }; \
	ok=0; for i in $$(seq 1 50); do \
	  if curl -fsS http://$$addr/healthz >/dev/null 2>&1; then ok=1; break; fi; \
	  sleep 0.2; \
	done; \
	[ $$ok -eq 1 ] || { echo "serve-smoke: /healthz never answered on $$addr"; cat bin/smoke.log; exit 1; }; \
	echo "GET /healthz"; curl -fsS http://$$addr/healthz; echo; \
	echo "GET /api/incidents"; curl -fsS http://$$addr/api/incidents; echo; \
	echo "GET /api/series"; hdr=$$(curl -fsS -D- http://$$addr/api/series); echo "$$hdr"; \
	echo "$$hdr" | grep -qi '^Content-Length:' || { echo "serve-smoke: /api/series has no Content-Length"; exit 1; }; \
	if echo "$$hdr" | grep -qi '^Transfer-Encoding:.*chunked'; then echo "serve-smoke: /api/series is chunked"; exit 1; fi; \
	echo "serve-smoke: ok ($$addr)"

bench:
	$(GO) test -bench=. -benchmem ./...

# --- chaos / soak ------------------------------------------------------

# Seeded chaos scenarios against the full monitoring stack; exits
# non-zero with a minimized repro line on any invariant violation.
# -api-readers pins a 1000-strong ops-console reader fleet (long-poll +
# SSE) onto every scenario, proving the serving tier under chaos.
soak:
	$(GO) run ./cmd/rpmesh-soak -scenarios 5 -budget 100s
	$(GO) run ./cmd/rpmesh-soak -scenarios 2 -budget 120s -api-readers 1000

# Deterministic 3-node federation acceptance check: inject a fabric
# fault every node sees, assert exactly one quorum-confirmed incident
# opens and resolves on every replica, verify bit-identical convergence.
fed-smoke:
	$(GO) test -count=1 -v -run '^TestFedQuorumOpensAndResolves$$' ./internal/fed

# Prove the invariant suite has teeth: -tags chaosbreak deliberately
# stops counting DropOldest sheds (internal/pipeline/accounting_break.go)
# and the suite MUST catch it.
soak-selftest:
	$(GO) test -tags chaosbreak ./internal/chaos -run TestBrokenAccountingIsCaught -count=1

# Localizer bake-off: Algorithm 1 vs 007 democratic voting over the
# link-fault scenario families, published into EXPERIMENTS.md's table.
bakeoff:
	$(GO) run ./cmd/rpmesh run bakeoff-localizer

# --- benchmark regression gate -----------------------------------------

# Key benchmarks, each pinned by the regression gate: analyzer window
# analysis (serial + sharded), incident folding, pipeline ingest, the
# pod-sharded simulation engine (serial vs 2/4 shards), the streaming
# hub fan-out, the tsdb follower catch-up, one upload round trip over
# loopback (boxed and flat), the same upload handed to started pipeline
# consumers at GOMAXPROCS 1 and 2, and one console /range read (256 and 2048
# points: the same allocs/op at both is the gated property).
BENCH_PATTERN = ^(BenchmarkAnalyzerWindow|BenchmarkAnalyzerWindowParallel4|BenchmarkIncidentFold|BenchmarkPipelineIngest|BenchmarkEngineSharded|BenchmarkLocalizer007|BenchmarkStreamFanout|BenchmarkFollowerCatchup|BenchmarkWireUpload|BenchmarkWireIngest|BenchmarkConsoleRange)$$
BENCH_PKGS    = . ./internal/analyzer ./internal/alert ./internal/api ./internal/tsdb ./internal/wire

bench-json:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1s -count 3 -benchmem $(BENCH_PKGS) \
		| ./bin/benchdiff -parse > BENCH_pr.json
	@cat BENCH_pr.json

# Refresh the committed baseline (run on a quiet machine, then commit).
bench-baseline:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1s -count 3 -benchmem $(BENCH_PKGS) \
		| ./bin/benchdiff -parse > BENCH_baseline.json
	@cat BENCH_baseline.json

# Fail if any gated benchmark regressed more than 25% vs the baseline.
bench-check: bench-json
	./bin/benchdiff -baseline BENCH_baseline.json -candidate BENCH_pr.json -max-regress 0.25

# --- multicore scaling ---------------------------------------------------

# Sweep BenchmarkEngineSharded across GOMAXPROCS 1/2/4 and render the
# speedup curve into SCALING.md. The shards=4 run at GOMAXPROCS=4 must
# beat the serial engine by SCALING_MIN_SPEEDUP (CI passes 1.5); the
# gate self-skips — loudly — on runners with fewer than 4 CPUs, so the
# table still renders on 1-core dev boxes. GOMAXPROCS is exported to
# benchdiff -parse as well: the stamp's gomaxprocs is the table's
# column key.
SCALING_MIN_SPEEDUP ?= 1.0

scaling:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	@set -e; for gm in 1 2 4; do \
	  echo "scaling: GOMAXPROCS=$$gm"; \
	  GOMAXPROCS=$$gm $(GO) test -run '^$$' -bench '^BenchmarkEngineSharded$$' -benchtime 0.5s -count 3 . \
	    | GOMAXPROCS=$$gm ./bin/benchdiff -parse > BENCH_scaling_gm$$gm.json; \
	done
	./bin/benchdiff -scaling -min-speedup $(SCALING_MIN_SPEEDUP) -out SCALING.md \
		BENCH_scaling_gm1.json BENCH_scaling_gm2.json BENCH_scaling_gm4.json

# --- determinism gate --------------------------------------------------

# Golden/deterministic tests must produce identical results run-to-run
# and be independent of scheduler parallelism: twice at GOMAXPROCS=1 and
# twice at GOMAXPROCS=8.
determinism:
	GOMAXPROCS=1 $(GO) test -count=2 -run 'TestGoldenEquivalence|TestIncidentTimelineGolden|TestIncidentTimelineDeterministic' .
	GOMAXPROCS=8 $(GO) test -count=2 -run 'TestGoldenEquivalence|TestIncidentTimelineGolden|TestIncidentTimelineDeterministic' .
	GOMAXPROCS=1 $(GO) test -count=2 -run 'TestShardedGoldenEquivalence' .
	GOMAXPROCS=8 $(GO) test -count=2 -run 'TestShardedGoldenEquivalence' .
	GOMAXPROCS=1 $(GO) test -count=2 ./internal/chaos -run 'TestDeterminism|TestShardedScenario'
	GOMAXPROCS=8 $(GO) test -count=2 ./internal/chaos -run 'TestDeterminism|TestShardedScenario'
	GOMAXPROCS=1 $(GO) test -count=2 -run 'TestFedDeterminism' ./internal/fed ./internal/chaos
	GOMAXPROCS=8 $(GO) test -count=2 -run 'TestFedDeterminism' ./internal/fed ./internal/chaos
	GOMAXPROCS=1 $(GO) test -count=2 -run 'TestRecordsEncodeDeterministic|TestBatchEncoderInternsInOrder|TestSketchDeterministic' ./internal/proto ./internal/tsdb
	GOMAXPROCS=8 $(GO) test -count=2 -run 'TestRecordsEncodeDeterministic|TestBatchEncoderInternsInOrder|TestSketchDeterministic' ./internal/proto ./internal/tsdb
	GOMAXPROCS=1 $(GO) test -count=2 -run 'FuzzReadFrame|FuzzUploadFrame|TestUploadDeliversWhatWasSent' ./internal/wire
	GOMAXPROCS=8 $(GO) test -count=2 -run 'FuzzReadFrame|FuzzUploadFrame|TestUploadDeliversWhatWasSent' ./internal/wire
	GOMAXPROCS=1 $(GO) test -count=2 -run 'TestEncodersMatchEncodingJSON|FuzzAppendPoint|FuzzSeriesQuery|FuzzParseTenants' ./internal/api ./internal/controller
	GOMAXPROCS=8 $(GO) test -count=2 -run 'TestEncodersMatchEncodingJSON|FuzzAppendPoint|FuzzSeriesQuery|FuzzParseTenants' ./internal/api ./internal/controller
	GOMAXPROCS=1 $(GO) test -count=2 -run 'TestQoSPauseStormClassSelective|TestQoSDisabledMatchesLegacy|TestShardedTallyMatchesSerial|TestQoSFaultDeterminism' ./internal/simnet ./internal/analyzer ./internal/chaos
	GOMAXPROCS=8 $(GO) test -count=2 -run 'TestQoSPauseStormClassSelective|TestQoSDisabledMatchesLegacy|TestShardedTallyMatchesSerial|TestQoSFaultDeterminism' ./internal/simnet ./internal/analyzer ./internal/chaos
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestElisionEquivalence|TestPairLookaheadExtendsSoloHorizon|TestHeapMatchesOracle' ./internal/sim
	GOMAXPROCS=8 $(GO) test -count=1 -run 'TestElisionEquivalence|TestPairLookaheadExtendsSoloHorizon|TestHeapMatchesOracle' ./internal/sim
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestEventCountsPinned' .
	GOMAXPROCS=8 $(GO) test -count=1 -run 'TestEventCountsPinned' .
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestTracerMatchesOracle|TestRetraceAllocs|TestRetraceKeepsOneRoutePerEntry|TestPathSeriesResolution' ./internal/trace ./internal/agent ./internal/tsdb
	GOMAXPROCS=8 $(GO) test -count=1 -run 'TestTracerMatchesOracle|TestRetraceAllocs|TestRetraceKeepsOneRoutePerEntry|TestPathSeriesResolution' ./internal/trace ./internal/agent ./internal/tsdb

# --- static analysis ---------------------------------------------------

# gofmt must list nothing (dot-directories such as .bench_build/ are
# skipped). staticcheck and govulncheck run when available (CI installs
# them; dev machines without network skip gracefully). The production
# daemon must not link the simulated fabric: no rpmesh-controller flag
# may construct a simulator. The boxed upload API (UploadBatch and its sinks) lives
# only where the benchmark harness still calls it; no other non-test
# file may mention it.
BOXED_API = UploadBatch|UploadSink|ToUploadBatch|RecordsFromBatch
BOXED_OK  = ^\./(bench|internal/(proto|pipeline|wire|analyzer))/

lint: vet
	@unformatted=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "lint: gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@bad=$$($(GO) list -deps ./cmd/rpmesh-controller | \
		grep -xE 'rpingmesh/internal/(core|fed|faultgen|simnet|agent|service|qos|trace|verbs)'); \
	if [ -n "$$bad" ]; then echo "lint: rpmesh-controller links the simulator:"; echo "$$bad"; exit 1; fi
	@boxed=$$(grep -rlE '$(BOXED_API)' --include='*.go' . | grep -v '_test\.go$$' | grep -vE '$(BOXED_OK)'); \
	if [ -n "$$boxed" ]; then echo "lint: boxed upload API outside bench/ and internal/{proto,pipeline,wire,analyzer}:"; echo "$$boxed"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

ci: build vet race
