GO ?= go

.PHONY: build test short race derived-race vet fmt-check ci serve drafts bench bench-build bench-compare bench-gate bench-gate-baseline memprofile fuzz-smoke crash-recovery remote-cache-e2e chaos-soak check

build:
	$(GO) build ./...

# Full suite, including the fault-injection tests (resilience_test.go).
test:
	$(GO) test ./...

# Fast subset: skips the slow database-build experiments.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The checkpoint store's derived level under contention: sixteen goroutines
# over one store, mixing compile keys (options, fanout limit, period,
# wireload) past what a snapshot keeps, while the stats walk every entry —
# ten times under the race detector, so more interleavings of notes,
# captures, hits and push-outs are tried than one run sees. The values kept
# on a snapshot (Snapshot.Keep) get the same treatment: sixteen goroutines on
# one snapshot mixing hits, misses, errors and eviction. So does the property
# harness's concurrent mode (TestColdWorkspaceHammer): sixteen
# goroutines over a two-snapshot store mixing generated cases through both
# entry points, captures that borrow a workspace's Timing, snapshot reads
# whose thaw a restore reuses, restores and runs that die after the link
# prefix.
derived-race:
	$(GO) test -race -count=10 -run 'TestDerivedHammer|TestKeepHammer|TestColdWorkspaceHammer' ./internal/synth

vet:
	$(GO) vet ./...

# Fails, listing the files, when any .go file is not gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l . ; exit 1 ; }

# Run the serving daemon (builds the SynthRAG database first, its expert
# drafts read from the checked-in table: ≈0.1 s to `listening` on a 2-core
# VM, the repo benchmark's `setup_s`; `go run` compiles before that).
serve:
	$(GO) run ./cmd/chatlsd -addr :8080

# Regenerate internal/synthrag/expert_drafts.go, the expert-draft table, from
# a fresh palette sweep. TestExpertDraftsCurrent fails when a change moves a
# sweep result; run this when the change is meant to, and review the diff.
drafts:
	$(GO) test ./internal/synthrag -run TestExpertDraftsCurrent -update

# Micro-benchmarks: substrate and serving-path cache costs, plus the work
# behind one warm request (WarmRequest, and WarmRequestParallel from
# GOMAXPROCS goroutines over one store). Override BENCH to regenerate the
# paper tables instead (e.g. make bench BENCH=Table3).
BENCH ?= Elaborate|Compile|Customize|WarmRequest|Embed
bench:
	$(GO) test -bench='$(BENCH)' -benchmem -run=^$$ .

# Headline perf record: runs the paper-scale benchmarks, the checkpointing
# pair, the serial design embedding, and the exact 10k-vector
# search five times each and writes the averaged ns/op, B/op, allocs/op
# (plus custom units like graphs/op) to BENCH_13.json for comparison
# against earlier checked-in records. ColdRequests is the request half of a
# daemon restart — the first chatls k=1 request on each of the seven designs
# over empty caches and an empty checkpoint store, one pass an iteration —
# and Table2DatabaseBuild the build half (expert drafts from the table;
# ExpertSweep is the palette sweep that computes them, 88 runs an op, the
# build's cost whenever the table misses). CompileUltraSwerv matches both the
# fresh and the checkpointed variant (their ratio is the checkpoint
# speedup); CheckpointRestore is capture / restore / restore-recycled (a
# miss, a hit whose first netlist read thaws into new storage, one whose
# first read thaws over the workspace the previous Evaluate parked);
# EmbedGlobalSerial is one GNN embedding of each design; WarmRequest and
# WarmRequestRawK5 are the work behind one warm chatls k=1 and one raw
# Pass@5 request, 14 requests an iteration so each record
# covers every design under both raw models; WarmRequestParallel is
# WarmRequest from two goroutines over one store (-cpu 2: its ns/op is wall
# time per request with both cores busy, about half the CPU time).
COMPARE ?= Table2DatabaseBuild|Table4Baseline|ColdRequests|CompileUltraSwerv|CheckpointRestore|EmbedGlobalSerial
REQUEST_COMPARE ?= WarmRequest$$|WarmRequestRawK5$$
PARALLEL_COMPARE ?= WarmRequestParallel$$
SEARCH_COMPARE ?= FlatSearch10k
bench-compare:
	{ $(GO) test -bench='$(COMPARE)' -benchmem -benchtime=1x -count=5 -run=^$$ . ; \
	  $(GO) test -bench='$(REQUEST_COMPARE)' -benchmem -benchtime=14x -count=5 -run=^$$ . ; \
	  $(GO) test -bench='$(PARALLEL_COMPARE)' -benchmem -benchtime=14x -count=5 -cpu 2 -run=^$$ . ; \
	  $(GO) test -bench='$(SEARCH_COMPARE)' -benchmem -count=5 -run=^$$ ./internal/vecindex ; \
	  $(GO) test -bench='ExpertSweep' -benchmem -benchtime=1x -count=5 -run=^$$ ./internal/synthrag ; } \
		| $(GO) run ./cmd/benchjson > BENCH_13.json
	@cat BENCH_13.json

# Allocation-regression gate: reruns the fast benchmarks — the database
# build, the expert-draft sweep it skips and the cold pass over it included,
# a second or less each: how often a restart parses and elaborates shows in
# their allocs/op and B/op before it shows anywhere else — and fails if any
# benchmark's allocs/op — or B/op,
# where the baseline is at least 100 kB — regresses more than 20% against
# the checked-in BENCH_GATE.json baseline. The baseline is recorded by
# bench-gate-baseline with the *same* benchmark subset and -count as the
# gate rerun — allocs/op is deterministic only under identical process
# conditions (which earlier benchmarks warmed the intern table and the
# scratch pools matters), so the gate must not compare against the
# full-set BENCH_13.json record. Both run at -cpu 1: the row-sharded tensor
# kernels fan out over GOMAXPROCS goroutines (tensor.ParallelRows), each a
# few allocations, so EmbedGlobalSerial reads 36 allocs/op on one CPU, 50
# on two and 72 on eight — a baseline from one machine failed the gate on
# another. The one exception is WarmRequestParallel, which exists to put two
# goroutines on one store and runs at -cpu 2, seven requests an iteration
# (its GNN forward is a cache hit, so no kernel fans out). Regenerate the
# baseline whenever a change intentionally moves an allocation count.
GATE ?= Table2DatabaseBuild|ExpertSweep|ColdRequests|CompileUltraSwerv|CheckpointRestore|EmbedGlobalSerial|WarmRequest$$|WarmRequestRawK5$$|UpdateBatch
GATE_BASELINE ?= BENCH_GATE.json
GATE_RUN = { $(GO) test -bench='$(GATE)' -benchmem -benchtime=1x -count=3 -cpu 1 -run=^$$ . ./internal/sta ./internal/synthrag ; \
	  $(GO) test -bench='$(PARALLEL_COMPARE)' -benchmem -benchtime=7x -count=3 -cpu 2 -run=^$$ . ; \
	  $(GO) test -bench='$(SEARCH_COMPARE)' -benchmem -count=3 -cpu 1 -run=^$$ ./internal/vecindex ; }
bench-gate:
	$(GATE_RUN) | $(GO) run ./cmd/benchjson -baseline $(GATE_BASELINE) > /dev/null

bench-gate-baseline:
	$(GATE_RUN) | $(GO) run ./cmd/benchjson > $(GATE_BASELINE)
	@cat $(GATE_BASELINE)

# Heap-profile one benchmark (override PROFILE_BENCH/PROFILE_PKG), then
# inspect hot allocation sites with:
#   go tool pprof -top -alloc_objects mem.out
PROFILE_BENCH ?= CompileUltraSwerv$$
PROFILE_PKG ?= .
memprofile:
	$(GO) run ./cmd/benchjson -drive '$(PROFILE_BENCH)' -pkg $(PROFILE_PKG) -memprofile mem.out > /dev/null
	@echo "wrote mem.out; try: go tool pprof -top -alloc_objects mem.out"

# What .github/workflows/ci.yml runs: check, then the allocation gate.
ci: check bench-gate

# Short fuzzing pass over every untrusted-input parser and decoder, and over
# the simulated LLM's shared prompt reading (FuzzReadingReuse: samples drawn
# from one llm.Reading equal fresh generations) and the QoR log's prefix keys
# (FuzzKeyPrefix: a key finished from a saved prefix equals KeyOf), the
# timer's worst-path selection (FuzzWorstPaths: the paths WorstPaths selects
# equal those of a full endpoint sort) and endpoint ordering
# (FuzzCompareSuffixed), and the synthesis property harness
# (FuzzStoreMatchesStoreless: a generated case run over a checkpoint store
# equals its storeless run). It runs every Fuzz target in the repository, one
# line each; TestFuzzSmokeRunsEveryTarget fails when a target is added
# without its line here. Each target gets FUZZTIME of
# coverage-guided input generation on top of its checked-in seed corpus
# (testdata/fuzz/); any crash is a failure. Raise FUZZTIME for a deeper soak,
# e.g. make fuzz-smoke FUZZTIME=5m.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/verilog -run='^$$' -fuzz=FuzzParseVerilog -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/synth -run='^$$' -fuzz=FuzzParseScript -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/synth -run='^$$' -fuzz=FuzzStoreMatchesStoreless -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/graphdb -run='^$$' -fuzz=FuzzParseCypher -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzCustomizeRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qorlog -run='^$$' -fuzz=FuzzQoRLogRecover -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/llm -run='^$$' -fuzz=FuzzSections -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/llm -run='^$$' -fuzz=FuzzReadingReuse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qorlog -run='^$$' -fuzz=FuzzKeyPrefix -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sta -run='^$$' -fuzz=FuzzWorstPaths -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sta -run='^$$' -fuzz=FuzzCompareSuffixed -fuzztime=$(FUZZTIME)

# Crash-recovery gate for the durable QoR log: fault-injected kills
# mid-append, torn/corrupt-tail truncation, the write-once key, the
# degrade-to-memory path, and warm-restart byte-equivalence across the
# serving stack.
crash-recovery:
	$(GO) test ./internal/qorlog -race -run \
		'TestKillDuringAppend|TestTornTailRecovery|TestCorruptRecordTruncates|TestBadHeaderResets|TestStorePutDedupSkipsUnchanged|TestStoreKeepsFirstRecordInMemory|TestShortWriteRewindsAndRetries|TestStoreDegradesToMemoryOnFatalDiskError'
	$(GO) test ./internal/server -race -run 'TestWarmRestart|TestShutdownFlushesQoRLog|TestUnopenableQoRLog'
	$(GO) test . -race -run 'TestWarmRestartEquivalenceCorpus'

# Distributed-result-tier gate: an in-process chatlscached shared by two
# replica clients must share Pass@k results through its QoR records —
# concurrent replicas byte-identical to a storeless single replica, and a
# replica that runs after its sibling served every valid sample from the tier
# (each replica elaborates for itself) — and killing the cache server mid-run
# must degrade the client to local-only with one warning and equivalent
# results — all under -race.
remote-cache-e2e:
	$(GO) test ./internal/remotecache -race
	$(GO) test . -race -run 'TestTwoReplicasShareResultsAndMatchSingleReplica|TestSiblingReplicaIsServedFromTier|TestReplicaDegradesWhenTierDiesMidRun'

# Chaos soak (20 consecutive seeds from CHAOS_SEED, about a second each): a
# real server + remote tier under burst load, tier kills/restarts, sticky
# stage outages, and disk faults, checking the overload-protection invariants
# (no deadlocks, allowed statuses only, byte-identical non-degraded replies,
# no degraded reply without a stage fault, a faulted stage degrades itself
# and nothing else and is whole again once cleared, the tier breaker
# re-closes, shed_total equals the 429s received). The
# harness is built once. A failure message echoes its seed; rerun with
# CHAOS_SEED=<seed> to reproduce.
CHAOS_SEED ?= 20250808
chaos-soak:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/chaos" ./cmd/chaos && \
	for i in $$(seq 0 19); do "$$dir/chaos" -seed $$(($(CHAOS_SEED) + i)) || exit 1; done

# The repo benchmark (BENCHMARK.json, bench/) is its own Go module compiled
# against this one's API, so `go build ./... && go test ./...` at the root
# never sees it: vet and self-test it here, or a rename breaks it silently.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Everything CI runs plus the benchmark-module build, the fuzz smoke pass,
# the derived-level race gate, the crash-recovery gate, the
# distributed-result-tier gate (shared QoR records), and the chaos soak.
check: build vet fmt-check race derived-race bench-build fuzz-smoke crash-recovery remote-cache-e2e chaos-soak
