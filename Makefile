GO ?= go
BENCH_DATE := $(shell date +%Y%m%d)
BENCH_OUT ?= BENCH_$(BENCH_DATE).json

.PHONY: build vet lint test race allocs race-soak race-faults bench bench-json bench-diff bench-trajectory smoke determinism throughput-smoke examples soak faults fuzz cover stores loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the static determinism/protocol-safety gate: go vet, then the
# project's own nglint suite — the per-function analyzers (walltime,
# globalrand, maporder, locksafe, wiresym) plus the interprocedural module
# analyzers (detflow, parity, errflow) — see DESIGN.md §9 — then staticcheck
# and govulncheck when installed (CI installs both; locally they are
# optional extras since the sandbox has no network). A finding, or an
# unjustified //nglint:allow, fails the build. NGLINT_FLAGS threads extra
# flags through (CI passes -cache to skip the type-check when sources are
# unchanged).
NGLINT_FLAGS ?=
lint: vet
	$(GO) run ./cmd/nglint $(NGLINT_FLAGS) ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "== staticcheck"; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "== govulncheck"; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

test: build
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# allocs runs the allocation pins without the race detector (whose
# instrumentation may change what escapes): on the loose-transaction path,
# refused mempool admissions, counted wire sizes, exactly-sized encodings and
# the relay flush; on the file-backed store path, a page fault served from the
# evicted page and archive/journal records written from retained buffers. CI
# calls it from the `test` job beside the -race run.
allocs:
	$(GO) test -count=1 -run 'TestRefusalsDoNotAllocate|TestSizeCountsWhatEncodeWrites|TestColdWireSizeDoesNotAllocate|TestSizeEqualsEncodedLength|TestRelayFlushAllocations|TestCodecFramesAtCountedSize' \
		./internal/mempool ./internal/wire ./internal/types ./internal/node ./internal/p2p
	$(GO) test -count=1 -run 'TestPageFaultDoesNotAllocate|TestJournalAppendDoesNotAllocate|TestAppendRecordBytesAndAllocations' \
		./internal/store ./internal/blockstore

# race-soak replays a reduced chaos soak under the race detector. The
# differential replay (parallelism 1 vs 4, connect cache on vs off) is
# where the sharded engine's worker goroutines actually interleave, so this
# is the race hunt for the recovery and streaming paths that `race` (short
# tests only) never reaches. Seed count is cut because -race costs ~10x.
RACE_SOAK_SEEDS ?= 8
race-soak:
	$(GO) run -race ./cmd/ngbench -figure chaos -seeds $(RACE_SOAK_SEEDS)

# race-faults re-runs the faults ladder's harness pins under -race: crash,
# restart, resync, and lossy-link paths all spin real goroutines (live
# transport, cluster runtime) that the plain faults gate only checks for
# correctness, not for data races.
race-faults:
	$(GO) test -race -count=1 -run 'TestSync|TestMalformedMessagesDropped|TestFetchGiveUpHandsOffToSync' ./internal/node
	$(GO) test -race -count=1 -run 'TestLiveMalformedFrameDropsPeer|TestCodecSyncRoundTrip' ./internal/p2p
	$(GO) test -race -count=1 -run 'TestRestartRecoversDurablePrefix|TestCrashedNodeIsInert|TestBootRejectsUsedStoreWithoutResume' ./internal/harness
	$(GO) test -race -count=1 -run 'TestCrashRestartReachesKernel|TestRunRefusesUsedStoreRoot' ./internal/experiment
	$(GO) test -race -count=1 -run 'TestMajorityCrashConverges|TestRegressionSeeds' ./internal/chaos
	$(GO) test -race -count=1 -run 'TestClusterLeaderCrashRestartResync|TestClusterStateDirProcessRestart|TestClusterLossyLinks|TestClusterGoldenFingerprint' .

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-json records the Figure and substrate benchmarks as go test -json
# events in BENCH_<date>.json (override with BENCH_OUT=...) — committed when
# a PR claims a performance change, so the perf trajectory stays auditable.
bench-json:
	$(GO) test -json -bench=. -benchtime=1x -run='^$$' . > $(BENCH_OUT)
	@grep -c '"Action"' $(BENCH_OUT) >/dev/null && echo "wrote $(BENCH_OUT)"

# bench-diff renders per-benchmark ns/op deltas between two bench-json
# snapshots, flagging regressions >10%. Defaults to oldest vs newest
# committed snapshot; override with OLD=... NEW=...
OLD ?= $(firstword $(sort $(wildcard BENCH_*.json)))
NEW ?= $(lastword $(sort $(wildcard BENCH_*.json)))
bench-diff:
	$(GO) run ./cmd/ngbench -compare $(OLD) $(NEW)

# bench-trajectory renders the whole committed perf history at once: every
# BENCH_*.json snapshot chronologically (the date-stamped names sort), one
# column per snapshot, with the cumulative first→last delta per benchmark.
bench-trajectory:
	$(GO) run ./cmd/ngbench -trajectory $(sort $(wildcard BENCH_*.json))

# smoke is the CI scalability gate: a paper-scale (1000-node) Bitcoin-NG run
# kept to a handful of payload blocks so it finishes in well under the job's
# time budget.
smoke:
	$(GO) run ./cmd/ngbench -figure smoke -nodes 1000 -blocks 5

# examples RUNS every examples/ binary end to end (they all terminate on
# their own, livenet included), so the documented walkthroughs cannot rot
# while merely compiling. CI runs this as a smoke job.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done
	@echo "all examples ran clean"

# determinism cross-checks the parallel engine: the paper-scale smoke run's
# stdout must be byte-identical between the sequential loop and a 4-shard run.
determinism:
	$(GO) run ./cmd/ngbench -figure smoke -nodes 1000 -blocks 5 -parallelism 1 > /tmp/ng-smoke-seq.txt
	$(GO) run ./cmd/ngbench -figure smoke -nodes 1000 -blocks 5 -parallelism 4 > /tmp/ng-smoke-par.txt
	diff -u /tmp/ng-smoke-seq.txt /tmp/ng-smoke-par.txt
	@echo "determinism gate passed: sequential and sharded reports identical"

# throughput-smoke is the sustained-load gate: a short offered-load sweep
# (streaming workload, open loop) whose stdout must be byte-identical
# between the sequential loop and a 4-shard run — the paced-pipeline
# determinism claim, checked end to end. Durations below ~2x the key-block
# interval mine nothing (the first NG key block lands around 100s), so the
# smoke keeps 30m of virtual time: long enough for the bitcoin baseline to
# visibly saturate (~3.4 tx/s) while NG tracks the offered rate.
throughput-smoke:
	$(GO) run ./cmd/ngbench -figure throughput -nodes 10 -rates 2,8 -duration 30m -parallelism 1 > /tmp/ng-tput-seq.txt
	$(GO) run ./cmd/ngbench -figure throughput -nodes 10 -rates 2,8 -duration 30m -parallelism 4 > /tmp/ng-tput-par.txt
	diff -u /tmp/ng-tput-seq.txt /tmp/ng-tput-par.txt
	@cat /tmp/ng-tput-par.txt
	@echo "throughput-smoke passed: sequential and sharded sweeps identical"

# soak is the chaos gate: SOAK_SEEDS randomized adversarial scenarios
# (internal/chaos) run under the online invariant catalogue, every seed
# replayed across both sim engines (-parallelism 1 vs 4) and with the
# connect cache on vs off; any invariant violation or report divergence
# fails. Failing seeds belong in internal/chaos/testdata/seeds.
SOAK_SEEDS ?= 50
soak:
	$(GO) run ./cmd/ngbench -figure chaos -seeds $(SOAK_SEEDS)

# faults runs the crash/recovery suite end to end: the sync protocol and
# malformed-message hardening units, the simulated and live transports, the
# harness kernel's crash/restart pins (where the restart sequence lives) and
# their experiment-facade twin, the majority-crash differential, the committed
# chaos regression seeds with their golden digests (which include leader-crash
# + lossy programs), and the cluster-level leader-crash / process-restart /
# lossy / golden-fingerprint tests.
faults:
	$(GO) test -run 'TestSync|TestMalformedMessagesDropped|TestFetchGiveUpHandsOffToSync' -count=1 ./internal/node
	$(GO) test -run 'TestLiveMalformedFrameDropsPeer|TestCodecSyncRoundTrip' -count=1 ./internal/p2p
	$(GO) test -run 'TestRestartRecoversDurablePrefix|TestCrashedNodeIsInert|TestBootRejectsUsedStoreWithoutResume' -count=1 ./internal/harness
	$(GO) test -run 'TestCrashRestartReachesKernel|TestRunRefusesUsedStoreRoot' -count=1 ./internal/experiment
	$(GO) test -run 'TestMajorityCrashConverges|TestRegressionSeeds' -count=1 ./internal/chaos
	$(GO) test -run 'TestClusterLeaderCrashRestartResync|TestClusterStateDirProcessRestart|TestClusterLossyLinks|TestClusterGoldenFingerprint' -count=1 .

# stores is the storage-engine gate (DESIGN.md §12): the pluggable-backend
# unit suites (paged table, FileUTXO journal/checkpoint handshake, chain
# index, blockstore sync-policy + failure-injection durability), the
# durability/aliasing bugfix pins (Clone mutation isolation, reopened-index
# tie-break equivalence), the harness kernel's restart pins over both
# backends, the committed chaos regression seeds — each
# replayed under the mem vs file backend differential — and the beyond-RAM
# bounded-memory soak over file backends.
stores:
	$(GO) test -count=1 ./internal/store ./internal/blockstore
	$(GO) test -count=1 -run 'TestCloneMutationIsolation|TestSetCloneIsolationPagedBackend' ./internal/utxo ./internal/store
	$(GO) test -count=1 -run 'TestRestartRecoversDurablePrefix|TestBootRejectsUsedStoreWithoutResume' ./internal/harness
	$(GO) test -count=1 -run 'TestClusterRestartPreservesTieBreakInputs|TestClusterStateDirProcessRestart|TestClusterGoldenFingerprint' .
	$(GO) test -count=1 -run 'TestRegressionSeeds' ./internal/chaos
	$(GO) test -count=1 -run 'TestBeyondRAMRunBounded' -timeout 20m ./internal/experiment

# fuzz runs a short campaign on every native fuzz target; raise FUZZTIME for
# a real hunt. Interesting inputs land in each package's testdata/fuzz and
# should be committed — the corpus replays under plain `go test` forever.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chaos
	$(GO) test -fuzz=FuzzBlockWire -fuzztime=$(FUZZTIME) -run '^$$' ./internal/types
	$(GO) test -fuzz=FuzzEnvelope -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzVarInt -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzNextTarget -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chain
	$(GO) test -fuzz=FuzzBlockstoreReopen -fuzztime=$(FUZZTIME) -run '^$$' ./internal/blockstore
	$(GO) test -fuzz=FuzzLedgerTable -fuzztime=$(FUZZTIME) -run '^$$' ./internal/utxo

# cover prints per-package statement coverage and enforces floors on the
# consensus-critical packages: coverage there may only go up. CI publishes
# the table in the job summary.
COVER_FLOORS := internal/chain:78 internal/utxo:80
cover:
	@$(GO) test -cover ./... > /tmp/ng-cover.txt || { cat /tmp/ng-cover.txt; echo "cover: tests failed"; exit 1; }
	@cat /tmp/ng-cover.txt
	@set -e; for spec in $(COVER_FLOORS); do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		pct=$$(awk -v pkg="bitcoinng/$$pkg" '$$2 == pkg { for (i = 1; i <= NF; i++) if ($$i ~ /%/) { gsub(/%/, "", $$i); print $$i } }' /tmp/ng-cover.txt); \
		[ -n "$$pct" ] || { echo "cover: no coverage reported for $$pkg"; exit 1; }; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p + 0 >= f + 0) ? 0 : 1 }' || \
			{ echo "cover: FLOOR BREACH $$pkg at $$pct% < $$floor%"; exit 1; }; \
		echo "cover: floor ok $$pkg $$pct% >= $$floor%"; \
	done

# loc prints the non-test Go line count outside benchmark/ — the number the
# simplicity PRs (ROADMAP "quality of design") are judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
