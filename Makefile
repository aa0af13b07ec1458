GO ?= go

.PHONY: build vet fmt lint test race allocs race-soak race-faults smoke determinism throughput-smoke examples soak faults fuzz cover stores loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file is not gofmt-clean, listing the files.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need gofmt -w:"; echo "$$unformatted"; exit 1; \
	fi

# lint is the static determinism/protocol-safety gate: gofmt (any file
# `gofmt -l` names fails it), go vet, then the project's own nglint suite —
# the per-function analyzers (walltime, locksafe) plus the
# interprocedural module analyzers (detflow, errflow) —
# see DESIGN.md §9 — then staticcheck and govulncheck when installed (CI
# installs both; locally they are optional extras since the sandbox has no
# network). A finding, or an
# unjustified //nglint:allow, fails the build. NGLINT_FLAGS threads extra
# flags through (CI passes -cache to skip the type-check when sources are
# unchanged).
NGLINT_FLAGS ?=
lint: fmt vet
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
# refused mempool admissions, a warm add/confirm churn cycle (recycled pool
# entries), a fill/confirm-all/refill cycle (the pool's spare bucket array),
# the bytes a fresh pool allocates per admitted transaction (its entry and
# one 16-byte slot in each 8-byte-keyed index, with growth), counted wire
# sizes, every gossip message's Size(), exactly-sized encodings and the relay
# flush (nothing beyond its batches: the gossip re-arms its one flush timer);
# on the leader's path, repeat assemblies in
# the node's spend filter; in the blaster, a steady-state Tick and
# ReleaseBehind; in the load tracker, advancing over resident blocks (the
# growth of its path, runs and bitset only, nothing per transaction, and
# nothing for a reorg once grown); on the stage-1 hashing path, transaction and microblock
# sighashes, header hashes and the in-place Merkle fold; on the chain-index
# path, records (block and arrival time) written from a retained buffer that
# a larger record grows once, to about its own size, and read back into one;
# in the ledger, a replayed create that links its delta's leaf instead of
# allocating one, an undo that relinks the very leaves the block spent, and
# the bytes a 75-transaction block's apply takes (its delta points at the
# leaves it spent instead of copying them); on the live path, a
# steady-state frame read and a send into a pooled frame; in the simulator, a
# Send and its delivery (recycled deliveries, on one loop and across two
# shards both ways) and a warm two-shard window; at the sharded engine's
# window barrier, the metric-buffer merge and the cross-shard outbox flush;
# a node's per-block bookkeeping: a repeated target's work (the fleet-wide
# memo), a tip change's Recorder call, a warm inv/getdata/block fetch cycle
# (nothing: the inv goes back as its getdata), the same cycle on a
# simnet.NodeEnv over a sim.Loop (nothing: the fetch record re-arms its own
# timer, which carries the crash guard) and a second node's announce of a
# block the fleet already announced (nothing: the block's one inv); the
# collector's tip log (one allocation per chunk) and its acceptance times
# (one allocation per block, at its first acceptance); and the fleet's
# shared block table: block lookups in the tree, the state and the
# in-memory chain index (hit and miss), a second store's insert of blocks
# another store already named (a 40-byte view per block, in chunks of eight,
# plus the chunk directory's growth: the header, weight included, is the
# fleet's), a second state's AddBlock of them (the same: the result is the
# state's own, reused) and a second Mem's append of blocks the fleet already
# archived (its 16-byte records' bytes plus one growth, no body); and a
# restarted node's index replay in a compacting file-backed fleet, which
# decodes only the records whose fleet header was evicted and takes the
# resident bodies as they are.
# CI calls it from the `test` job beside the -race run.
allocs:
	$(GO) test -count=1 -run 'TestRefusalsDoNotAllocate|TestChurnDoesNotAllocate|TestRefillDoesNotAllocate|TestAdmissionBytesPerTransaction|TestSizeCountsWhatEncodeWrites|TestColdWireSizeDoesNotAllocate|TestSizeEqualsEncodedLength|TestRelayFlushAllocations|TestWalletWindowSharesOneBatch|TestCodecFramesAtCountedSize|TestSizeDoesNotAllocate|TestTipChangeReportDoesNotAllocate|TestFetchCycleDoesNotAllocate|TestSimulatedFetchCycleDoesNotAllocate|TestSharedAnnounceDoesNotAllocate' \
		./internal/mempool ./internal/wire ./internal/types ./internal/node ./internal/p2p
	$(GO) test -count=1 -run 'TestSpendFilterReusesScratch|TestBlasterSteadyStateDoesNotAllocate|TestTrackerAdvanceAllocatesOnlyGrowth' \
		./internal/bitcoin ./internal/load
	$(GO) test -count=1 -run 'TestDigestsDoNotAllocate|TestMerkleRootDoesNotAllocate|TestWorkForTargetRepeatDoesNotAllocate|TestEnvelopeReadFromReusesBuffer|TestSendReusesFrames' \
		./internal/types ./internal/crypto ./internal/wire ./internal/p2p
	$(GO) test -count=1 -run 'TestAppendSizesRecordOnce|TestAppendRecordBytesAndAllocations|TestGetReadsIntoOneBuffer|TestMemLookupsDoNotAllocate|TestArchivedAppendCostsOnlyItsEntries|TestReplayedCreateLinksLoggedLeaf|TestApplyBlockBytesPerBlock' \
		./internal/blockstore ./internal/utxo
	$(GO) test -count=1 -run 'TestLookupsDoNotAllocate|TestSecondStoreInsertAllocatesOnlyItsNode|TestSecondStateAddBlockAllocatesOnlyItsNode' ./internal/chain
	$(GO) test -count=1 -run 'TestRestartDecodesOnlyEvictedBodies' ./internal/harness
	$(GO) test -count=1 -run 'TestShardedFlushDoesNotAllocate|TestTipLogAllocatesOncePerChunk|TestAcceptancesAllocateOncePerBlock|TestFlushOutboxesOrderAndAllocations|TestSendDeliverDoesNotAllocate|TestShardedWindowDoesNotAllocate' \
		./internal/metrics ./internal/simnet ./internal/sim

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
# correctness, not for data races. It also runs the load stream's signer
# tests (a background goroutine signing ahead of racing consumers), the
# ledger's shared deltas crossed from four goroutines (leaves are shared by
# pointer across shards) and the trie's model test, the simulator's delivery
# recycling on four
# lossy shards with a node crashing under traffic, two goroutines
# interning overlapping hashes in one block table, four stores interning
# one forked chain's shared headers at once and reloading their evicted
# bodies, two goroutines
# thrashing the fleet-wide work memo with alternating targets, and two
# shards announcing and fetching one block object through its shared
# messages.
race-faults:
	$(GO) test -race -count=1 -run 'TestRecyclingShardedMatchesSequential' ./internal/simnet
	$(GO) test -race -count=1 -run 'TestStream|TestSignerExitsWithDemand' ./internal/load
	$(GO) test -race -count=1 -run 'TestSharedDeltasAcrossGoroutines|FuzzLedgerTable' ./internal/utxo
	$(GO) test -race -count=1 -run 'TestTableConcurrentIntern' ./internal/blockstore
	$(GO) test -race -count=1 -run 'TestStoresInternHeadersConcurrently' ./internal/chain
	$(GO) test -race -count=1 -run 'TestWorkForTargetConcurrent' ./internal/crypto
	$(GO) test -race -count=1 -run 'TestSync|TestMalformedMessagesDropped|TestFetchGiveUpHandsOffToSync|TestShardsShareBlockMessages' ./internal/node
	$(GO) test -race -count=1 -run 'TestLiveMalformedFrameDropsPeer|TestCodecSyncRoundTrip' ./internal/p2p
	$(GO) test -race -count=1 -run 'TestRestartRecoversDurablePrefix|TestCrashedNodeIsInert|TestBootRejectsUsedStoreWithoutResume|TestOrphanEvictionRunsRepeat' ./internal/harness
	$(GO) test -race -count=1 -run 'TestCrashRestartReachesKernel|TestRunRefusesUsedStoreRoot' ./internal/experiment
	$(GO) test -race -count=1 -run 'TestMajorityCrashConverges|TestRegressionSeeds' ./internal/chaos
	$(GO) test -race -count=1 -run 'TestClusterLeaderCrashRestartResync|TestClusterStateDirProcessRestart|TestClusterLossyLinks|TestClusterGoldenFingerprint' .

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
# run twice under the baseline configuration and replayed across both sim
# engines (-parallelism 1 vs 4), with the connect cache on vs off and on
# both storage backends; any invariant violation, run-to-run drift or report
# divergence fails. Failing seeds belong in internal/chaos/testdata/seeds.
SOAK_SEEDS ?= 50
soak:
	$(GO) run ./cmd/ngbench -figure chaos -seeds $(SOAK_SEEDS)

# faults runs the crash/recovery suite end to end: the sync protocol and
# malformed-message hardening units, the simulated and live transports, the
# harness kernel's crash/restart pins (where the restart sequence lives), its
# drop-only run that overflows the orphan stash and must repeat byte for byte,
# their experiment-facade twin (plus a compacting file-backed run whose
# reference node crashes and restarts: its load report equals the full walk's
# and reloads no evicted body), the majority-crash differential, the committed
# chaos regression seeds with their golden digests (which include leader-crash
# + lossy programs), and the cluster-level leader-crash / process-restart
# (whose resume decodes each record once) / lossy / golden-fingerprint tests.
faults:
	$(GO) test -run 'TestSync|TestMalformedMessagesDropped|TestFetchGiveUpHandsOffToSync' -count=1 ./internal/node
	$(GO) test -run 'TestLiveMalformedFrameDropsPeer|TestCodecSyncRoundTrip' -count=1 ./internal/p2p
	$(GO) test -run 'TestRestartRecoversDurablePrefix|TestCrashedNodeIsInert|TestBootRejectsUsedStoreWithoutResume|TestOrphanEvictionRunsRepeat' -count=1 ./internal/harness
	$(GO) test -run 'TestCrashRestartReachesKernel|TestRunRefusesUsedStoreRoot|TestLoadReportReadsNoEvictedBody' -count=1 ./internal/experiment
	$(GO) test -run 'TestMajorityCrashConverges|TestRegressionSeeds' -count=1 ./internal/chaos
	$(GO) test -run 'TestClusterLeaderCrashRestartResync|TestClusterStateDirProcessRestart|TestClusterResumeDecodesEachRecordOnce|TestClusterLossyLinks|TestClusterGoldenFingerprint' -count=1 .

# stores is the storage-engine gate (DESIGN.md §12): the pluggable-backend
# unit suites (the factory's locators and chain index, and the blockstore's
# Store/Mem contract, block-and-arrival-time record recovery, old-format
# refusal and failure-injection durability), the durability/aliasing bugfix
# pins (ledger Clone mutation isolation, reopened-index tie-break
# equivalence), the
# harness kernel's restart pins over both backends, the committed chaos
# regression seeds —
# each replayed under the mem vs file backend differential — and the
# beyond-RAM bounded-memory soak over file backends.
stores:
	$(GO) test -count=1 ./internal/store ./internal/blockstore
	$(GO) test -count=1 -run 'TestCloneMutationIsolation' ./internal/utxo
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
	$(GO) test -fuzz=FuzzMessage -fuzztime=$(FUZZTIME) -run '^$$' ./internal/p2p
	$(GO) test -fuzz=FuzzVarInt -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzNextTarget -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chain
	$(GO) test -fuzz=FuzzWork -fuzztime=$(FUZZTIME) -run '^$$' ./internal/crypto
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
