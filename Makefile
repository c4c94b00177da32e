# Tier-1 verification gate. `make check` is what CI and reviewers run;
# it must stay green on every commit.

GO ?= go
FUZZTIME ?= 10s
# race bounds every package's suite under the race detector: the chaos,
# swarm, shard, resize and compression suites all run in that one pass, and
# a wedged drain or a leaked goroutine must fail it, not hang CI.
RACETIMEOUT ?= 300s
# bench-pair: which BENCHMARK.json workload to run, how many alternated
# parent/change pairs, the run length (the gate's), whether to run the traced
# per-layer pass instead of the end-to-end one, and the first pair's seed.
WORKLOAD ?= bulk_in_central
PAIRS ?= 10
PAIR_SECONDS ?= 18
TRACE ?= 0
SEED ?= 1
# Coverage floor for internal/obs, the observability layer: its contract is
# almost entirely behavioral (nil-safety, ring wraparound, snapshot merging),
# so coverage there is a meaningful proxy. Other packages report only.
OBS_COVER_FLOOR ?= 70
# internal/testutil is the shared leak-checking harness; a hole there
# silently weakens every suite that trusts it, so it gets a floor too.
TESTUTIL_COVER_FLOOR ?= 85
# Floor for the elastic resize paths (internal/core/elastic.go): the resize
# state machine's correctness is proven almost entirely by the chaos
# harness, so untested branches there are unguarded rollback paths.
RESIZE_COVER_FLOOR ?= 75

# flake repeats the ledger and leak suites: their assertions are identities
# (offered = dispatched + shed; pool gets = puts; nothing in flight once the
# reply is in hand), so one failure in FLAKECOUNT runs is a bug, not noise.
FLAKECOUNT ?= 20
FLAKETIMEOUT ?= 300s

.PHONY: check vet staticcheck build test race flake fuzz-smoke bench-pair cover size

# No benchmark is a prerequisite: bench/ (BENCHMARK.json) is gated by the
# driver on its own, and a speed claim rests on `make bench-pair`.
check: vet staticcheck build test race flake fuzz-smoke cover

# An unformatted tracked file fails the gate, by name.
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# staticcheck is optional tooling: run it when the binary is on PATH,
# otherwise skip with a notice rather than failing the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One pass over everything: the fault-injection, keepalive, drain and failover
# suites, the massive fan-in swarm and soak, the shard kill, the 50 seeded
# resize schedules and the compression matrix are ordinary tests of their
# packages and need no -run subset of their own.
race:
	$(GO) test -race -timeout=$(RACETIMEOUT) ./...

# The admission ledger (stats_test.go), the fan-in accounting suite
# (fanin_test.go), the transport's pool-balance suites (zero-copy writes, the
# recycled Data struct, a message read as one exact body and a fragmented
# one refused at its header), and the buffer
# pool's own hammer with the chunk-buffer ledger, fault and run-ahead suites and the one chunk sender's
# (the last three packages under -race: their failure mode is a buffer observed
# while on loan) and, beside it, the direct legs' chunk ledger with the schedule
# it walks and a fine plan's packed steps (a frame of one flow taken for
# another's, a sink filled ahead of its reader), the refused invocations' (a
# frame observed after release), set-up's failure agreement (a
# thread still parked in a collective), the lost data connection's (a
# thread that missed the poison waits out its timeout) and the reply stream's —
# cut mid-leg, and counted whole (a frame left in a lane's sink, a poison that
# reached the next call), the bad steps of a leg in the message (a thread
# stranded in the next step's collective), a lost connection's poison, in
# orb and through a shared engine (one that reached another object's sink),
# a routed invocation's re-run on the next profile after a lost shard or
# primary (a poison or frame of the failed attempt that reached the re-run),
# a small call's one exchange (a goroutine launched for it), the skeleton's
# collective count (an agreement skipped on one thread only), the recycled
# arguments' (storage one call's reply leg still reads while the next call's
# handler writes it) and the recycled buckets' (a late frame, attachment or
# drain that reached the call a bucket serves next; the allocation guard skips
# itself under -race, but its framed calls still run) — FLAKECOUNT times each.
flake:
	$(GO) test -count=$(FLAKECOUNT) -timeout=$(FLAKETIMEOUT) \
		-run='TestStatsUnderAdmissionOverload|TestSerialClientNeverShedForItsOwnReply|TestShutdownRacesAdmission|TestQueueExhaustionWithConcurrentDrains|TestMaxConnInFlightOnSharedConn|TestShedAccountingAcrossLayers|TestLostConnectionPoisonsOnlyItsSinks' \
		./internal/orb
	$(GO) test -count=$(FLAKECOUNT) -timeout=$(FLAKETIMEOUT) \
		-run='TestVectoredDataTCP|TestDataEchoAllocs|TestDataReadRecycles|TestFragmentedRequestReplyExactBody|TestReassemblyFailuresReturnFrames' \
		./internal/transport
	$(GO) test -race -count=$(FLAKECOUNT) -timeout=$(FLAKETIMEOUT) -run='TestHammer' ./internal/bufpool
	$(GO) test -race -count=$(FLAKECOUNT) -timeout=$(FLAKETIMEOUT) -run='TestChunkPool' ./internal/dseq
	$(GO) test -race -count=$(FLAKECOUNT) -timeout=$(FLAKETIMEOUT) \
		-run='TestChunkSender|TestChunkSchedule|TestMultiportFramesReturned|TestDirectLegFinePlan|TestRefusedInvocationReleasesFrames|TestExportFailureAgreed|TestLostDataConnectionIsCommFailure|TestChaosServerDiesMidReplyStream|TestReplyLegChunkSchedule|TestBadStepInRequestDoesNotWedgeServer|TestBadStepInReplyDoesNotWedgeClient|TestShareConnectionSurvivesAnotherObjectsLoss|TestReplicaFailoverMovesEveryLeg|TestShardRoutingCoreEndToEnd|TestShardRoutingMultiport|TestShardRoutingAmbiguousFailure|TestInMessageCallIsOneExchange|TestCollectivesPerInvocation|TestRecycledArgs|TestRecycledBucket|TestFramedCallAllocs' ./internal/core

# Paired runs of one BENCHMARK.json workload: the parent commit against the
# working tree, alternated on this box, with medians, quartiles and wins per
# metric (scripts/bench-pair.sh has the rule). What a speed claim rests on.
bench-pair:
	bash scripts/bench-pair.sh --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(PAIR_SECONDS) --trace $(TRACE) --seed $(SEED)

# Go line counts by the one rule CHANGES.md entries and ROADMAP line targets
# use — `find … -name '*.go' ! -path './.bench_build/*' | xargs cat | wc -l` —
# non-test and test apart: per package directory (bench/ among them), then the
# totals a size claim quotes.
size:
	@count() { find "$$@" ! -path './.bench_build/*' | xargs cat | wc -l; }; \
	for d in $$(find . -name '*.go' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%-28s %6d non-test %6d test\n' $$d \
			$$(count $$d -maxdepth 1 -name '*.go' ! -name '*_test.go') $$(count $$d -maxdepth 1 -name '*_test.go'); \
	done; \
	printf '%-28s %6d non-test\n' 'all outside bench/' $$(count . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); \
	printf '%-28s %6d non-test %6d test\n' 'all Go' $$(count . -name '*.go' ! -name '*_test.go') $$(count . -name '*_test.go'); \
	printf '%-28s %6d (Go %d + Makefile %d)\n' 'Go + Makefile' \
		$$(( $$(count . -name '*.go') + $$(wc -l < Makefile) )) $$(count . -name '*.go') $$(wc -l < Makefile)

# Per-package coverage report (cover.out is gitignored). Floors are
# enforced for internal/obs and internal/testutil; every other package is
# report-only.
cover:
	@$(GO) test -coverprofile=cover.out -cover ./... > cover-report.out || \
		{ cat cover-report.out; exit 1; }
	@grep -E 'coverage: [0-9.]+%' cover-report.out || true
	@awk -v floor=$(OBS_COVER_FLOOR) ' \
		$$2 == "repro/internal/obs" && $$4 == "coverage:" { pct = $$5; sub(/%/, "", pct); found = 1 } \
		END { \
			if (!found) { print "internal/obs coverage not reported"; exit 1 } \
			if (pct + 0 < floor) { \
				printf "FAIL: internal/obs coverage %.1f%% is below the %d%% floor\n", pct, floor; exit 1 \
			} \
			printf "internal/obs coverage %.1f%% (floor %d%%)\n", pct, floor \
		}' cover-report.out
	@awk -v floor=$(TESTUTIL_COVER_FLOOR) ' \
		$$2 == "repro/internal/testutil" && $$4 == "coverage:" { pct = $$5; sub(/%/, "", pct); found = 1 } \
		END { \
			if (!found) { print "internal/testutil coverage not reported"; exit 1 } \
			if (pct + 0 < floor) { \
				printf "FAIL: internal/testutil coverage %.1f%% is below the %d%% floor\n", pct, floor; exit 1 \
			} \
			printf "internal/testutil coverage %.1f%% (floor %d%%; other packages report-only)\n", pct, floor \
		}' cover-report.out
	@$(GO) tool cover -func=cover.out | awk -v floor=$(RESIZE_COVER_FLOOR) ' \
		$$1 ~ /internal\/core\/elastic\.go/ { pct = $$NF; sub(/%/, "", pct); sum += pct; n++ } \
		END { \
			if (!n) { print "internal/core/elastic.go coverage not reported"; exit 1 } \
			avg = sum / n; \
			if (avg < floor) { \
				printf "FAIL: elastic resize coverage %.1f%% is below the %d%% floor\n", avg, floor; exit 1 \
			} \
			printf "elastic resize coverage %.1f%% (floor %d%%, mean over %d functions)\n", avg, floor, n \
		}'

# Each fuzz target gets a short bounded run; `go test` allows only one
# -fuzz pattern per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeHeader$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBody$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecoder$$' -fuzztime=$(FUZZTIME) ./internal/cdr
	$(GO) test -run='^$$' -fuzz='^FuzzReadMessage$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzParseIOR$$' -fuzztime=$(FUZZTIME) ./internal/orb
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeOutcome$$' -fuzztime=$(FUZZTIME) ./internal/orb
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeInvocationHeader$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeReplyHeader$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzChunkEnvelope$$' -fuzztime=$(FUZZTIME) ./internal/dseq
	$(GO) test -run='^$$' -fuzz='^FuzzSchedule$$' -fuzztime=$(FUZZTIME) ./internal/dist
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeDoubles$$' -fuzztime=$(FUZZTIME) ./internal/zcodec
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeInts$$' -fuzztime=$(FUZZTIME) ./internal/zcodec
