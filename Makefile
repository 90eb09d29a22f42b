GO ?= go
COVER_FLOOR ?= 45.0
FUZZTIME ?= 10s

.PHONY: build test vet fmt lint race race-storage race-kernels race-obs race-server race-snapshots race-plan bench-e2e cover fuzz-smoke serve-smoke loc ci

# Tier-1 verification: everything builds, every test passes.
build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static invariants: stock go vet (its copylocks check included) plus one
# pass of the repo's own gdbvet suite (vfsonly, syncerr, lockdiscipline,
# itererr, closeleak, lockorder) over the whole module, so the
# summary-driven analyzers see module-wide function summaries
# (cross-package lock cycles only exist there). The same pass audits every
# //gdbvet:allow directive and enforces the per-analyzer suppression
# budget in .gdbvet-budget. See DESIGN.md "Static invariants".
bin/gdbvet: FORCE
	$(GO) build -o $@ ./cmd/gdbvet

.PHONY: FORCE
FORCE:

lint: vet fmt bin/gdbvet
	./bin/gdbvet -audit -budget .gdbvet-budget ./...

# gofmt -l over every Go file outside testdata; any file it lists fails the
# build. The analyzer fixtures under testdata are left out: their // want
# comments pin diagnostics to line and column positions as written.
fmt:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The whole module runs under the race detector: the one race run in ci.
# The race-* subsets below are faster inner-loop targets outside ci; every
# package and every -run filter in them is already inside this run.
race:
	$(GO) test -race ./...

# Inner-loop subset, outside ci.
race-storage:
	$(GO) test -race ./internal/storage/... ./internal/engines/suite/...

# Inner-loop subset, outside ci.
# Query kernels and every engine under the race detector: the Essentials
# closures, the snapshots the Concurrent engines pin for them, and
# plan.Walk, the breadth-first walker algo's kernels run on.
race-kernels:
	$(GO) test -race ./internal/algo/... ./internal/query/plan/ ./internal/engines/...

# Inner-loop subset, outside ci.
# The observability substrate and its differential twins under the race
# detector: concurrent counter/span traffic plus the trace-on/off and
# observed/unobserved byte-identity proofs.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/enginetest/diff/...

# Inner-loop subset, outside ci.
# The MVCC snapshot surface under the race detector: memgraph's
# copy-on-write blocks and kvgraph's mirror (both store-level acquire
# paths), the engine snapshot/cancellation suite, the
# writer-during-long-read twin proof, the pinned-view-vs-store
# differential and the live-order twin (a pinned view enumerates
# neighbours in the live store's order). The package runs carry the
# work-bound tests (memgraph TestSnapshotCostFlat, suite
# TestPatchAfterWriteAllocsFlat and TestMirrorPinAfterWriteAllocsFlat) and
# the rejected-mutation regressions. See DESIGN.md "Snapshot & versioning
# contract".
race-snapshots:
	$(GO) test -race ./internal/memgraph/ ./internal/kvgraph/ ./internal/engines/suite/
	$(GO) test -race ./internal/enginetest/diff/ -run 'TestPinnedSnapshotSurvivesWriterTwins|TestPatchedSnapshotDifferential|TestViewEnumeratesLiveOrder' -count=1

# Inner-loop subset, outside ci.
# The planner surface under the race detector: cardinality statistics,
# the cost-based/WCO planner, the plan-differential + metamorphic twins
# that prove plan choice never changes answers, and the drift-bound check
# that holds every store's served statistics within a sixteenth of the
# store and each rebuild to stats.Build of a view at its epoch; the
# adjacency twins (id pairs against Neighbors, row for row) ride inside
# TestPlanDifferential{,Disk} and the plan fuzz seeds, and the store-level half
# of that proof is TestAppendNeighborIDs*. See DESIGN.md "Planning &
# statistics contract".
race-plan:
	$(GO) test -race ./internal/query/stats/ ./internal/query/plan/
	$(GO) test -race ./internal/enginetest/diff/ -run 'TestPlanDifferential|TestPlanMetamorphic|TestPlanStatsDriftBound' -count=1
	$(GO) test -race ./internal/memgraph/ ./internal/kvgraph/ ./internal/engines/propcore/ -run 'TestAppendNeighborIDs|TestPlanningRendersNoView' -count=1

# Inner-loop subset, outside ci.
# The networked service under the race detector: session registry,
# admission gate, and the token-bucket/load-harness pieces that hammer
# them concurrently.
race-server:
	$(GO) test -race ./internal/server/... ./cmd/gdbserver/...

# The end-to-end ledger: bench/'s four served workloads with every answer
# checked (BENCHMARK.json; add --workload NAME --trace 1 by hand for the
# per-layer metrics). Minutes long and timing-sensitive, so outside ci.
bench-e2e:
	bash bench/run.sh

# Per-package coverage with a floor: any tested package below COVER_FLOOR
# fails the build. Packages without tests, command mains and examples are
# exempt — adding the first test to a package puts it on the hook.
cover:
	$(GO) test -cover ./... | awk -v floor=$(COVER_FLOOR) ' \
		{ print } \
		$$1 != "ok" { next } \
		$$2 ~ /^gdbm\/(cmd|examples)\// { next } \
		/\[no statements\]/ { next } \
		/coverage:/ { \
			pct = ""; \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") { pct = $$(i+1); sub(/%.*/, "", pct) } \
			if (pct != "" && pct + 0 < floor) { bad = bad "\n  " $$2 " " pct "% < " floor "%" } \
		} \
		END { if (bad != "") { printf "coverage floor violations:%s\n", bad; exit 1 } }'

# Short deterministic fuzz pass over every fuzz target; long enough to
# catch regressions of previously-found crashers, short enough for ci.
# go test allows -fuzz for one package per invocation, hence one run per
# target.
fuzz-smoke:
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzValueMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzUnmarshalProperties -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -run '^$$' -fuzz FuzzIndexMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZTIME)
	$(GO) test ./internal/format/ -run '^$$' -fuzz FuzzFormatRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query/plan/ -run '^$$' -fuzz FuzzCompileMatchSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query/plan/ -run '^$$' -fuzz FuzzCompilePathExpr -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server/wire/ -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/btree/ -run '^$$' -fuzz FuzzNodeDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/btree/ -run '^$$' -fuzz FuzzLeafSplice -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/pager/ -run '^$$' -fuzz FuzzPagerMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/memgraph/ -run '^$$' -fuzz FuzzGraphMatchesMapReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/algo/ -run '^$$' -fuzz FuzzWalkMatchesReference -fuzztime $(FUZZTIME)

# Overload drill: build the real gdbserver binary, burst it at 2× the
# configured capacity with the in-process loadgen client, run a
# binary-protocol pass and a streamed multi-chunk large result, and assert
# shed-not-crash plus a clean SIGTERM drain. See DESIGN.md "Overload &
# degradation contract" and "Wire & streaming contract".
serve-smoke:
	$(GO) test ./cmd/gdbserver/ -run TestServeSmoke -count=1 -v

# The non-test Go line count (bench/ and testdata excluded), the figure
# CHANGES.md quotes before and after a change. Outside ci.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l

ci: lint test race cover fuzz-smoke serve-smoke
