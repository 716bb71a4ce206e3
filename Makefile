# Developer entry points. `make check` is the full gate the CI-equivalent
# run uses: vet + formatting + the panic/log.Fatal lint + the whole test
# suite under the race detector.

GO ?= go

.PHONY: build test race vet fmt-check bench gates perfcheck minecheck sweepcheck servecheck triagecheck fuzz golden faultcheck panic-lint diag-lint metrics-lint obscheck check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags gates ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem .

# The timing-ratio gates, each next to the code it gates and built only
# with the `gates` tag so no timing ratio runs in the tier-1 suite or
# `make check`: the miner >=4x faster than the frozen reference miner
# on camera (internal/mining), the fast suite >=5x faster over a warm
# store than cold (internal/eval), and a triaged PnR sweep >=3x faster
# than the full oracle at <=2% hypervolume regret (internal/sweep; each
# side the median of five alternating runs).
gates:
	$(GO) test -tags gates -run Gate -count=1 ./internal/mining ./internal/eval ./internal/sweep

# The persistent-store and sweep-engine gates (DESIGN.md §12): the wire
# framing primitives guard every count, codecs round-trip pipeline
# artifacts exactly and keep their pinned bytes, poisoned cache entries are
# detected and recomputed (a stored variant whose rule tail is cut short
# among them, at load: TestPersistCorruptEntriesRecomputed), a warm
# suite is byte-identical to cold and builds only the one rule set its
# tables read (TestPersistWarmPassDecodesOnlyReadRules), a stored
# selection that fails its envelope or does not decode is recomputed
# and overwritten (TestPersistCorruptSelectionsRecomputed), a
# checkpointed sweep resumes without recomputing finished cells, and a
# sweep's cells share designs and layouts (TestSweepSharesLayouts) while
# its report keeps its pinned bytes at any worker count
# (TestSweepReportPinned, testdata/report.sha256), an undecodable
# stored variant or result under a sweep cell's key is counted as corrupt
# and recomputed (TestRunRecomputesUndecodablePayloads), and each
# distinct PE, merge prefix and synthesized rule of a sweep is generated
# once whatever the variant names (TestSweepGeneratesEachDistinctPEOnce).
sweepcheck:
	$(GO) test ./internal/wire/ ./internal/store/ -count=1
	$(GO) test ./internal/eval/ -run TestPersist -count=1
	$(GO) test -race ./internal/sweep/ -count=1

# The miner equivalence and performance gates (DESIGN.md §11): the
# parallel SoA miner must stay byte-identical to the frozen serial
# reference miner (test-only, internal/mining/reference_test.go) on the
# full app suite at 1 and 8 workers, and its two zero-allocation hot
# paths (extension scan, MNI count) must not rot.
minecheck:
	$(GO) test ./internal/mining/ -run 'TestMineMatchesReference|TestMineWorkersDeterministic|TestMineAllocGates|TestMNIBruteForce|TestMaxEmbeddingsCap' -count=1
	$(GO) test ./internal/graph/ -run 'TestCanonicalCodeMatchesLegacy|TestMatcherMatchesFindEmbeddings' -count=1

# The predictor-guided triage gates (DESIGN.md §15): the cost model
# trains deterministically (byte-identical serialized models and cell
# results at any worker count), a triaged sweep marks predicted cells
# and keeps the oracle frontier separable, resume with changed triage
# flags is refused, an interrupted triaged sweep resumes byte-identical,
# and the model/sample codecs round-trip exactly — all under the race
# detector.
triagecheck:
	$(GO) test -race ./internal/costmodel/ -count=1
	$(GO) test -race ./internal/sweep/ -run Triage -count=1

# Short fuzz pass over every fuzz target (canonical-code permutation
# invariance and collision soundness; the clique solver returns exactly
# what its frozen predecessor does wherever that one finishes within
# its budget, also on exactly the steps it spent, and a valid clique
# with its true weight where it runs out; every persisted-value decoder
# returns a value or an error on arbitrary bytes); CI-sized budget.
# The fuzzer minimizes each input that finds new coverage before it
# goes on, by default for up to 60 s and reporting no execs meanwhile;
# on inputs of a few KB whose decoders reject almost every cut it always
# runs to that limit, so FuzzDecode and FuzzCanonicalCode stopped
# fuzzing a few seconds into their 30 s. 1000 minimization execs cap it
# at about a second.
fuzz:
	$(GO) test ./internal/graph/ -run xxx -fuzz FuzzCanonicalCode -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/graph/ -run xxx -fuzz FuzzMaxWeightClique -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/store/ -run xxx -fuzz FuzzDecode -fuzztime 30s -fuzzminimizetime 1000x

# The PnR performance gates (DESIGN.md §10): the annealer inner loop
# must stay at zero allocations per move and the router within its
# per-net allocation budget, so the hot-path rewrites can't silently
# rot back to map-based state; the adaptive annealer must freeze before
# its quench tail at any budget (TestAnnealFreezesWithinBudget) and
# place and route a full suite pass's distinct netlists no worse than
# the frozen figures of the fixed-schedule annealer it replaced, at a
# quarter of its moves, and within 2% of revision 2's totals at half
# of them (TestPlaceQualityNoWorse); every placement of a full suite pass
# must match the pinned digest, and the harness's layout memo must place
# each distinct netlist once, rebind shared layouts to each cell, drop
# canceled builds, and keep the full-PnR span tree worker-invariant; every
# cell's bitstream words must match their pinned digest too. The merge and
# instruction-selection hot paths likewise: a clique search allocates per
# depth, not per branch step; on the compatibility graphs of a full suite
# pass's merges it returns the frozen solver's cliques in at most a tenth
# of its branch steps, oracle steps included (a deterministic count); and
# a failing match attempt allocates nothing. Rule synthesis and the roll-ups: a rule-verification trial and
# a PE activation's energy allocate nothing, and the compiled PE
# evaluator, the compiled rule cross-check, dense pattern selection and
# position-walked producer lists match frozen copies of the map-based
# code they replaced. Evaluation reuse: every app is one shared value
# that a parallel suite leaves untouched (under the race detector), the
# memoized greedy selection order answers every k like the frozen
# selector in any call order, and the harness maps each (app, variant)
# and balances each (app, variant, PE latency) once per pass with
# results byte-identical to memo-less evaluations; PEs generated along an
# analysis's merge chain encode exactly like from-scratch ones in any
# call order (under the race detector). The two stages feeding PnR: the
# MIS analysis returns exactly what its frozen map-based predecessor
# does on every registry app and on random embedding lists, within a
# fixed allocation budget per pattern, and MapApp and BalanceApp on
# camera stay within theirs (no per-port or per-constant maps). The telemetry
# additions (DESIGN.md §14): the no-subscriber event guard is
# allocation-free, and per-job trace capture stays O(spans). The
# daemon journal (DESIGN.md §13): steady-state saves from one handle
# never re-parse the file, one foreign write costs exactly one re-parse,
# and the cached writer's files are byte-identical to the whole-file
# read-merge-rewrite it replaced. A warm suite pass reads Fig. 10's pick
# codes from their stored selections: it loads no analysis and runs no
# selection round (TestPersistWarmPassReadsNoAnalysis).
perfcheck:
	$(GO) test ./internal/cgra -run 'TestAnnealAllocs|TestRouteAllocs|TestAnnealFreezesWithinBudget' -count=1 -v
	$(GO) test ./internal/eval/ -run 'TestPlaceQualityNoWorse|TestPlacementDigestPinned|TestFullPnRObsDeterminism|TestLayoutMemo|TestDesignMemo' -count=1
	$(GO) test -race ./internal/eval/ -run TestAppsSharedReadOnly -count=1
	$(GO) test ./internal/core/ -run 'TestEvaluateCancellationOnLayoutHit|TestPnRDegradedLayoutShared' -count=1
	$(GO) test ./internal/graph/ -run 'TestCliqueAllocs|TestMaxWeightCliqueMergeCorpus' -count=1 -v
	$(GO) test ./internal/rewrite/ -run 'TestMatchAllocs|TestRuleTrialAllocs' -count=1 -v
	$(GO) test ./internal/pe/ -run TestActivationEnergyAllocs -count=1 -v
	$(GO) test ./internal/eval/ -run 'TestCompileMatchesLegacyEvaluate|TestCrossCheckMatchesLegacy|TestProducersMatchLegacy' -count=1
	$(GO) test ./internal/core/ -run 'TestSelectPatternsMatchesLegacy|TestSelectPatternsPrefix|TestMapBalanceAllocs' -count=1 -v
	$(GO) test ./internal/mis/ -run 'TestAnalyzeMatchesReference|TestAnalyzeAllocs' -count=1 -v
	$(GO) test -race ./internal/core/ -run TestGenerateTopPEMatchesGeneratePE -count=1
	$(GO) test ./internal/eval/ -run TestPersistWarmPassReadsNoAnalysis -count=1
	$(GO) test ./internal/serve/ -run 'TestEventPublishInactiveAllocs|TestJobTraceCaptureAllocs|TestJournalReparses|TestJournalMatchesReference' -count=1

# Regenerate the golden tables after an intentional change to the
# evaluation numbers or table layout.
golden:
	$(GO) test ./internal/eval -run TestGoldenTables -update

# The fault-injection and ladder suites under the race detector: every
# failure mode (panic, non-convergence, timeout, cancellation) must
# surface per cell while the rest of the run completes (DESIGN.md §8).
faultcheck:
	$(GO) test -race ./internal/fault/ ./internal/memo/ ./internal/eval/ -run 'Fault|KeepGoing|Cancel|Timeout|Memo'
	$(GO) test -race ./internal/core/ -run 'PnR|Cancellation'

# Library code must use the internal/fault taxonomy, not panics or
# process exits: reject new panic( / log.Fatal in non-test internal/
# sources (mains in cmd/ may log.Fatal at top level).
panic-lint:
	@bad=$$(grep -rn --include='*.go' -e 'panic(' -e 'log\.Fatal' internal/ \
		| grep -v '_test\.go:' | grep -v 'lint:allow-panic'; true); \
	if [ -n "$$bad" ]; then \
		echo "panic()/log.Fatal in library code (use internal/fault errors):"; \
		echo "$$bad"; exit 1; fi

# Diagnostics must go through internal/obs (structured slog + metrics),
# not ad-hoc prints: reject log.Print*/fmt.Fprintf(os.Stderr, ...) in
# non-test internal/ sources outside internal/obs. CLIs under cmd/ own
# their stderr and are exempt; `lint:allow-diag` is the escape hatch.
diag-lint:
	@bad=$$(grep -rn --include='*.go' -e 'log\.Print' -e 'fmt\.Fprintf(os\.Stderr' internal/ \
		| grep -v '_test\.go:' | grep -v '^internal/obs/' | grep -v 'lint:allow-diag'; true); \
	if [ -n "$$bad" ]; then \
		echo "ad-hoc diagnostics in library code (use internal/obs logging/metrics):"; \
		echo "$$bad"; exit 1; fi

# The daemon gate (DESIGN.md §13): the full internal/serve suite under
# the race detector — bounded-queue backpressure with Retry-After,
# client-fair round-robin scheduling, the retry/backoff fault ladder,
# the churn-drain-restart byte-identical resume scenario, compile
# jobs leaving the harness's generated table untouched
# (TestCompileJobsBypassGenerated), and a generate job served a
# store-loaded variant reporting the cold job's rule counts
# (TestGenerateFromStoredVariant) — plus the apex sweep exit-status
# subprocess contract the daemon's journal semantics are modeled on.
servecheck:
	$(GO) test -race ./internal/serve/ -count=1
	$(GO) test ./cmd/apex/ -count=1

# Every metric name recorded through the obs context helpers must be
# documented in the catalog comment atop internal/obs/metrics.go, so
# the /metrics surface has a single source of truth. Dynamic suffixes
# are cataloged as their prefix ("pnr.degraded.").
metrics-lint:
	@names=$$(grep -rhoE 'obs\.(Add|Observe|SetGauge|MaxGauge|ObserveSince)\([a-zA-Z]+, "[^"]+"' \
		--include='*.go' --exclude='*_test.go' internal/ cmd/ | sed 's/.*"//' | sort -u); \
	missing=; \
	for n in $$names; do \
		grep -q "$$n" internal/obs/metrics.go || missing="$$missing $$n"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "metric names missing from the catalog in internal/obs/metrics.go:$$missing"; exit 1; fi

# The observability layer's own gate: the obs package race hammers, the
# workers=1-vs-8 span/metric determinism suite, the disabled-path
# zero-allocation guards (DESIGN.md §9), and the metric-name catalog
# lint (DESIGN.md §14).
obscheck: metrics-lint
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/eval/ -run 'Obs|Determinism'
	$(GO) test ./internal/obs/ -run TestDisabledPathAllocs -count=1
	$(GO) test . -run TestObsDisabledOverheadUnderTwoPercent -count=1

check: vet fmt-check panic-lint diag-lint build race minecheck sweepcheck triagecheck faultcheck obscheck perfcheck servecheck
	@echo "all checks passed"
