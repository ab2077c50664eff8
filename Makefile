# Build / test / benchmark entry points for the vrcg repository.
#
# `make bench` runs the execution-engine microbenchmarks (SpMV, dot,
# a 27-pair Gram batch, a 9-term combination and the pipelined update
# leaf against the calls they replace, fused CG update, PCG solve, IC0
# factor and apply, one cg iteration swept and whole-vector with its
# computed MB/iter, and an operator's set-up: assembly, NewCSR of sorted
# rows, a cold TuneMulVec), the public-surface
# serving benchmarks (registry dispatch overhead, Session reuse vs fresh
# solver, Batch throughput at 1/8/64 right-hand sides), and the HTTP
# serving-layer benchmarks (warm-pool /v1/solve, /v1/solve/batch
# fan-out) with -benchmem, and the distributed-tier benchmarks (sharded vs
# single-process solves, per-iteration reduction wait by method),
# writing the parsed results to BENCH_engine.json, BENCH_solve.json,
# BENCH_sequence.json (cold vs warm-started sequence steps),
# BENCH_server.json, and BENCH_cluster.json so the perf trajectory is
# comparable across PRs. BENCH_* artifacts are regenerated, not
# hand-edited.
#
# `make serve` boots cmd/cgserve locally with a demo operator;
# `make docs-check` is the doc-freshness gate CI runs.

GO         ?= go
BINDIR     ?= bin
BENCHPAT   ?= BenchmarkSpMV|BenchmarkPCGSolve|BenchmarkDotSerial|BenchmarkDotPooled|BenchmarkGramBatch|BenchmarkCombine|BenchmarkPipeUpdate|BenchmarkFusedCGUpdate|BenchmarkMatVecCSR|BenchmarkIC0FactorAndApply|BenchmarkCGIteration|BenchmarkOperatorSetup
BENCHOUT   ?= BENCH_engine.json
SOLVEPAT   ?= BenchmarkSolveDispatch|BenchmarkSessionReuse|BenchmarkSessionPerMethod|BenchmarkFreshSolvePerCall|BenchmarkBatch|BenchmarkParcgFamily
SOLVEOUT   ?= BENCH_solve.json
SEQPAT     ?= BenchmarkSequence
SEQOUT     ?= BENCH_sequence.json
SERVERPAT  ?= BenchmarkServeSolveWarm|BenchmarkServeBatch|BenchmarkServeMetrics|BenchmarkServeSequenceStep|BenchmarkDecodeStepJSON
SERVEROUT  ?= BENCH_server.json
CLUSTERPAT ?= BenchmarkClusterSolve|BenchmarkClusterReduction
CLUSTEROUT ?= BENCH_cluster.json
SERVEADDR  ?= :8080

.PHONY: all build test vet fmt check lint kernel-allocs server-allocs bench bench-raw bins serve docs-check loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full gate, mirrored by .github/workflows/ci.yml: formatting, vet,
# build, the test suite under the race detector (which runs the Go leaf
# bodies: assembly is invisible to it) and again without (the AVX2
# assembly bodies and the differential tests that compare the two), an
# arm64 cross-build so the portable-only file set cannot rot, a
# one-iteration benchmark smoke run so bench code cannot rot, a cgsolve
# smoke (parcg converges in cg's iteration count, ±1), every example,
# `cgbench -exp all` and `-exp ablations` run to a zero exit, the
# serving path's allocation budgets, and the judged benchmark's own
# module (benchmark/, which ./... does not reach) vetted and
# short-tested against this tree.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	@iters() { $(GO) run ./cmd/cgsolve -problem poisson2d -m 64 -method "$$1" | sed -n 's/^converged=true iterations=\([0-9]*\).*/\1/p'; }; \
	p=$$(iters parcg); c=$$(iters cg); echo "cgsolve smoke: parcg=$$p cg=$$c"; [ -n "$$p" ] && [ -n "$$c" ] && [ $$((p - c)) -ge -1 ] && [ $$((p - c)) -le 1 ]
	@for ex in ./examples/*/; do $(GO) run "$$ex" >/dev/null || exit 1; done
	$(GO) run ./cmd/cgbench -exp all >/dev/null
	$(GO) run ./cmd/cgbench -exp ablations >/dev/null
	$(MAKE) kernel-allocs
	$(MAKE) server-allocs
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The substrate kernels the solvers call per iteration allocate nothing:
# products, inner products one at a time and batched, combinations, the
# pipelined update leaf, a warm cg solve through engine.Solve, whose
# direction sweep hands the row kernel the update it carries, and a
# least-squares step's Rect products and value update, dense and sparse.
# The CI bench-smoke job runs this target.
kernel-allocs:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkSpMV|BenchmarkDotSerial|BenchmarkDotPooled|BenchmarkGramBatch|BenchmarkCombine|BenchmarkPipeUpdate|BenchmarkCGIteration' -benchtime=1x -benchmem . && \
		$(GO) test -run '^$$' -bench 'BenchmarkRectProducts' -benchtime=1x -benchmem ./sparse) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	bad=$$(echo "$$out" | awk '$$1 ~ /^Benchmark(SpMV|Dot|GramBatch|Combine|PipeUpdate|CGIteration|RectProducts)/ { for (i = 2; i <= NF; i++) if ($$(i) == "allocs/op" && $$(i-1)+0 != 0) print $$1 }'); \
	if [ -n "$$bad" ]; then echo "kernels allocated:"; echo "$$bad"; exit 1; fi; \
	rect=$$(echo "$$out" | grep -c '^BenchmarkRectProducts/'); \
	if [ "$$rect" -ne 6 ]; then echo "expected 6 BenchmarkRectProducts rows, saw $$rect"; exit 1; fi

# Allocation budgets of the three warm request paths through the one
# handler per route, at -cpu 1 where the counts are deterministic: a
# binary solve, a JSON solve, a JSON sequence step — and of the step
# body's decode on its own, which allocates nothing. The CI bench-smoke
# job runs this target.
server-allocs:
	@out=$$($(GO) test -run '^$$' -bench '^(BenchmarkServeSolveWarm|BenchmarkServeSolveWarmBinary|BenchmarkServeSequenceStep|BenchmarkDecodeStepJSON)$$' -benchtime=200x -benchmem -cpu 1 ./server) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk 'BEGIN { max["BenchmarkServeSolveWarmBinary"] = 8; max["BenchmarkServeSolveWarm/cg"] = 46; max["BenchmarkServeSequenceStep"] = 12; max["BenchmarkDecodeStepJSON/scanner"] = 0 } \
		($$1 in max) { seen++; for (i = 2; i <= NF; i++) if ($$(i) == "allocs/op" && $$(i-1)+0 > max[$$1]) { print $$1 ": " $$(i-1) " allocs/op exceeds the budget of " max[$$1]; bad = 1 } } \
		END { if (seen != 4) { print "expected 4 benchmark rows, saw " seen+0; bad = 1 }; exit bad }'

fmt:
	gofmt -l -w .

# The two sizes ROADMAP item 5 tracks: non-test Go lines outside the
# benchmark module, and the lines of the amd64 assembly.
loc:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@echo "internal/vec/kernels_amd64.s: $$(wc -l < internal/vec/kernels_amd64.s)"

# Static analysis + vulnerability scan, mirrored by the staticcheck and
# govulncheck CI jobs. Tools are installed on demand (network required
# the first time) and invoked by their install path, so lint works even
# when GOBIN is not on PATH; offline environments fall back to `go vet`.
lint:
	@bin="$$($(GO) env GOBIN)"; [ -n "$$bin" ] || bin="$$($(GO) env GOPATH)/bin"; \
	sc="$$(command -v staticcheck || true)"; \
	if [ -z "$$sc" ]; then \
		$(GO) install honnef.co/go/tools/cmd/staticcheck@latest >/dev/null 2>&1 && sc="$$bin/staticcheck"; \
	fi; \
	if [ -n "$$sc" ] && [ -x "$$sc" ]; then "$$sc" ./...; \
	else echo "lint: staticcheck unavailable (offline?); running go vet only"; $(GO) vet ./...; fi
	@bin="$$($(GO) env GOBIN)"; [ -n "$$bin" ] || bin="$$($(GO) env GOPATH)/bin"; \
	gv="$$(command -v govulncheck || true)"; \
	if [ -z "$$gv" ]; then \
		$(GO) install golang.org/x/vuln/cmd/govulncheck@latest >/dev/null 2>&1 && gv="$$bin/govulncheck"; \
	fi; \
	if [ -n "$$gv" ] && [ -x "$$gv" ]; then "$$gv" ./...; \
	else echo "lint: govulncheck unavailable (offline?); skipped"; fi

# Raw benchmark text (inspect interactively).
bench-raw:
	$(GO) test -run '^$$' -bench '$(BENCHPAT)|$(SOLVEPAT)|$(SEQPAT)' -benchmem .
	$(GO) test -run '^$$' -bench '$(SERVERPAT)' -benchmem ./server
	$(GO) test -run '^$$' -bench '$(CLUSTERPAT)' -benchmem ./cluster

# Command binaries build into the git-ignored $(BINDIR), never the
# package or repo root, so a stray build can no longer commit a binary.
bins:
	$(GO) build -o $(BINDIR)/ ./cmd/...

# JSON summaries for the perf trajectory across PRs. Every benchmark
# runs -count 5 and benchjson folds the five runs into one row: the
# median run (ns/op and its allocations) with the min and max ns/op.
# One run per row told no delta from noise, so the table now flags a
# row only when its min–max range and the committed one do not overlap.
# Fresh results are diffed against the committed file (benchjson -prev
# prints the delta table to stderr) before replacing it; benchjson -o writes the summary
# atomically (same-dir temp + rename), so no half-written BENCH_*.json
# or stray temp file can survive an interrupted run. The solve surface
# additionally runs under -gate-allocs: any benchmark allocating more
# per op than its committed BENCH_solve.json value fails the target
# (allocation counts are deterministic at one GOMAXPROCS, so the gate
# tolerates no noise) and leaves the committed file untouched; against a
# file recorded at another GOMAXPROCS (solve.Batch allocates per worker)
# it says so and re-baselines instead of comparing.
bench: bins
	$(GO) test -run '^$$' -bench '$(BENCHPAT)' -count 5 -benchmem . | tee /dev/stderr | $(BINDIR)/benchjson -prev $(BENCHOUT) -o $(BENCHOUT)
	@echo "wrote $(BENCHOUT)"
	$(GO) test -run '^$$' -bench '$(SOLVEPAT)' -count 5 -benchmem . | tee /dev/stderr | $(BINDIR)/benchjson -prev $(SOLVEOUT) -gate-allocs -o $(SOLVEOUT)
	@echo "wrote $(SOLVEOUT)"
	$(GO) test -run '^$$' -bench '$(SEQPAT)' -count 5 -benchmem . | tee /dev/stderr | $(BINDIR)/benchjson -prev $(SEQOUT) -o $(SEQOUT)
	@echo "wrote $(SEQOUT)"
	$(GO) test -run '^$$' -bench '$(SERVERPAT)' -count 5 -benchmem ./server | tee /dev/stderr | $(BINDIR)/benchjson -prev $(SERVEROUT) -o $(SERVEROUT)
	@echo "wrote $(SERVEROUT)"
	$(GO) test -run '^$$' -bench '$(CLUSTERPAT)' -benchtime=1x -count 5 -benchmem ./cluster | tee /dev/stderr | $(BINDIR)/benchjson -prev $(CLUSTEROUT) -o $(CLUSTEROUT)
	@echo "wrote $(CLUSTEROUT)"

# Boot the solve server locally with a demo operator resident.
serve:
	$(GO) run ./cmd/cgserve -addr $(SERVEADDR) -preload poisson2d:64

# Doc-freshness gate, mirrored by the docs CI job: formatting, vet,
# godoc renderability of every public package, and the cross-links the
# documentation layer promises (ARCHITECTURE.md and docs/api.md must
# exist and be linked from README.md).
docs-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	@for pkg in . ./solve ./sparse ./precond ./server ./cluster ./cluster/wire; do \
		$(GO) doc $$pkg >/dev/null || exit 1; done
	@test -f ARCHITECTURE.md || { echo "ARCHITECTURE.md missing"; exit 1; }
	@test -f docs/api.md || { echo "docs/api.md missing"; exit 1; }
	@grep -q 'ARCHITECTURE.md' README.md || { echo "README.md does not link ARCHITECTURE.md"; exit 1; }
	@grep -q 'docs/api.md' README.md || { echo "README.md does not link docs/api.md"; exit 1; }
	@grep -q 'ARCHITECTURE.md' doc.go || { echo "doc.go does not reference ARCHITECTURE.md"; exit 1; }
	@grep -q '/v1/sequence' docs/api.md || { echo "docs/api.md does not document /v1/sequence"; exit 1; }
	@echo "docs-check: ok"

clean:
	rm -f $(BENCHOUT) $(SOLVEOUT) $(SEQOUT) $(SERVEROUT) $(CLUSTEROUT)
	rm -rf $(BINDIR)
