GO ?= go

# FUZZTIME bounds each fuzz target in the smoke run; raise it locally
# for a real fuzzing session (e.g. make fuzz FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: build fmt test race vet lint serve fuzz bench-module testfiles check bench-diff

build:
	$(GO) build ./...

# fmt fails when any tracked Go file is not gofmt-clean (the CI gofmt
# step).
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

# testfiles fails when any package under ./... has no test files, so
# every package, command included, keeps a test or a checked Example.
testfiles:
	@out=$$($(GO) list -f '{{if and (not .TestGoFiles) (not .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./...); \
	test -z "$$out" || { echo "packages without tests:"; echo "$$out"; exit 1; }

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the static front-end leakage analyzer over the victim
# corpus and the codegen-emitted attack probes, asserting the canonical
# expectations (exit 1 on mismatch), under every profile, as CI does.
lint:
	$(GO) run ./cmd/uoplint -selftest
	$(GO) run ./cmd/uoplint -selftest -profile sunnycove
	$(GO) run ./cmd/uoplint -selftest -profile zen
	$(GO) run ./cmd/uoplint -selftest -profile zen2
	$(GO) run ./cmd/uoplint -selftest -profile mite-only

# serve boots the long-lived leakage-audit daemon: the same analysis as
# `make lint` behind HTTP/JSON with an incremental per-function summary
# cache, so repeat audits only re-analyze what changed. See the
# "Incremental audit service" section of DESIGN.md.
serve:
	$(GO) run ./cmd/uoplintd

# bench-diff is the perf-regression gate. It checks out BENCHBASE (a
# git revision, e.g. make bench-diff BENCHBASE=HEAD^) into a worktree
# under .bench_build/, runs every bench/ workload 5 times on that tree
# and 5 times on the working tree, alternating which side runs first,
# and exits with bench/run.sh -compare: non-zero only when an
# end-to-end metric regressed beyond its BENCHMARK.json bound. Each
# run's JSON line is kept in .bench_build/bench-diff/{base,change}.jsonl.
BENCHBASE ?=

bench-diff:
	@test -n "$(BENCHBASE)" || { echo "bench-diff: set BENCHBASE to a git revision, e.g. make bench-diff BENCHBASE=HEAD^"; exit 2; }
	@set -e; d='$(CURDIR)/.bench_build/bench-diff'; \
	git worktree remove --force "$$d/tree" 2>/dev/null || true; \
	rm -rf "$$d"; git worktree prune; mkdir -p "$$d"; \
	git worktree add --detach "$$d/tree" '$(BENCHBASE)'; \
	trap 'git worktree remove --force "$$d/tree"' EXIT; \
	run() { \
		echo "bench-diff: pair $$1/5, $$2"; \
		if [ "$$2" = base ]; then dir="$$d/tree"; else dir='$(CURDIR)'; fi; \
		(cd "$$dir" && bash bench/run.sh -workload all -seed 2 -seconds 5 -trace 0 -out "$$d/$$2") >> "$$d/$$2.jsonl"; \
	}; \
	for i in 1 2 3 4 5; do \
		if [ $$((i % 2)) = 1 ]; then run $$i base; run $$i change; \
		else run $$i change; run $$i base; fi; \
	done; \
	bash bench/run.sh -compare "$$d/base" "$$d/change"

# fuzz runs every native fuzz target for FUZZTIME each: the assembler
# and legacy-decode invariants, the core's decode memo against fresh
# decodes of generated programs, the sparse-snapshot table against a
# dense reference, the indirect-target resolution
# completeness invariant, the receiver model against its literal full
# replay, the CFG builder against its address-keyed reference on
# generated programs, and the differential contracts — predicted vs
# simulator-measured refill deltas (including the resolution-gated
# indirect shapes), the receiver model's predicted vs attack-measured
# probe cycles, and the jump-alignment stall asymmetry on
# alignment-divergent victims; and the audit service's POST decoder
# and request planner. Each line passes -run '^$$' so the package's
# unit tests, which make test runs, are not rerun first in the
# coverage-instrumented fuzzing binary; the seed corpus still runs as
# the fuzzing baseline. cmd/uopcache's TestMakeFuzzListsEveryTarget
# keeps this list and the module's fuzz targets in sync.
fuzz:
	$(GO) test ./internal/asm -run '^$$' -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/decode -run '^$$' -fuzz FuzzPlanRegion -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cpu -run '^$$' -fuzz FuzzDecodeMemo -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rows -run '^$$' -fuzz FuzzTableSaveRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint -run '^$$' -fuzz FuzzIndirectResolve -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint -run '^$$' -fuzz FuzzProbeModelReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint -run '^$$' -fuzz FuzzBuildCFG -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -run '^$$' -fuzz FuzzPredictedDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -run '^$$' -fuzz FuzzProbeModel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -run '^$$' -fuzz FuzzAlignmentDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -run '^$$' -fuzz FuzzIndirectDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/auditd -run '^$$' -fuzz FuzzJobRequest -fuzztime $(FUZZTIME)

# bench-module vets and tests the frozen bench/ module, its own Go
# module that the root ./... patterns do not reach, against the
# current internal/ APIs.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: build fmt vet testfiles test race lint bench-module
	$(MAKE) fuzz FUZZTIME=5s
