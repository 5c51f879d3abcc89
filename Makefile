GO ?= go

# FUZZTIME bounds each fuzz target in the smoke run; raise it locally
# for a real fuzzing session (e.g. make fuzz FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: build test race vet lint serve fuzz check bench-diff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the static front-end leakage analyzer over the victim
# corpus and the codegen-emitted attack probes, asserting the canonical
# expectations (exit 1 on mismatch).
lint:
	$(GO) run ./cmd/uoplint -selftest

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
# and legacy-decode invariants, the indirect-target resolution
# completeness invariant, and the differential contracts — predicted vs
# simulator-measured refill deltas (including the resolution-gated
# indirect shapes), the receiver model's predicted vs attack-measured
# probe cycles, and the jump-alignment stall asymmetry on
# alignment-divergent victims; and the audit service's POST decoder
# and request planner.
fuzz:
	$(GO) test ./internal/asm -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/decode -fuzz FuzzPlanRegion -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint -fuzz FuzzIndirectResolve -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzPredictedDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzProbeModel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzAlignmentDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzIndirectDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/auditd -fuzz FuzzJobRequest -fuzztime $(FUZZTIME)

check: build vet test race lint
	$(MAKE) fuzz FUZZTIME=5s
