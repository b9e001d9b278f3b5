# Developer and CI entry points. CI (.github/workflows/ci.yml) invokes these
# same targets so local runs and CI runs are identical.

GO ?= go

.PHONY: all build test race bench bench-compare bench-robustness learning examples smoke fuzz fmt vet docs-check

all: build vet fmt docs-check test

build:
	$(GO) build ./...

# bench/ is its own module (the ledger, see bench/README.md), invisible to
# ./... — test and vet it here too, so deleting an internal/ symbol the
# ledger uses fails in this repository's own checks first.
test:
	$(GO) test ./...
	$(GO) test -C bench .

# Race-enabled run; -short skips the slowest training tests so this stays
# within CI minutes (the plain `test` target runs everything, including the
# learning gate, internal/exp's TestDecimaLearnsFig9a).
race:
	$(GO) test -race -short ./...

# Benchmark smoke run: compile and execute every benchmark once. The
# numbers that gate a change come from the ledger (bench/README.md); run a
# package's benchmarks at length with `go test -run '^$' -bench . <pkg>`.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Run every example program end to end (each exits non-zero on failure;
# examples/rpc also fails if the remote schedule diverges from in-process).
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Paired A/B on the ledger (ROADMAP item 1e, first piece; the rule is
# choosing-metrics §8 as bench/compare.go implements it):
#
#	make bench-compare BASE=<rev> [PAIRS=10] [SEEDS="1 7"]
#
# builds the ledger of BASE (a temporary `git archive` checkout — the
# repository itself is not touched) and of the working tree into two
# binaries, runs PAIRS pairs of every workload on every seed at the ledger's
# own run length, alternating which side goes first, and ends each seed with
# `bench compare BASE… -- HEAD…`. Binaries, records and logs go to
# COMPARE_OUT, outside the tracked tree; a run that fails its oracle stops
# the comparison. The training-only gate (≈8 minutes on the two default seeds):
#
#	make bench-compare BASE=HEAD~1 WORKLOADS=train-replay PAIRS=5
BASE ?= HEAD
PAIRS ?= 10
SEEDS ?= 1 7
WORKLOADS ?= session-stream session-churn fleet-stream train-replay
COMPARE_OUT ?= $(or $(TMPDIR),/tmp)/decima-bench-compare

bench-compare:
	rm -rf $(COMPARE_OUT)/src && mkdir -p $(COMPARE_OUT)/src
	git archive $(BASE) | tar -x -C $(COMPARE_OUT)/src
	$(GO) build -C $(COMPARE_OUT)/src/bench -o $(COMPARE_OUT)/bench-base .
	$(GO) build -C bench -o $(COMPARE_OUT)/bench-head .
	@set -e; cd $(COMPARE_OUT); for seed in $(SEEDS); do \
		base=; head=; \
		for w in $(WORKLOADS); do for i in $$(seq 1 $(PAIRS)); do \
			sides="base head"; if [ $$((i % 2)) -eq 0 ]; then sides="head base"; fi; \
			for side in $$sides; do \
				rec=$$side-$$w-seed$$seed-$$i.json; \
				./bench-$$side --workload $$w --seed $$seed --trace 0 --out $$rec > $$rec.log 2>&1 || { cat $$rec.log; exit 1; }; \
				echo "$$rec $$(tail -n 1 $$rec.log)"; \
			done; \
			base="$$base $(COMPARE_OUT)/base-$$w-seed$$seed-$$i.json"; head="$$head $(COMPARE_OUT)/head-$$w-seed$$seed-$$i.json"; \
		done; done; \
		echo "== seed $$seed: $(BASE) (A) vs working tree (B), $(PAIRS) pairs =="; \
		$(GO) run -C $(CURDIR)/bench . compare $$base -- $$head; \
	done

# Documentation consistency: every file referenced from the core documents
# must exist (see cmd/docscheck). Fails the build on rot.
docs-check:
	$(GO) run ./cmd/docscheck

# Fuzz the serving decode surfaces: gob request frames into the session
# service and checkpoint images into the registry reader; then decoded
# events through a live session service (FuzzEventSemantics), and raw bytes
# into the connection loop itself (FuzzServeConn). Each target gets its own
# invocation (go test allows one -fuzz pattern per run); the seed corpora
# are always exercised by plain `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzServeConn' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzGobOpenRequest' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzGobEventRequest' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzEventSemantics' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpoint' -fuzztime 30s ./internal/registry/

# BENCH_robustness.json: the failure-regime matrix (CI `robustness` job).
# First a fast lossy-regime table (decima trained clean at smoke scale next
# to fifo), then the full scheduler × regime matrix as the uploaded
# artifact. Both only print and write: nothing here asserts that decima
# wins. The assertion that training helps is the learning gate in `make
# test` (internal/exp's TestDecimaLearnsFig9a).
bench-robustness:
	$(GO) run ./cmd/decima-bench -failures lossy -scheduler decima,fifo -short
	$(GO) run ./cmd/decima-bench -failures all -short -json BENCH_robustness.json

# docs/LEARNING.md's measured table (ROADMAP item 14): Fig. 9a and Fig. 9b
# at -scale small for three trainer seeds, each on BASE (built from a
# temporary `git archive` checkout, as for bench-compare) and on the working
# tree. Everything below the file's marker line is rewritten; the record
# above it is kept. ≈3 minutes on a 2-vCPU box:
#
#	make learning BASE=<rev>
LEARNING_OUT ?= $(or $(TMPDIR),/tmp)/decima-learning
LEARNING_MARK = <!-- make learning writes everything below this line -->

learning:
	rm -rf $(LEARNING_OUT)/src && mkdir -p $(LEARNING_OUT)/src
	git archive $(BASE) | tar -x -C $(LEARNING_OUT)/src
	$(GO) build -C $(LEARNING_OUT)/src -o $(LEARNING_OUT)/bench-base ./cmd/decima-bench
	$(GO) build -o $(LEARNING_OUT)/bench-head ./cmd/decima-bench
	@set -e; out=$(LEARNING_OUT)/LEARNING.md; \
	sed '/^$(LEARNING_MARK)$$/q' docs/LEARNING.md > $$out; \
	grep -qx -- '$(LEARNING_MARK)' $$out || { echo "docs/LEARNING.md has no marker line"; exit 1; }; \
	base=$$(git rev-parse --short $(BASE)); \
	printf '\n`make learning BASE=%s`: mean avg JCT [s], `decima-bench -exp <figure> -scale small -seed <seed>`.\n\n' $$base >> $$out; \
	echo '| figure | seed | tree | decima | sjf-cp | opt-wfair | fair | fifo |' >> $$out; \
	echo '|---|---|---|---|---|---|---|---|' >> $$out; \
	for fig in fig9a fig9b; do for seed in 1 11 21; do for side in base head; do \
		tree=$$base; if [ $$side = head ]; then tree="working tree"; fi; \
		echo "$$side $$fig seed $$seed" >&2; \
		$(LEARNING_OUT)/bench-$$side -exp $$fig -scale small -seed $$seed > $(LEARNING_OUT)/run.txt; \
		awk -v f=$$fig -v s=$$seed -v t="$$tree" '{ v[$$1] = $$2 } \
			function g(k) { return k in v ? v[k] : "–" } \
			END { printf "| %s | %s | %s | %s | %s | %s | %s | %s |\n", f, s, t, g("decima"), g("sjf-cp"), g("opt-wfair"), g("fair"), g("fifo") }' \
			$(LEARNING_OUT)/run.txt >> $$out; \
	done; done; done; \
	mv $$out docs/LEARNING.md

# End-to-end smoke of the serving binaries: one decima-smoke run starts real
# decima-server and decima-fleet processes and runs five scenarios in order
# (serve, restart, chaos, fleet, online), stopping at the first failure. The
# serve scenario's schedule is the reference that restart (server SIGKILLed
# mid-session), chaos (overload plus injected transport faults) and fleet
# (replica SIGKILLed and drained) must reproduce; online serves a model a
# decima-train process published, found next to -bin; see cmd/decima-smoke.
smoke:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) build -o bin/decima-fleet ./cmd/decima-fleet
	$(GO) build -o bin/decima-train ./cmd/decima-train
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -fleet-bin bin/decima-fleet

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) vet -C bench .
