# Developer and CI entry points. CI (.github/workflows/ci.yml) invokes these
# same targets so local runs and CI runs are identical.

GO ?= go

.PHONY: all build test race bench bench-compare bench-robustness examples smoke-server smoke-restart smoke-fleet smoke-chaos smoke-online fuzz fmt vet docs-check

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
# within CI minutes (the plain `test` target runs everything).
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
# events through a live session service (FuzzEventSemantics). Each target
# gets its own invocation (go test allows one -fuzz pattern per run); the
# seed corpora are always exercised by plain `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzGobOpenRequest' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzGobEventRequest' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzEventSemantics' -fuzztime 30s ./internal/rpcsvc/
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpoint' -fuzztime 30s ./internal/registry/

# BENCH_robustness.json: the failure-regime matrix (CI `robustness` job).
# First the fast lossy-regime gate the job is named for (decima trained
# clean at smoke scale vs fifo), then the full scheduler × regime matrix
# as the uploaded artifact.
bench-robustness:
	$(GO) run ./cmd/decima-bench -failures lossy -scheduler decima,fifo -short
	$(GO) run ./cmd/decima-bench -failures all -short -json BENCH_robustness.json

# End-to-end smoke of the serving binary: build decima-server, start it as
# a real process, open a session over TCP, drive ≥100 scheduling events,
# and assert a clean SIGINT shutdown.
smoke-server:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -events 100

# Crash-recovery smoke: SIGKILL the serving process mid-session, start a
# replacement on the same address, and require the self-healing session
# client to finish with a schedule identical to an uninterrupted run.
smoke-restart:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -restart

# Fleet smoke: router + 3 real replica processes; SIGKILL one replica
# mid-session, drain another via the admin endpoint, and require the
# healed schedule to be identical to an unsharded uninterrupted run
# (docs/FLEET.md).
smoke-fleet:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) build -o bin/decima-fleet ./cmd/decima-fleet
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -fleet-bin bin/decima-fleet -fleet

# Chaos smoke: the serving process runs with a tight admission bound while
# noise sessions saturate it, and the observed session rides a fault-injected
# transport (deterministic chaos: latency + resets). The run must see real
# overload sheds and transient faults, heal every one, and finish with a
# schedule identical to an undisturbed reference run (docs/ROBUSTNESS.md).
smoke-chaos:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -chaos

# Online-loop smoke: the serving binary runs with a live registry and the
# in-process trainer on; recorded sessions feed it until a hot-swap lands,
# then /metrics, /healthz and the registry on disk must all agree on the
# new model version (docs/ONLINE.md).
smoke-online:
	$(GO) build -o bin/decima-server ./cmd/decima-server
	$(GO) run ./cmd/decima-smoke -bin bin/decima-server -online

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) vet -C bench .
