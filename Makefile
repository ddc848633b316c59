GO ?= go
FUZZTIME ?= 10s
FUZZMINIMIZETIME ?= 1s

.PHONY: build fmt test race vet lint cross bench bench-check chaos fuzz monitor-smoke paper stress check

build:
	$(GO) build ./...

# fmt fails when any file in the tree (bench/ included) is not
# gofmt-clean, printing nothing else; run `gofmt -l .` to see which.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# The scanner and resolver are deliberately concurrent (worker pool ×
# per-domain fan-out × singleflight); the race detector is part of the
# tier-1 verify, not an optional extra.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the repo's two custom passes. tracecheck verifies that every
# trace span started anywhere in the module is ended on all paths out of
# the region that started it (see internal/tools/tracecheck for the
# analysis and its limits); its directories are whatever `go list`
# finds, so a package that starts spans is checked without an edit here.
# reachcheck type-checks the main and bench modules and fails on any
# package-level declaration under internal/ that no binary (cmd/,
# bench/, the root package) reaches, unless its allowlist names it with
# a kind and a reason — and on an allowlist entry that is reached or
# gone (see internal/tools/reachcheck). The loop fails on a cmd/
# package without a _test.go: each command's test runs it in process
# (flags, exit status, golden output), and a command with none is a
# reachcheck root whose wiring no gate runs.
lint:
	$(GO) run ./internal/tools/tracecheck $$($(GO) list -f '{{.Dir}}' ./...)
	$(GO) run ./internal/tools/reachcheck . bench
	@for d in cmd/*/; do \
		ls $$d*_test.go >/dev/null 2>&1 || { echo "lint: $$d has no _test.go"; exit 1; }; \
	done

# cross vets the packages split by build tag — udpx's batched syscalls
# (mmsg_linux*.go, pconn_linux.go) against its portable stub
# (pconn_stub.go), authserver's read loop over both, and govdns's
# getrusage line (usage_unix.go, whose peak RSS unit differs on Darwin)
# — for a target without the batched path and for the other Linux
# architecture that has it, so a change that only builds on the host's
# GOOS/GOARCH fails here instead of on someone else's machine.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/udpx ./internal/authserver ./cmd/govdns
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/udpx ./internal/authserver ./cmd/govdns

# bench runs the repository's one benchmark suite (BENCHMARK.json): the
# bench/ module's five workloads, one process each, end-to-end metrics
# into bench/out/results.json. `go run -C bench . -trace 1` adds the
# per-layer metrics and the attribution table, `-compare old.json
# new.json` the per-metric verdict; bench/README.md is the glossary.
bench:
	$(GO) run -C bench .

# bench-check keeps the benchmark buildable: bench/ is its own module,
# so build/vet/test above never compile it, and a change to an
# identifier it imports would otherwise first show when the benchmark
# run fails. Vet, the module's own tests under the race detector, and
# two one-second smokes: the loopback scan, and the stream path
# (ScanStream with checkpoints, as govscan runs it), whose every
# per-domain digest is checked against the reference scans.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench -race .
	$(GO) run -C bench . -workload scan_udp_loopback -seconds 1 -trace 0
	$(GO) run -C bench . -workload scan_sim_mix -seconds 1 -trace 0

# monitor-smoke is the end-to-end daemon drill: two epochs over the
# miniworld with an NS hijack injected between them must produce exactly
# one alert — critical, hijack-pattern, for the hijacked domain — with a
# complete retained span tree in the epoch's trace archive. `make test`
# and `make race` already run it (the latter under this same race
# detector), so it is not a prerequisite of `check` — the target exists
# for fast iteration on the monitor, like `chaos` below.
monitor-smoke:
	$(GO) test -race -run TestMonitorSmoke -count=1 ./internal/monitor

# chaos is the focused fault-injection view of the tier-1 gate: the
# chaos package tests plus the scan-invariance differential harness
# (digest invariance across schedule shapes, per-fault-class transient
# recovery, graceful degradation) under the race detector. `make race`
# already runs all of this — the target exists for fast iteration on
# the resolver/chaos stack.
chaos:
	$(GO) test -race ./internal/chaos
	$(GO) test -race -run 'Chaos|Invariance' ./internal/measure ./internal/resolver

# fuzz gives every fuzz target in the tree — the readers of foreign
# bytes, and the name order every sorted output depends on — a short
# budget; raise FUZZTIME for a real session. The targets are whatever
# `go test -list '^Fuzz'` finds in each package, so a new one runs
# without an edit here. Minimizing a new input defaults to 60 s, longer
# than the whole budget, so FUZZMINIMIZETIME keeps it brief.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "$$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZETIME) $$pkg || exit 1; \
		done; \
	done

# stress runs the packages whose tests lean hardest on goroutine timing —
# the scanner, the resolver and the fan-out — and the analysis package,
# whose figure loops split into per-core chunks, at 1, 2 and 4 Ps, twice
# each, beside one busy-looping shell the target starts itself and kills
# when the tests end, pass, fail or interrupt. A test bound that holds
# only for some schedules fails here long before it flakes in check; the
# stream writer's stop-on-error bound was one. The analysis tests rerun
# the figures' GOMAXPROCS-invariance check at each P count. It takes
# ~55 s on 2 CPUs (the analysis package ~4 s of it), so it is not part
# of check.
stress:
	@sh -c 'while :; do :; done' & burner=$$!; \
	trap 'kill $$burner' EXIT INT TERM; \
	$(GO) test -count=2 -cpu 1,2,4 ./internal/measure ./internal/resolver ./internal/fanout ./internal/analysis

# paper runs the whole reproduction at paper scale and prints what it
# cost: the world, scan and total wall times, CPU time and peak RSS
# (govdns's stderr). The report itself is only hashed: the target fails
# unless its sha256 is PAPER_SHA256, so the paper-scale bytes are pinned
# like the small-scale goldens. A change that moves the report on
# purpose re-freezes the constant and says why.
PAPER_SHA256 = 0fd0469fa801cade9f43649e24ec0df51603c48f89a159540ff1ebbeea59f700

paper:
	@sum=$$($(GO) run ./cmd/govdns -scale 1.0 -seed 42 | sha256sum | cut -d' ' -f1); \
	if [ "$$sum" != "$(PAPER_SHA256)" ]; then \
		echo "paper: report sha256 $$sum, want $(PAPER_SHA256)"; exit 1; \
	fi; \
	echo "paper: report sha256 matches"

# check is the tier-1 verify: everything a PR must keep green. The
# race target runs the whole tree — including the chaos and invariance
# suites and the internal/obs concurrency tests (histogram and counter
# hot paths are lock-free; the race detector is what keeps them honest)
# — under the race detector, and both test and race include the
# monitor-smoke drill.
check: build fmt vet lint cross test race bench-check
