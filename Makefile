# Developer entry points. `make check` is the tier-1 verification going
# forward: scripts/check.sh, the one list of its steps and packages —
# vet (host and big-endian), build, the full test suite under the race
# detector, the allocation ceilings without it, the benchmark harness's
# own vet + tests, and every binary's -help against its golden file.

GO ?= go

.PHONY: check build test test-race check-bench cli-help fuzz-smoke loc bench chaos api coord coord-smoke follow follow-smoke

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# bench/ is a separate module importing internal/*: `./...` above does
# not reach it, so an internal change that breaks its build shows here.
check-bench:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every binary's -help output against scripts/testdata/cli-help/: the
# golden diff is the list of flag changes a commit makes.
cli-help:
	sh scripts/cli_help.sh

# Each committed fuzz target for ten seconds on top of its seed corpus
# (testdata/fuzz/<target>/): the decoders of untrusted bytes. -run '^$$'
# skips the unit tests; minimising every new-coverage input would eat the
# ten seconds, so that is off — a crasher still fails the run and is
# written to testdata/fuzz/ for the regular test run to replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/store

# Non-test / test Go lines per package and in total (ROADMAP's "~24.2k
# non-test" baseline, counted the same way).
loc:
	sh scripts/loc.sh

# Every Benchmark* in the module, with allocation stats: the in-package
# ablations and micro-benchmarks. They write no file; end-to-end and
# per-layer numbers come from `bash bench/run.sh`.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Fault-injection suite under the race detector: the chaos package's
# determinism proofs, server fault/drain tests, resolver hardening under
# loss, and the end-to-end degraded-day accounting + Fig 5 recovery
# integration tests. Seeds are fixed in the tests, so failures reproduce.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Degraded|Loss|Trunc|Rotation|Health|Breaker|Budget|Scenario|Interpolate|SmoothMasked|StopDrains' \
		./internal/chaos/ ./internal/dnsserver/ ./internal/dnsclient/ ./internal/analysis/ ./internal/experiment/ ./internal/coord/

# Coordination-plane suite under the race detector: lease fencing,
# journal replay/torn tails, exactly-once commits, the chaos scenario
# runs, and the coordinator-vs-RunDay integration identity, plus the
# crash-safe store tests the spool layer leans on.
coord:
	$(GO) test -race ./internal/coord/ ./internal/store/

# Real-process smoke of the coordination plane: dpscoord with 3 workers
# under worker-crash (exactly-once ledger assertion) and torn-write
# (CRC quarantine assertion). Mirrors the CI coord-smoke job.
coord-smoke:
	sh scripts/coord_smoke.sh

# Serving-layer suite: the api package's handler/memo/admission tests
# and the store partition-directory tests under the race detector, then
# a real-process smoke test (a servfail-burst dpsreport run must print
# DEGRADED ledger rows; dpsreport -out -> dpsapi -> curl every route ->
# assert memo hits -> SIGTERM drain).
api:
	$(GO) test -race ./internal/api/ ./internal/store/
	sh scripts/api_smoke.sh

# Live-follower suite under the race detector: delta-apply equivalence,
# which answers a publish leaves memoized, renders parked across a
# publish, published answers against a rebuild, journal tailing,
# and the follower e2e tests (coord feed, damaged-spool skip, seeded
# boot, non-directory target refused).
follow:
	$(GO) test -race ./internal/follow/ ./internal/api/ ./internal/coord/

# Real-process smoke of the live tier: dpsapi -follow boots empty,
# dpscoord commits days into the followed directory, every probe during
# catch-up must answer, the index converges (lag 0, last day queryable),
# and dpsdata -ledger agrees. Mirrors the CI follow-smoke job.
follow-smoke:
	sh scripts/follow_smoke.sh
