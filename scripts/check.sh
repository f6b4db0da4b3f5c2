#!/bin/sh
# Tier-1 verification, and the one list of its steps and packages (`make
# check` runs this file): vet, also cross-compiled for a big-endian
# target — the only build store's portable column codec ever gets, and
# vet's unsafeptr check must pass on both byte orders — build, and
# race-enabled tests for the whole module; the allocation ceilings of
# the wire, ingest, .dpsa read, world-state and observatory record paths,
# measured on the ordinary build and so run without -race (most sit in
# `//go:build !race` files: the race build allocates more, not least
# because its runtime drops a random share of sync.Pool puts); the
# benchmark harness (bench/ is its own module importing internal/*,
# so `./...` does not reach it); and every binary's -help output against
# its golden file.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...
echo "== GOOS=linux GOARCH=s390x go vet ./internal/store ./internal/core"
GOOS=linux GOARCH=s390x go vet ./internal/store ./internal/core
echo "== go build ./..."
go build ./...
echo "== go test -race ./..."
go test -race ./...
echo "== go test -run Allocs (no -race) ./internal/{dnswire,transport,dnsclient,dnsserver,core,store,measure,worldsim,api,obs}"
go test -run 'Allocs' ./internal/dnswire ./internal/transport ./internal/dnsclient ./internal/dnsserver ./internal/core ./internal/store ./internal/measure ./internal/worldsim ./internal/api ./internal/obs
echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)
echo "== sh scripts/cli_help.sh"
sh scripts/cli_help.sh
echo "check: OK"
