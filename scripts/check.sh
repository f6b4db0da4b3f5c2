#!/bin/sh
# Tier-1 verification: vet, build, and race-enabled tests for the whole
# module, then the benchmark harness (bench/ is its own module importing
# internal/*, so `./...` does not reach it). Mirrors `make check` for
# environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== go test -race ./..."
go test -race ./...
echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)
echo "check: OK"
