#!/bin/sh
# Pins the command surface: builds every binary under cmd/ and diffs its
# -help output against scripts/testdata/cli-help/<binary>.txt, so a flag
# added, removed, renamed, re-typed or re-defaulted fails here and the
# golden diff lists it; a golden file whose binary is gone fails too, and
# so does a dpsreport that measures before rejecting a bad argument or a
# dpsapi that starts following a file.
# After an intended change, regenerate the golden files with
# `sh scripts/cli_help.sh -update` and commit them.
set -eu
cd "$(dirname "$0")/.."

golden=scripts/testdata/cli-help
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
status=0
for main in cmd/*/main.go; do
	name=$(basename "$(dirname "$main")")
	go build -o "$bin/$name" "./$(dirname "$main")"
	# -help exits 0 and prints the usage to stderr; running from the
	# build directory keeps the "Usage of ./<name>:" line stable.
	(cd "$bin" && "./$name" -help >"$name.txt" 2>&1)
	if [ "${1:-}" = "-update" ]; then
		cp "$bin/$name.txt" "$golden/$name.txt"
	elif ! diff -u "$golden/$name.txt" "$bin/$name.txt"; then
		status=1
	fi
done
# dpsreport checks its arguments before the measurement pass: a bad
# -artifact, -quiet-day or -mode, or a coordination-plane fault scenario,
# fails with one error line, world unbuilt. The scenario is parsed (and
# logged as armed) before it is refused, so that case may print the
# "fault injection armed" line too; no case may build the world or
# measure a day.
for args in "-artifact fig9" "-quiet-day nope" "-mode nope" "-fault-scenario worker-crash"; do
	if out=$(cd "$bin" && ./dpsreport -scale 400000 -days 1 $args 2>&1) ||
		[ "$(printf '%s\n' "$out" | grep -cv 'fault injection armed')" -ne 1 ] ||
		printf '%s\n' "$out" | grep -qE 'world built|day complete'; then
		printf 'cli-help: dpsreport %s: want one error line and exit != 0, got:\n%s\n' "$args" "$out"
		status=1
	fi
done
# dpsapi -follow takes a coordination directory: a regular file fails
# at start-up with one error line (the timeout ends a server that starts).
if out=$(cd "$bin" && timeout 10 ./dpsapi -quiet -addr 127.0.0.1:0 -follow dpsapi.txt 2>&1) ||
	[ "$(printf '%s\n' "$out" | wc -l)" -ne 1 ]; then
	printf 'cli-help: dpsapi -follow FILE: want one error line and exit != 0, got:\n%s\n' "$out"
	status=1
fi
for g in "$golden"/*.txt; do
	name=$(basename "$g" .txt)
	if [ ! -f "cmd/$name/main.go" ]; then
		echo "cli-help: $g has no cmd/$name/main.go"
		status=1
	fi
done
[ "$status" -eq 0 ] && echo "cli-help: OK"
exit "$status"
