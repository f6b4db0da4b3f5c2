#!/bin/sh
# Pins the command surface: builds every binary under cmd/ and diffs its
# -help output against scripts/testdata/cli-help/<binary>.txt, so a flag
# added, removed, renamed, re-typed or re-defaulted fails here and the
# golden diff lists it. After an intended change, regenerate the golden
# files with `sh scripts/cli_help.sh -update` and commit them.
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
[ "$status" -eq 0 ] && echo "cli-help: OK"
exit "$status"
