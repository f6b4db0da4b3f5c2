#!/bin/sh
# Go lines per package, non-test and test, and in total: `wc -l` over the
# tracked .go files, blank lines and comments included — the way
# ROADMAP.md's "~24.2k non-test, ~15.9k test" baseline was counted, so
# simplicity PRs quote the same number. bench/ is its own module (the
# benchmark harness) and is listed apart from the total.
set -eu
cd "$(dirname "$0")/.."

printf '%-28s %8s %8s\n' package non-test test
git ls-files '*.go' | while read -r f; do
	printf '%s %s\n' "$(wc -l <"$f")" "$f"
done | awk '
{
	n = split($2, parts, "/")
	dir = (n == 1) ? "." : substr($2, 1, length($2) - length(parts[n]) - 1)
	if ($2 ~ /_test\.go$/) test[dir] += $1; else code[dir] += $1
	dirs[dir] = 1
}
END {
	for (d in dirs) {
		printf "%-28s %8d %8d\n", d, code[d], test[d] | "sort"
		if (d ~ /^bench(\/|$)/) { bcode += code[d]; btest += test[d] }
		else { tcode += code[d]; ttest += test[d] }
	}
	close("sort")
	printf "%-28s %8d %8d\n", "total (module dpsadopt)", tcode, ttest
	printf "%-28s %8d %8d\n", "bench/ (own module)", bcode, btest
}'
