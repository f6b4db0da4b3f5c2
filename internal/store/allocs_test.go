//go:build !race

package store

import (
	"runtime/debug"
	"testing"
)

// TestReaderSweepAllocs holds the read path to its allocation budget: once
// a first sweep has warmed the process-wide pools, a sweep through a fresh
// Reader over partitions that grow every day allocates a fraction of one
// partition, however many days there are — not the dataset again. Not
// under -race: the race runtime drops sync.Pool items.
func TestReaderSweepAllocs(t *testing.T) {
	// A collection empties sync.Pools; what is under test is reuse, not
	// when the collector runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const days = 24
	path, lay := saveWithLayout(t, growingStore(11, []string{"com", "net", "org"}, days, 3000, 300))
	var largest, total uint64
	for i, p := range lay.parts {
		if i > 0 && p.Source == lay.parts[i-1].Source && p.length <= lay.parts[i-1].length {
			t.Fatalf("fixture: %s does not grow over %s", p.Key(), lay.parts[i-1].Key())
		}
		largest = max(largest, p.length)
		total += p.length
	}
	sweep(t, path) // warm: the pools now hold blocks that grew with headroom
	got := allocated(func() { sweep(t, path) })
	// Measured: 94 KB for 72 partitions — Open's dictionary (63 KB) and
	// directory, then a channel, a cache entry and a closure per acquire,
	// some 430 bytes a partition — against a largest partition of 248 KB
	// and 7.1 MB in all; the budget is 1.5× that. Exact-fit or per-Reader
	// pools allocated 8.2 MB here.
	if budget := largest * 3 / 5; got > budget {
		t.Errorf("warm sweep of %d partitions (%d bytes, largest %d) allocated %d bytes, budget %d",
			len(lay.parts), total, largest, got, budget)
	}
}
