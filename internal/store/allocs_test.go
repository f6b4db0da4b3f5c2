//go:build !race

package store

import (
	"fmt"
	"net/netip"
	"runtime/debug"
	"testing"

	"dpsadopt/internal/simtime"
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
	// Measured: 83 KB for 72 partitions — Open's dictionary (63 KB) and
	// directory, then a release closure per acquire, some 280 bytes a
	// partition — against a largest partition of 248 KB and 7.1 MB in
	// all; the budget is 1.8× that. Exact-fit or per-Reader pools
	// allocated 8.2 MB here.
	if budget := largest * 3 / 5; got > budget {
		t.Errorf("warm sweep of %d partitions (%d bytes, largest %d) allocated %d bytes, budget %d",
			len(lay.parts), total, largest, got, budget)
	}
}

// TestCommitAllocs holds ingest to its allocation budget: once a first
// chunk has warmed the scratch pool and the dictionary, filling two
// writers and committing them allocates the partition's exact final block
// and a small constant — not the columns' growth in each writer and again
// in the partition. Not under -race: the race runtime drops sync.Pool
// items.
func TestCommitAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rows = 4000
	domains := make([]string, rows/4)
	for i := range domains {
		domains[i] = fmt.Sprintf("dom%04d.com", i)
	}
	values := []string{"ns1.example.net", "ns2.example.net", "edge.example.net"}
	s := New()
	day := simtime.Day(0)
	fill := func(w *Writer, lo, hi int) {
		for i := lo; i < hi; i++ {
			dom := domains[i/4]
			switch i % 4 {
			case 0:
				w.AddAddr(dom, KindApexA, netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), []uint32{uint32(i % 7), 64500})
			case 1:
				w.AddAddr(dom, KindApexAAAA, netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 14: byte(i >> 8), 15: byte(i)}), nil)
			default:
				w.AddStr(dom, KindNS, values[i%len(values)])
			}
		}
	}
	ingest := func() {
		day++
		w1, w2 := s.NewWriter("com", day), s.NewWriter("com", day)
		fill(w1, 0, rows/2)
		fill(w2, rows/2, rows)
		Commit(w1, w2)
	}
	ingest() // warm: the pool now holds grown scratch, the dictionary every string
	got := allocated(ingest)
	b := s.blocks["com"][day]
	block := uint64(4*len(b.domains) + len(b.kinds) + 4*len(b.addrs) + 16*len(b.addrs6) +
		4*len(b.strs) + 4*len(b.asnOff) + 4*len(b.asnVals))
	// Measured: the 92 000-byte block and 2.4 KB besides (the two
	// writers, the partition's map entry). Writers that grew their own
	// columns and interned through the shared dictionary allocated 3.9×
	// the block here; the budget allows 1.5× the measured constant.
	if budget := block + 3584; got > budget {
		t.Errorf("ingest of %d rows allocated %d bytes, budget %d (exact block %d)", rows, got, budget, block)
	}
}
