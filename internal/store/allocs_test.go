//go:build !race

package store

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"testing"

	"dpsadopt/internal/simtime"
)

// The ceilings in this file hold with the collector running: the free
// lists keep their items across collections. Not under -race: the race
// build allocates more than the ordinary one (84 992 against 83 096 bytes
// for TestReaderSweepAllocs' warm sweep), and the budgets are measured on
// the ordinary build.

// TestReaderSweepAllocs holds the read path to its allocation budget: once
// a first sweep has warmed the process-wide free lists, a sweep through a
// fresh Reader over partitions that grow every day allocates a fraction
// of one partition, however many days there are — not the dataset again.
func TestReaderSweepAllocs(t *testing.T) {
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
	sweep(t, path) // warm: the free lists now hold blocks that grew with headroom
	got := allocated(func() { sweep(t, path) })
	// Measured: 83 KB for 72 partitions — Open's dictionary (63 KB) and
	// directory, then a release closure per acquire, some 280 bytes a
	// partition — against a largest partition of 248 KB and 7.1 MB in
	// all; the budget is 1.8× that. Exact-fit or per-Reader free lists
	// allocated 8.2 MB here.
	if budget := largest * 3 / 5; got > budget {
		t.Errorf("warm sweep of %d partitions (%d bytes, largest %d) allocated %d bytes, budget %d",
			len(lay.parts), total, largest, got, budget)
	}
}

// TestCommitAllocs holds ingest to its allocation budget: once a first
// chunk has warmed the writers' scratch and the dictionary, filling two
// writers and committing them allocates the partition's exact final block
// and a small constant — not the columns' growth in each writer and again
// in the partition. Once a partition at least as large has been dropped,
// the commit reuses its block and allocates the constant alone.
func TestCommitAllocs(t *testing.T) {
	drain(blocks) // cold: no earlier test's block to draw
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

	// Streamed: each ingest follows the drop of the day before, as the
	// experiment runner's accountant drops a day once it is sized.
	got = allocated(func() {
		s.DropDay("com", day)
		ingest()
	})
	if budget := uint64(3584); got > budget {
		t.Errorf("ingest of %d rows after a drop allocated %d bytes, budget %d", rows, got, budget)
	}
}

// TestAcquireAfterGCAllocs: a Reader's blocks and raw buffers outlive a
// garbage collection, so an AcquireBatch after one decodes into the
// columns the previous release handed back and allocates no column
// buffer. A sync.Pool would have been emptied by the two collections.
func TestAcquireAfterGCAllocs(t *testing.T) {
	drain(blocks)
	drain(rawBufs)
	const rows = 6000
	path := filepath.Join(t.TempDir(), "one.dpsa")
	if err := growingStore(5, []string{"com"}, 1, rows, 0).Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	acquire := func() {
		b, release, err := r.AcquireBatch("com", 0)
		if err != nil || b.Rows() != rows {
			t.Fatalf("acquire: %d rows, %v", b.Rows(), err)
		}
		release()
	}
	acquire()
	runtime.GC()
	runtime.GC() // a sync.Pool's victim cache survives one collection, not two
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	acquire()
	runtime.ReadMemStats(&after)
	// The smallest column, the kinds, is one byte a row; what is left is
	// the release closure and the error-free path's small change.
	if got := after.TotalAlloc - before.TotalAlloc; got >= rows {
		t.Errorf("AcquireBatch after a GC allocated %d bytes: a column buffer (the smallest is %d bytes) was not reused", got, rows)
	}
}
