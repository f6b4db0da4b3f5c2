package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// craftedFiles are the files random damage does not reach: lies in the
// shared sections, and lies a writer told consistently (checksums
// recomputed with reseal), which only the structural checks behind the
// CRCs can catch. Each is a saved populatedStore with one mutation; opens
// says whether Open may take the result and readable how many of its four
// partitions must still decode. They seed FuzzOpen, and their bytes are
// the committed corpus under testdata/fuzz/FuzzOpen.
var craftedFiles = []struct {
	name     string
	mutate   func(lay savedLayout, mut []byte) []byte
	opens    bool
	readable int
}{
	{"intact", func(lay savedLayout, mut []byte) []byte { return mut }, true, 4},
	{"empty", func(lay savedLayout, mut []byte) []byte { return nil }, false, 0},
	{"truncated-footer", func(lay savedLayout, mut []byte) []byte { return mut[:len(mut)-7] }, false, 0},
	{"dir-offset-past-eof", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint64(mut[len(mut)-footerSize:], uint64(len(mut))+1)
		return mut
	}, false, 0},
	// The directory's count word: a 56 GB make at the parent, which sized
	// the listing before checking either the bytes present or the CRC.
	{"dir-count-1Gi", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[lay.dirOff:], 1<<30)
		return mut
	}, false, 0},
	{"dir-count-1Gi-1", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[lay.dirOff:], 1<<30-1)
		return mut
	}, false, 0},
	{"dir-count-resealed", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[lay.dirOff:], 1<<30)
		return lay.reseal(mut)
	}, false, 0},
	{"dir-entry-flip", func(lay savedLayout, mut []byte) []byte {
		mut[lay.entryAt(1)+3] ^= 0x01 // inside the second entry's source name
		return mut
	}, false, 0},
	{"dir-entry-overflow", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint64(mut[lay.fixedAt(1)+20:], -lay.parts[1].offset) // offset+length wraps to 0
		return lay.reseal(mut)
	}, false, 0},
	// One byte of a dictionary string: LoadPartitions served "wictim.com"
	// at the parent, which checked the dictionary CRC in Open and Load only.
	{"dict-flip", func(lay savedLayout, mut []byte) []byte {
		mut[headerSize+4+2+1] ^= 0x01 // second byte of the first string
		return mut
	}, false, 0},
	{"dict-count-resealed", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[headerSize:], 1<<30)
		return lay.reseal(mut)
	}, true, 0},
	{"rows-resealed", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[lay.countsAt(1):], 1<<30)
		return lay.reseal(mut)
	}, true, 3},
	{"v6-count-resealed", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[lay.countsAt(1)+4:], 3)
		return lay.reseal(mut)
	}, true, 3},
	{"asn-count-resealed", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[lay.countsAt(1)+8:], 1<<30)
		return lay.reseal(mut)
	}, true, 3},
	// The directory's row count is what Info reports without decoding.
	{"dir-rows-resealed", func(lay savedLayout, mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[lay.fixedAt(3)+8:], 7)
		return lay.reseal(mut)
	}, true, 3},
}

// countsAt returns where partition i's rows | v6 count | asnVals count
// words start.
func (lay savedLayout) countsAt(i int) int {
	return int(lay.parts[i].offset) + 2 + len(lay.parts[i].Source) + 8
}

func craft(t testing.TB, mutate func(savedLayout, []byte) []byte) []byte {
	_, lay := saveWithLayout(t, populatedStore())
	return mutate(lay, append([]byte(nil), lay.data...))
}

// allocated reports the least TotalAlloc growth of five runs of fn, so
// one run's share of unrelated allocation does not count against it.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestCraftedFiles holds every way into the file to the table's verdict,
// and a refused file to an allocation budget: no entry point may size
// anything from a count before the bytes carrying it were checked.
func TestCraftedFiles(t *testing.T) {
	for _, c := range craftedFiles {
		t.Run(c.name, func(t *testing.T) {
			data := craft(t, c.mutate)
			path := filepath.Join(t.TempDir(), "crafted.dpsa")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			v := readEverywhere(t, path)
			if v.opened != c.opens || len(v.rows) != c.readable {
				t.Fatalf("opened=%v with %d partitions readable, want %v with %d", v.opened, len(v.rows), c.opens, c.readable)
			}
			if c.opens {
				return
			}
			budget := uint64(4*len(data) + 64<<10)
			for name, fn := range map[string]func(){
				"Open":           func() { _, _ = Open(path) },
				"Load":           func() { _, _ = Load(path) },
				"LoadPartitions": func() { _, _ = LoadPartitions(path, []PartitionKey{{"com", 0}}) },
				"Directory":      func() { _, _ = Directory(path) },
				"Verify":         func() { _ = Verify(path) },
			} {
				if got := allocated(fn); got > budget {
					t.Errorf("%s allocated %d bytes refusing a %d-byte file (budget %d)", name, got, len(data), budget)
				}
			}
		})
	}
}

// FuzzOpen feeds arbitrary bytes to the package's one decoder through
// every entry point. No input may panic; the entry points must agree on
// it (readEverywhere); every batch handed out must be safe to scan end to
// end; and reading it must not allocate more than a small multiple of its
// size, whatever its counts claim.
func FuzzOpen(f *testing.F) {
	for _, c := range craftedFiles {
		f.Add(craft(f, c.mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.dpsa")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		readEverywhere(t, path)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if r, err := Open(path); err == nil {
			for _, k := range r.Keys() {
				b, release, err := r.AcquireBatch(k.Source, k.Day)
				if err != nil {
					continue
				}
				for i := 0; i < b.Rows(); i++ {
					_, _ = b.Addr(i), b.ASNs(i)
				}
				release()
			}
			r.Close()
		}
		runtime.ReadMemStats(&after)
		// A string header is 16 bytes for 2 on disk and a directory entry
		// 56 for 34, each with a map slot beside it: 64x leaves room for
		// the worst honest ratio, 1 MiB for the fixed cost of an Open.
		if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > budget {
			t.Fatalf("reading %d bytes allocated %d (budget %d)", len(data), grew, budget)
		}
	})
}
