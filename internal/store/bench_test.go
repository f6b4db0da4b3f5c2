package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"

	"dpsadopt/internal/simtime"
)

// Ablation: columnar vs row-interleaved block encoding, measured by
// compressed size and encode throughput (DESIGN.md §5). The columnar
// side is the store's own per-column sizer; row-major interleaving
// destroys the runs of repeating dictionary IDs each column stream sees.

func benchBlock(rows int) (*Store, simtime.Day) {
	s := New()
	w := s.NewWriter("com", 1)
	addr := netip.MustParseAddr("104.16.3.7")
	for i := 0; i < rows/3; i++ {
		name := fmt.Sprintf("dom%06d.com", i)
		w.AddAddr(name, KindApexA, addr, []uint32{13335})
		w.AddStr(name, KindNS, "kate.ns.cloudflare.com")
		w.AddStr(name, KindNS, "mike.ns.cloudflare.com")
	}
	w.Commit()
	return s, 1
}

// rowMajorEncode interleaves the same data row by row.
func rowMajorEncode(b *dayBlock) []byte {
	var buf bytes.Buffer
	var tmp [4]byte
	for i := range b.domains {
		binary.LittleEndian.PutUint32(tmp[:], b.domains[i])
		buf.Write(tmp[:])
		buf.WriteByte(byte(b.kinds[i]))
		binary.LittleEndian.PutUint32(tmp[:], b.addrs[i])
		buf.Write(tmp[:])
		binary.LittleEndian.PutUint32(tmp[:], b.strs[i])
		buf.Write(tmp[:])
		binary.LittleEndian.PutUint32(tmp[:], b.asnOff[i])
		buf.Write(tmp[:])
	}
	return buf.Bytes()
}

func compress(raw []byte) int64 {
	var out columnSizer
	fw, _ := flate.NewWriter(&out, flate.BestSpeed)
	_, _ = fw.Write(raw)
	_ = fw.Close()
	return out.n
}

func blockOf(s *Store, day simtime.Day) *dayBlock {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blocks["com"][day]
}

func BenchmarkAblationStoreLayoutColumnar(b *testing.B) {
	s, day := benchBlock(30_000)
	blk := blockOf(s, day)
	b.ReportAllocs()
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		size = blk.flateSize()
	}
	b.ReportMetric(float64(size), "compressed-bytes")
}

func BenchmarkAblationStoreLayoutRowMajor(b *testing.B) {
	s, day := benchBlock(30_000)
	blk := blockOf(s, day)
	b.ReportAllocs()
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		size = compress(rowMajorEncode(blk))
	}
	b.ReportMetric(float64(size), "compressed-bytes")
}

func TestColumnarCompressesBetter(t *testing.T) {
	s, day := benchBlock(30_000)
	blk := blockOf(s, day)
	col := blk.flateSize()
	row := compress(rowMajorEncode(blk))
	if col >= row {
		t.Errorf("columnar %d bytes >= row-major %d bytes", col, row)
	}
}

// BenchmarkDayStats is the per-partition Table 1 accounting the
// reproduction pays once per (source, day).
func BenchmarkDayStats(b *testing.B) {
	s, day := benchBlock(30_000)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		n, size, ids := s.DayStats("com", day)
		if size == 0 || len(ids) != 10_000 {
			b.Fatalf("DayStats = %d rows, %d bytes, %d ids", n, size, len(ids))
		}
		rows += n
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkStoreScan(b *testing.B) {
	s, day := benchBlock(30_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.ForEachRow("com", day, func(Row) { n++ })
		if n == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkStoreAppend(b *testing.B) {
	addr := netip.MustParseAddr("104.16.3.7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		w := s.NewWriter("com", 1)
		for j := 0; j < 1000; j++ {
			w.AddAddr("example.com", KindApexA, addr, []uint32{13335})
		}
		w.Commit()
	}
}

// Directory-lookup micro-benchmark: the Reader resolves every requested
// partition against the dataset directory, so it keeps a keyed map
// (Reader.byKey) rather than scanning the listing. The scan variant is
// kept as the ablation baseline.

func benchDirectory(n int) []PartitionInfo {
	dir := make([]PartitionInfo, 0, n)
	for i := 0; i < n; i++ {
		dir = append(dir, PartitionInfo{
			Source: fmt.Sprintf("src%02d", i%16),
			Day:    simtime.Day(i / 16),
			Rows:   i,
		})
	}
	return dir
}

func BenchmarkDirectoryLookupKeyed(b *testing.B) {
	dir := benchDirectory(8192)
	byKey := make(map[PartitionKey]PartitionInfo, len(dir))
	keys := make([]PartitionKey, len(dir))
	for i, ent := range dir {
		keys[i] = ent.Key()
		byKey[ent.Key()] = ent
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ent, ok := byKey[keys[i%len(keys)]]
		if !ok || ent.Rows != i%len(keys) {
			b.Fatal("lookup miss")
		}
	}
}

func BenchmarkDirectoryLookupScan(b *testing.B) {
	dir := benchDirectory(8192)
	keys := make([]PartitionKey, len(dir))
	for i, ent := range dir {
		keys[i] = ent.Key()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		found := false
		for j := range dir {
			if dir[j].Source == k.Source && dir[j].Day == k.Day {
				found = dir[j].Rows == i%len(keys)
				break
			}
		}
		if !found {
			b.Fatal("lookup miss")
		}
	}
}
