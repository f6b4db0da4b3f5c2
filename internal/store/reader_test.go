package store

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dpsadopt/internal/simtime"
)

// readerRows materializes one partition through the streaming path, in
// the same shape rowsOf produces from a resident store.
func readerRows(t *testing.T, r *Reader, source string, day simtime.Day) []Row {
	t.Helper()
	dict, err := r.SharedDict()
	if err != nil {
		t.Fatal(err)
	}
	b, release, err := r.AcquireBatch(source, day)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	var out []Row
	for i := 0; i < b.Rows(); i++ {
		row := b.Row(i, dict)
		row.ASNs = append([]uint32(nil), row.ASNs...)
		out = append(out, row)
	}
	return out
}

// growingStore builds a fixed-seed store of len(sources) × days
// partitions over a small domain pool, mixing every kind and both address
// families. Source i's day d holds (rows0 + d*step) / (i+1) rows, so every
// source's partitions grow day by day — the shape that defeats exact-fit
// buffer reuse — and the sources differ in size.
func growingStore(seed int64, sources []string, days, rows0, step int) *Store {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{KindApexA, KindApexAAAA, KindWWWA, KindWWWAAAA, KindWWWCNAME, KindNS}
	s := New()
	for si, src := range sources {
		for d := 0; d < days; d++ {
			w := s.NewWriter(src, simtime.Day(d))
			for i := (rows0 + d*step) / (si + 1); i > 0; i-- {
				dom := fmt.Sprintf("dom%03d.%s", rng.Intn(200), src)
				switch k := kinds[rng.Intn(len(kinds))]; k {
				case KindWWWCNAME, KindNS:
					w.AddStr(dom, k, fmt.Sprintf("target%03d.example.net", rng.Intn(100)))
				case KindApexAAAA, KindWWWAAAA:
					w.AddAddr(dom, k, netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, byte(rng.Intn(256)), byte(i)}), randASNs(rng))
				default:
					w.AddAddr(dom, k, netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(i >> 8), byte(i)}), randASNs(rng))
				}
			}
			w.Commit()
		}
	}
	return s
}

// sweep acquires and releases every partition of the file once through a
// fresh Reader, the way a streaming consumer does.
func sweep(t testing.TB, path string) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, k := range r.Keys() {
		_, release, err := r.AcquireBatch(k.Source, k.Day)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
}

func TestReaderRoundTrip(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Directory listing matches the store's partitions, in (source, day)
	// order.
	var want []PartitionKey
	for _, src := range s.Sources() {
		for _, day := range s.Days(src) {
			want = append(want, PartitionKey{Source: src, Day: day})
		}
	}
	if got := r.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	// Every partition decodes to exactly the rows that were saved.
	for _, k := range want {
		if w, h := rowsOf(s, k.Source, k.Day), readerRows(t, r, k.Source, k.Day); !reflect.DeepEqual(w, h) {
			t.Fatalf("%s streaming rows differ:\nwant %+v\ngot  %+v", k, w, h)
		}
	}
	// Info answers from the directory alone.
	in := r.Info()
	if in.Version != persistVersion {
		t.Fatalf("Info().Version = %d, want %d", in.Version, persistVersion)
	}
	if in.Partitions != len(want) {
		t.Fatalf("Info().Partitions = %d, want %d", in.Partitions, len(want))
	}
	if !reflect.DeepEqual(in.Sources, s.Sources()) {
		t.Fatalf("Info().Sources = %v", in.Sources)
	}
	var rows int64
	for _, k := range want {
		rows += int64(len(rowsOf(s, k.Source, k.Day)))
	}
	if in.Rows != rows {
		t.Fatalf("Info().Rows = %d, want %d", in.Rows, rows)
	}
	if in.FirstDay != 0 || in.LastDay != 10 {
		t.Fatalf("Info() day range %v..%v", in.FirstDay, in.LastDay)
	}
	if in.FileBytes <= in.PartitionBytes || in.PartitionBytes <= 0 {
		t.Fatalf("Info() sizes: file=%d partitions=%d", in.FileBytes, in.PartitionBytes)
	}
	// A key absent from the directory is a plain error, not a panic or
	// an empty batch.
	if _, _, err := r.AcquireBatch("com", 99); err == nil {
		t.Fatal("missing partition acquired without error")
	}
}

// TestReaderCorruptPartition: a bit-flipped partition surfaces as a
// *CorruptPartitionError from AcquireBatch — never corrupt rows — and
// the read-only path quarantines nothing on disk. Other partitions stay
// readable.
func TestReaderCorruptPartition(t *testing.T) {
	s := populatedStore()
	_, lay := saveWithLayout(t, s)
	victim := lay.parts[1]
	mut := append([]byte(nil), lay.data...)
	mut[victim.offset+victim.length/2] ^= 0xA5
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.dpsa")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, release, err := r.AcquireBatch(victim.Source, victim.Day)
	var ce *CorruptPartitionError
	if !errors.As(err, &ce) {
		release()
		t.Fatalf("err = %v, want *CorruptPartitionError", err)
	}
	if ce.Source != victim.Source || ce.Day != victim.Day {
		t.Fatalf("error names %s/%s, want %s/%s", ce.Source, ce.Day, victim.Source, victim.Day)
	}
	// Streaming reads never move files aside: quarantine is Load's job.
	if _, err := os.Stat(filepath.Join(dir, "quarantine")); !os.IsNotExist(err) {
		t.Fatal("streaming read created a quarantine directory")
	}
	ok := lay.parts[0]
	if w, h := rowsOf(s, ok.Source, ok.Day), readerRows(t, r, ok.Source, ok.Day); !reflect.DeepEqual(w, h) {
		t.Fatal("intact partition unreadable next to a corrupt one")
	}
}

// TestReaderConcurrentAcquire hammers one Reader from many goroutines
// under -race, half of them on one key and half across all keys: every
// (goroutine, partition) read must match the oracle, so no batch sees
// another acquire's decode.
func TestReaderConcurrentAcquire(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := r.Keys()
	want := make(map[PartitionKey][]Row)
	for _, k := range keys {
		want[k] = rowsOf(s, k.Source, k.Day)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := keys[0]
				if g%2 == 1 {
					k = keys[(g+i)%len(keys)]
				}
				rows := func() []Row {
					dict, err := r.SharedDict()
					if err != nil {
						errc <- err
						return nil
					}
					b, release, err := r.AcquireBatch(k.Source, k.Day)
					if err != nil {
						errc <- err
						return nil
					}
					defer release()
					var out []Row
					for i := 0; i < b.Rows(); i++ {
						row := b.Row(i, dict)
						row.ASNs = append([]uint32(nil), row.ASNs...)
						out = append(out, row)
					}
					return out
				}()
				if rows != nil && !reflect.DeepEqual(rows, want[k]) {
					errc <- fmt.Errorf("goroutine %d: %s rows diverged", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestDecodeIntoLargerBlock: a block that last held a larger partition
// decodes a smaller one to exactly what a fresh block gets, in all seven
// columns — nothing of the old rows stays reachable behind [:n].
func TestDecodeIntoLargerBlock(t *testing.T) {
	_, lay := saveWithLayout(t, growingStore(3, []string{"com"}, 2, 50, 400))
	small, large := lay.parts[0], lay.parts[1]
	if small.Rows >= large.Rows {
		t.Fatalf("fixture: day 0 has %d rows, day 1 %d", small.Rows, large.Rows)
	}
	bytesOf := func(p PartitionInfo) []byte { return lay.data[p.offset : p.offset+p.length] }
	const dictLen = 1 << 20 // the fixture is valid; ID ranges are not under test
	var fresh, reused dayBlock
	if _, _, err := decodeBlockInto(bytesOf(small), &fresh, dictLen); err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeBlockInto(bytesOf(large), &reused, dictLen); err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeBlockInto(bytesOf(small), &reused, dictLen); err != nil {
		t.Fatal(err)
	}
	if len(fresh.addrs6) == 0 || len(fresh.asnVals) == 0 {
		t.Fatal("fixture: small partition lacks v6 rows or ASNs")
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("decode into a recycled block differs from a fresh decode:\nfresh  %+v\nreused %+v", fresh.batch(), reused.batch())
	}
}

// TestBatchOutlivesClose: a batch acquired before Close stays intact until
// it is released, whatever other Readers decode in the meantime: the
// block belongs to the batch, not to the Reader.
func TestBatchOutlivesClose(t *testing.T) {
	s := growingStore(5, []string{"com", "net", "org"}, 4, 300, 40)
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := r.Keys()
	held, release, err := r.AcquireBatch(keys[0].Source, keys[0].Day)
	if err != nil {
		t.Fatal(err)
	}
	// A released neighbour's block goes back to the pool at once.
	if _, rel, err := r.AcquireBatch(keys[1].Source, keys[1].Day); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
	snapshot := func(b RowBatch) RowBatch {
		return RowBatch{
			Domains: append([]uint32(nil), b.Domains...),
			Kinds:   append([]Kind(nil), b.Kinds...),
			Addrs:   append([]uint32(nil), b.Addrs...),
			Addrs6:  append([][16]byte(nil), b.Addrs6...),
			Strs:    append([]uint32(nil), b.Strs...),
			asnOff:  append([]uint32(nil), b.asnOff...),
			asnVals: append([]uint32(nil), b.asnVals...),
		}
	}
	want := snapshot(held)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sweep(t, path) // recycles every pooled block several times over
	}
	if got := snapshot(held); !reflect.DeepEqual(got, want) {
		t.Fatal("a batch held across Close was overwritten by a later decode")
	}
	release()
}
