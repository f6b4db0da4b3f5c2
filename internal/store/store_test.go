package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dpsadopt/internal/simtime"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// id interns s in d, under the lock a commit holds.
func id(d *Dict, s string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.intern(s)
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := id(d, "example.com")
	b := id(d, "other.com")
	if a == b {
		t.Fatal("distinct strings share ID")
	}
	if id(d, "example.com") != a {
		t.Fatal("re-intern changed ID")
	}
	if d.Str(a) != "example.com" || d.Str(b) != "other.com" {
		t.Fatal("Str mismatch")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestWriteAndRead(t *testing.T) {
	s := New()
	w := s.NewWriter("com", 5)
	w.AddAddr("foo.com", KindApexA, addr("10.0.0.1"), []uint32{13335})
	w.AddStr("foo.com", KindNS, "kate.ns.cloudflare.com")
	w.AddStr("foo.com", KindWWWCNAME, "foo.cloudflare.net")
	w.AddAddr("bar.com", KindApexA, addr("10.9.9.9"), nil)
	w.Commit()

	var rows []Row
	s.ForEachRow("com", 5, func(r Row) {
		r.ASNs = append([]uint32(nil), r.ASNs...)
		rows = append(rows, r)
	})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Domain != "foo.com" || rows[0].Addr != addr("10.0.0.1") || !reflect.DeepEqual(rows[0].ASNs, []uint32{13335}) {
		t.Errorf("row0 = %+v", rows[0])
	}
	if rows[1].Str != "kate.ns.cloudflare.com" || rows[1].Kind != KindNS {
		t.Errorf("row1 = %+v", rows[1])
	}
	if rows[2].Kind != KindWWWCNAME || rows[2].Str != "foo.cloudflare.net" {
		t.Errorf("row2 = %+v", rows[2])
	}
	if rows[3].Domain != "bar.com" || len(rows[3].ASNs) != 0 {
		t.Errorf("row3 = %+v", rows[3])
	}
}

func TestCommitMergesPartitions(t *testing.T) {
	s := New()
	w1 := s.NewWriter("com", 1)
	w1.AddAddr("a.com", KindApexA, addr("1.1.1.1"), []uint32{1})
	w1.Commit()
	w2 := s.NewWriter("com", 1)
	w2.AddAddr("b.com", KindApexA, addr("2.2.2.2"), []uint32{2, 3})
	w2.Commit()

	var got [][]uint32
	s.ForEachRow("com", 1, func(r Row) {
		got = append(got, append([]uint32(nil), r.ASNs...))
	})
	want := [][]uint32{{1}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ASNs after merge = %v, want %v", got, want)
	}
}

func TestWriterReusableAfterCommit(t *testing.T) {
	s := New()
	w := s.NewWriter("org", 9)
	w.AddStr("x.org", KindNS, "ns1.t.example")
	w.Commit()
	if w.Rows() != 0 {
		t.Error("writer not reset")
	}
	w.AddStr("y.org", KindNS, "ns2.t.example")
	w.Commit()
	n := 0
	s.ForEachRow("org", 9, func(Row) { n++ })
	if n != 2 {
		t.Errorf("rows = %d", n)
	}
}

// TestWriterDomainMemo drives the last-domain memo through the cases
// where a stale entry would show: interleaved domains, the empty string
// before and after other names, and a writer reused after Commit.
func TestWriterDomainMemo(t *testing.T) {
	s := New()
	w := s.NewWriter("com", 1)
	want := []string{"", "", "a.com", "", "a.com", "b.com", "a.com", "a.com", "b.com"}
	for i, d := range want {
		if i%2 == 0 {
			w.AddStr(d, KindNS, "ns.example")
		} else {
			w.AddAddr(d, KindApexA, addr("10.0.0.1"), nil)
		}
		if i == 5 {
			w.Commit()
		}
	}
	w.Commit()
	var got []string
	s.ForEachRow("com", 1, func(r Row) { got = append(got, r.Domain) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("domains = %q, want %q", got, want)
	}
	if n := s.Dict().Len(); n != 4 { // "", a.com, b.com, ns.example
		t.Errorf("dict holds %d strings, want 4", n)
	}
}

// TestCommitRemap: a commit turns writer-local IDs into the dictionary IDs
// one writer interning row by row — domain, then value — would have
// handed out, whatever the chunking and whatever the local IDs were.
func TestCommitRemap(t *testing.T) {
	type row struct {
		domain, value string // value "" = address row
	}
	rows := []row{
		{"a.com", "b.com"}, // a value equal to a domain name interned later
		{"a.com", ""},
		{"b.com", ""},
		{"a.com", "ns.example"}, // a domain repeated out of order
		{"c.com", "b.com"},
		{"c.com", "ns.example"},
	}
	fill := func(w *Writer, rs []row) {
		for i, r := range rs {
			if r.value != "" {
				w.AddStr(r.domain, KindNS, r.value)
			} else {
				w.AddAddr(r.domain, KindApexA, netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), []uint32{uint32(i)})
			}
		}
	}
	one := New()
	w := one.NewWriter("com", 1)
	fill(w, rows)
	w.Commit()
	wantIDs := map[string]uint32{"a.com": 0, "b.com": 1, "ns.example": 2, "c.com": 3}
	for str, id := range wantIDs {
		if got, ok := one.Dict().ids[str]; !ok || got != id {
			t.Errorf("dict ID of %q = %d, want %d (row order, domain then value)", str, got, id)
		}
	}
	want, _ := one.RowBatch("com", 1)
	if want.Domains[0] != want.Domains[3] {
		t.Errorf("out-of-order repeat of a.com got ID %d, first run %d", want.Domains[3], want.Domains[0])
	}
	if want.Strs[0] != want.Domains[2] {
		t.Errorf("value b.com got ID %d, domain b.com %d", want.Strs[0], want.Domains[2])
	}
	for _, i := range []int{1, 2} {
		if want.Strs[i] != NoStr {
			t.Errorf("address row %d: Strs = %d, want NoStr", i, want.Strs[i])
		}
	}

	// The same rows in chunks, with empty writers among them: identical
	// columns and dictionary.
	chunked := New()
	ws := []*Writer{chunked.NewWriter("com", 1)}
	for _, chunk := range [][]row{rows[:1], rows[1:4], rows[4:]} {
		cw := chunked.NewWriter("com", 1)
		fill(cw, chunk)
		ws = append(ws, cw, chunked.NewWriter("com", 1))
	}
	Commit(ws...)
	got, _ := chunked.RowBatch("com", 1)
	if !reflect.DeepEqual(got.Domains, want.Domains) || !reflect.DeepEqual(got.Strs, want.Strs) {
		t.Errorf("chunked commit: domains %v strs %v, want %v %v", got.Domains, got.Strs, want.Domains, want.Strs)
	}
	if got.Rows() != len(rows) || chunked.Dict().Len() != one.Dict().Len() {
		t.Errorf("chunked commit: %d rows, %d strings; want %d, %d", got.Rows(), chunked.Dict().Len(), len(rows), one.Dict().Len())
	}
	for _, cw := range ws {
		if cw.Rows() != 0 {
			t.Error("writer not reset by Commit")
		}
	}

	// Empty writers alone commit nothing, not even an empty partition.
	empty := New()
	Commit(empty.NewWriter("com", 2), empty.NewWriter("com", 2))
	Commit()
	if len(empty.Sources()) != 0 || empty.Dict().Len() != 0 {
		t.Errorf("empty commit left sources %v, %d strings", empty.Sources(), empty.Dict().Len())
	}
}

func TestSourcesAndDays(t *testing.T) {
	s := New()
	for _, src := range []string{"net", "com", "alexa"} {
		for _, d := range []simtime.Day{3, 1, 2} {
			w := s.NewWriter(src, d)
			w.AddStr("x."+src, KindNS, "ns.example")
			w.Commit()
		}
	}
	if got := s.Sources(); !reflect.DeepEqual(got, []string{"alexa", "com", "net"}) {
		t.Errorf("Sources = %v", got)
	}
	if got := s.Days("com"); !reflect.DeepEqual(got, []simtime.Day{1, 2, 3}) {
		t.Errorf("Days = %v", got)
	}
	if got := s.Days("missing"); len(got) != 0 {
		t.Errorf("Days(missing) = %v", got)
	}
}

func TestSourceStats(t *testing.T) {
	s := New()
	for day := simtime.Day(0); day < 10; day++ {
		w := s.NewWriter("com", day)
		for i := 0; i < 100; i++ {
			name := "dom" + string(rune('a'+i%26)) + ".com"
			w.AddAddr(name, KindApexA, addr("10.0.0.1"), []uint32{13335})
			w.AddStr(name, KindNS, "ns1.hostco.net")
		}
		w.Commit()
	}
	st := s.SourceStats("com")
	if st.Days != 10 {
		t.Errorf("Days = %d", st.Days)
	}
	if st.DataPoints != 2000 {
		t.Errorf("DataPoints = %d", st.DataPoints)
	}
	if st.UniqueSLDs != 26 {
		t.Errorf("UniqueSLDs = %d", st.UniqueSLDs)
	}
	if st.CompressedBytes <= 0 {
		t.Error("no compressed size")
	}
	// Columnar + flate should crush this highly repetitive data well
	// below the raw encoding (~13 bytes/row plus ASN column).
	if st.CompressedBytes > st.DataPoints*8 {
		t.Errorf("compression ineffective: %d bytes for %d rows", st.CompressedBytes, st.DataPoints)
	}
}

// TestDayStatsDeterministic: a partition's size is a function of its
// content alone — not of how many columns are compressed at once, of a
// pooled writer's earlier streams, or of which columns are empty — and a
// source's size is the sum of its partitions'.
func TestDayStatsDeterministic(t *testing.T) {
	s := New()
	for day := simtime.Day(0); day < 4; day++ {
		w := s.NewWriter("com", day)
		for i := 0; i < 3000; i++ {
			name := fmt.Sprintf("dom%04d.com", i*(int(day)+1))
			w.AddStr(name, KindNS, fmt.Sprintf("ns%d.hostco.net", i%7))
			switch day { // day 0: strings only, so addrs6 and asnVals are empty
			case 1:
				w.AddAddr(name, KindApexA, addr("10.0.0.1"), nil) // asnVals still empty
			case 2, 3:
				w.AddAddr(name, KindApexA, addr("10.0.0.1"), []uint32{13335, uint32(i)})
				w.AddAddr(name, KindApexAAAA, addr("2001:db8::1"), nil)
			}
		}
		w.Commit()
	}
	sizes := func() (out [4]int64) {
		for day := range out {
			rows, size, ids := s.DayStats("com", simtime.Day(day))
			if rows == 0 || size <= 0 || len(ids) != 3000 {
				t.Fatalf("day %d: %d rows, %d bytes, %d ids", day, rows, size, len(ids))
			}
			out[day] = size
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := sizes()
	for _, procs := range []int{4, 1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := sizes(); got != want {
			t.Errorf("GOMAXPROCS=%d: sizes %v, want %v", procs, got, want)
		}
	}
	if got, sum := s.SourceStats("com").CompressedBytes, want[0]+want[1]+want[2]+want[3]; got != sum {
		t.Errorf("SourceStats.CompressedBytes = %d, sum of DayStats = %d", got, sum)
	}
}

// drain empties one of the process-wide free lists, so that a test sees
// its own blocks and not those of the tests that ran before it.
func drain[T any](l *freeList[T]) {
	for {
		select {
		case <-l.items:
		default:
			return
		}
	}
}

// TestRecycledBlockCarriesNoStaleRows: a partition committed into the
// block a larger, dropped partition handed back reads exactly as one
// committed into a fresh block — through RowBatch, ForEachRow, DayStats
// and the bytes Save writes.
func TestRecycledBlockCarriesNoStaleRows(t *testing.T) {
	const smallRows, bigRows = 500, 4000
	small := func() *Store { return growingStore(3, []string{"com"}, 1, smallRows, 0) }
	drain(blocks)
	fresh := small()
	growingStore(4, []string{"com"}, 1, bigRows, 0).DropDay("com", 0) // larger in every column
	recycled := small()
	got, _ := recycled.RowBatch("com", 0)
	want, _ := fresh.RowBatch("com", 0)
	if cap(got.Domains) < bigRows || cap(want.Domains) != smallRows {
		t.Fatalf("fixture: recycled block holds %d rows' capacity, fresh %d; want %d and %d",
			cap(got.Domains), cap(want.Domains), bigRows, smallRows)
	}
	if got.Rows() != want.Rows() || !slices.Equal(got.Domains, want.Domains) || !slices.Equal(got.Kinds, want.Kinds) ||
		!slices.Equal(got.Addrs, want.Addrs) || !slices.Equal(got.Addrs6, want.Addrs6) || !slices.Equal(got.Strs, want.Strs) {
		t.Fatalf("RowBatch columns differ: recycled %d rows, fresh %d", got.Rows(), want.Rows())
	}
	for i := 0; i < want.Rows(); i++ {
		if !slices.Equal(got.ASNs(i), want.ASNs(i)) {
			t.Fatalf("row %d: ASNs %v, fresh %v", i, got.ASNs(i), want.ASNs(i))
		}
	}
	rows := func(s *Store) (out []Row) {
		s.ForEachRow("com", 0, func(r Row) { out = append(out, r) })
		return out
	}
	if g, w := rows(recycled), rows(fresh); !reflect.DeepEqual(g, w) {
		t.Errorf("ForEachRow: %d rows differ from a fresh store's %d", len(g), len(w))
	}
	gr, gc, gids := recycled.DayStats("com", 0)
	wr, wc, wids := fresh.DayStats("com", 0)
	if gr != wr || gc != wc || !slices.Equal(gids, wids) {
		t.Errorf("DayStats = %d rows, %d bytes, %d domains; fresh store %d, %d, %d", gr, gc, len(gids), wr, wc, len(wids))
	}
	saved := func(s *Store, name string) []byte {
		path := filepath.Join(t.TempDir(), name)
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(saved(recycled, "recycled.dpsa"), saved(fresh, "fresh.dpsa")) {
		t.Error("Save wrote different bytes for a recycled block than for a fresh one")
	}
}

func TestEmptyPartitionIsSilent(t *testing.T) {
	s := New()
	called := false
	s.ForEachRow("com", 1, func(Row) { called = true })
	if called {
		t.Error("callback on empty partition")
	}
	w := s.NewWriter("com", 1)
	w.Commit() // empty commit is a no-op
	if len(s.Days("com")) != 0 {
		t.Error("empty commit created a partition")
	}
}

func TestIPv6Rows(t *testing.T) {
	s := New()
	w := s.NewWriter("com", 2)
	v6 := addr("2001:db8::1")
	w.AddAddr("six.com", KindApexAAAA, v6, []uint32{13335})
	w.AddAddr("four.com", KindApexA, addr("10.0.0.1"), []uint32{100})
	w.AddAddr("six.com", KindWWWAAAA, addr("2001:db8::2"), nil)
	w.Commit()
	// A second writer commit exercises v6 index rebasing.
	w2 := s.NewWriter("com", 2)
	w2.AddAddr("more.com", KindApexAAAA, addr("2001:db8::3"), nil)
	w2.Commit()

	var got []Row
	s.ForEachRow("com", 2, func(r Row) { got = append(got, r) })
	if len(got) != 4 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0].Addr != v6 {
		t.Errorf("row0 addr = %v", got[0].Addr)
	}
	if got[1].Addr != addr("10.0.0.1") {
		t.Errorf("row1 addr = %v", got[1].Addr)
	}
	if got[2].Addr != addr("2001:db8::2") || got[3].Addr != addr("2001:db8::3") {
		t.Errorf("v6 rows = %v, %v", got[2].Addr, got[3].Addr)
	}
}

// TestRowBatchAgreesWithForEachRow builds a randomized store — several
// interleaved writer commits with a mix of address, CNAME, NS, IPv4 and
// IPv6 rows — and demands that the ID-space batch resolve to exactly the
// presentation rows, in the same order.
func TestRowBatchAgreesWithForEachRow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	day := simtime.Day(7)
	kinds := []Kind{KindApexA, KindApexAAAA, KindWWWA, KindWWWAAAA, KindWWWCNAME, KindNS}
	total := 0
	for commit := 0; commit < 4; commit++ {
		w := s.NewWriter("com", day)
		for i := 0; i < 200; i++ {
			// A small domain pool so the same domain recurs across
			// commits (the interleaving DetectDay has to survive).
			dom := fmt.Sprintf("dom%02d.com", rng.Intn(40))
			k := kinds[rng.Intn(len(kinds))]
			switch k {
			case KindWWWCNAME, KindNS:
				w.AddStr(dom, k, fmt.Sprintf("target%03d.example.net", rng.Intn(100)))
			case KindApexAAAA, KindWWWAAAA:
				a := netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, byte(rng.Intn(256)), byte(rng.Intn(256))})
				w.AddAddr(dom, k, a, randASNs(rng))
			default:
				a := netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
				w.AddAddr(dom, k, a, randASNs(rng))
			}
			total++
		}
		w.Commit()
	}

	var want []Row
	s.ForEachRow("com", day, func(r Row) {
		r.ASNs = append([]uint32(nil), r.ASNs...)
		want = append(want, r)
	})
	if len(want) != total {
		t.Fatalf("ForEachRow yielded %d rows, want %d", len(want), total)
	}

	dict := s.Dict()
	b, ok := s.RowBatch("com", day)
	if !ok || b.Rows() != total {
		t.Fatalf("RowBatch: ok=%v rows=%d", ok, b.Rows())
	}
	for i := 0; i < b.Rows(); i++ {
		w := want[i]
		if dict.Str(b.Domains[i]) != w.Domain || b.Kinds[i] != w.Kind {
			t.Fatalf("row %d: (%s, %v) vs (%s, %v)", i, dict.Str(b.Domains[i]), b.Kinds[i], w.Domain, w.Kind)
		}
		if b.Strs[i] == NoStr {
			if w.Str != "" {
				t.Fatalf("row %d: ID form has no string, presentation has %q", i, w.Str)
			}
		} else if got := dict.Str(b.Strs[i]); got != w.Str {
			t.Fatalf("row %d: Str %q vs %q", i, got, w.Str)
		}
		if !reflect.DeepEqual(append([]uint32{}, b.ASNs(i)...), append([]uint32{}, w.ASNs...)) {
			t.Fatalf("row %d: ASNs %v vs %v", i, b.ASNs(i), w.ASNs)
		}
	}

	// The batch view resolves addresses identically (both families).
	for j := 0; j < b.Rows(); j++ {
		if r := b.Row(j, dict); r.Addr != want[j].Addr {
			t.Fatalf("row %d: Addr %v vs %v", j, r.Addr, want[j].Addr)
		}
	}
}

func randASNs(rng *rand.Rand) []uint32 {
	n := rng.Intn(3)
	asns := make([]uint32, n)
	for i := range asns {
		asns[i] = uint32(rng.Intn(64000)) + 1
	}
	return asns
}
