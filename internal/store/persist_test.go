package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpsadopt/internal/simtime"
)

func populatedStore() *Store {
	s := New()
	for day := simtime.Day(0); day < 3; day++ {
		w := s.NewWriter("com", day)
		w.AddAddr("foo.com", KindApexA, addr("10.0.0.1"), []uint32{13335})
		w.AddAddr("foo.com", KindApexAAAA, addr("2001:db8::7"), []uint32{13335})
		w.AddStr("foo.com", KindNS, "kate.ns.cloudflare.com")
		w.AddStr("bar.com", KindWWWCNAME, "bar.incapdns.net")
		w.AddAddr("bar.com", KindWWWA, addr("10.8.0.4"), []uint32{19551, 55002})
		w.Commit()
	}
	w := s.NewWriter("nl", 10)
	w.AddStr("x.nl", KindNS, "ns1.hostco1.net")
	w.Commit()
	return s
}

func rowsOf(s *Store, source string, day simtime.Day) []Row {
	var out []Row
	s.ForEachRow(source, day, func(r Row) {
		r.ASNs = append([]uint32(nil), r.ASNs...)
		out = append(out, r)
	})
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sources(), s.Sources()) {
		t.Fatalf("sources = %v", got.Sources())
	}
	for _, src := range s.Sources() {
		if !reflect.DeepEqual(got.Days(src), s.Days(src)) {
			t.Fatalf("%s days = %v", src, got.Days(src))
		}
		for _, day := range s.Days(src) {
			want := rowsOf(s, src, day)
			have := rowsOf(got, src, day)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("%s day %v rows differ:\nwant %+v\ngot  %+v", src, day, want, have)
			}
		}
	}
	// Statistics agree too.
	ws, gs := s.SourceStats("com"), got.SourceStats("com")
	if ws.DataPoints != gs.DataPoints || ws.UniqueSLDs != gs.UniqueSLDs {
		t.Errorf("stats differ: %+v vs %+v", ws, gs)
	}
}

func TestDirectory(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	dir, err := Directory(path)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, src := range s.Sources() {
		want += len(s.Days(src))
	}
	if len(dir) != want {
		t.Fatalf("directory has %d entries, want %d", len(dir), want)
	}
	for _, ent := range dir {
		if got := len(rowsOf(s, ent.Source, ent.Day)); got != ent.Rows {
			t.Errorf("%s/%v: directory says %d rows, store has %d", ent.Source, ent.Day, ent.Rows, got)
		}
	}
}

func TestLoadPartition(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, src := range s.Sources() {
		for _, day := range s.Days(src) {
			part, err := LoadPartition(path, src, day)
			if err != nil {
				t.Fatal(err)
			}
			if got := part.Sources(); len(got) != 1 || got[0] != src {
				t.Fatalf("sources = %v, want [%s]", got, src)
			}
			if got := part.Days(src); len(got) != 1 || got[0] != day {
				t.Fatalf("days = %v, want [%v]", got, day)
			}
			if want, have := rowsOf(s, src, day), rowsOf(part, src, day); !reflect.DeepEqual(want, have) {
				t.Fatalf("%s/%v rows differ:\nwant %+v\ngot  %+v", src, day, want, have)
			}
		}
	}
	if _, err := LoadPartition(path, "com", 99); err == nil {
		t.Fatal("missing partition accepted")
	}
	if _, err := LoadPartition(path, "org", 0); err == nil {
		t.Fatal("missing source accepted")
	}
}

func TestLoadPartitionsBatch(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	dir, err := Directory(path)
	if err != nil {
		t.Fatal(err)
	}
	// All partitions in one pass: contents identical to the source store.
	keys := make([]PartitionKey, 0, len(dir))
	for _, ent := range dir {
		keys = append(keys, ent.Key())
	}
	got, err := LoadPartitions(path, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if want, have := rowsOf(s, k.Source, k.Day), rowsOf(got, k.Source, k.Day); !reflect.DeepEqual(want, have) {
			t.Fatalf("%s rows differ:\nwant %+v\ngot  %+v", k, want, have)
		}
	}
	// A subset loads only the subset.
	sub, err := LoadPartitions(path, keys[:1])
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, src := range sub.Sources() {
		total += len(sub.Days(src))
	}
	if total != 1 {
		t.Fatalf("subset load holds %d partitions, want 1", total)
	}
	// A missing key fails the whole batch with a descriptive error.
	if _, err := LoadPartitions(path, []PartitionKey{keys[0], {"org", 99}}); err == nil {
		t.Fatal("missing partition accepted in batch")
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := populatedStore()
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.dpsa"), filepath.Join(dir, "b.dpsa")
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("two saves of the same store produced different bytes")
	}
}

// TestSaveFileMode: a saved dataset is world-readable (0644), not the
// 0600 of the temp file it is written through, so a server running as
// another user can open it.
func TestSaveFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := populatedStore().Save(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Fatalf("saved dataset mode %v, want %v", got, os.FileMode(0o644))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	// want is what the refusal must say ("" = any error will do). Versions
	// 2 and 3 were readable once; they are an unsupported version now, not
	// a crash and not a guess at the layout.
	cases := map[string]struct{ data, want string }{
		"empty.dpsa": {"", ""},
		"short.dpsa": {"DP", ""},
		"magic.dpsa": {"NOPE\x00\x00\x00\x00", "not a dataset file"},
		"ver.dpsa":   {"DPSA\xff\x00\x00\x00", "unsupported version 255"},
		"v2.dpsa":    {"DPSA\x02\x00\x00\x00", "unsupported version 2"},
		"v3.dpsa":    {"DPSA\x03\x00\x00\x00" + strings.Repeat("\x00", footerSize-len(dirMagic)) + dirMagic, "unsupported version 3"},
	}
	for name, c := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, c.want)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.dpsa")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 3} {
		trunc := filepath.Join(t.TempDir(), "trunc.dpsa")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(trunc); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadValidatesBlocks(t *testing.T) {
	// Flip bytes in a saved file; Load must never panic.
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		p := filepath.Join(t.TempDir(), "mut.dpsa")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(p)
		if err != nil || st == nil {
			continue // rejected: fine
		}
		// Accepted: scanning must still be safe.
		for _, src := range st.Sources() {
			for _, day := range st.Days(src) {
				st.ForEachRow(src, day, func(Row) {})
			}
		}
	}
}
