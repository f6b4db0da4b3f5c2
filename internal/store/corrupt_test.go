package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dpsadopt/internal/simtime"
)

// savedLayout describes a saved dataset's section boundaries: the
// directory as Open lists it, plus the directory offset from the footer.
type savedLayout struct {
	data       []byte
	partsStart uint64
	dirOff     uint64
	parts      []PartitionInfo
}

func saveWithLayout(t testing.TB, s *Store) (string, savedLayout) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lay := savedLayout{data: data, parts: r.Partitions()}
	lay.dirOff = binary.LittleEndian.Uint64(data[len(data)-footerSize:])
	lay.partsStart = lay.dirOff
	if len(lay.parts) > 0 {
		lay.partsStart = lay.parts[0].offset
	}
	return path, lay
}

// entryAt returns where directory entry i starts in the file, and
// fixedAt where its fixed-width fields do: day i64 at +0, rows u32 at +8,
// offset u64 at +12, length u64 at +20, crc u32 at +28.
func (lay savedLayout) entryAt(i int) int {
	at := int(lay.dirOff) + 4
	for _, p := range lay.parts[:i] {
		at += minDirEntry + len(p.Source)
	}
	return at
}

func (lay savedLayout) fixedAt(i int) int { return lay.entryAt(i) + 2 + len(lay.parts[i].Source) }

// reseal recomputes every checksum of a mutated copy whose section
// boundaries still sit where lay says: what a writer that lies
// consistently would have produced, so the mutation reaches the
// structural checks behind the CRCs.
func (lay savedLayout) reseal(mut []byte) []byte {
	for i, p := range lay.parts {
		binary.LittleEndian.PutUint32(mut[lay.fixedAt(i)+28:], crc32.ChecksumIEEE(mut[p.offset:p.offset+p.length]))
	}
	foot := len(mut) - footerSize
	binary.LittleEndian.PutUint32(mut[foot+8:], crc32.ChecksumIEEE(mut[headerSize:lay.partsStart]))
	binary.LittleEndian.PutUint32(mut[foot+12:], crc32.ChecksumIEEE(mut[lay.dirOff:foot]))
	return mut
}

// allRows snapshots every partition's rows for equality comparison.
func allRows(s *Store) map[PartitionKey][]Row {
	out := make(map[PartitionKey][]Row)
	for _, src := range s.Sources() {
		for _, day := range s.Days(src) {
			out[PartitionKey{src, day}] = rowsOf(s, src, day)
		}
	}
	return out
}

// fileVerdict is what the five ways into a .dpsa agreed on for one file.
type fileVerdict struct {
	opened bool                   // header, footer, directory and dictionary section accepted
	rows   map[PartitionKey][]Row // the partitions that decoded
	clean  bool                   // Verify passed: every byte matches its checksum
}

// readEverywhere drives one file through Open (+ AcquireBatch of every
// key), Load, LoadPartitions, LoadPartition, Directory and Verify, fails
// the test wherever two of them disagree — on taking the file, on which
// partitions survive, or on a single row — and returns what they agreed
// on. It is the one oracle behind the corruption table, the crafted-file
// table and FuzzOpen.
func readEverywhere(t testing.TB, path string) fileVerdict {
	t.Helper()
	var v fileVerdict
	v.clean = Verify(path) == nil
	dir, dirErr := Directory(path)
	full, loadErr := Load(path)

	r, err := Open(path)
	if err != nil {
		some, someErr := LoadPartitions(path, nil)
		if v.clean || dirErr == nil || full != nil || loadErr == nil || some != nil || someErr == nil {
			t.Fatalf("Open refused the file (%v) but Verify ok=%v, Directory err=%v, Load err=%v, LoadPartitions err=%v",
				err, v.clean, dirErr, loadErr, someErr)
		}
		return v
	}
	defer r.Close()
	v.opened = true
	if dirErr != nil || !reflect.DeepEqual(dir, r.Partitions()) {
		t.Fatalf("Directory = %v, %v; Open lists %v", dir, dirErr, r.Partitions())
	}

	// The streaming path says which partitions the file still holds.
	keys := r.Keys()
	v.rows = make(map[PartitionKey][]Row)
	dict, dictErr := r.SharedDict()
	for _, k := range keys {
		b, release, err := r.AcquireBatch(k.Source, k.Day)
		if err != nil {
			continue
		}
		var rows []Row
		for i := 0; i < b.Rows(); i++ {
			row := b.Row(i, dict)
			row.ASNs = append([]uint32(nil), row.ASNs...)
			rows = append(rows, row)
		}
		release()
		v.rows[k] = rows
	}

	some, someErr := LoadPartitions(path, keys)
	if dictErr != nil {
		// An unparseable dictionary leaves nothing to salvage.
		if len(v.rows) > 0 || full != nil || loadErr == nil || some != nil || someErr == nil {
			t.Fatalf("dictionary refused (%v) but rows came back: streaming %d, Load err=%v, LoadPartitions err=%v",
				dictErr, len(v.rows), loadErr, someErr)
		}
		return v
	}
	for name, got := range map[string]struct {
		st  *Store
		err error
	}{"Load": {full, loadErr}, "LoadPartitions": {some, someErr}} {
		if got.st == nil {
			t.Fatalf("%s refused a file Open took: %v", name, got.err)
		}
		if have := allRows(got.st); !reflect.DeepEqual(have, v.rows) {
			t.Fatalf("%s kept %v, AcquireBatch accepts %v", name, have, v.rows)
		}
		var pe *PartialLoadError
		switch {
		case got.err == nil && len(v.rows) != len(keys):
			t.Fatalf("%s dropped partitions without reporting them", name)
		case got.err != nil && !errors.As(got.err, &pe):
			t.Fatalf("%s: err = %v, want *PartialLoadError", name, got.err)
		case got.err != nil && len(pe.Quarantined) != len(keys)-len(v.rows):
			t.Fatalf("%s quarantined %d partitions, %d are unreadable", name, len(pe.Quarantined), len(keys)-len(v.rows))
		}
	}
	for _, k := range keys {
		one, err := LoadPartition(path, k.Source, k.Day)
		want, ok := v.rows[k]
		if ok != (err == nil) {
			t.Fatalf("LoadPartition(%s) err = %v, AcquireBatch accepted = %v", k, err, ok)
		}
		if ok && !reflect.DeepEqual(rowsOf(one, k.Source, k.Day), want) {
			t.Fatalf("LoadPartition(%s) rows differ from the streaming read", k)
		}
	}
	// Verify checks checksums, decoding nothing: it can pass a partition
	// whose writer lied consistently, never fail one that decodes.
	if !v.clean && len(v.rows) == len(keys) {
		t.Fatal("Verify failed a file whose every partition reads")
	}
	return v
}

// TestSaveCrashMidStreamKeepsOldFile is the non-atomic-save regression
// test: a save that dies mid-stream (here: the encoder fails partway
// through the dictionary) must leave the previously saved file intact
// and loadable, with no temp residue that a later save would trip over.
func TestSaveCrashMidStreamKeepsOldFile(t *testing.T) {
	s := populatedStore()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// An over-long dict string makes encode fail after the header and
	// part of the dictionary have already been written — the moral
	// equivalent of kill -9 halfway through the stream.
	bad := populatedStore()
	id(bad.Dict(), strings.Repeat("x", 1<<16+1))
	if err := bad.Save(path); err == nil {
		t.Fatal("mid-stream save failure not reported")
	}

	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, now) {
		t.Fatal("old file damaged by failed save")
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("old file no longer loads: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("failed save left temp residue %s", e.Name())
		}
	}

	// Crash residue from a kill -9 during a *previous* save (a stray
	// temp file) must not confuse loading or the next save.
	residue := filepath.Join(dir, "data.dpsa.tmp-crashed")
	if err := os.WriteFile(residue, orig[:len(orig)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("load with temp residue present: %v", err)
	}
	if err := s.Save(path); err != nil {
		t.Fatalf("save with temp residue present: %v", err)
	}
	if err := Verify(path); err != nil {
		t.Fatal(err)
	}
}

func TestVerify(t *testing.T) {
	s := populatedStore()
	path, lay := saveWithLayout(t, s)
	if err := Verify(path); err != nil {
		t.Fatalf("clean file: %v", err)
	}
	// A flipped byte inside the first partition fails verification.
	mut := append([]byte(nil), lay.data...)
	mut[lay.parts[0].offset+lay.parts[0].length/2] ^= 0x01
	bad := filepath.Join(t.TempDir(), "bad.dpsa")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Verify(bad); err == nil {
		t.Fatal("flipped partition byte passed Verify")
	}
	// Truncation fails verification.
	trunc := filepath.Join(t.TempDir(), "trunc.dpsa")
	if err := os.WriteFile(trunc, lay.data[:len(lay.data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Verify(trunc); err == nil {
		t.Fatal("truncated file passed Verify")
	}
}

// TestLoadSalvagesDamagedPartition: a torn/corrupt partition is
// quarantined with a descriptive error while the surviving partitions
// still load — the degrade-gracefully contract.
func TestLoadSalvagesDamagedPartition(t *testing.T) {
	s := populatedStore()
	_, lay := saveWithLayout(t, s)
	want := allRows(s)

	// Damage the second partition's bytes in place.
	victim := lay.parts[1]
	mut := append([]byte(nil), lay.data...)
	mut[victim.offset+victim.length/2] ^= 0xA5
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.dpsa")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Load(bad)
	var pe *PartialLoadError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialLoadError", err)
	}
	if got == nil {
		t.Fatal("salvaging load returned nil store")
	}
	if len(pe.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want 1 entry", pe.Quarantined)
	}
	q := pe.Quarantined[0]
	if q.Source != victim.Source || q.Day != victim.Day {
		t.Fatalf("quarantined %s/%s, want %s/%s", q.Source, q.Day, victim.Source, victim.Day)
	}
	if !strings.Contains(q.Err, "checksum mismatch") {
		t.Fatalf("quarantine reason %q not descriptive", q.Err)
	}
	// The quarantine directory holds the partition bytes + reason.
	if q.Path == "" {
		t.Fatal("no quarantine file written")
	}
	raw, err := os.ReadFile(q.Path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(raw)) != victim.length {
		t.Fatalf("quarantine file holds %d bytes, want %d", len(raw), victim.length)
	}
	reason, err := os.ReadFile(q.Path + ".reason")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "checksum mismatch") {
		t.Fatalf("reason file %q not descriptive", reason)
	}
	// Every surviving partition matches the original exactly.
	delete(want, victim.Key())
	if have := allRows(got); !reflect.DeepEqual(want, have) {
		t.Fatalf("surviving partitions differ:\nwant %v\ngot  %v", want, have)
	}

	// LoadPartition of the damaged partition reports the quarantine;
	// the other partitions still load individually.
	if _, err := LoadPartition(bad, victim.Source, victim.Day); err == nil {
		t.Fatal("damaged partition loaded without error")
	}
	ok := lay.parts[0]
	part, err := LoadPartition(bad, ok.Source, ok.Day)
	if err != nil {
		t.Fatal(err)
	}
	if w, h := rowsOf(s, ok.Source, ok.Day), rowsOf(part, ok.Source, ok.Day); !reflect.DeepEqual(w, h) {
		t.Fatal("surviving partition rows differ via LoadPartition")
	}
}

func TestQuarantineFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spool.dpsa")
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	moved, err := QuarantineFile(path, errors.New("checksum mismatch"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged file still present after quarantine")
	}
	if filepath.Dir(moved) != filepath.Join(dir, "quarantine") {
		t.Fatalf("moved to %s", moved)
	}
	reason, err := os.ReadFile(moved + ".reason")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "checksum mismatch") {
		t.Fatalf("reason = %q", reason)
	}
	// Quarantining the same file again reports where it already is.
	if again, err := QuarantineFile(path, errors.New("checksum mismatch")); err != nil || again != moved {
		t.Fatalf("second quarantine = %q, %v; want %q, nil", again, err, moved)
	}
	if _, err := QuarantineFile(filepath.Join(dir, "gone.dpsa"), errors.New("lost")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("quarantining a missing file: err = %v, want fs.ErrNotExist", err)
	}
}

// TestCorruptLoadTable is the section-boundary table: the saved file is
// truncated, bit-flipped, and zero-filled at and around every section
// boundary (header end, dictionary end, each partition start/end,
// directory, footer), and every way into the file — Open, Load,
// LoadPartition(s), Directory, Verify — must never panic, must agree with
// the others on whether the file and each partition are readable, and
// must never return wrong data: every mutation either fails with an error
// or yields exactly the original rows.
func TestCorruptLoadTable(t *testing.T) {
	s := populatedStore()
	_, lay := saveWithLayout(t, s)
	want := allRows(s)
	size := len(lay.data)

	boundaries := []int{0, 4, 8, int(lay.partsStart)}
	for _, p := range lay.parts {
		boundaries = append(boundaries, int(p.offset), int(p.offset+p.length))
	}
	boundaries = append(boundaries, int(lay.dirOff), size-footerSize, size-4, size)
	sort.Ints(boundaries)

	check := func(t *testing.T, name string, mut []byte) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "mut.dpsa")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		v := readEverywhere(t, p)
		for k, rows := range v.rows {
			if !reflect.DeepEqual(want[k], rows) {
				t.Fatalf("%s: partition %s silently returned wrong data", name, k)
			}
		}
		// Random damage cannot keep a checksum valid, so here Verify is
		// exactly "everything still reads".
		if v.clean != (v.opened && len(v.rows) == len(want)) {
			t.Fatalf("%s: Verify ok=%v, but opened=%v with %d/%d partitions readable",
				name, v.clean, v.opened, len(v.rows), len(want))
		}
	}

	for _, b := range boundaries {
		b := b
		t.Run(fmt.Sprintf("boundary%d", b), func(t *testing.T) {
			if b <= size {
				check(t, "truncate", append([]byte(nil), lay.data[:b]...))
			}
			for _, at := range []int{b - 1, b} {
				if at < 0 || at >= size {
					continue
				}
				mut := append([]byte(nil), lay.data...)
				mut[at] ^= 0x40
				check(t, fmt.Sprintf("bitflip@%d", at), mut)
			}
			if b < size {
				mut := append([]byte(nil), lay.data...)
				end := b + 8
				if end > size {
					end = size
				}
				for i := b; i < end; i++ {
					mut[i] = 0
				}
				check(t, fmt.Sprintf("zerofill@%d", b), mut)
			}
		})
	}
}

func TestAbsorb(t *testing.T) {
	s := populatedStore()
	dst := New()
	dst.Absorb(s)
	if !reflect.DeepEqual(allRows(s), allRows(dst)) {
		t.Fatal("absorbed rows differ from source")
	}
	// Absorbing a second, disjoint store adds its partitions alongside.
	other := New()
	w := other.NewWriter("org", simtime.Day(5))
	w.AddAddr("zed.org", KindApexA, addr("10.4.4.4"), []uint32{64500})
	w.Commit()
	dst.Absorb(other)
	if got := len(dst.Sources()); got != len(s.Sources())+1 {
		t.Fatalf("sources after second absorb = %v", dst.Sources())
	}
	if rows := rowsOf(dst, "org", 5); len(rows) != 1 || rows[0].Domain != "zed.org" {
		t.Fatalf("absorbed org rows = %+v", rows)
	}
}
