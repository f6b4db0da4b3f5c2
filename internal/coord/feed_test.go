package coord

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// appendJournal opens the journal under dir, appends the records, and
// closes it — a miniature coordinator writing one transition at a time.
func appendJournal(t *testing.T, dir string, recs ...record) {
	t.Helper()
	j, _, err := openJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalReaderIncremental(t *testing.T) {
	dir := t.TempDir()
	r := NewJournalReader(dir)

	// No journal yet: nothing to report, no error.
	if recs, err := r.Next(); err != nil || len(recs) != 0 {
		t.Fatalf("empty dir: recs=%v err=%v", recs, err)
	}

	appendJournal(t, dir,
		record{Type: recAdd, Source: "com", Day: 1},
		record{Type: recLease, Source: "com", Day: 1, Lease: 1, Attempt: 1},
	)
	recs, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != RecAdd || recs[1].Type != RecLease {
		t.Fatalf("first batch = %+v", recs)
	}
	if recs[1].Seq != 2 || recs[1].Source != "com" || int(recs[1].Day) != 1 {
		t.Fatalf("lease record = %+v", recs[1])
	}

	// Nothing new: empty again.
	if recs, err := r.Next(); err != nil || len(recs) != 0 {
		t.Fatalf("idle poll: recs=%v err=%v", recs, err)
	}

	// More appends arrive only in the next batch, continuing the seq.
	appendJournal(t, dir,
		record{Type: recCommit, Source: "com", Day: 1, Lease: 1, Attempt: 1, Spool: "spool/com.x.dpsa"},
	)
	recs, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecCommit || recs[0].Seq != 3 || recs[0].Spool != "spool/com.x.dpsa" {
		t.Fatalf("second batch = %+v", recs)
	}
	if recs[0].Partition() != (Partition{Source: "com", Day: 1}) {
		t.Fatalf("partition = %v", recs[0].Partition())
	}
}

func TestJournalReaderTornTail(t *testing.T) {
	dir := t.TempDir()
	appendJournal(t, dir, record{Type: recAdd, Source: "com", Day: 1})

	// A torn append: partial JSON with no trailing newline.
	path := JournalPath(dir)
	torn := []byte(`{"seq":2,"type":"commit","source":"com"`)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	r := NewJournalReader(dir)
	recs, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecAdd {
		t.Fatalf("torn read delivered %+v", recs)
	}
	// The reader is read-only: the torn tail is still on disk.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("JournalReader mutated the journal")
	}

	// Once the append completes, the record is delivered.
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(",\"day\":1,\"spool\":\"s\"}\n")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecCommit || recs[0].Seq != 2 {
		t.Fatalf("completed append delivered %+v", recs)
	}
}

func TestJournalReaderResetOnShrink(t *testing.T) {
	dir := t.TempDir()
	appendJournal(t, dir,
		record{Type: recAdd, Source: "com", Day: 1},
		record{Type: recAdd, Source: "com", Day: 2},
	)
	r := NewJournalReader(dir)
	if recs, err := r.Next(); err != nil || len(recs) != 2 {
		t.Fatalf("initial read: recs=%v err=%v", recs, err)
	}

	// The journal is replaced by a shorter fresh run (seq restarts at 1).
	if err := os.Remove(JournalPath(dir)); err != nil {
		t.Fatal(err)
	}
	appendJournal(t, dir, record{Type: recAdd, Source: "nl", Day: 7})
	recs, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Source != "nl" || recs[0].Seq != 1 {
		t.Fatalf("post-shrink read = %+v", recs)
	}
}

func TestReplayLedgerMatchesCoordinator(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "coord")
	parts := testParts([]string{"com", "nl"}, 3)
	c := runToCompletion(t, fastCfg(dir), parts)
	want := c.Ledger()

	recs, err := NewJournalReader(dir).Next()
	if err != nil {
		t.Fatal(err)
	}
	got := ReplayLedger(recs)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("ledger mismatch:\ncoordinator %+v\nreplay      %+v", want, got)
	}
}

func TestReplayLedgerStates(t *testing.T) {
	recs := []Record{
		{Seq: 1, Type: RecAdd, Source: "com", Day: 1},
		{Seq: 2, Type: RecAdd, Source: "com", Day: 2},
		{Seq: 3, Type: RecLease, Source: "com", Day: 1, Lease: 1, Attempt: 1},
		{Seq: 4, Type: RecLease, Source: "com", Day: 2, Lease: 2, Attempt: 1},
		{Seq: 5, Type: RecRequeue, Source: "com", Day: 2, Attempt: 1, Err: "lease expired"},
		{Seq: 6, Type: RecCommit, Source: "com", Day: 1, Lease: 1, Attempt: 1, Spool: "s1"},
		{Seq: 7, Type: RecLease, Source: "com", Day: 2, Lease: 3, Attempt: 2},
		{Seq: 8, Type: RecFail, Source: "com", Day: 2, Attempt: 2, Err: "boom"},
		{Seq: 9, Type: RecAdd, Source: "nl", Day: 1},
	}
	got := ReplayLedger(recs)
	want := []PartitionStatus{
		{Source: "com", Day: "2015-03-02", State: StateCommitted, Attempts: 1, Spool: "s1"},
		{Source: "com", Day: "2015-03-03", State: StateFailed, Attempts: 2, Err: "boom"},
		{Source: "nl", Day: "2015-03-02", State: StatePending},
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("ledger:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestJournalReaderResume: a position previously reported by Offset can
// be restored into a fresh reader (the follower restart cursor), and any
// cursor that does not exactly match the journal on disk is rejected —
// the reader stays at the start and replays.
func TestJournalReaderResume(t *testing.T) {
	dir := t.TempDir()
	appendJournal(t, dir,
		record{Type: recAdd, Source: "com", Day: 1},
		record{Type: recLease, Source: "com", Day: 1, Lease: 1, Attempt: 1},
		record{Type: recCommit, Source: "com", Day: 1, Lease: 1, Attempt: 1, Spool: "spool/a.dpsa"},
	)
	a := NewJournalReader(dir)
	if recs, err := a.Next(); err != nil || len(recs) != 3 {
		t.Fatalf("prime read: %v %v", recs, err)
	}
	off, seq := a.Offset()

	// Valid cursor: the fresh reader delivers only what comes after it.
	b := NewJournalReader(dir)
	if !b.Resume(off, seq) {
		t.Fatalf("Resume(%d, %d) rejected a valid cursor", off, seq)
	}
	appendJournal(t, dir, record{Type: recAdd, Source: "net", Day: 2})
	recs, err := b.Next()
	if err != nil || len(recs) != 1 || recs[0].Source != "net" || recs[0].Seq != seq+1 {
		t.Fatalf("post-resume read = %+v err=%v", recs, err)
	}

	// Offsets that do not land on a record boundary, wrong sequence
	// numbers, and zero values are all rejected.
	for _, bad := range []struct {
		off int64
		seq uint64
	}{{off - 1, seq}, {off + 1, seq}, {off, seq + 1}, {off, 0}, {0, seq}, {-1, seq}} {
		r := NewJournalReader(dir)
		if r.Resume(bad.off, bad.seq) {
			t.Fatalf("Resume(%d, %d) accepted a bogus cursor", bad.off, bad.seq)
		}
		if o, s := r.Offset(); o != 0 || s != 0 {
			t.Fatalf("rejected Resume moved the reader to (%d, %d)", o, s)
		}
	}

	// A journal replaced since the cursor was written (same dir, fresh
	// run, different records — here, different line lengths, so the old
	// offset no longer lands on a record boundary) fails validation; the
	// reader replays from the start instead of wedging mid-line. A
	// replacement whose bytes coincidentally align record-for-record can
	// pass positional validation — the follower's applied-set dedupe is
	// the backstop there.
	if err := os.Remove(JournalPath(dir)); err != nil {
		t.Fatal(err)
	}
	appendJournal(t, dir,
		record{Type: recAdd, Source: "example", Day: 9},
		record{Type: recLease, Source: "example", Day: 9, Lease: 1, Attempt: 1},
		record{Type: recCommit, Source: "example", Day: 9, Lease: 1, Attempt: 1, Spool: "spool/other-run.dpsa"},
		record{Type: recAdd, Source: "example", Day: 10},
	)
	c := NewJournalReader(dir)
	if c.Resume(off, seq) {
		t.Fatal("Resume accepted a cursor from a replaced journal")
	}
	if recs, err := c.Next(); err != nil || len(recs) != 4 {
		t.Fatalf("replay after rejected resume = %d recs, err=%v", len(recs), err)
	}

	// Truncated below the cursor: rejected.
	d := NewJournalReader(dir)
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dir), data[:len(data)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	if d.Resume(int64(len(data)), 4) {
		t.Fatal("Resume accepted a cursor beyond EOF")
	}
}

// TestResolveSpoolRelativeJournal: a journal written by a coordinator in
// another working directory records spool paths relative to that
// directory. Whoever reads the coordination directory later — a resumed
// coordinator's Assemble, the follower, dpsdata -ledger — resolves each
// committed spool to its layout path under the directory instead.
func TestResolveSpoolRelativeJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "spool"), 0o755); err != nil {
		t.Fatal(err)
	}
	parts := testParts([]string{"com"}, 2)
	var recs []record
	for i, p := range parts {
		s, _ := synthWork(nil, p, 1)
		if err := s.Save(SpoolPath(dir, p)); err != nil {
			t.Fatal(err)
		}
		recorded := filepath.Join("elsewhere", "spool", filepath.Base(SpoolPath(dir, p)))
		lease := uint64(i + 1)
		recs = append(recs,
			record{Type: recAdd, Source: p.Source, Day: int(p.Day)},
			record{Type: recLease, Source: p.Source, Day: int(p.Day), Lease: lease, Attempt: 1},
			record{Type: recCommit, Source: p.Source, Day: int(p.Day), Lease: lease, Attempt: 1, Spool: recorded},
		)
	}
	appendJournal(t, dir, recs...)

	feed, err := NewJournalReader(dir).Next()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range feed {
		if rec.Type != RecCommit {
			continue
		}
		if got, want := ResolveSpool(dir, rec.Partition(), rec.Spool), SpoolPath(dir, rec.Partition()); got != want {
			t.Errorf("%s: resolved %q, want the layout path %q", rec.Partition(), got, want)
		}
	}

	c, err := New(fastCfg(dir), parts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	assertExactlyOnce(t, c, parts)

	// Without a layout file the recorded path is the only lead, and
	// without either the layout path is still the answer to report.
	missing := Partition{Source: "net", Day: 9}
	if got := ResolveSpool(dir, missing, "elsewhere/net.x.dpsa"); got != "elsewhere/net.x.dpsa" {
		t.Errorf("missing layout spool resolved to %q, want the recorded path", got)
	}
	if got := ResolveSpool(dir, missing, ""); got != SpoolPath(dir, missing) {
		t.Errorf("nothing recorded resolved to %q, want the layout path", got)
	}
}
