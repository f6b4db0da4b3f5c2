package follow

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dpsadopt/internal/api"
	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// TestFollowCursorSeededRestart is the satellite's happy path: a
// follower that drained a coord feed saves its cursor; a restarted
// follower whose boot index already holds everything (dpsapi reboots
// from -data) restores the cursor, resumes the journal at the saved
// offset, and re-detects nothing.
func TestFollowCursorSeededRestart(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	parts := coordParts([]string{"com", "net"}, 3)

	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f1, err := New(Config{Target: dir, Refs: refs, Sink: srv, CursorPath: CursorAuto})
	if err != nil {
		t.Fatal(err)
	}
	assembled := runCoordinator(t, dir, refs, parts)
	drain(t, f1)
	if st := f1.Status(); st.Applied != len(parts) {
		t.Fatalf("first instance: %+v", st)
	}
	cursor := filepath.Join(dir, "follower.cursor.json")
	if _, err := os.Stat(cursor); err != nil {
		t.Fatalf("CursorAuto wrote no cursor: %v", err)
	}
	wantOff, wantSeq := f1.reader.Offset()
	// Cursors written while the follower also tailed .dpsa files carry a
	// mode key; such a cursor must still restore.
	data, err := os.ReadFile(cursor)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cursor, bytes.Replace(data, []byte("{"), []byte(`{"mode": "coord",`), 1), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart, seeded the way dpsapi seeds after booting from a dataset.
	var keys []store.PartitionKey
	for _, p := range parts {
		keys = append(keys, store.PartitionKey{Source: p.Source, Day: p.Day})
	}
	srv2 := api.NewServer(api.NewIndex(assembled, refs), api.Config{ObservatoryOff: true})
	f2, err := New(Config{Target: dir, Refs: refs, Sink: srv2, CursorPath: CursorAuto})
	if err != nil {
		t.Fatal(err)
	}
	f2.Seed(keys)
	if n, err := f2.Poll(t.Context()); n != 0 || err != nil {
		t.Fatalf("restarted poll: n=%d err=%v", n, err)
	}
	// The journal reader sits exactly where the previous instance
	// stopped — history before the cursor was never re-read.
	if off, seq := f2.reader.Offset(); off != wantOff || seq != wantSeq {
		t.Fatalf("reader at (%d, %d), want resumed (%d, %d)", off, seq, wantOff, wantSeq)
	}
	if st := f2.Status(); st.Applied != 0 || st.Lag != 0 {
		t.Fatalf("restarted status: %+v", st)
	}
}

// TestFollowCursorUnseededRestart: restarted with an empty boot index
// (no -data on reboot), the cursor's applied partitions are requeued
// from their recorded spools and re-detected — the index converges
// without waiting for the journal to be replayed by a coordinator. The
// cursor is written without a sync, so power loss can leave it empty or
// half-written: such a cursor is ignored, and the restart rescans the
// journal to the same index.
func TestFollowCursorUnseededRestart(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(path string) error
	}{
		{"intact", func(string) error { return nil }},
		{"empty", func(path string) error { return os.Truncate(path, 0) }},
		{"torn", func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()/2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refs := core.MustGroundTruth()
			dir := t.TempDir()
			parts := coordParts([]string{"com"}, 3)

			srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
			f1, err := New(Config{Target: dir, Refs: refs, Sink: srv, CursorPath: CursorAuto})
			if err != nil {
				t.Fatal(err)
			}
			assembled := runCoordinator(t, dir, refs, parts)
			drain(t, f1)
			if err := tc.damage(filepath.Join(dir, "follower.cursor.json")); err != nil {
				t.Fatal(err)
			}

			srv2 := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
			f2, err := New(Config{Target: dir, Refs: refs, Sink: srv2, CursorPath: CursorAuto})
			if err != nil {
				t.Fatal(err)
			}
			drain(t, f2)
			if st := f2.Status(); st.Applied != len(parts) {
				t.Fatalf("unseeded restart applied %d, want %d: %+v", st.Applied, len(parts), st)
			}
			assertSameView(t, api.NewIndex(assembled, refs), srv2.Index())
		})
	}
}

// TestFollowCursorSkippedPersists: a permanently skipped partition
// (damaged spool) stays skipped across restarts instead of being
// re-attempted and re-skipped on every boot.
func TestFollowCursorSkippedPersists(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	parts := coordParts([]string{"com"}, 3)
	runCoordinator(t, dir, refs, parts)
	victim := filepath.Join(dir, "spool", "com."+simtime.Day(1).String()+".dpsa")
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f1, err := New(Config{Target: dir, Refs: refs, Sink: srv, CursorPath: CursorAuto})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, f1)
	if st := f1.Status(); st.Applied != 2 || st.Skipped != 1 {
		t.Fatalf("first instance: %+v", st)
	}

	srv2 := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f2, err := New(Config{Target: dir, Refs: refs, Sink: srv2, CursorPath: CursorAuto})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, f2)
	st := f2.Status()
	if st.Skipped != 1 {
		t.Fatalf("skip not restored: %+v", st)
	}
	if st.Applied != 2 {
		t.Fatalf("intact partitions not re-applied: %+v", st)
	}
}

// TestFollowCursorDisabledByDefault: without CursorPath nothing is
// written next to the target — the pre-cursor contract that the
// follower touches only its own state holds.
func TestFollowCursorDisabledByDefault(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	parts := coordParts([]string{"com"}, 2)
	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f, err := New(Config{Target: dir, Refs: refs, Sink: srv})
	if err != nil {
		t.Fatal(err)
	}
	runCoordinator(t, dir, refs, parts)
	drain(t, f)
	if _, err := os.Stat(filepath.Join(dir, "follower.cursor.json")); !os.IsNotExist(err) {
		t.Fatal("cursor written despite CursorPath being unset")
	}
}
