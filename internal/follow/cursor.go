package follow

import (
	"encoding/json"
	"os"
	"sort"

	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// The restart cursor is the follower's only durable state: the journal
// feed position plus a snapshot of which partitions it has applied,
// discovered, or permanently skipped. With it, a restarted follower
// resumes the feed where it stopped; without it (or when the snapshot no
// longer matches the journal on disk) the follower falls back to the
// pre-cursor behavior — replay from the start and dedupe.
//
// Correctness invariant: the saved journal offset is only restored when
// every partition the cursor claims applied is either re-seeded into the
// boot index or re-reachable through a recorded spool path. Otherwise a
// partition committed before the offset would be lost — neither in the
// index nor ever re-delivered by the feed — so the restore degrades to a
// full journal scan instead.

// cursorEntry is one partition in the cursor snapshot. Spool is set for
// partitions folded from a spool file (the path the follower used), empty
// for seeded ones.
type cursorEntry struct {
	Source string      `json:"source"`
	Day    simtime.Day `json:"day"`
	Spool  string      `json:"spool,omitempty"`
}

func (e cursorEntry) key() store.PartitionKey {
	return store.PartitionKey{Source: e.Source, Day: e.Day}
}

// cursorFile is the on-disk format (JSON, written atomically). Cursors
// written while the follower also tailed .dpsa files carry a "mode" key,
// which decoding ignores.
type cursorFile struct {
	JournalOffset int64         `json:"journal_offset,omitempty"`
	JournalSeq    uint64        `json:"journal_seq,omitempty"`
	Applied       []cursorEntry `json:"applied,omitempty"`
	Pending       []cursorEntry `json:"pending,omitempty"`
	Skipped       []cursorEntry `json:"skipped,omitempty"`
}

// saveCursor snapshots the follower's feed position after an apply or
// skip. Best-effort: a failed save costs a restarted follower some
// re-reading, never correctness, so it is logged and swallowed. The
// write is not synced: power loss can leave the cursor empty or
// half-written, which restoreCursor ignores in favour of a journal
// rescan. TestFollowCursorUnseededRestart shows that rescan reaches the
// same index, which is why the cursor needs no sync.
func (f *Follower) saveCursor() {
	if f.cursorPath == "" {
		return
	}
	var c cursorFile
	c.JournalOffset, c.JournalSeq = f.reader.Offset()
	for k := range f.applied {
		c.Applied = append(c.Applied, cursorEntry{Source: k.Source, Day: k.Day, Spool: f.appliedSpool[k]})
	}
	for k, spool := range f.pending {
		c.Pending = append(c.Pending, cursorEntry{Source: k.Source, Day: k.Day, Spool: spool})
	}
	for k := range f.skipped {
		c.Skipped = append(c.Skipped, cursorEntry{Source: k.Source, Day: k.Day})
	}
	for _, ents := range [][]cursorEntry{c.Applied, c.Pending, c.Skipped} {
		sort.Slice(ents, func(i, j int) bool {
			if ents[i].Source != ents[j].Source {
				return ents[i].Source < ents[j].Source
			}
			return ents[i].Day < ents[j].Day
		})
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return
	}
	tmp := f.cursorPath + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err == nil {
		err = os.Rename(tmp, f.cursorPath)
	}
	if err != nil {
		obs.Logger().Warn("follow: cursor save failed", "path", f.cursorPath, "err", err)
	}
}

// restoreCursor folds a previously saved cursor into a freshly booted
// follower (called once, from the first Poll, after Seed). Skipped
// partitions stay skipped, applied partitions absent from the boot seed
// are queued for re-detection from their recorded spools, pending
// discoveries are re-queued, and — only when nothing applied has become
// unreachable — the journal reader seeks to the saved offset so history
// before it is never re-read.
func (f *Follower) restoreCursor() {
	if f.cursorPath == "" {
		return
	}
	data, err := os.ReadFile(f.cursorPath)
	if err != nil {
		return // first boot: no cursor yet
	}
	log := obs.Logger().With("component", "follow", "cursor", f.cursorPath)
	var c cursorFile
	if err := json.Unmarshal(data, &c); err != nil {
		log.Warn("ignoring unreadable cursor", "err", err)
		return
	}
	for _, e := range c.Skipped {
		f.skipped[e.key()] = true
	}
	seekable := true
	requeued := 0
	for _, e := range c.Applied {
		k := e.key()
		if f.applied[k] || f.skipped[k] {
			continue
		}
		if e.Spool == "" {
			// Applied by the previous instance but not in this boot's
			// index and not re-reachable: only a full journal scan can
			// re-deliver it.
			seekable = false
			continue
		}
		f.pending[k] = e.Spool
		requeued++
	}
	for _, e := range c.Pending {
		k := e.key()
		if !f.applied[k] && !f.skipped[k] {
			f.pending[k] = e.Spool
		}
	}
	sought := false
	if seekable && c.JournalOffset > 0 {
		// Resume validates the offset against the journal on disk; a
		// replaced or truncated journal fails validation and the reader
		// stays at the start (replay + dedupe, the safe fallback).
		sought = f.reader.Resume(c.JournalOffset, c.JournalSeq)
	}
	log.Info("cursor restored",
		"journal_offset", c.JournalOffset, "seek", sought,
		"requeued", requeued, "pending", len(c.Pending), "skipped", len(c.Skipped))
}
