package coord

// The work ledger is an append-only JSONL journal: one record per state
// transition (add, lease, commit, requeue, fail), each carrying a
// monotonically increasing sequence number. Records that must survive a
// coordinator crash — commits and permanent failures — are fsync'd
// before the transition is acknowledged; cheap transitions (leases,
// requeues) are buffered by the OS and reconstructed conservatively on
// replay (a leased partition whose fate is unknown is simply requeued).
//
// Replay tolerates a torn tail: if the coordinator died mid-append, the
// final line is partial or fails to parse, and the journal truncates
// itself back to the last intact record instead of refusing to start.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Journal record types.
const (
	recAdd     = "add"     // partition registered in the ledger
	recLease   = "lease"   // partition leased to a worker
	recCommit  = "commit"  // partition durably committed (fsync'd)
	recRequeue = "requeue" // lease abandoned/expired, partition pending again
	recFail    = "fail"    // partition failed permanently (fsync'd)
)

type record struct {
	Seq     uint64 `json:"seq"`
	Type    string `json:"type"`
	Source  string `json:"source"`
	Day     int    `json:"day"`
	Lease   uint64 `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Spool   string `json:"spool,omitempty"`
	Err     string `json:"err,omitempty"`
}

type journal struct {
	f    *os.File
	seq  uint64 // last sequence number written
	path string
}

// scanJournal parses the intact prefix of journal bytes, expecting the
// first record to carry sequence startSeq+1. good is the byte offset
// just past the last intact record; torn reports whether a partial or
// unparseable final line (or a sequence discontinuity) stopped the scan
// early. Shared by the coordinator's replay (which truncates the torn
// tail) and the read-only JournalReader feed (which must not).
func scanJournal(data []byte, startSeq uint64) (recs []record, good int, torn bool) {
	seq := startSeq
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return recs, good, true // partial final line: append died mid-write
		}
		line := data[off : off+nl]
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Seq != seq+1 {
			// Unparseable or out-of-sequence: everything from here on is
			// the torn tail of a crashed append.
			return recs, good, true
		}
		seq = rec.Seq
		recs = append(recs, rec)
		off += nl + 1
		good = off
	}
	return recs, good, false
}

// openJournal opens (or creates) the journal at path, replays its
// records, and truncates any torn tail. It returns the journal ready
// for appending plus the intact records in order.
func openJournal(path string) (*journal, []record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("coord: read journal: %w", err)
	}

	recs, good, torn := scanJournal(data, 0)
	var seq uint64
	if len(recs) > 0 {
		seq = recs[len(recs)-1].Seq
	}
	if torn {
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, nil, fmt.Errorf("coord: truncate torn journal tail: %w", err)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("coord: open journal: %w", err)
	}
	return &journal{f: f, seq: seq, path: path}, recs, nil
}

// append writes one record, stamping the next sequence number. When
// sync is true the record is fsync'd before append returns — the
// caller must not acknowledge the transition until then.
func (j *journal) append(rec record, sync bool) error {
	j.seq++
	rec.Seq = j.seq
	buf := bufio.NewWriter(j.f)
	enc := json.NewEncoder(buf)
	if err := enc.Encode(&rec); err != nil {
		return fmt.Errorf("coord: journal append: %w", err)
	}
	if err := buf.Flush(); err != nil {
		return fmt.Errorf("coord: journal append: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("coord: journal fsync: %w", err)
		}
	}
	return nil
}

func (j *journal) close() error { return j.f.Close() }
