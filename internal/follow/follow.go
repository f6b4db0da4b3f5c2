// Package follow is the live ingestion tier: it turns a batch-built
// dpsapi into a continuously updated one. A Follower tails a dpscoord
// coordination directory — the journal doubles as a change feed of
// committed (source, day) partitions, read via coord.JournalReader —
// verifies each partition's spool CRCs, runs ID-native detection on just
// the new partitions, and folds the results into the serving index
// through api's copy-on-write delta path. The publish is one atomic
// pointer swap (each index generation memoizes its own answers), so the
// service keeps answering at full rate while a freshly measured day becomes queryable
// within one poll interval of its commit.
//
// The follower is strictly read-only toward its feed: it reads through
// store.Open, which never writes, so it never truncates the
// coordinator's journal and never moves its spools. A partition that
// fails verification is logged, counted, and skipped permanently
// (commits are terminal; a torn spool at rest will not heal) — the day
// serves degraded rather than wedging the feed, exactly like
// coord.Assemble's quarantine policy, and the operator sees it in
// /v1/stats freshness (skipped_partitions).
//
// The one file a follower does write is its own restart cursor
// (Config.CursorPath): a small JSON snapshot of the journal offset and
// the applied/pending/skipped partition sets, saved after every apply,
// so a restarted follower resumes the feed where it left off instead of
// re-reading (and re-detecting) the whole history. The cursor lives
// beside the feed but is never part of it — the coordinator ignores it.
package follow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dpsadopt/internal/api"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/core"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/store"
)

// Sink is where applied deltas land. *api.Server satisfies it: Index
// resolves the served snapshot and Publish swaps in its successor, which
// already holds fresh answer slots for everything the delta touched.
type Sink interface {
	Index() *api.Index
	Publish(*api.Index, *api.Delta)
}

// Config parameterises a follower.
type Config struct {
	// Target is the feed: a dpscoord coordination directory, whose
	// journal lists the commits and whose spool files hold them. A
	// not-yet-existing directory is legal — the follower waits for it.
	Target string
	// Refs is the provider ground truth detection runs against; it must
	// be the same References the sink's index was built with.
	Refs *core.References
	// Sink receives published index generations. Required.
	Sink Sink
	// Poll is the feed polling interval (default 500ms).
	Poll time.Duration
	// Workers bounds the catch-up detect concurrency (default 4).
	Workers int
	// MaxBatch bounds how many partitions one apply folds in: catch-up
	// publishes every MaxBatch partitions instead of holding the first
	// results hostage to the last (default 64).
	MaxBatch int
	// CursorPath is where the restart cursor is persisted. "" disables
	// the cursor (every restart replays the feed); CursorAuto puts it at
	// <Target>/follower.cursor.json; anything else is used verbatim.
	CursorPath string
}

// CursorAuto asks New to derive the cursor path from the target.
const CursorAuto = "auto"

// Status is a point-in-time snapshot of the follower, safe to read
// while Run is live.
type Status struct {
	Target    string    `json:"target"`
	Epoch     uint64    `json:"epoch"`
	Applied   int       `json:"partitions_applied"`
	Skipped   int       `json:"partitions_skipped"`
	Lag       int       `json:"lag_partitions"`
	LastApply time.Time `json:"last_apply"`
	LastErr   string    `json:"last_err,omitempty"`
}

// Follower tails one feed and drives one sink. Run (or Poll) must be
// called from a single goroutine; Status and Freshness are safe from
// any.
type Follower struct {
	cfg    Config
	reader *coord.JournalReader

	// Feed bookkeeping, owned by the polling goroutine.
	pending map[store.PartitionKey]string // discovered, not yet applied (value: spool path)
	applied map[store.PartitionKey]bool
	skipped map[store.PartitionKey]bool
	// appliedSpool remembers the spool each partition was folded from, so
	// the cursor can re-reach it after a restart whose boot index doesn't
	// contain it.
	appliedSpool map[store.PartitionKey]string
	// Restart cursor: resolved path ("" when disabled) and whether the
	// one-time restore ran (lazily, at the first Poll, after Seed).
	cursorPath string
	restored   bool

	mu sync.Mutex
	st Status
}

// New builds a follower. A target that exists and is not a directory,
// or that names a .dpsa dataset, is refused: only a coordination
// directory is a feed.
func New(cfg Config) (*Follower, error) {
	if cfg.Target == "" {
		return nil, errors.New("follow: Config.Target required")
	}
	if cfg.Sink == nil {
		return nil, errors.New("follow: Config.Sink required")
	}
	if cfg.Refs == nil {
		return nil, errors.New("follow: Config.Refs required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if fi, err := os.Stat(cfg.Target); err == nil && !fi.IsDir() || strings.HasSuffix(cfg.Target, ".dpsa") {
		return nil, fmt.Errorf("follow: %s is not a coordination directory", cfg.Target)
	}
	f := &Follower{
		cfg:          cfg,
		reader:       coord.NewJournalReader(cfg.Target),
		pending:      make(map[store.PartitionKey]string),
		applied:      make(map[store.PartitionKey]bool),
		skipped:      make(map[store.PartitionKey]bool),
		appliedSpool: make(map[store.PartitionKey]string),
		st:           Status{Target: cfg.Target},
	}
	switch cfg.CursorPath {
	case "":
	case CursorAuto:
		f.cursorPath = filepath.Join(cfg.Target, "follower.cursor.json")
	default:
		f.cursorPath = cfg.CursorPath
	}
	return f, nil
}

// Seed marks partitions as already applied — the ones resident in the
// sink's boot index — so the first poll does not re-fold them.
func (f *Follower) Seed(keys []store.PartitionKey) {
	for _, k := range keys {
		f.applied[k] = true
	}
}

// Run polls the feed until ctx is cancelled, draining all discovered
// partitions batch by batch each tick. Transient errors are logged and
// retried on the next tick; Run only returns ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	log := obs.Logger().With("component", "follow", "target", f.cfg.Target)
	log.Info("follower started", "poll", f.cfg.Poll.String())
	tick := time.NewTicker(f.cfg.Poll)
	defer tick.Stop()
	for {
		for {
			n, err := f.Poll(ctx)
			if err != nil {
				log.Warn("poll failed; will retry", "err", err)
				f.setErr(err)
				break
			}
			if n > 0 {
				st := f.Status()
				log.Info("applied partitions", "applied", n, "epoch", st.Epoch, "lag", st.Lag)
			}
			if n < f.cfg.MaxBatch {
				break // feed drained (or short batch): back to the ticker
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Poll runs one discover→verify→detect→apply→publish cycle of at most
// MaxBatch partitions and returns how many were applied. It is the
// synchronous unit Run loops over; tests drive it directly.
func (f *Follower) Poll(ctx context.Context) (int, error) {
	if !f.restored {
		// One-time cursor restore, lazy so it runs after the boot Seed —
		// the seed tells the restore which applied partitions are already
		// in the serving index and which must be re-folded.
		f.restored = true
		f.restoreCursor()
	}
	if err := f.discover(); err != nil {
		return 0, err
	}
	if len(f.pending) == 0 {
		f.setLag(0)
		return 0, nil
	}

	// Oldest days first: catch-up replays history in order, so interval
	// packing mostly extends instead of backfilling.
	batch := make([]store.PartitionKey, 0, len(f.pending))
	for k := range f.pending {
		batch = append(batch, k)
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].Day != batch[j].Day {
			return batch[i].Day < batch[j].Day
		}
		return batch[i].Source < batch[j].Source
	})
	if len(batch) > f.cfg.MaxBatch {
		batch = batch[:f.cfg.MaxBatch]
	}

	ups := f.loadBatch(ctx, batch)
	for _, u := range ups {
		k := store.PartitionKey{Source: u.Source, Day: u.Day}
		f.appliedSpool[k] = f.pending[k]
		delete(f.pending, k)
		f.applied[k] = true
	}
	if len(ups) == 0 {
		// Every partition in the batch was damaged; lag excludes them now.
		f.setLag(len(f.pending))
		f.saveCursor()
		return 0, nil
	}

	next, delta := f.cfg.Sink.Index().Apply(ups)
	f.cfg.Sink.Publish(next, delta)

	mApplied.Add(int64(len(ups)))
	f.mu.Lock()
	f.st.Epoch = next.Epoch()
	f.st.Applied += len(ups)
	f.st.Skipped = len(f.skipped)
	f.st.Lag = len(f.pending)
	f.st.LastApply = time.Now()
	f.st.LastErr = ""
	f.mu.Unlock()
	f.saveCursor()
	return len(ups), nil
}

// discover folds newly journaled commits into the pending set.
func (f *Follower) discover() error {
	recs, err := f.reader.Next()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Type != coord.RecCommit {
			continue
		}
		k := store.PartitionKey{Source: rec.Source, Day: rec.Day}
		if f.applied[k] || f.skipped[k] {
			continue
		}
		f.pending[k] = coord.ResolveSpool(f.cfg.Target, rec.Partition(), rec.Spool)
	}
	return nil
}

// loadBatch detects spool partitions with bounded concurrency via
// the streaming read path: store.Open reads only the spool's footer and
// directory, and core.DetectPartition preads, CRC-checks, and decodes
// exactly the committed partition in one pass — half the I/O of the old
// Verify-then-Load sequence, and no resident *store.Store per spool.
// Damaged spools are skipped permanently (and counted); the survivors
// come back as updates.
func (f *Follower) loadBatch(ctx context.Context, batch []store.PartitionKey) []api.PartitionUpdate {
	log := obs.Logger().With("component", "follow")
	type result struct {
		up   api.PartitionUpdate
		ok   bool
		fail string
	}
	results := make([]result, len(batch))
	workers := f.cfg.Workers
	if workers > len(batch) {
		workers = len(batch)
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if ctx.Err() != nil {
					continue
				}
				k := batch[i]
				spool := f.pending[k]
				r, err := store.Open(spool)
				if err != nil {
					results[i].fail = fmt.Sprintf("open %s: %v", spool, err)
					continue
				}
				det, err := core.DetectPartition(r, k.Source, k.Day, f.cfg.Refs)
				// Every spool has its own dictionary: drop its matcher
				// with the reader, or Refs grows by one per partition.
				if dict, derr := r.SharedDict(); derr == nil {
					f.cfg.Refs.Forget(dict)
				}
				r.Close()
				if err != nil {
					results[i].fail = fmt.Sprintf("detect %s: %v", spool, err)
					continue
				}
				results[i] = result{
					up: api.PartitionUpdate{Source: k.Source, Day: k.Day, Det: det},
					ok: true,
				}
			}
		}()
	}
	for i := range batch {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	ups := make([]api.PartitionUpdate, 0, len(batch))
	for i, r := range results {
		switch {
		case r.ok:
			ups = append(ups, r.up)
		case r.fail != "":
			f.skip(batch[i], r.fail, log)
		default:
			// Cancelled before processing: leave pending for next poll.
		}
	}
	return ups
}

// skip permanently abandons a damaged partition.
func (f *Follower) skip(k store.PartitionKey, cause string, log interface {
	Warn(string, ...any)
}) {
	f.skipped[k] = true
	delete(f.pending, k)
	log.Warn("skipping damaged partition", "partition", k.String(), "cause", cause)
}

// Status returns a snapshot of the follower's progress.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// Freshness adapts Status to the /v1/stats freshness block; install it
// with api.Server.SetFreshnessFunc.
func (f *Follower) Freshness() *api.Freshness {
	st := f.Status()
	fr := &api.Freshness{
		Following:  st.Target,
		Epoch:      st.Epoch,
		Partitions: st.Applied,
		Lag:        st.Lag,
		Skipped:    st.Skipped,
	}
	if !st.LastApply.IsZero() {
		fr.LastApply = st.LastApply.UTC().Format(time.RFC3339)
	}
	return fr
}

func (f *Follower) setLag(n int) {
	f.mu.Lock()
	f.st.Lag = n
	f.st.Skipped = len(f.skipped)
	f.mu.Unlock()
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.st.LastErr = err.Error()
	f.mu.Unlock()
}
