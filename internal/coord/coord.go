// Package coord is the fault-tolerant measurement coordination plane.
// The paper's crawl ran for 1.5 years across many vantage machines; any
// of them could crash, stall, or double-report a day. This package
// reproduces that operational layer in miniature: a coordinator owns a
// durable work ledger of (source, day) partitions and leases them to N
// workers, each running the measure→save path for one partition at a
// time. Leases carry fencing tokens and expire when heartbeats stop, so
// an abandoned partition is re-leased to another worker; commits are
// idempotent and journaled with fsync before they are acknowledged, so
// every partition lands in the final dataset exactly once even when a
// worker crashes after saving its spool but before acking, when a
// stalled worker's stale commit races a re-lease, when a commit ack is
// replayed, or when the coordinator itself dies and replays its journal.
//
// The work ledger is an append-only JSONL journal (journal.go). Worker
// output is spooled as one checksummed .dpsa file per partition;
// Assemble folds the committed spools into a single store, quarantining
// any spool torn at rest (store's CRC layer catches it) and reporting
// the damage so the day can be marked degraded rather than silently
// incomplete.
package coord

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// Partition is the unit of leased work: one source's zone snapshot on
// one measurement day.
type Partition struct {
	Source string
	Day    simtime.Day
}

func (p Partition) String() string { return fmt.Sprintf("%s/%s", p.Source, p.Day) }

// WorkFunc measures one partition and returns its rows. attempt is
// 1-based; retried partitions see an increasing attempt number.
type WorkFunc func(ctx context.Context, p Partition, attempt int) (*store.Store, error)

// Config parameterises a coordinator.
type Config struct {
	// Dir is the coordination directory: journal.jsonl, spool/, and (on
	// damage) quarantine/ live under it. Required.
	Dir string
	// Workers is how many workers Run spawns (default 1).
	Workers int
	// LeaseTTL is how long a lease survives without a heartbeat
	// (default 1s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the worker heartbeat interval (default TTL/4).
	HeartbeatEvery time.Duration
	// MaxAttempts is how many leases a partition may consume before it
	// is failed permanently (default 6).
	MaxAttempts int
	// RetryBackoff is the base requeue delay after a worker error; it
	// doubles per attempt (default 25ms).
	RetryBackoff time.Duration
	// Work measures one partition. Required.
	Work WorkFunc
	// Faults injects coordination-plane chaos (nil: none).
	Faults *chaos.CoordFaults
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
}

// Sentinel errors of the commit protocol.
var (
	// ErrLeaseLost rejects an action whose lease was fenced off: the
	// holder stalled past the TTL and the partition was re-leased (or
	// already resolved). The stale worker must abandon the partition.
	ErrLeaseLost = errors.New("coord: lease lost (fenced)")
	// ErrRestart reports that the coordinator crashed (chaos-injected)
	// and must be rebuilt from its journal: construct a new Coordinator
	// over the same Dir and Run it again.
	ErrRestart = errors.New("coord: coordinator restart required")
	// ErrPartitionsFailed reports that some partitions exhausted
	// MaxAttempts; the ledger has the details.
	ErrPartitionsFailed = errors.New("coord: partitions failed permanently")
)

// Partition states in the ledger.
const (
	StatePending   = "pending"
	StateLeased    = "leased"
	StateCommitted = "committed"
	StateFailed    = "failed"
)

type partState struct {
	state        string
	leaseID      uint64
	expiry       time.Time
	attempts     int       // leases granted so far
	nextEligible time.Time // backoff gate for the next lease
	spool        string
	lastErr      string
}

// PartitionStatus is one ledger row, exported for -ledger-out dumps and
// exactly-once assertions in tests.
type PartitionStatus struct {
	Source   string `json:"source"`
	Day      string `json:"day"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	Spool    string `json:"spool,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Stats summarises the ledger.
type Stats struct {
	Partitions int `json:"partitions"`
	Pending    int `json:"pending"`
	Leased     int `json:"leased"`
	Committed  int `json:"committed"`
	Failed     int `json:"failed"`
}

// DamagedPartition reports a committed spool found corrupt at assembly
// and moved into quarantine; its day must be marked degraded.
type DamagedPartition struct {
	Partition
	QuarantinePath string
	Err            string
}

// Coordinator owns the ledger and the lease state machine.
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
	cond       *sync.Cond
	parts      map[Partition]*partState
	order      []Partition
	nextLease  uint64
	jr         *journal
	restarting bool
	runCtx     context.Context
}

// New builds a coordinator over cfg.Dir, creating the directory layout
// on first use and replaying the journal if one exists: committed and
// failed partitions keep their fate, leased partitions are requeued
// (their workers are gone). parts not yet in the journal are added.
func New(cfg Config, parts []Partition) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, errors.New("coord: Config.Dir required")
	}
	if cfg.Work == nil {
		return nil, errors.New("coord: Config.Work required")
	}
	cfg.applyDefaults()
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "spool"), 0o755); err != nil {
		return nil, fmt.Errorf("coord: create spool dir: %w", err)
	}

	jr, recs, err := openJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:   cfg,
		parts: make(map[Partition]*partState),
		jr:    jr,
	}
	c.cond = sync.NewCond(&c.mu)

	for _, rec := range recs {
		p := Partition{Source: rec.Source, Day: simtime.Day(rec.Day)}
		st := c.parts[p]
		if st == nil {
			st = &partState{state: StatePending}
			c.parts[p] = st
			c.order = append(c.order, p)
		}
		switch rec.Type {
		case recAdd:
			// registration only
		case recLease:
			st.state = StateLeased
			st.leaseID = rec.Lease
			st.attempts = rec.Attempt
			if rec.Lease > c.nextLease {
				c.nextLease = rec.Lease
			}
		case recCommit:
			st.state = StateCommitted
			st.spool = rec.Spool
			st.lastErr = ""
		case recRequeue:
			st.state = StatePending
			st.leaseID = 0
		case recFail:
			st.state = StateFailed
			st.lastErr = rec.Err
		}
	}
	// A lease whose outcome never reached the journal belonged to a
	// worker that died with the previous coordinator: requeue it.
	for _, p := range c.order {
		st := c.parts[p]
		if st.state == StateLeased {
			st.state = StatePending
			st.leaseID = 0
			if err := c.jr.append(record{Type: recRequeue, Source: p.Source, Day: int(p.Day)}, false); err != nil {
				return nil, err
			}
		}
	}
	// Register partitions the journal has not seen yet.
	for _, p := range parts {
		if c.parts[p] != nil {
			continue
		}
		c.parts[p] = &partState{state: StatePending}
		c.order = append(c.order, p)
		if err := c.jr.append(record{Type: recAdd, Source: p.Source, Day: int(p.Day)}, false); err != nil {
			return nil, err
		}
	}
	sort.Slice(c.order, func(i, j int) bool {
		a, b := c.order[i], c.order[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Day < b.Day
	})
	return c, nil
}

// Close releases the journal handle. Run closes it on return; Close is
// for coordinators that were never run.
func (c *Coordinator) Close() error { return c.jr.close() }

// Run drives the partitions to completion with cfg.Workers workers.
// It returns nil when every partition is committed, ErrRestart when a
// chaos-injected coordinator crash requires a journal replay (rebuild
// with New over the same Dir and Run again), ctx.Err() on cancellation
// — committed-so-far state is journaled and durable in all cases — and
// ErrPartitionsFailed if any partition exhausted MaxAttempts.
func (c *Coordinator) Run(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.mu.Lock()
	c.runCtx = runCtx
	c.mu.Unlock()

	// The supervisor expires leases; a watcher unblocks acquire() on
	// cancellation.
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		c.supervise(runCtx)
	}()
	go func() {
		defer aux.Done()
		<-runCtx.Done()
		c.cond.Broadcast()
	}()

	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c.runWorker(runCtx, id)
		}(i)
	}
	wg.Wait()
	cancel()
	aux.Wait()
	c.jr.close()

	c.mu.Lock()
	restarting := c.restarting
	stats := c.statsLocked()
	c.mu.Unlock()
	switch {
	case restarting:
		return ErrRestart
	case ctx.Err() != nil:
		return ctx.Err()
	case stats.Failed > 0:
		return fmt.Errorf("%w: %d of %d", ErrPartitionsFailed, stats.Failed, stats.Partitions)
	default:
		return nil
	}
}

// Drive runs parts to completion under cfg, rebuilding the coordinator
// from its journal each time a chaos-injected crash asks for a restart
// (ErrRestart). onRestart, when set, hears of each restart (counted from
// 1) and ends the drive by returning an error. Drive returns the last
// coordinator — nil only when New failed — and the error that ended it.
func Drive(ctx context.Context, cfg Config, parts []Partition, onRestart func(restarts int) error) (*Coordinator, error) {
	for restarts := 1; ; restarts++ {
		c, err := New(cfg, parts)
		if err != nil {
			return nil, err
		}
		if err := c.Run(ctx); !errors.Is(err, ErrRestart) {
			return c, err
		}
		if onRestart != nil {
			if err := onRestart(restarts); err != nil {
				return c, err
			}
		}
	}
}

// supervise expires leases whose heartbeats stopped.
func (c *Coordinator) supervise(ctx context.Context) {
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			c.mu.Lock()
			woke := false
			for _, p := range c.order {
				st := c.parts[p]
				if st.state != StateLeased || now.Before(st.expiry) {
					continue
				}
				c.requeueLocked(p, st, "lease expired (missed heartbeats)")
				woke = true
			}
			if woke {
				c.cond.Broadcast()
			} else {
				// Wake workers parked on a backoff gate that has elapsed.
				for _, p := range c.order {
					st := c.parts[p]
					if st.state == StatePending && !now.Before(st.nextEligible) {
						c.cond.Broadcast()
						break
					}
				}
			}
			c.mu.Unlock()
		}
	}
}

// requeueLocked moves a leased partition back to pending, or fails it
// permanently once MaxAttempts leases have been burned. Callers hold mu.
func (c *Coordinator) requeueLocked(p Partition, st *partState, cause string) {
	st.leaseID = 0
	st.lastErr = cause
	if st.attempts >= c.cfg.MaxAttempts {
		st.state = StateFailed
		// Permanent fates are fsync'd like commits.
		_ = c.jr.append(record{Type: recFail, Source: p.Source, Day: int(p.Day), Attempt: st.attempts, Err: cause}, true)
		return
	}
	st.state = StatePending
	shift := uint(st.attempts - 1)
	if shift > 10 {
		shift = 10
	}
	st.nextEligible = time.Now().Add(c.cfg.RetryBackoff << shift)
	_ = c.jr.append(record{Type: recRequeue, Source: p.Source, Day: int(p.Day), Attempt: st.attempts, Err: cause}, false)
}

// acquire blocks until a partition is available and leases it. ok is
// false when the run is over: context cancelled, restart triggered, or
// no partition can ever become available again.
func (c *Coordinator) acquire(ctx context.Context) (p Partition, leaseID uint64, attempt int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if ctx.Err() != nil || c.restarting {
			return Partition{}, 0, 0, false
		}
		now := time.Now()
		live := false // any partition that could still need a worker
		for _, cand := range c.order {
			st := c.parts[cand]
			switch st.state {
			case StateCommitted, StateFailed:
				continue
			case StateLeased:
				live = true
				continue
			}
			live = true
			if now.Before(st.nextEligible) {
				continue
			}
			// Lease it.
			c.nextLease++
			st.state = StateLeased
			st.leaseID = c.nextLease
			st.attempts++
			st.expiry = now.Add(c.cfg.LeaseTTL)
			_ = c.jr.append(record{Type: recLease, Source: cand.Source, Day: int(cand.Day), Lease: st.leaseID, Attempt: st.attempts}, false)
			return cand, st.leaseID, st.attempts, true
		}
		if !live {
			return Partition{}, 0, 0, false
		}
		c.cond.Wait()
	}
}

// Heartbeat extends a lease. ErrLeaseLost means the lease was fenced:
// the worker must abandon the partition immediately.
func (c *Coordinator) Heartbeat(p Partition, leaseID uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.restarting {
		return ErrRestart
	}
	st := c.parts[p]
	if st == nil || st.state != StateLeased || st.leaseID != leaseID {
		return ErrLeaseLost
	}
	st.expiry = time.Now().Add(c.cfg.LeaseTTL)
	return nil
}

// Commit durably records that a partition's spool file is complete.
// The journal record is fsync'd before Commit returns, so an ack the
// worker never sees (crash-after-save) cannot lose the commit. Commits
// are idempotent: re-committing a committed partition is a no-op, and a
// commit under a fenced lease is rejected with ErrLeaseLost.
func (c *Coordinator) Commit(p Partition, leaseID uint64, spool string) error {
	c.mu.Lock()
	st := c.parts[p]
	if st == nil {
		c.mu.Unlock()
		return fmt.Errorf("coord: commit of unknown partition %s", p)
	}
	if c.restarting {
		c.mu.Unlock()
		return ErrRestart
	}
	if st.state == StateCommitted {
		c.mu.Unlock()
		return nil
	}
	if st.state != StateLeased || st.leaseID != leaseID {
		c.mu.Unlock()
		return ErrLeaseLost
	}
	if err := c.jr.append(record{Type: recCommit, Source: p.Source, Day: int(p.Day), Lease: leaseID, Attempt: st.attempts, Spool: spool}, true); err != nil {
		c.mu.Unlock()
		return err
	}
	st.state = StateCommitted
	st.spool = spool
	st.lastErr = ""
	attempt := st.attempts
	c.cond.Broadcast()
	c.mu.Unlock()

	// Chaos: the spool file is torn at rest after the commit — silent
	// storage corruption for the CRC layer to catch at assembly.
	if frac, torn := c.cfg.Faults.TornWrite(p.Source, int64(p.Day)); torn {
		tearFile(spool, frac)
	}
	// Chaos: the coordinator crashes right after this commit.
	if c.cfg.Faults.CoordRestart(p.Source, int64(p.Day), attempt-1) {
		c.triggerRestart()
	}
	return nil
}

// Release reports a worker-side failure for a leased partition, sending
// it back through requeue/backoff (or permanent failure). A fenced
// release is ignored: the partition already moved on.
func (c *Coordinator) Release(p Partition, leaseID uint64, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.parts[p]
	if st == nil || st.state != StateLeased || st.leaseID != leaseID {
		return
	}
	c.requeueLocked(p, st, cause.Error())
	c.cond.Broadcast()
}

// triggerRestart simulates a coordinator crash: all in-flight work is
// abandoned and Run returns ErrRestart. The journal is left exactly as
// a crash would leave it.
func (c *Coordinator) triggerRestart() {
	c.mu.Lock()
	c.restarting = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// tearFile truncates a file to frac of its length.
func tearFile(path string, frac float64) {
	fi, err := os.Stat(path)
	if err != nil {
		return
	}
	_ = os.Truncate(path, int64(float64(fi.Size())*frac))
}

// Ledger snapshots every partition's status, in (source, day) order.
func (c *Coordinator) Ledger() []PartitionStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PartitionStatus, 0, len(c.order))
	for _, p := range c.order {
		st := c.parts[p]
		out = append(out, PartitionStatus{
			Source:   p.Source,
			Day:      p.Day.String(),
			State:    st.state,
			Attempts: st.attempts,
			Spool:    st.spool,
			Err:      st.lastErr,
		})
	}
	return out
}

// Stats summarises the ledger.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

func (c *Coordinator) statsLocked() Stats {
	s := Stats{Partitions: len(c.order)}
	for _, st := range c.parts {
		switch st.state {
		case StatePending:
			s.Pending++
		case StateLeased:
			s.Leased++
		case StateCommitted:
			s.Committed++
		case StateFailed:
			s.Failed++
		}
	}
	return s
}

// SpoolPath is partition p's spool file under the coordination directory
// dir: one checksummed .dpsa per (source, day), attempt-independent so
// crash recovery can find an intact spool left by a dead worker.
func SpoolPath(dir string, p Partition) string {
	return filepath.Join(dir, "spool", fmt.Sprintf("%s.%s.dpsa", p.Source, p.Day))
}

// ResolveSpool finds partition p's committed spool under the
// coordination directory dir. The journal records the path its
// coordinator wrote, which may be relative to that coordinator's working
// directory, so the layout path under dir wins whenever it exists; the
// recorded path is the fallback, unless none was recorded.
func ResolveSpool(dir string, p Partition, recorded string) string {
	layout := SpoolPath(dir, p)
	if _, err := os.Stat(layout); err == nil || recorded == "" {
		return layout
	}
	return recorded
}

// Assemble folds every committed spool into one store. Spools that fail
// CRC verification (torn at rest) are moved into quarantine/ and
// reported as damaged — their days must be marked degraded — rather
// than aborting the assembly.
func (c *Coordinator) Assemble() (*store.Store, []DamagedPartition, error) {
	c.mu.Lock()
	type item struct {
		p     Partition
		spool string
	}
	var items []item
	for _, p := range c.order {
		if st := c.parts[p]; st.state == StateCommitted {
			items = append(items, item{p, ResolveSpool(c.cfg.Dir, p, st.spool)})
		}
	}
	c.mu.Unlock()

	out := store.New()
	var damaged []DamagedPartition
	for _, it := range items {
		if err := store.Verify(it.spool); err != nil {
			// A spool an earlier Assemble over this directory quarantined
			// comes back at its quarantined path; one that is gone from
			// both places is still damaged, with no path to show.
			qpath, qerr := store.QuarantineFile(it.spool, err)
			if qerr != nil && !errors.Is(qerr, fs.ErrNotExist) {
				return nil, nil, fmt.Errorf("coord: quarantine %s: %w", it.p, qerr)
			}
			damaged = append(damaged, DamagedPartition{Partition: it.p, QuarantinePath: qpath, Err: err.Error()})
			continue
		}
		part, err := store.Load(it.spool)
		if err != nil {
			return nil, nil, fmt.Errorf("coord: load verified spool %s: %w", it.p, err)
		}
		out.Absorb(part)
	}
	return out, damaged, nil
}
