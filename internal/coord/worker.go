package coord

// The worker loop: acquire a lease, heartbeat it, measure the
// partition, save the spool durably, commit. Chaos hooks model every
// crash window of that sequence — a worker that "crashes" simply
// abandons the partition without telling the coordinator (its lease
// expires and the partition is re-leased), exactly like a killed
// process whose replacement picks up the queue.

import (
	"context"
	"fmt"
	"os"
	"time"

	"dpsadopt/internal/obs"
	"dpsadopt/internal/store"
)

func (c *Coordinator) runWorker(ctx context.Context, id int) {
	log := obs.Logger().With("worker", id)
	for {
		p, leaseID, attempt, ok := c.acquire(ctx)
		if !ok {
			return
		}
		c.runPartition(ctx, log, p, leaseID, attempt)
	}
}

func (c *Coordinator) runPartition(ctx context.Context, log interface {
	Debug(string, ...any)
	Warn(string, ...any)
}, p Partition, leaseID uint64, attempt int) {
	faults := c.cfg.Faults
	day := int64(p.Day)
	fatt := attempt - 1 // fault decisions are keyed 0-based

	// Chaos: the worker freezes past the lease TTL before doing any
	// work. No heartbeats flow, the supervisor re-leases the partition,
	// and when this worker wakes up its commit must be fenced off.
	stalled := faults.WorkerStall(p.Source, day, fatt)
	workCtx, cancelWork := context.WithCancel(ctx)
	defer cancelWork()
	var hbDone chan struct{}
	if stalled {
		select {
		case <-time.After(c.cfg.LeaseTTL + 4*c.cfg.HeartbeatEvery):
		case <-ctx.Done():
			return
		}
	} else {
		// Heartbeat until the partition is resolved; a fenced heartbeat
		// cancels the in-flight work.
		hbDone = make(chan struct{})
		go func() {
			tick := time.NewTicker(c.cfg.HeartbeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-workCtx.Done():
					close(hbDone)
					return
				case <-tick.C:
					if err := c.Heartbeat(p, leaseID); err != nil {
						cancelWork()
						close(hbDone)
						return
					}
				}
			}
		}()
		defer func() {
			cancelWork()
			<-hbDone
		}()
	}

	spool := SpoolPath(c.cfg.Dir, p)

	// Crash-after-save recovery: a previous attempt may have died
	// between saving its spool and acking the commit. If an intact
	// spool is already on disk, adopt it instead of re-measuring.
	if attempt > 1 {
		if _, err := os.Stat(spool); err == nil {
			if store.Verify(spool) == nil {
				log.Debug("recovered intact spool", "partition", p.String(), "attempt", attempt)
				if err := c.Commit(p, leaseID, spool); err != nil {
					log.Warn("recovered-spool commit rejected", "partition", p.String(), "err", err)
				}
				return
			}
			// Damaged leftover: remeasure over it (Save is atomic, the
			// old bytes are replaced wholesale).
		}
	}

	st, err := c.cfg.Work(workCtx, p, attempt)
	if err != nil {
		if workCtx.Err() != nil {
			// Fenced or cancelled mid-measure: the partition has
			// already moved on; nothing to report.
			return
		}
		c.Release(p, leaseID, fmt.Errorf("measure: %w", err))
		return
	}

	// Chaos: crash before the spool hits disk — all work lost.
	if faults.CrashBeforeSave(p.Source, day, fatt) {
		log.Debug("chaos: worker crash before save", "partition", p.String(), "attempt", attempt)
		return
	}

	if err := st.Save(spool); err != nil {
		c.Release(p, leaseID, fmt.Errorf("save spool: %w", err))
		return
	}

	// Chaos: crash after the durable save but before the commit ack —
	// the exactly-once window. The lease expires; the next attempt
	// finds the intact spool and commits it without re-measuring.
	if faults.CrashAfterSave(p.Source, day, fatt) {
		log.Debug("chaos: worker crash after save", "partition", p.String(), "attempt", attempt)
		return
	}

	if err := c.Commit(p, leaseID, spool); err != nil {
		// ErrLeaseLost: a stale commit was correctly fenced; the
		// partition belongs to someone else now. ErrRestart: the
		// coordinator is gone. Either way, abandon.
		log.Debug("commit rejected", "partition", p.String(), "attempt", attempt, "err", err)
		return
	}

	// Chaos: replay the commit ack — a retried RPC. Must be a no-op.
	if faults.DupCommit(p.Source, day, fatt) {
		if err := c.Commit(p, leaseID, spool); err != nil {
			log.Warn("duplicate commit not absorbed", "partition", p.String(), "err", err)
		}
	}
}
