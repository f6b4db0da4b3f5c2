package coord

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// synthWork deterministically builds a tiny one-partition store: the
// same (source, day) always yields the same rows, mirroring the real
// measure path under a fixed seed.
func synthWork(_ context.Context, p Partition, _ int) (*store.Store, error) {
	s := store.New()
	w := s.NewWriter(p.Source, p.Day)
	for i := 0; i < 3; i++ {
		dom := fmt.Sprintf("d%d-%d.%s", p.Day, i, p.Source)
		w.AddAddr(dom, store.KindApexA, netip.AddrFrom4([4]byte{10, 0, byte(p.Day), byte(i)}), []uint32{13335})
	}
	w.Commit()
	return s, nil
}

func testParts(sources []string, days int) []Partition {
	var out []Partition
	for _, src := range sources {
		for d := 0; d < days; d++ {
			out = append(out, Partition{Source: src, Day: simtime.Day(d)})
		}
	}
	return out
}

// fastCfg is a coordinator config with timeouts shrunk for tests.
func fastCfg(dir string) Config {
	return Config{
		Dir:            dir,
		Workers:        3,
		LeaseTTL:       150 * time.Millisecond,
		HeartbeatEvery: 25 * time.Millisecond,
		MaxAttempts:    8,
		RetryBackoff:   5 * time.Millisecond,
		Work:           synthWork,
	}
}

// runToCompletion drives a coordinator through chaos restarts until the
// ledger settles, bounded at 50 restarts.
func runToCompletion(t *testing.T, cfg Config, parts []Partition) *Coordinator {
	t.Helper()
	c, err := Drive(context.Background(), cfg, parts, func(restarts int) error {
		if restarts >= 50 {
			return errors.New("coordinator did not settle within 50 restarts")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	return c
}

// assertExactlyOnce checks that every partition is committed and the
// assembled dataset holds each partition's rows exactly once (synthWork
// emits 3 rows per partition; duplicates via Absorb would double them).
func assertExactlyOnce(t *testing.T, c *Coordinator, parts []Partition) {
	t.Helper()
	stats := c.Stats()
	if stats.Committed != len(parts) || stats.Failed != 0 || stats.Pending != 0 || stats.Leased != 0 {
		t.Fatalf("ledger not fully committed: %+v", stats)
	}
	assembled, damaged, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) != 0 {
		t.Fatalf("unexpected damage: %+v", damaged)
	}
	for _, p := range parts {
		n := 0
		assembled.ForEachRow(p.Source, p.Day, func(store.Row) { n++ })
		if n != 3 {
			t.Fatalf("%s: %d rows assembled, want exactly 3", p, n)
		}
	}
}

func TestCleanRunCommitsEveryPartitionOnce(t *testing.T) {
	parts := testParts([]string{"com", "nl"}, 5)
	c := runToCompletion(t, fastCfg(t.TempDir()), parts)
	assertExactlyOnce(t, c, parts)
	for _, row := range c.Ledger() {
		if row.Attempts != 1 {
			t.Errorf("%s/%s took %d attempts on a clean run", row.Source, row.Day, row.Attempts)
		}
	}
}

func TestCommitFencing(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 1
	// No supervisor runs in this test (Run is never called), so nothing
	// broadcasts when a backoff gate elapses: make the gate negligible.
	cfg.RetryBackoff = time.Nanosecond
	parts := testParts([]string{"com"}, 2)
	c, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, lease1, attempt, ok := c.acquire(context.Background())
	if !ok || attempt != 1 {
		t.Fatalf("acquire: ok=%v attempt=%d", ok, attempt)
	}
	// The lease expires (no heartbeats) and is requeued...
	time.Sleep(cfg.LeaseTTL + 20*time.Millisecond)
	c.mu.Lock()
	st := c.parts[p]
	now := time.Now()
	if st.state == StateLeased && !now.Before(st.expiry) {
		c.requeueLocked(p, st, "expired in test")
	}
	c.mu.Unlock()
	// ...and re-leased under a new fencing token.
	p2, lease2, attempt2, ok := c.acquire(context.Background())
	for !ok || p2 != p {
		if !ok {
			t.Fatal("re-acquire failed")
		}
		p2, lease2, attempt2, ok = c.acquire(context.Background())
	}
	if lease2 <= lease1 {
		t.Fatalf("fencing token did not advance: %d then %d", lease1, lease2)
	}
	if attempt2 != 2 {
		t.Fatalf("attempt = %d, want 2", attempt2)
	}
	// The stale holder's heartbeat and commit are fenced off.
	if err := c.Heartbeat(p, lease1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale heartbeat err = %v, want ErrLeaseLost", err)
	}
	spool := SpoolPath(c.cfg.Dir, p)
	s, _ := synthWork(context.Background(), p, 1)
	if err := s.Save(spool); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(p, lease1, spool); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale commit err = %v, want ErrLeaseLost", err)
	}
	// The live holder commits; a replayed commit is a no-op; and the
	// stale token stays fenced even after the commit.
	if err := c.Commit(p, lease2, spool); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(p, lease2, spool); err != nil {
		t.Fatalf("duplicate commit err = %v, want nil (idempotent)", err)
	}
	if got := c.Stats().Committed; got != 1 {
		t.Fatalf("committed = %d after duplicate commit", got)
	}
}

func TestJournalReplaySkipsCommittedRequeuesLeased(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	parts := testParts([]string{"com"}, 3)
	c, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Commit partition 0; leave partition 1 leased; partition 2 pending.
	p0, l0, _, ok := c.acquire(context.Background())
	if !ok {
		t.Fatal("acquire p0")
	}
	s, _ := synthWork(context.Background(), p0, 1)
	if err := s.Save(SpoolPath(c.cfg.Dir, p0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(p0, l0, SpoolPath(c.cfg.Dir, p0)); err != nil {
		t.Fatal(err)
	}
	p1, _, _, ok := c.acquire(context.Background())
	if !ok {
		t.Fatal("acquire p1")
	}
	c.Close() // coordinator "crashes" with p1 still leased

	measured := int32(0)
	cfg.Work = func(ctx context.Context, p Partition, attempt int) (*store.Store, error) {
		if p == p0 {
			t.Errorf("committed partition %s re-measured after replay", p)
		}
		atomic.AddInt32(&measured, 1)
		return synthWork(ctx, p, attempt)
	}
	c2, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Replay requeued the leased partition.
	c2.mu.Lock()
	if got := c2.parts[p1].state; got != StatePending {
		t.Fatalf("replayed leased partition state = %s, want pending", got)
	}
	if got := c2.parts[p0].state; got != StateCommitted {
		t.Fatalf("replayed committed partition state = %s, want committed", got)
	}
	c2.mu.Unlock()
	if err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, c2, parts)
	if atomic.LoadInt32(&measured) != 2 {
		t.Fatalf("measured %d partitions after replay, want 2", measured)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	parts := testParts([]string{"com"}, 2)
	c, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	p, l, _, ok := c.acquire(context.Background())
	if !ok {
		t.Fatal("acquire")
	}
	s, _ := synthWork(context.Background(), p, 1)
	if err := s.Save(SpoolPath(c.cfg.Dir, p)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(p, l, SpoolPath(c.cfg.Dir, p)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Tear the journal mid-append.
	jp := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(jp, appendBytes(t, jp, []byte(`{"seq":99,"type":"com`)), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(cfg, parts)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if got := c2.Stats().Committed; got != 1 {
		t.Fatalf("committed after torn-tail replay = %d, want 1", got)
	}
	if err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, c2, parts)
}

func appendBytes(t *testing.T, path string, tail []byte) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, tail...)
}

func TestPermanentFailureAfterMaxAttempts(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 2
	cfg.MaxAttempts = 3
	attempts := int32(0)
	cfg.Work = func(ctx context.Context, p Partition, attempt int) (*store.Store, error) {
		if p.Source == "bad" {
			atomic.AddInt32(&attempts, 1)
			return nil, errors.New("synthetic measure failure")
		}
		return synthWork(ctx, p, attempt)
	}
	parts := []Partition{{Source: "bad", Day: 0}, {Source: "com", Day: 0}}
	c, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(context.Background())
	if !errors.Is(err, ErrPartitionsFailed) {
		t.Fatalf("Run err = %v, want ErrPartitionsFailed", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 3 {
		t.Fatalf("bad partition measured %d times, want MaxAttempts=3", got)
	}
	for _, row := range c.Ledger() {
		switch row.Source {
		case "bad":
			if row.State != StateFailed || !strings.Contains(row.Err, "synthetic measure failure") {
				t.Fatalf("bad row = %+v", row)
			}
		case "com":
			if row.State != StateCommitted {
				t.Fatalf("com row = %+v", row)
			}
		}
	}
}

func TestRetryBackoffSpacesAttempts(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 1
	cfg.MaxAttempts = 3
	cfg.RetryBackoff = 40 * time.Millisecond
	var times []time.Time
	cfg.Work = func(context.Context, Partition, int) (*store.Store, error) {
		times = append(times, time.Now())
		return nil, errors.New("always fails")
	}
	c, err := New(cfg, []Partition{{Source: "com", Day: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); !errors.Is(err, ErrPartitionsFailed) {
		t.Fatalf("err = %v", err)
	}
	if len(times) != 3 {
		t.Fatalf("%d attempts, want 3", len(times))
	}
	// Attempt 2 waits >= backoff, attempt 3 >= 2*backoff.
	if gap := times[1].Sub(times[0]); gap < cfg.RetryBackoff {
		t.Errorf("attempt 2 after %v, want >= %v", gap, cfg.RetryBackoff)
	}
	if gap := times[2].Sub(times[1]); gap < 2*cfg.RetryBackoff {
		t.Errorf("attempt 3 after %v, want >= %v", gap, 2*cfg.RetryBackoff)
	}
}

func TestCancellationPreservesCommitted(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 1
	parts := testParts([]string{"com"}, 6)
	ctx, cancel := context.WithCancel(context.Background())
	committed := int32(0)
	inner := cfg.Work
	cfg.Work = func(c context.Context, p Partition, a int) (*store.Store, error) {
		if atomic.AddInt32(&committed, 1) == 3 {
			cancel() // SIGTERM arrives mid-run
		}
		return inner(c, p, a)
	}
	c, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	stats := c.Stats()
	if stats.Committed == 0 || stats.Committed == len(parts) {
		t.Fatalf("committed = %d, want partial progress", stats.Committed)
	}
	// The committed-so-far ledger is durable: a fresh coordinator picks
	// up only the remainder.
	c2, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats().Committed; got != stats.Committed {
		t.Fatalf("replayed committed = %d, want %d", got, stats.Committed)
	}
	if err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, c2, parts)
}

// chaosRun drives a scenario to completion and asserts exactly-once.
func chaosRun(t *testing.T, scenario string, seed uint64) *Coordinator {
	t.Helper()
	cfg := fastCfg(t.TempDir())
	sc, err := chaos.Scenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = chaos.NewCoordFaults(sc, seed)
	parts := testParts([]string{"com", "net", "nl"}, 6)
	c := runToCompletion(t, cfg, parts)
	assertExactlyOnce(t, c, parts)
	return c
}

func TestWorkerCrashScenarioExactlyOnce(t *testing.T) {
	c := chaosRun(t, "worker-crash", 11)
	retried := 0
	for _, row := range c.Ledger() {
		if row.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("worker-crash run never burned an attempt — chaos not exercised")
	}
}

func TestWorkerStallScenarioExactlyOnce(t *testing.T) { chaosRun(t, "worker-stall", 5) }

func TestDupCommitScenarioExactlyOnce(t *testing.T) { chaosRun(t, "dup-commit", 3) }

func TestCoordRestartScenarioExactlyOnce(t *testing.T) { chaosRun(t, "coord-restart", 9) }

func TestCoordHavocScenarioExactlyOnce(t *testing.T) { chaosRun(t, "coord-havoc", 17) }

func TestTornWriteScenarioQuarantinesDamage(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	sc, err := chaos.Scenario("torn-write")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = chaos.NewCoordFaults(sc, 21)
	parts := testParts([]string{"com", "nl"}, 8)
	c := runToCompletion(t, cfg, parts)
	if got := c.Stats().Committed; got != len(parts) {
		t.Fatalf("committed = %d, want %d", got, len(parts))
	}
	quarantined := func() int64 {
		return obs.Default().Snapshot().Counter("store_quarantined_partitions_total")
	}
	q0 := quarantined()
	assembled, damaged, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) == 0 {
		t.Fatal("torn-write at 0.5 over 16 partitions damaged nothing")
	}
	if got := quarantined() - q0; got != int64(len(damaged)) {
		t.Fatalf("store_quarantined_partitions_total rose by %d, want %d", got, len(damaged))
	}
	hurt := map[Partition]bool{}
	for _, d := range damaged {
		hurt[d.Partition] = true
		if d.Err == "" || d.QuarantinePath == "" {
			t.Fatalf("damage report incomplete: %+v", d)
		}
		if _, err := os.Stat(d.QuarantinePath); err != nil {
			t.Fatalf("quarantined spool missing: %v", err)
		}
		if !strings.Contains(d.QuarantinePath, "quarantine") {
			t.Fatalf("quarantine path %q outside quarantine/", d.QuarantinePath)
		}
	}
	// Surviving partitions assembled exactly once; damaged ones absent.
	for _, p := range parts {
		n := 0
		assembled.ForEachRow(p.Source, p.Day, func(store.Row) { n++ })
		if hurt[p] && n != 0 {
			t.Fatalf("%s: damaged partition contributed %d rows", p, n)
		}
		if !hurt[p] && n != 3 {
			t.Fatalf("%s: surviving partition has %d rows, want 3", p, n)
		}
	}

	// A second coordinator over the same directory finds the damaged
	// spools already in quarantine/: it reports the same damage, with no
	// error and without counting the quarantines again.
	c2, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, again, err := c2.Assemble()
	if err != nil {
		t.Fatalf("re-assembling a quarantined run: %v", err)
	}
	if len(again) != len(damaged) {
		t.Fatalf("re-assembly reports %d damaged partitions, want %d", len(again), len(damaged))
	}
	for i, d := range again {
		if d.Partition != damaged[i].Partition || d.QuarantinePath != damaged[i].QuarantinePath || d.Err == "" {
			t.Fatalf("re-assembly damage %+v, want %+v", d, damaged[i])
		}
	}
	if got := quarantined() - q0; got != int64(len(damaged)) {
		t.Fatalf("store_quarantined_partitions_total rose by %d after re-assembly, want %d", got, len(damaged))
	}
}
