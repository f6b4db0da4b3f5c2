package follow

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dpsadopt/internal/api"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// synthPart builds one (source, day) partition spool with deterministic
// detections: alpha.<src> on provider0 CNAME every day, gamma.<src> on
// CloudFlare NS from day 1, quiet.<src> measured but unprotected.
func synthPart(t *testing.T, refs *core.References, src string, day simtime.Day) *store.Store {
	t.Helper()
	p0 := refs.Providers[0]
	cf := slices.IndexFunc(refs.Providers, func(p core.ProviderRefs) bool { return p.Name == "CloudFlare" })
	if cf < 0 {
		t.Fatal("no CloudFlare in ground truth")
	}
	s := store.New()
	w := s.NewWriter(src, day)
	w.AddStr("alpha."+src, store.KindWWWCNAME, "www.alpha."+src+"."+p0.CNAMESLDs[0])
	if day >= 1 {
		w.AddStr("gamma."+src, store.KindNS, "ns."+refs.Providers[cf].NSSLDs[0])
	}
	w.AddAddr("quiet."+src, store.KindApexA, netip.MustParseAddr("198.51.100.9"), nil)
	w.Commit()
	return s
}

func synthWork(t *testing.T, refs *core.References) coord.WorkFunc {
	return func(_ context.Context, p coord.Partition, _ int) (*store.Store, error) {
		return synthPart(t, refs, p.Source, p.Day), nil
	}
}

// runCoordinator commits every partition into dir and returns the
// assembled reference store.
func runCoordinator(t *testing.T, dir string, refs *core.References, parts []coord.Partition) *store.Store {
	t.Helper()
	c, err := coord.New(coord.Config{
		Dir:            dir,
		Workers:        3,
		LeaseTTL:       time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
		MaxAttempts:    3,
		RetryBackoff:   5 * time.Millisecond,
		Work:           synthWork(t, refs),
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	assembled, damaged, err := c.Assemble()
	if err != nil || len(damaged) != 0 {
		t.Fatalf("assemble: %v (damaged %+v)", err, damaged)
	}
	return assembled
}

// drain polls the follower until the feed is exhausted.
func drain(t *testing.T, f *Follower) {
	t.Helper()
	for i := 0; i < 100; i++ {
		n, err := f.Poll(context.Background())
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if n == 0 && f.Status().Lag == 0 {
			return
		}
	}
	t.Fatalf("feed did not drain: %+v", f.Status())
}

// assertSameView demands two indexes are indistinguishable through the
// public query surface (the follower package cannot see api internals,
// and the serving contract is exactly these views).
func assertSameView(t *testing.T, want, got *api.Index) {
	t.Helper()
	if !reflect.DeepEqual(want.Days(), got.Days()) {
		t.Fatalf("days: want %v got %v", want.Days(), got.Days())
	}
	wd, gd := want.Domains(), got.Domains()
	if !reflect.DeepEqual(wd, gd) {
		t.Fatalf("domains: want %v got %v", wd, gd)
	}
	for _, dom := range wd {
		wh, _ := want.Domain(dom)
		gh, ok := got.Domain(dom)
		if !ok || !reflect.DeepEqual(wh, gh) {
			t.Fatalf("Domain(%s): want %+v got %+v", dom, wh, gh)
		}
	}
	for _, d := range want.Days() {
		wi, _ := want.Day(d)
		gi, ok := got.Day(d)
		if !ok || !reflect.DeepEqual(wi, gi) {
			t.Fatalf("Day(%v): want %+v got %+v", d, wi, gi)
		}
	}
}

func coordParts(sources []string, days int) []coord.Partition {
	var out []coord.Partition
	for _, src := range sources {
		for d := 0; d < days; d++ {
			out = append(out, coord.Partition{Source: src, Day: simtime.Day(d)})
		}
	}
	return out
}

// TestFollowCoordFeedConverges is the tentpole e2e: a real coordinator
// commits partitions, a follower tails its journal into a live
// api.Server starting from an empty index, and the served index ends up
// indistinguishable from a full rebuild over the assembled dataset.
func TestFollowCoordFeedConverges(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	parts := coordParts([]string{"com", "net"}, 4)

	// The follower starts BEFORE the coordinator has produced anything:
	// empty-feed polls must be clean no-ops.
	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f, err := New(Config{Target: dir, Refs: refs, Sink: srv, Workers: 2, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFreshnessFunc(f.Freshness)
	if n, err := f.Poll(context.Background()); n != 0 || err != nil {
		t.Fatalf("pre-birth poll: n=%d err=%v", n, err)
	}

	assembled := runCoordinator(t, dir, refs, parts)
	drain(t, f)

	assertSameView(t, api.NewIndex(assembled, refs), srv.Index())
	st := f.Status()
	if st.Applied != len(parts) || st.Skipped != 0 || st.Lag != 0 {
		t.Fatalf("status after drain: %+v", st)
	}
	// MaxBatch=3 over 8 partitions → at least 3 epochs, each published.
	if e := srv.Index().Epoch(); e < 3 {
		t.Fatalf("epoch = %d, want >= 3 (batched catch-up)", e)
	}
	fr := f.Freshness()
	if fr.Following != dir || fr.Partitions != len(parts) || fr.Epoch != srv.Index().Epoch() {
		t.Fatalf("freshness: %+v", fr)
	}

	// Re-polling a drained feed applies nothing and keeps the epoch.
	e := srv.Index().Epoch()
	if n, err := f.Poll(context.Background()); n != 0 || err != nil {
		t.Fatalf("idle poll: n=%d err=%v", n, err)
	}
	if srv.Index().Epoch() != e {
		t.Fatal("idle poll published a new index")
	}
}

// TestFollowSeedSkipsBootPartitions is dpsapi's -data + -follow boot: a
// follower seeded with the boot dataset's partitions must not re-apply
// them from the coordination directory's journal, and a day committed
// later into the same directory applies alone.
func TestFollowSeedSkipsBootPartitions(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	path := filepath.Join(t.TempDir(), "boot.dpsa")
	if err := runCoordinator(t, dir, refs, coordParts([]string{"com"}, 2)).Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := api.NewIndexReader(r, refs)
	if err != nil {
		t.Fatal(err)
	}
	keys := r.Keys()
	r.Close()
	srv := api.NewServer(boot, api.Config{ObservatoryOff: true})
	f, err := New(Config{Target: dir, Refs: refs, Sink: srv})
	if err != nil {
		t.Fatal(err)
	}
	f.Seed(keys)

	// Nothing new: no publish, epoch stays 0.
	if n, err := f.Poll(context.Background()); n != 0 || err != nil {
		t.Fatalf("seeded poll: n=%d err=%v", n, err)
	}
	if srv.Index() != boot {
		t.Fatal("seeded poll replaced the boot index")
	}

	// One genuinely new day applies alone.
	all := runCoordinator(t, dir, refs, coordParts([]string{"com"}, 3))
	drain(t, f)
	if st := f.Status(); st.Applied != 1 {
		t.Fatalf("applied = %d, want 1: %+v", st.Applied, st)
	}
	assertSameView(t, api.NewIndex(all, refs), srv.Index())
}

// TestFollowRefusesNonDirectory: only a coordination directory is a
// feed. An existing file, or a path naming a .dpsa dataset, is refused
// by New with an error naming it.
func TestFollowRefusesNonDirectory(t *testing.T) {
	refs := core.MustGroundTruth()
	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	file := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{file, filepath.Join(t.TempDir(), "grow.dpsa")} {
		if _, err := New(Config{Target: target, Refs: refs, Sink: srv}); err == nil || !strings.Contains(err.Error(), target) {
			t.Errorf("New(%s) = %v, want an error naming it", target, err)
		}
	}
}

// TestFollowSkipsDamagedSpool: a committed spool torn at rest is
// skipped permanently — counted, excluded from lag — while every intact
// partition still applies and serves.
func TestFollowSkipsDamagedSpool(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	parts := coordParts([]string{"com"}, 3)
	runCoordinator(t, dir, refs, parts)

	// Tear one committed spool mid-file (CRC must now fail).
	victim := filepath.Join(dir, "spool", fmt.Sprintf("com.%s.dpsa", simtime.Day(1)))
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f, err := New(Config{Target: dir, Refs: refs, Sink: srv})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, f)

	st := f.Status()
	if st.Applied != 2 || st.Skipped != 1 || st.Lag != 0 {
		t.Fatalf("status: %+v", st)
	}
	want := store.New()
	want.Absorb(synthPart(t, refs, "com", 0))
	want.Absorb(synthPart(t, refs, "com", 2))
	assertSameView(t, api.NewIndex(want, refs), srv.Index())
	if f.Freshness().Skipped != 1 {
		t.Fatalf("freshness: %+v", f.Freshness())
	}

	// The skip is permanent: repairing the file later does not resurrect
	// it (commits are terminal; operators re-measure instead).
	if n, err := f.Poll(context.Background()); n != 0 || err != nil {
		t.Fatalf("post-skip poll: n=%d err=%v", n, err)
	}
}

// TestFollowRunLoop drives the production Run loop end to end under a
// live coordinator commit stream.
func TestFollowRunLoop(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	parts := coordParts([]string{"com"}, 3)

	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f, err := New(Config{Target: dir, Refs: refs, Sink: srv, Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	assembled := runCoordinator(t, dir, refs, parts)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Status()
		if st.Applied == len(parts) && st.Lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run loop did not converge: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("run returned %v", err)
	}
	assertSameView(t, api.NewIndex(assembled, refs), srv.Index())
}

// matcherCount reads the size of core.References' per-dictionary matcher
// cache. The field is unexported and there is deliberately no exported
// counter for it; a rename makes this panic, which is the prompt to follow
// it here.
func matcherCount(refs *core.References) int {
	return reflect.ValueOf(refs).Elem().FieldByName("matchers").Len()
}

// TestFollowForgetsSpoolMatchers: every spool carries its own dictionary,
// and core.References caches a matcher per dictionary. The follower must
// drop that matcher when it closes the spool, or a long-lived dpsapi
// -follow pins one dictionary per partition it ever applied.
func TestFollowForgetsSpoolMatchers(t *testing.T) {
	refs := core.MustGroundTruth()
	dir := t.TempDir()
	parts := coordParts([]string{"com", "net"}, 20)
	srv := api.NewServer(api.NewIndex(store.New(), refs), api.Config{ObservatoryOff: true})
	f, err := New(Config{Target: dir, Refs: refs, Sink: srv, Workers: 2, MaxBatch: 7})
	if err != nil {
		t.Fatal(err)
	}
	runCoordinator(t, dir, core.MustGroundTruth(), parts) // its own refs: only the follower touches ours
	before := matcherCount(refs)
	drain(t, f)
	if st := f.Status(); st.Applied != len(parts) || st.Skipped != 0 {
		t.Fatalf("status after drain: %+v", st)
	}
	if after := matcherCount(refs); after != before {
		t.Errorf("matcher cache grew from %d to %d over %d applied spools; closed spools must leave nothing behind",
			before, after, len(parts))
	}
	if day, ok := srv.Index().Day(19); !ok || day.Measured == 0 {
		t.Errorf("last day not served after the drain: %+v, %v", day, ok)
	}
}
