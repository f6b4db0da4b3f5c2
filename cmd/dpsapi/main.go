// Command dpsapi serves detection queries over a measurement dataset
// written by cmd/dpsmeasure -out (the .dpsa archive):
//
//	GET /v1/domain/{name}           full detection history of one domain
//	GET /v1/provider/{name}/series  daily use counts, raw + smoothed
//	GET /v1/day/{date}              per-provider totals for one day
//	GET /v1/stats                   dataset + index summary
//
// The same listener also exposes /metrics (Prometheus text, including
// the go_*/process_* runtime gauges and build_info), expvar /debug/vars
// and pprof profiles; -prof-mutex and -prof-block arm the runtime's
// contention profilers behind /debug/pprof/{mutex,block}. The query
// observatory adds /debug/slo (rolling-window SLO burn
// scorecard), /debug/slowlog (N slowest requests per route), and
// /debug/topk (heavy-hitter domains and providers); its final scorecard
// is logged on drain. Admission control is layered: -qps
// rate-limits with a token bucket (429 beyond it), -max-inflight bounds
// concurrency (503 when the gate stays full past the deadline), and
// -timeout caps every request. SIGINT/SIGTERM drain gracefully: the
// listener closes, in-flight requests finish (up to drainTimeout), then
// the process exits.
//
// With -follow the server goes live: it tails a feed of committed
// (source, day) partitions — a dpscoord coordination directory (the
// journal is the change feed) or a growing .dpsa re-saved atomically —
// verifies each partition, detects it, and folds it into the serving
// index via a copy-on-write delta publish with precise cache
// invalidation. -data becomes optional: a follower may boot from an
// empty index and converge on the feed. /v1/stats reports freshness
// (mode, epoch, lag, skips) while following.
//
// Usage:
//
//	dpsapi -data world.dpsa [-addr :8080] [-qps 0] [-max-inflight 256]
//	       [-timeout 2s] [-cache 4096] [-quiet] [-log-json]
//	       [-prof-mutex 5] [-prof-block 0]
//	dpsapi -follow coorddir/ [-data world.dpsa] [-poll 500ms]
//	       [-follow-cursor auto|off|PATH] [...]
//
// While following, the follower persists a restart cursor (journal
// offset + applied-partition snapshot, -follow-cursor, default "auto")
// so a restarted process resumes the feed instead of re-detecting the
// whole history.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/api"
	"dpsadopt/internal/core"
	"dpsadopt/internal/follow"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/store"
)

// drainTimeout bounds the graceful shutdown: in-flight requests get this
// long to finish after SIGINT/SIGTERM.
const drainTimeout = 5 * time.Second

func main() {
	var (
		data         = flag.String("data", "", "dataset file (.dpsa) to serve (required unless -follow)")
		followTgt    = flag.String("follow", "", "live feed to tail: a dpscoord directory or a growing .dpsa")
		poll         = flag.Duration("poll", 500*time.Millisecond, "feed polling interval (with -follow)")
		followWk     = flag.Int("follow-workers", 4, "catch-up detection workers (with -follow)")
		followCursor = flag.String("follow-cursor", "auto", "restart cursor path for -follow (\"auto\" = derive from target, \"off\" = disabled)")
		addr         = flag.String("addr", ":8080", "listen address for /v1 and /metrics")
		qps          = flag.Float64("qps", 0, "admitted requests per second (0 = unlimited)")
		burst        = flag.Int("burst", 0, "token bucket depth (default: qps)")
		maxInflight  = flag.Int("max-inflight", 256, "max concurrently handled requests")
		timeout      = flag.Duration("timeout", 2*time.Second, "per-request deadline")
		cacheSize    = flag.Int("cache", 4096, "response cache entries (negative = disabled)")
	)
	cli.Parse("dpsapi", cli.Logging|cli.Profiling)
	if *data == "" && *followTgt == "" {
		fmt.Fprintln(os.Stderr, "dpsapi: -data FILE required (or -follow TARGET)")
		os.Exit(2)
	}
	logger := obs.Logger()

	// Boot: the -data file streams through store.Open + api.NewIndexReader
	// — partitions are pread, detected, and released one at a time, so
	// peak memory is bounded by the detection pool, not the dataset. A
	// follower may start with nothing — an absent or omitted data file
	// serves an empty index that converges on the feed.
	t0 := time.Now()
	refs := core.MustGroundTruth()
	var idx *api.Index
	var bootKeys []store.PartitionKey
	if *data != "" {
		r, err := store.Open(*data)
		switch {
		case errors.Is(err, os.ErrNotExist) && *followTgt != "":
			logger.Info("data file absent; starting empty and following", "path", *data)
			idx = api.NewIndex(store.New(), refs)
		case err != nil:
			log.Fatal(err)
		default:
			built, berr := api.NewIndexReader(r, refs)
			failed := make(map[store.PartitionKey]bool)
			var ibe *api.IndexBuildError
			if errors.As(berr, &ibe) {
				logger.Warn("index built degraded; unreadable partitions skipped",
					"path", *data, "skipped", len(ibe.Failed), "detail", ibe.Error())
				for _, pf := range ibe.Failed {
					failed[store.PartitionKey{Source: pf.Source, Day: pf.Day}] = true
				}
			} else if berr != nil {
				log.Fatal(berr)
			}
			idx = built
			// Seed only the partitions that actually made it into the
			// index: a follower re-detects (or skips) the failures.
			for _, k := range r.Keys() {
				if !failed[k] {
					bootKeys = append(bootKeys, k)
				}
			}
			info := r.Info()
			r.Close()
			logger.Info("dataset opened (streaming)", "path", *data,
				"version", info.Version, "partitions", info.Partitions, "rows", info.Rows,
				"file_bytes", info.FileBytes,
				"elapsed", time.Since(t0).Round(time.Millisecond).String())
		}
	} else {
		logger.Info("no -data; booting empty index from feed", "follow", *followTgt)
		idx = api.NewIndex(store.New(), refs)
	}
	st := idx.Stats()
	partitions, buildTime := idx.BuildStats()
	dst := idx.DetectStats()
	logger.Info("index built",
		"domains", st.DomainsDetected, "days", st.DaysIndexed,
		"sources", st.Sources, "partitions", partitions,
		"elapsed", buildTime.Round(time.Millisecond).String(),
		"partitions_per_sec", fmt.Sprintf("%.1f", dst.PartitionsPerSec()),
		"workers", dst.Workers,
		"utilization", fmt.Sprintf("%.3f", dst.Utilization()),
		"scan", dst.Scan.Round(time.Millisecond).String(),
		"merge", dst.Merge.Round(time.Millisecond).String(),
		"barrier", dst.Barrier.Round(time.Millisecond).String())

	srv := api.NewServer(idx, api.Config{
		QPS:          *qps,
		Burst:        *burst,
		MaxInflight:  *maxInflight,
		Timeout:      *timeout,
		CacheEntries: *cacheSize,
	})
	// Live follow: tail the feed into the serving index for the process
	// lifetime. The follower is seeded with the boot store's partitions
	// so catch-up starts at the first partition the index has not seen.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var followDone chan struct{}
	if *followTgt != "" {
		cursor := *followCursor
		if cursor == "off" {
			cursor = ""
		}
		fl, err := follow.New(follow.Config{
			Target:     *followTgt,
			Refs:       refs,
			Sink:       srv,
			Poll:       *poll,
			Workers:    *followWk,
			CursorPath: cursor,
		})
		if err != nil {
			log.Fatal(err)
		}
		fl.Seed(bootKeys)
		srv.SetFreshnessFunc(fl.Freshness)
		followDone = make(chan struct{})
		go func() {
			defer close(followDone)
			_ = fl.Run(ctx) // returns only on ctx cancellation
		}()
		logger.Info("following feed", "target", *followTgt, "mode", string(fl.Mode()), "poll", poll.String())
	}

	// The query observatory re-evaluates its SLO scorecard periodically,
	// keeping the slo_* gauges fresh and logging status transitions.
	stopEval := srv.Observatory().StartEvaluator(10 * time.Second)
	defer stopEval()
	// One listener for everything: the API routes share the mux with
	// /metrics, /debug/vars and /debug/pprof so
	// operators scrape the serving-path counters from the same port they
	// query. The runtime collector keeps the go_*/process_* gauges (GC
	// pause, sched latency, heap, RSS) current for the process lifetime.
	rc := obs.StartRuntimeCollector(obs.Default(), 0)
	defer rc.Close()
	mux := obs.NewMux(obs.Default())
	srv.Register(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	logger.Info("serving", "addr", ln.Addr().String(),
		"routes", "/v1/domain/{name} /v1/provider/{name}/series /v1/day/{date} /v1/stats /metrics /debug/slo /debug/slowlog /debug/topk")

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		logger.Info("signal received; draining", "deadline", drainTimeout.String())
		if followDone != nil {
			<-followDone // follower sees the same ctx; wait out any in-flight apply
		}
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			logger.Warn("drain incomplete, closing", "err", err)
			_ = httpSrv.Close()
		}
		logFinalScorecard(logger, srv.Observatory())
		logger.Info("drained; bye")
	}
}

// logFinalScorecard leaves a one-line SLO record when the process exits,
// so even short-lived runs document how they served.
func logFinalScorecard(logger *slog.Logger, o *obs.Observatory) {
	if o == nil {
		return
	}
	sc := o.Publish()
	ok, warn, breach := sc.CountStatus()
	worst, burn := sc.Worst()
	logger.Info("final slo scorecard",
		"objectives", len(sc.Objectives), "ok", ok, "warn", warn, "breach", breach,
		"worst", worst, "worst_burn", fmt.Sprintf("%.2f", burn))
}
