package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// NewMux builds the exposition handler for a registry:
//
//	/metrics          Prometheus text format
//	/debug/vars       expvar JSON (runtime memstats, cmdline, and the
//	                  registry snapshot under "obs")
//	/debug/pprof/     the full net/http/pprof suite (profile, heap,
//	                  goroutine, trace, and mutex/block once the
//	                  -prof-mutex / -prof-block flags arm them)
//
// Handlers registered with Handle (e.g. the tracer's /debug/traces) are
// mounted as well.
func NewMux(reg *Registry) *http.ServeMux {
	publishExpvar(reg)
	mux := http.NewServeMux()
	extraMu.RLock()
	for pattern, h := range extraHandlers {
		mux.Handle(pattern, h)
	}
	extraMu.RUnlock()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// extraHandlers holds debug handlers contributed by other subsystems
// (the tracer's /debug/traces); NewMux mounts them alongside the
// built-in endpoints. Registering the same pattern again replaces the
// handler, so tests and restarts are safe.
var (
	extraMu       sync.RWMutex
	extraHandlers = map[string]http.Handler{}
)

// Handle registers an extra handler to be mounted on every mux built by
// NewMux. It must be called before Serve/NewMux to take effect on that
// mux.
func Handle(pattern string, h http.Handler) {
	extraMu.Lock()
	extraHandlers[pattern] = h
	extraMu.Unlock()
}

// expvarOnce guards the process-global expvar namespace: expvar.Publish
// panics on duplicate names, and tests build several muxes.
var expvarOnce sync.Once

func publishExpvar(reg *Registry) {
	expvarOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any { return reg.Snapshot() }))
	})
}

// Server is a running exposition endpoint.
type Server struct {
	// Addr is the bound address (useful when the caller asked for :0).
	Addr string

	srv *http.Server
	ln  net.Listener
}

// Serve starts the exposition server on addr ("host:port"; an empty host
// binds all interfaces) and returns immediately; the HTTP loop runs in
// its own goroutine until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: NewMux(reg), ReadHeaderTimeout: 5 * time.Second}
	s := &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Close shuts the server down immediately, dropping in-flight requests.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown drains the server gracefully: the listener stops accepting,
// in-flight scrapes complete, and the call returns when they have (or
// when ctx expires, whichever is first). Binaries should prefer this
// over Close on their signal path so a /metrics scrape racing the
// shutdown still gets its final counters.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
