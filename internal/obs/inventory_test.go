package obs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"dpsadopt/internal/api"
	"dpsadopt/internal/core"
	_ "dpsadopt/internal/dnsclient"
	_ "dpsadopt/internal/dnsserver"
	_ "dpsadopt/internal/experiment"
	_ "dpsadopt/internal/follow"
	"dpsadopt/internal/inventory"
	_ "dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/store"
	_ "dpsadopt/internal/transport"
)

// TestMetricInventory holds testdata/metrics.txt to the process: the
// inventory names exactly the metrics the default registry exports (with
// their kinds) and the /metrics and /debug/ endpoints the source mounts,
// and every line names at least one consumer that really contains it.
func TestMetricInventory(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := inventory.Read(filepath.Join("testdata", "metrics.txt"), true)
	if err != nil {
		t.Fatal(err)
	}
	src := scanSource(t, root)

	// Every instrumented package is imported above; the runtime collector
	// and a default API server (one request per route) register the rest.
	rc := obs.StartRuntimeCollector(obs.Default(), 0)
	defer rc.Close()
	h := api.NewServer(api.NewIndex(store.New(), core.MustGroundTruth()), api.Config{}).Handler()
	for _, path := range []string{"/v1/domain/example.com", "/v1/provider/Akamai/series", "/v1/day/2015-03-01", "/v1/stats"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}
	exported := exportedKinds(t)

	matched := map[int]bool{}
	for name, kind := range exported {
		l, ok := lineFor(inv, name)
		if !ok {
			t.Errorf("%s (%s) is exported but has no line in testdata/metrics.txt", name, kind)
			continue
		}
		matched[l.No] = true
		if l.Kind != kind {
			t.Errorf("%s: exported as %s, inventory line %d says %s", name, kind, l.No, l.Kind)
		}
	}
	for name, files := range src.registered {
		if _, ok := exported[name]; !ok {
			t.Errorf("%s is registered in %s but not exported by this test's process: import its package here", name, strings.Join(files, ", "))
		}
	}
	for pattern := range src.mounted {
		if _, ok := endpointFor(inv, pattern); !ok {
			t.Errorf("endpoint %s is mounted but has no line in testdata/metrics.txt", pattern)
		}
	}

	for _, l := range inv {
		if l.Kind == "endpoint" {
			if len(src.mounted[l.Name]) == 0 {
				t.Errorf("endpoint %s (line %d) is not mounted anywhere", l.Name, l.No)
			}
		} else if !matched[l.No] {
			t.Errorf("%s (line %d) is not exported", l.Name, l.No)
		}
		if len(l.Consumers) == 0 {
			t.Errorf("%s (line %d) names no consumer", l.Name, l.No)
		}
		for _, c := range l.Consumers {
			if err := checkConsumer(root, src, l, c); err != "" {
				t.Errorf("%s (line %d): consumer %s %s", l.Name, l.No, c, err)
			}
		}
	}
}

// lineFor finds the metric line of a registered name.
func lineFor(inv []inventory.Line, name string) (inventory.Line, bool) {
	for _, l := range inv {
		if l.Kind != "endpoint" && l.Name == name {
			return l, true
		}
	}
	return inventory.Line{}, false
}

// endpointFor finds the endpoint line covering a mounted pattern: its
// own, or a line ending in / that the pattern lies below.
func endpointFor(inv []inventory.Line, pattern string) (inventory.Line, bool) {
	for _, l := range inv {
		if l.Kind == "endpoint" && (l.Name == pattern || strings.HasSuffix(l.Name, "/") && strings.HasPrefix(pattern, l.Name)) {
			return l, true
		}
	}
	return inventory.Line{}, false
}

// exportedKinds reads every metric family and its kind off the default
// registry's /metrics rendering.
func exportedKinds(t *testing.T) map[string]string {
	t.Helper()
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			out[name] = kind
		}
	}
	return out
}

// source is what the module's non-test Go files register and mount.
type source struct {
	registered map[string][]string // metric name -> registering files
	mounted    map[string][]string // /metrics or /debug/ pattern -> mounting files
}

// registerCalls are the Registry methods that take a metric name first.
var registerCalls = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "GaugeVec": true,
	"HistogramVec": true,
}

// scanSource walks the module's non-test Go files (bench/ is a separate
// module and registers nothing) for registrations and mounts by literal
// name.
func scanSource(t *testing.T, root string) source {
	t.Helper()
	src := source{registered: map[string][]string{}, mounted: map[string][]string{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := inventory.StringLit(call.Args[0])
			if !ok {
				return true
			}
			switch method := sel.Sel.Name; {
			case registerCalls[method]:
				src.registered[arg] = append(src.registered[arg], rel)
			case method == "Handle" || method == "HandleFunc":
				pattern := strings.TrimPrefix(arg, "GET ")
				if pattern == "/metrics" || strings.HasPrefix(pattern, "/debug/") {
					src.mounted[pattern] = append(src.mounted[pattern], rel)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// checkConsumer returns why consumer path c does not consume line l,
// or "" when it does. In Go only string literals count, and not those
// of a test's failure messages.
func checkConsumer(root string, src source, l inventory.Line, c string) string {
	open := strings.HasSuffix(l.Name, "/")
	return inventory.Consumer(root, c, append(src.registered[l.Name], src.mounted[l.Name]...), func(f *ast.File, text string) bool {
		if f == nil {
			return inventory.Mentions(text, l.Name, open)
		}
		for _, s := range inventory.StringLiterals(f) {
			if inventory.Mentions(s, l.Name, open) {
				return true
			}
		}
		return false
	})
}
