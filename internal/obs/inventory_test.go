package obs_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dpsadopt/internal/api"
	"dpsadopt/internal/core"
	_ "dpsadopt/internal/dnsclient"
	_ "dpsadopt/internal/dnsserver"
	_ "dpsadopt/internal/experiment"
	_ "dpsadopt/internal/follow"
	_ "dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/store"
	_ "dpsadopt/internal/transport"
)

// inventoryLine is one entry of testdata/metrics.txt.
type inventoryLine struct {
	name, kind string
	consumers  []string
	lineNo     int
}

// prefix is the name a family line (…_<route>) matches registered names
// by, or the whole name for a plain line.
func (l inventoryLine) prefix() string {
	p, _, _ := strings.Cut(l.name, "<route>")
	return p
}

func (l inventoryLine) family() bool { return strings.Contains(l.name, "<route>") }

// TestMetricInventory holds testdata/metrics.txt to the process: the
// inventory names exactly the metrics the default registry exports (with
// their kinds) and the /metrics and /debug/ endpoints the source mounts,
// and every line names at least one consumer that really contains it.
func TestMetricInventory(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	inv := readInventory(t)
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
		matched[l.lineNo] = true
		if l.kind != kind {
			t.Errorf("%s: exported as %s, inventory line %d says %s", name, kind, l.lineNo, l.kind)
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
		if l.kind == "endpoint" {
			if len(src.mounted[l.name]) == 0 {
				t.Errorf("endpoint %s (line %d) is not mounted anywhere", l.name, l.lineNo)
			}
		} else if !matched[l.lineNo] {
			t.Errorf("%s (line %d) is not exported", l.name, l.lineNo)
		}
		if len(l.consumers) == 0 {
			t.Errorf("%s (line %d) names no consumer", l.name, l.lineNo)
		}
		for _, c := range l.consumers {
			if err := checkConsumer(root, src, l, c); err != "" {
				t.Errorf("%s (line %d): consumer %s %s", l.name, l.lineNo, c, err)
			}
		}
	}
}

func readInventory(t *testing.T) []inventoryLine {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var inv []inventoryLine
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			t.Fatalf("testdata/metrics.txt:%d: want <name> <kind> <consumer>...", n)
		}
		if seen[fields[0]] {
			t.Errorf("%s is listed twice (line %d)", fields[0], n)
		}
		seen[fields[0]] = true
		inv = append(inv, inventoryLine{name: fields[0], kind: fields[1], consumers: fields[2:], lineNo: n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return inv
}

// lineFor finds the metric line a registered name belongs to: its own
// line, or the per-route family its name extends.
func lineFor(inv []inventoryLine, name string) (inventoryLine, bool) {
	for _, l := range inv {
		if l.kind == "endpoint" {
			continue
		}
		if l.name == name || l.family() && strings.HasPrefix(name, l.prefix()) {
			return l, true
		}
	}
	return inventoryLine{}, false
}

// endpointFor finds the endpoint line covering a mounted pattern: its
// own, or a line ending in / that the pattern lies below.
func endpointFor(inv []inventoryLine, pattern string) (inventoryLine, bool) {
	for _, l := range inv {
		if l.kind == "endpoint" && (l.name == pattern || strings.HasSuffix(l.name, "/") && strings.HasPrefix(pattern, l.name)) {
			return l, true
		}
	}
	return inventoryLine{}, false
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
	"HistogramVec": true, "RegisterWindowCounter": true, "RegisterWindowHistogram": true,
}

// messageCalls are the testing.T methods whose arguments are messages.
var messageCalls = map[string]bool{
	"Error": true, "Errorf": true, "Fatal": true, "Fatalf": true, "Log": true, "Logf": true,
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
			arg, ok := stringLit(call.Args[0])
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

func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// checkConsumer returns why consumer path c does not consume line l, or
// "" when it does.
func checkConsumer(root string, src source, l inventoryLine, c string) string {
	dir, base := filepath.Split(c)
	isGo := strings.HasSuffix(c, ".go")
	switch {
	case strings.HasSuffix(c, "_test.go"):
	case dir == "scripts/" && strings.HasSuffix(base, ".sh"):
	case dir == "bench/" && isGo:
	case isGo:
		for _, f := range append(src.registered[l.name], src.mounted[l.name]...) {
			if f == c {
				return "is the file that registers it"
			}
		}
	default:
		return "is not a test, a scripts/*.sh smoke script, a bench/*.go file or Go code reading it"
	}
	data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(c)))
	if err != nil {
		return "cannot be read: " + err.Error()
	}
	texts := []string{string(data)}
	if isGo {
		// In Go only string literals count, and not those of a test's
		// failure messages: a comment or a message naming a metric does
		// not read it.
		file, err := parser.ParseFile(token.NewFileSet(), c, data, 0)
		if err != nil {
			return "does not parse: " + err.Error()
		}
		texts = texts[:0]
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && messageCalls[sel.Sel.Name] {
					return false
				}
			}
			if s, ok := stringLit(n); ok {
				texts = append(texts, s)
			}
			return true
		})
	}
	for _, s := range texts {
		if mentions(s, l) {
			return ""
		}
	}
	return "does not name it outside comments and failure messages"
}

// mentions reports whether s names l as a whole token: a metric name
// not embedded in a longer identifier, an endpoint not the prefix of a
// longer path segment.
func mentions(s string, l inventoryLine) bool {
	needle := l.prefix()
	for i := 0; ; {
		j := strings.Index(s[i:], needle)
		if j < 0 {
			return false
		}
		start, end := i+j, i+j+len(needle)
		before := start == 0 || !identByte(s[start-1]) || strings.HasPrefix(needle, "/")
		after := l.family() || strings.HasSuffix(needle, "/") || end == len(s) || !identByte(s[end])
		if before && after {
			return true
		}
		i = start + 1
	}
}

func identByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}
