// Package inventory holds what the repository's two inventories share:
// internal/obs/testdata/metrics.txt (every exported metric and debug
// endpoint) and cmd/internal/cli/testdata/knobs.txt (every flag and
// Config field). Each is a text file of lines naming one thing and the
// files that consume it; a test per inventory holds the file to the
// source tree with Read and Consumer. Only tests import this package.
package inventory

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Line is one entry of an inventory file.
type Line struct {
	Name      string
	Kind      string // the second column, in a file that has one
	Consumers []string
	No        int // line number, from 1
}

// Read parses an inventory file. Blank lines and lines starting with #
// are skipped; every other line is <name> <consumer>..., or <name>
// <kind> <consumer>... when kinded is set. A name listed twice is an
// error.
func Read(path string, kinded bool) ([]Line, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []Line
	seen := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		l := Line{Name: fields[0], Consumers: fields[1:], No: n}
		if kinded {
			if len(fields) < 2 {
				return nil, fmt.Errorf("%s:%d: want <name> <kind> <consumer>...", path, n)
			}
			l.Kind, l.Consumers = fields[1], fields[2:]
		}
		if prev, ok := seen[l.Name]; ok {
			return nil, fmt.Errorf("%s:%d: %s is already listed on line %d", path, n, l.Name, prev)
		}
		seen[l.Name] = n
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// Consumer returns why the file rel (a slash-separated path from root)
// does not consume a name, or "" when it does. A consumer is a test, a
// scripts/*.sh smoke script, a CI workflow, a bench/*.go file or other
// Go code, but none of the defining files; it must name the thing, as
// names decides: on the parsed file for Go (text is then empty), on the
// whole text otherwise.
func Consumer(root, rel string, defining []string, names func(f *ast.File, text string) bool) string {
	dir, base := filepath.Split(rel)
	isGo := strings.HasSuffix(rel, ".go")
	switch {
	case strings.HasSuffix(rel, "_test.go"):
	case dir == "scripts/" && strings.HasSuffix(base, ".sh"):
	case dir == ".github/workflows/" && strings.HasSuffix(base, ".yml"):
	case dir == "bench/" && isGo:
	case isGo:
		for _, f := range defining {
			if f == rel {
				return "is the file that defines it"
			}
		}
	default:
		return "is not a test, a scripts/*.sh smoke script, a CI workflow, a bench/*.go file or Go code"
	}
	data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		return "cannot be read: " + err.Error()
	}
	var ok bool
	if isGo {
		f, err := parser.ParseFile(token.NewFileSet(), rel, data, 0)
		if err != nil {
			return "does not parse: " + err.Error()
		}
		ok = names(f, "")
	} else {
		ok = names(nil, string(data))
	}
	if !ok {
		return "does not name it"
	}
	return ""
}

// messageCalls are the testing.T methods whose arguments are messages.
var messageCalls = map[string]bool{
	"Error": true, "Errorf": true, "Fatal": true, "Fatalf": true, "Log": true, "Logf": true,
}

// StringLiterals returns a Go file's string literals, leaving out those
// of a test's failure messages: a comment or a message naming a thing
// does not consume it.
func StringLiterals(f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && messageCalls[sel.Sel.Name] {
				return false
			}
		}
		if s, ok := StringLit(n); ok {
			out = append(out, s)
		}
		return true
	})
	return out
}

// StringLit returns the value of a string literal node.
func StringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// Mentions reports whether s names needle as a whole token: not inside
// a longer identifier or flag name. An open needle (a name prefix) may
// run on; a needle starting with / (a path) needs no left boundary.
func Mentions(s, needle string, open bool) bool {
	for i := 0; ; {
		j := strings.Index(s[i:], needle)
		if j < 0 {
			return false
		}
		start, end := i+j, i+j+len(needle)
		before := start == 0 || !wordByte(s[start-1]) || strings.HasPrefix(needle, "/")
		after := open || end == len(s) || !wordByte(s[end])
		if before && after {
			return true
		}
		i = start + 1
	}
}

func wordByte(c byte) bool {
	return c == '_' || c == '-' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}
