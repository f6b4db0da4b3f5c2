package cli_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dpsadopt/internal/inventory"
)

// TestEveryFunctionIsLinked holds the internal/ packages to what ships:
// every function and method declared in their non-test files must be
// linked into a cmd/ binary or the bench harness, or have a line in
// testdata/unlinked.txt saying why not. Both are built with inlining off,
// so every function that is called keeps a symbol; the linker's dead-code
// pass has dropped the rest. A line for a function that is now linked, or
// that no longer exists, fails too.
func TestEveryFunctionIsLinked(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	allow, err := inventory.Read(filepath.Join("testdata", "unlinked.txt"), false)
	if err != nil {
		t.Fatal(err)
	}
	declared, types := declaredFuncs(t, filepath.Join(root, "internal"))
	bin := t.TempDir()
	// Every cmd/ main, one binary each, and the bench harness (its own
	// module).
	run(t, root, "go", "build", "-gcflags=dpsadopt/...=-l", "-o", bin+string(filepath.Separator), "./cmd/...")
	run(t, filepath.Join(root, "bench"), "go", "build", "-gcflags=dpsadopt/...=-l", "-o", filepath.Join(bin, "bench"), ".")
	bins, err := filepath.Glob(filepath.Join(bin, "*"))
	if err != nil || len(bins) < 2 {
		t.Fatalf("built %d binaries: %v", len(bins), err)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		for _, line := range strings.Split(string(run(t, root, "go", "tool", "nm", b)), "\n") {
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				if key, ok := funcKey(f[2], types); ok {
					linked[key] = true
				}
			}
		}
	}
	listed := map[string]bool{}
	for _, l := range allow {
		listed[l.Name] = true
		switch _, ok := declared[l.Name]; {
		case !ok:
			t.Errorf("%s (unlinked.txt line %d) is declared in no internal/ package", l.Name, l.No)
		case linked[l.Name]:
			t.Errorf("%s (unlinked.txt line %d) is linked: drop its line", l.Name, l.No)
		case len(l.Consumers) == 0:
			t.Errorf("%s (unlinked.txt line %d) gives no reason", l.Name, l.No)
		}
	}
	var dead []string
	for key, pos := range declared {
		if !linked[key] && !listed[key] {
			dead = append(dead, fmt.Sprintf("%s (%s)", key, pos))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is linked by no binary: delete it or give it a line in testdata/unlinked.txt", d)
	}
}

// declaredFuncs returns every function and method declared in the
// non-test files under dir that build on this platform, keyed
// <pkg>.<Func> or <pkg>.<Type>.<Method> with its position, and the type
// names each package declares.
func declaredFuncs(t *testing.T, dir string) (map[string]string, map[string]bool) {
	t.Helper()
	funcs, types := map[string]string{}, map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || d.Name() == "testdata" {
			return err
		}
		p, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		pkg := filepath.ToSlash(rel)
		fset := token.NewFileSet()
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					key := pkg + "." + decl.Name.Name
					if decl.Recv != nil {
						key = pkg + "." + recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
					}
					pos := fset.Position(decl.Pos())
					funcs[key] = fmt.Sprintf("internal/%s/%s:%d", pkg, name, pos.Line)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							types[pkg+"."+ts.Name.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, types
}

// recvName is a receiver's type name, without pointer or type parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	}
	return e.(*ast.Ident).Name
}

// funcKey maps a linker symbol of an internal/ package to the key of the
// function it belongs to: type arguments, pointer receivers, method-value
// wrappers and closures all fold into the declaring function.
func funcKey(sym string, types map[string]bool) (string, bool) {
	rest, ok := strings.CutPrefix(sym, "dpsadopt/internal/")
	if !ok {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range rest {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	pkg, name, ok := strings.Cut(strings.TrimSuffix(b.String(), "-fm"), ".")
	if !ok || name == "" || name[0] == '.' {
		return "", false // compiler-made data and helpers (..dict, ..stmp)
	}
	parts := strings.Split(name, ".")
	if len(parts) > 1 && types[pkg+"."+parts[0]] {
		return pkg + "." + parts[0] + "." + parts[1], true
	}
	return pkg + "." + parts[0], true
}

// run runs a command in dir and returns its standard output.
func run(t *testing.T, dir, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, ee.Stderr)
	} else if err != nil {
		t.Fatal(err)
	}
	return out
}
