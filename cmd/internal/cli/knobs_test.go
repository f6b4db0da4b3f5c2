package cli_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dpsadopt/internal/inventory"
)

// configPackages are the packages whose Config fields the knob
// inventory covers.
var configPackages = []string{"experiment", "measure", "api", "coord", "follow", "chaos"}

// knob is one flag of a binary or one field of a Config.
type knob struct {
	defining []string // files that define it: no consumer
	// names reports whether a consumer names and sets it: a parsed Go
	// file (f != nil) or a script's text.
	names func(f *ast.File, text string) bool
	field bool
}

// TestKnobInventory holds testdata/knobs.txt to the command surface and
// the Config structs: the inventory names exactly the flags the -help
// goldens pin and the exported fields of every covered Config, and every
// line names consumers that set it. A flag may instead say deploy or
// point with -> at an identifier that exists; a field it points at needs
// its own line.
func TestKnobInventory(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	inv, err := inventory.Read(filepath.Join("testdata", "knobs.txt"), false)
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[string]knob{}
	flagKnobs(t, root, knobs)
	for _, pkg := range configPackages {
		fieldKnobs(t, root, pkg, knobs)
	}
	listed := map[string]bool{}
	for _, l := range inv {
		listed[l.Name] = true
	}
	for name := range knobs {
		if !listed[name] {
			t.Errorf("%s has no line in testdata/knobs.txt", name)
		}
	}
	for _, l := range inv {
		k, ok := knobs[l.Name]
		if !ok {
			t.Errorf("%s (line %d) is neither a flag in scripts/testdata/cli-help nor a field of a covered Config", l.Name, l.No)
			continue
		}
		if len(l.Consumers) == 0 {
			t.Errorf("%s (line %d) names no consumer", l.Name, l.No)
		}
		for i := 0; i < len(l.Consumers); i++ {
			c := l.Consumers[i]
			switch {
			case (c == "deploy" || c == "->") && k.field:
				t.Errorf("%s (line %d): a Config field needs a consumer, not %s", l.Name, l.No, c)
			case c == "deploy":
			case c == "->":
				i++
				if i == len(l.Consumers) {
					t.Errorf("%s (line %d): -> names no identifier", l.Name, l.No)
					break
				}
				target := l.Consumers[i]
				isField, ok := lookup(t, root, target)
				if !ok {
					t.Errorf("%s (line %d): -> %s does not exist", l.Name, l.No, target)
				} else if isField && !listed[target] {
					t.Errorf("%s (line %d): -> %s is a field without a line of its own", l.Name, l.No, target)
				}
			default:
				if why := inventory.Consumer(root, c, k.defining, k.names); why != "" {
					t.Errorf("%s (line %d): consumer %s %s", l.Name, l.No, c, why)
				}
			}
		}
	}
}

// flagKnobs adds every flag the -help goldens list, named <binary>:-<flag>.
// A script or Go string naming the flag and the binary consumes it.
func flagKnobs(t *testing.T, root string, knobs map[string]knob) {
	t.Helper()
	goldens, err := filepath.Glob(filepath.Join(root, "scripts", "testdata", "cli-help", "*.txt"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no -help goldens: %v", err)
	}
	for _, g := range goldens {
		data, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		bin := strings.TrimSuffix(filepath.Base(g), ".txt")
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "  -") {
				continue
			}
			flag := strings.Fields(line)[0]
			knobs[bin+":"+flag] = knob{
				defining: []string{"cmd/" + bin + "/main.go", "cmd/internal/cli/cli.go"},
				names: func(f *ast.File, text string) bool {
					return named(f, text, bin) && named(f, text, flag)
				},
			}
		}
	}
}

// fieldKnobs adds the exported fields of internal/<pkg>'s Config, named
// <pkg>.Config.<Field>. A test, bench file or Go code outside the
// package consumes a field when it sets it to a value other than a zero
// literal. A chaos field is also set by naming a scenario that sets it.
func fieldKnobs(t *testing.T, root, pkg string, knobs map[string]knob) {
	t.Helper()
	files := parsePackage(t, filepath.Join(root, "internal", pkg))
	var defining []string
	var fields []string
	scenarios := map[string][]string{} // field -> scenarios setting it
	for rel, f := range files {
		defining = append(defining, "internal/"+pkg+"/"+rel)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Config" {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, id.Name)
							}
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == 1 && n.Names[0].Name == "scenarios" && len(n.Values) == 1 {
					for _, e := range n.Values[0].(*ast.CompositeLit).Elts {
						kv := e.(*ast.KeyValueExpr)
						name, _ := inventory.StringLit(kv.Key)
						for _, fe := range kv.Value.(*ast.CompositeLit).Elts {
							fk := fe.(*ast.KeyValueExpr).Key.(*ast.Ident).Name
							scenarios[fk] = append(scenarios[fk], name)
						}
					}
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		t.Fatalf("internal/%s has no Config struct", pkg)
	}
	for _, field := range fields {
		knobs[pkg+".Config."+field] = knob{
			defining: defining,
			field:    true,
			names: func(f *ast.File, text string) bool {
				return f != nil && setsField(f, pkg, field) ||
					slices.ContainsFunc(scenarios[field], func(sc string) bool { return named(f, text, sc) })
			},
		}
	}
}

// named reports whether a script's text, or one of a Go file's string
// literals, mentions needle.
func named(f *ast.File, text, needle string) bool {
	texts := []string{text}
	if f != nil {
		texts = inventory.StringLiterals(f)
	}
	return slices.ContainsFunc(texts, func(s string) bool { return inventory.Mentions(s, needle, false) })
}

// setsField reports whether f sets pkg's Config.field to something
// other than a zero literal: as a key of a Config literal, or by
// assigning x.field. The assignment's type is not checked: naming the
// field there is taken as setting it.
func setsField(f *ast.File, pkg, field string) bool {
	isConfig := func(e ast.Expr) bool {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == pkg && sel.Sel.Name == "Config"
		}
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "Config" && f.Name.Name == pkg
	}
	sets := func(key, val ast.Expr) bool {
		id, ok := key.(*ast.Ident)
		return ok && id.Name == field && !zeroLit(val)
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && n.Type != nil && isConfig(n.Type) && sets(kv.Key, kv.Value) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && len(n.Rhs) == len(n.Lhs) && sets(sel.Sel, n.Rhs[i]) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// zeroLit reports whether e is a literal zero value: what a field holds
// unset.
func zeroLit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		s, _ := inventory.StringLit(e)
		return e.Value == "0" || e.Value == "0.0" || e.Kind == token.STRING && s == ""
	case *ast.Ident:
		return e.Name == "false" || e.Name == "nil"
	}
	return false
}

// parsePackage parses a directory's non-test Go files, keyed by name.
func parsePackage(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, path := range names {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(path)] = f
	}
	return files
}

// lookup resolves a -> target, <pkg>.<Name> or <pkg>.<Type>.<Member>
// in internal/<pkg>: whether it exists and whether it is a struct field.
func lookup(t *testing.T, root, target string) (isField, ok bool) {
	pkg, name, _ := strings.Cut(target, ".")
	if !ast.IsExported(name[strings.LastIndex(name, ".")+1:]) {
		return false, false
	}
	for _, f := range parsePackage(t, filepath.Join(root, "internal", pkg)) {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, isIdent := typ.(*ast.Ident); isIdent {
						recv = id.Name + "."
					}
				}
				ok = ok || recv+d.Name.Name == name
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						ok = ok || sp.Name.Name == name
						if st, isStruct := sp.Type.(*ast.StructType); isStruct {
							for _, fl := range st.Fields.List {
								for _, id := range fl.Names {
									isField = isField || sp.Name.Name+"."+id.Name == name
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							ok = ok || id.Name == name
						}
					}
				}
			}
		}
	}
	return isField, ok || isField
}
