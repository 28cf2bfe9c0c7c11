package flos_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPIManifest is the compatibility gate for the root flos package:
// it extracts every exported declaration (functions, methods, types, consts,
// vars) with its rendered signature and compares the sorted manifest against
// the checked-in golden. Any change to the public surface — a removed
// symbol, a changed signature, an added field — fails CI until the golden is
// regenerated deliberately:
//
//	FLOS_UPDATE_GOLDEN=1 go test -run TestPublicAPIManifest .
//
// The extractor is stdlib-only (go/parser over this directory), so the gate
// needs no external tooling.
func TestPublicAPIManifest(t *testing.T) {
	manifest := buildAPIManifest(t, ".")
	goldenPath := filepath.Join("testdata", "api_manifest.txt")

	if os.Getenv("FLOS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", goldenPath, strings.Count(manifest, "\n"))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with FLOS_UPDATE_GOLDEN=1): %v", err)
	}
	if manifest == string(want) {
		return
	}
	// Report the precise drift, line by line.
	gotLines := strings.Split(manifest, "\n")
	wantLines := strings.Split(string(want), "\n")
	gotSet := make(map[string]bool, len(gotLines))
	for _, l := range gotLines {
		gotSet[l] = true
	}
	wantSet := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		wantSet[l] = true
	}
	for _, l := range wantLines {
		if l != "" && !gotSet[l] {
			t.Errorf("removed or changed: %s", l)
		}
	}
	for _, l := range gotLines {
		if l != "" && !wantSet[l] {
			t.Errorf("added or changed:   %s", l)
		}
	}
	t.Fatalf("public API drifted from %s; if intentional, regenerate with FLOS_UPDATE_GOLDEN=1 go test -run TestPublicAPIManifest .", goldenPath)
}

// buildAPIManifest renders one sorted line per exported symbol of the
// package in dir (test files excluded). A type alias into another package
// of this module (type X = pkg.Y) is also expanded into Y's exported
// fields, interface methods and methods, listed under X as if declared
// here, so a field or method added to or removed from the aliased type
// changes the manifest too.
func buildAPIManifest(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	parse := func(dir string) *ast.Package {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) != 1 {
			t.Fatalf("want one package in %s, got %v", dir, pkgs)
		}
		for _, p := range pkgs {
			return p
		}
		return nil
	}
	pkg := parse(dir)
	if pkg.Name != "flos" {
		t.Fatalf("package flos not found in %s (got %s)", dir, pkg.Name)
	}

	render := func(n ast.Node) string {
		var sb strings.Builder
		if err := (&printer.Config{Mode: printer.RawFormat}).Fprint(&sb, fset, n); err != nil {
			t.Fatal(err)
		}
		// Collapse to one line so the manifest diffs cleanly.
		return strings.Join(strings.Fields(sb.String()), " ")
	}

	var lines []string
	// typeBody lists the exported fields or methods of a struct or
	// interface type under name.
	typeBody := func(name string, typ ast.Expr) {
		switch tt := typ.(type) {
		case *ast.StructType:
			lines = append(lines, fmt.Sprintf("type %s struct", name))
			for _, f := range tt.Fields.List {
				ft := render(f.Type)
				if len(f.Names) == 0 {
					// Embedded field: exported iff its type name is.
					base := strings.TrimPrefix(ft, "*")
					if i := strings.LastIndex(base, "."); i >= 0 {
						base = base[i+1:]
					}
					if ast.IsExported(base) {
						lines = append(lines, fmt.Sprintf("type %s struct: %s (embedded)", name, ft))
					}
					continue
				}
				for _, fn := range f.Names {
					if fn.IsExported() {
						lines = append(lines, fmt.Sprintf("type %s struct: %s %s", name, fn.Name, ft))
					}
				}
			}
		case *ast.InterfaceType:
			lines = append(lines, fmt.Sprintf("type %s interface", name))
			for _, m := range tt.Methods.List {
				mt := render(m.Type)
				if len(m.Names) == 0 {
					lines = append(lines, fmt.Sprintf("type %s interface: %s (embedded)", name, mt))
					continue
				}
				for _, mn := range m.Names {
					if mn.IsExported() {
						lines = append(lines, fmt.Sprintf("type %s interface: %s%s", name, mn.Name, strings.TrimPrefix(mt, "func")))
					}
				}
			}
		}
	}
	// method renders an exported method of an exported receiver type, the
	// receiver named as (*as) or (as); with as empty, the receiver's own name.
	method := func(d *ast.FuncDecl, as string) (recvName, line string) {
		if !d.Name.IsExported() || d.Recv == nil || len(d.Recv.List) == 0 {
			return "", ""
		}
		rt := render(d.Recv.List[0].Type)
		recvName = strings.TrimPrefix(rt, "*")
		if !ast.IsExported(recvName) {
			return "", ""
		}
		if as != "" {
			rt = strings.TrimSuffix(rt, recvName) + as
		}
		// d.Type renders as "func(args) results"; splice the name in.
		return recvName, "func (" + rt + ") " + d.Name.Name + strings.TrimPrefix(render(d.Type), "func")
	}
	// expandAlias lists the shape of the type sel names in another package
	// of this module under the alias name.
	parsed := map[string]*ast.Package{}
	expandAlias := func(file *ast.File, name string, sel *ast.SelectorExpr) {
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		var path string
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if local == pkgIdent.Name {
				path = p
			}
		}
		rel, ok := strings.CutPrefix(path, "flos/")
		if !ok {
			return // outside this module
		}
		target := parsed[rel]
		if target == nil {
			target = parse(filepath.Join(dir, rel))
			parsed[rel] = target
		}
		for _, f := range target.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if recv, line := method(d, name); recv == sel.Sel.Name {
						lines = append(lines, line)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == sel.Sel.Name {
							typeBody(name, ts.Type)
						}
					}
				}
			}
		}
	}

	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					if _, line := method(d, ""); line != "" {
						lines = append(lines, line)
					}
					continue
				}
				lines = append(lines, "func "+d.Name.Name+strings.TrimPrefix(render(d.Type), "func"))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						switch sp.Type.(type) {
						case *ast.StructType, *ast.InterfaceType:
							typeBody(sp.Name.Name, sp.Type)
						default:
							if sp.Assign == token.NoPos {
								lines = append(lines, fmt.Sprintf("type %s %s", sp.Name.Name, render(sp.Type)))
								continue
							}
							lines = append(lines, fmt.Sprintf("type %s = %s", sp.Name.Name, render(sp.Type)))
							if sel, ok := sp.Type.(*ast.SelectorExpr); ok {
								expandAlias(file, sp.Name.Name, sel)
							}
						}
					case *ast.ValueSpec:
						kw := "var"
						if d.Tok == token.CONST {
							kw = "const"
						}
						typ := ""
						if sp.Type != nil {
							typ = " " + render(sp.Type)
						}
						for i, name := range sp.Names {
							if !name.IsExported() {
								continue
							}
							val := ""
							// Record const values only when they are stable
							// identifiers (aliases like ModeExact = core.ModeExact
							// render by name, not by the internal value).
							if d.Tok == token.CONST && i < len(sp.Values) {
								if id, ok := sp.Values[i].(*ast.SelectorExpr); ok {
									val = " = " + render(id)
								}
							}
							lines = append(lines, fmt.Sprintf("%s %s%s%s", kw, name.Name, typ, val))
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
