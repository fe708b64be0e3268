package rpingmesh_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The module's size and surface, under one definition that
// TestSurfaceDefinition pins on testdata/surface:
//
//   - lines: every line of every non-test .go file outside bench/;
//   - exported identifiers: in non-main packages outside bench/, every
//     exported top-level func, type, var and const, every exported method
//     of an exported type, and every exported named field of an exported
//     struct type;
//   - internal packages: directories under internal/ holding a non-test
//     .go file.
//
// The walk skips dot-directories, directories starting with "_" and
// testdata/, as the go tool does. It parses in-process and runs nothing.
type surface struct {
	lines, exported, packages int
	// unreferenced lists every counted export whose name no identifier
	// in a non-test file of the module (bench/, cmd/ and examples/
	// included) carries, apart from declarations. Matching by name can
	// miss a dead export but never flags a used one.
	unreferenced []string
}

// export is one counted name and where it is declared: "dir.Name" or
// "dir.Type.Name" with dir relative to the module root.
type export struct{ key, name string }

func scanSurface(root string) (surface, error) {
	var s surface
	var exports []export
	decls := map[token.Pos]bool{}
	used := map[string]bool{}
	internalPkgs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inBench := dir == "bench" || strings.HasPrefix(dir, "bench/")
		if !inBench {
			s.lines += bytes.Count(src, []byte("\n"))
			if len(src) > 0 && src[len(src)-1] != '\n' {
				s.lines++
			}
			if strings.HasPrefix(dir, "internal/") {
				internalPkgs[dir] = true
			}
		}
		names := declaredNames(f, decls)
		if !inBench && f.Name.Name != "main" {
			for _, e := range names {
				exports = append(exports, export{key: dir + "." + e.key, name: e.name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id.Pos()] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return s, err
	}
	s.exported = len(exports)
	s.packages = len(internalPkgs)
	for _, e := range exports {
		if !used[e.name] {
			s.unreferenced = append(s.unreferenced, e.key)
		}
	}
	sort.Strings(s.unreferenced)
	return s, nil
}

// declaredNames marks the name of every top-level declaration, method and
// struct field of f in decls (exported or not: a declaration is never a
// reference) and returns the exported ones that count, keyed without the
// directory.
func declaredNames(f *ast.File, decls map[token.Pos]bool) []export {
	var out []export
	add := func(id *ast.Ident, key string, counts bool) {
		decls[id.Pos()] = true
		if counts && id.IsExported() {
			out = append(out, export{key: key, name: id.Name})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d.Name.Name, true)
				continue
			}
			recv := receiverName(d.Recv.List[0].Type)
			add(d.Name, recv+"."+d.Name.Name, ast.IsExported(recv))
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, id.Name, true)
					}
				case *ast.TypeSpec:
					add(spec.Name, spec.Name.Name, true)
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							add(id, spec.Name.Name+"."+id.Name, spec.Name.IsExported())
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the base type name of a method receiver: T, *T, T[P]
// and *T[P] all give T.
func receiverName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// readAllow parses an allow-list: one "key reason…" entry a line, "#"
// comments and blank lines ignored. Every entry must give a reason.
func readAllow(path string) (map[string]bool, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for n, line := range strings.Split(string(src), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) == 1 {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n+1, f[0])
		}
		allow[f[0]] = true
	}
	return allow, nil
}

// checkAllow returns the unreferenced exports missing from allow and the
// allow-list entries that are referenced again or no longer declared, so
// the list can only shrink.
func checkAllow(unreferenced []string, allow map[string]bool) (missing, stale []string) {
	dead := map[string]bool{}
	for _, k := range unreferenced {
		dead[k] = true
		if !allow[k] {
			missing = append(missing, k)
		}
	}
	for k := range allow {
		if !dead[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return missing, stale
}

// TestSurface prints the module's size and surface (quote it in
// CHANGES.md: `go test -run TestSurface -v .`) and fails on an export
// that nothing outside tests names, unless testdata/surface_allow.txt
// lists it with a reason.
func TestSurface(t *testing.T) {
	s, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-test lines outside bench/: %d", s.lines)
	t.Logf("exported identifiers: %d", s.exported)
	t.Logf("internal packages: %d", s.packages)
	t.Logf("unreferenced exports: %d", len(s.unreferenced))

	allow, err := readAllow("testdata/surface_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := checkAllow(s.unreferenced, allow)
	for _, k := range missing {
		t.Errorf("%s is exported but no non-test file names it: delete or unexport it", k)
	}
	for _, k := range stale {
		t.Errorf("testdata/surface_allow.txt lists %s, which is referenced again or gone: drop the entry", k)
	}
}

// TestSurfaceDefinition pins the definition on a small module: every
// kind of counted and uncounted declaration, skipped directories, a main
// package, bench/, and the allow-list's both failure directions.
func TestSurfaceDefinition(t *testing.T) {
	s, err := scanSurface("testdata/surface")
	if err != nil {
		t.Fatal(err)
	}
	if s.lines != 51 || s.exported != 9 || s.packages != 2 {
		t.Errorf("lines=%d exported=%d packages=%d, want 51, 9, 2", s.lines, s.exported, s.packages)
	}
	wantDead := []string{"internal/lib.Dead", "internal/lib.Thing.Unread", "internal/lib.Thing.Unused"}
	if fmt.Sprint(s.unreferenced) != fmt.Sprint(wantDead) {
		t.Errorf("unreferenced = %v, want %v", s.unreferenced, wantDead)
	}

	allow, err := readAllow("testdata/surface/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := checkAllow(s.unreferenced, allow)
	if fmt.Sprint(missing) != "[internal/lib.Thing.Unread]" || fmt.Sprint(stale) != "[internal/lib.Used]" {
		t.Errorf("missing=%v stale=%v, want [internal/lib.Thing.Unread] and [internal/lib.Used]", missing, stale)
	}
	if _, err := readAllow("testdata/surface/noreason.txt"); err == nil {
		t.Error("an allow-list entry without a reason was accepted")
	}
}
