package trajcover

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadSurfaceAllowed lists the exported internal declarations that no
// non-test code names, each kept on purpose. The list may only shrink:
// TestNoDeadInternalSurface fails on a stale entry as well as on a new
// unreferenced declaration.
var deadSurfaceAllowed = map[string]string{
	"datagen.NYRoutes":          "Table I size, documents the paper's dataset",
	"datagen.NYStops":           "Table I size, documents the paper's dataset",
	"datagen.BJRoutes":          "Table I size, documents the paper's dataset",
	"datagen.BJStops":           "Table I size, documents the paper's dataset",
	"faultfs.Injector.Injected": "test instrumentation: counts faults an injector fired",
	"faultfs.ErrNoSpace":        "test instrumentation: the injected ENOSPC error",
	"mmap.ZeroCopy":             "test instrumentation: whether mapping aliases the file",
	"mmap.Mapping.Refs":         "test instrumentation: a mapping's reference count",
	"tenant.Watcher.Current":    "test instrumentation: the overrides a watcher last loaded",
	"trajectory.Set.ByID":       "oracle for other packages' tests",
}

// TestNoDeadInternalSurface parses every non-test Go file of the root
// module and of benchmark/ and fails on any exported top-level
// declaration in internal/* whose name appears in no non-test file except
// at its own declaration; a method counts when its receiver type is
// exported. The check is by name, so it errs towards keeping: a name some
// other code spells survives even if that code means another declaration.
func TestNoDeadInternalSurface(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string // pkg.Name or pkg.Recv.Name
		pos token.Pos
	}
	var decls []decl
	declPos := map[token.Pos]bool{}
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parts := strings.Split(filepath.ToSlash(filepath.Dir(path)), "/")
		internal := len(parts) == 2 && parts[0] == "internal"
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				declPos[dl.Name.Pos()] = true
				if !internal || !dl.Name.IsExported() {
					continue
				}
				key := parts[1] + "." + dl.Name.Name
				if dl.Recv != nil {
					recv := receiverName(dl.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					key = parts[1] + "." + recv + "." + dl.Name.Name
				}
				decls = append(decls, decl{key, dl.Name.Pos()})
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						declPos[id.Pos()] = true
						if internal && id.IsExported() {
							decls = append(decls, decl{parts[1] + "." + id.Name, id.Pos()})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declPos[id.Pos()] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if uses[d.key[strings.LastIndexByte(d.key, '.')+1:]] > 0 {
			continue
		}
		if _, ok := deadSurfaceAllowed[d.key]; !ok {
			dead = append(dead, d.key+" ("+fset.Position(d.pos).String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported, but no non-test code names it; delete it, move it to a _test.go file, or allow it with a reason", d)
	}
	for key := range deadSurfaceAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no declaration; remove the entry", key)
		} else if uses[key[strings.LastIndexByte(key, '.')+1:]] > 0 {
			t.Errorf("allowlist entry %s is referenced now; remove the entry", key)
		}
	}
}

// receiverName returns the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
