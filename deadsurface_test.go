package trajcover

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadSurfaceAllowed lists the exported internal declarations that no
// non-test code uses, each kept on purpose. The list may only shrink:
// TestNoDeadInternalSurface fails on a stale entry as well as on a new
// unused declaration.
var deadSurfaceAllowed = map[string]string{
	"datagen.NYRoutes":             "Table I size, documents the paper's dataset",
	"datagen.NYStops":              "Table I size, documents the paper's dataset",
	"datagen.BJRoutes":             "Table I size, documents the paper's dataset",
	"datagen.BJStops":              "Table I size, documents the paper's dataset",
	"faultfs.Injector.Injected":    "test instrumentation: counts faults an injector fired",
	"faultfs.ErrNoSpace":           "test instrumentation: the injected ENOSPC error",
	"mmap.ZeroCopy":                "test instrumentation: whether mapping aliases the file",
	"mmap.Mapping.Refs":            "test instrumentation: a mapping's reference count",
	"trajectory.Set.ByID":          "oracle for other packages' tests",
	"trajectory.MustNew":           "other packages' tests build trajectories from known-valid points with it",
	"trajectory.Facility.MBR":      "oracle for other packages' tests: a decoded facility's bounds",
	"service.Value":                "oracle for other packages' tests: one user's service by direct scan",
	"tenant.GateSnapshot.Rejected": "test instrumentation: the gate's rejections summed over reasons",
}

// TestNoDeadInternalSurface type-checks every non-test package of the
// root module and of benchmark/ (whose uses count as production uses) in
// one go/types universe — module packages from source, the standard
// library from its export data — and fails on any exported top-level
// declaration of an internal/* package, or exported method of an exported
// type there, that no non-test code uses, and on a stale allowlist entry.
// A use is a Uses or Selections entry naming the object, other than a
// method receiver naming its own type. A method is also used when its
// type implements an interface whose method of that name some non-test
// code calls, or an exported standard-library interface (fmt, sort, json
// and the rest call those: Error, String, Len, UnmarshalJSON, …).
func TestNoDeadInternalSurface(t *testing.T) {
	u := newUniverse()
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range goListPackages(t, dir) {
			u.listed[p.ImportPath] = p
		}
	}
	for path := range u.listed {
		if _, err := u.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	// Every object some non-test code uses, and the interface methods
	// among them, which make the methods that implement them used too.
	used := map[types.Object]bool{}
	for id, obj := range u.info.Uses {
		if !u.receivers[id] {
			used[origin(obj)] = true
		}
	}
	for _, sel := range u.info.Selections {
		used[origin(sel.Obj())] = true
	}
	ifaces := map[string][]*types.Interface{}
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok {
			if it, ok := recvInterface(fn); ok {
				ifaces[fn.Name()] = append(ifaces[fn.Name()], it)
			}
		}
	}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range u.typed {
		for _, imp := range pkg.Imports() {
			if _, mod := u.listed[imp.Path()]; mod {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
	}
	implemented := func(m *types.Func, recv types.Type) bool {
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	seen := map[string]bool{}
	var dead []string
	check := func(key string, obj types.Object, ok bool) {
		seen[key] = true
		_, allowed := deadSurfaceAllowed[key]
		switch {
		case ok && allowed:
			t.Errorf("allowlist entry %s is used now; remove the entry", key)
		case !ok && !allowed:
			dead = append(dead, key+" ("+u.fset.Position(obj.Pos()).String()+")")
		}
	}
	for path, pkg := range u.typed {
		rest, internal := strings.CutPrefix(path, modulePath+"/internal/")
		if !internal || strings.Contains(rest, "/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			check(rest+"."+name, obj, used[obj])
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					check(rest+"."+name+"."+m.Name(), m, used[m] || implemented(m, named))
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: exported, but no non-test code uses it; delete it, move it to a _test.go file, or allow it with a reason", d)
	}
	for key := range deadSurfaceAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no declaration; remove the entry", key)
		}
	}
}

const modulePath = "github.com/trajcover/trajcover"

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// goListPackages lists the packages of the module rooted at dir.
func goListPackages(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// universe type-checks the listed packages from their non-test sources
// into one Info, on demand and once each, and takes every other import
// from the standard library's export data.
type universe struct {
	fset      *token.FileSet
	listed    map[string]listedPackage
	typed     map[string]*types.Package
	std       types.Importer
	info      *types.Info
	receivers map[*ast.Ident]bool // identifiers inside a method's receiver
}

func newUniverse() *universe {
	fset := token.NewFileSet()
	return &universe{
		fset:      fset,
		listed:    map[string]listedPackage{},
		typed:     map[string]*types.Package{},
		std:       importer.ForCompiler(fset, "gc", nil),
		info:      &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
		receivers: map[*ast.Ident]bool{},
	}
}

func (u *universe) Import(path string) (*types.Package, error) {
	if pkg, ok := u.typed[path]; ok {
		return pkg, nil
	}
	p, ok := u.listed[path]
	if !ok {
		return u.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						u.receivers[id] = true
					}
					return true
				})
			}
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: u}).Check(path, u.fset, files, u.info)
	if err != nil {
		return nil, err
	}
	u.typed[path] = pkg
	return pkg, nil
}

// origin is the generic declaration an instantiated object comes from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvInterface returns the interface fn is a method of, if it is one.
func recvInterface(fn *types.Func) (*types.Interface, bool) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	it, ok := recv.Type().Underlying().(*types.Interface)
	return it, ok
}
