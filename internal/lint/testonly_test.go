package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExempt names the functions TestNoTestOnlyCode lets stand
// although no non-test code references them.
var testOnlyExempt = map[string]bool{
	// The canonical protocol order: tests in four other packages range
	// over it to cover every model, so moving it into one package's
	// tests would copy it into the others.
	"internal/macmodel.Names": true,
}

// TestNoTestOnlyCode fails on any function or method in non-test code
// under internal/ or cmd/ that no non-test code references, so code
// kept alive only by its own tests does not come back. A function's
// references from its own body do not count. The benchmark module in
// perfbench/ is loaded too, so its calls count. Two kinds are exempt:
// methods some named type provides to a non-empty interface it
// implements (promoted methods count), which callers may reach through
// the interface, and the root package, whose exported surface the
// apisurface golden pins. A method whose name merely matches an
// interface's, on a type that does not implement it, is checked.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := sharedLoader(t)
	paths, err := l.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	var pkgs []*Package
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	bench, err := l.LoadDir(filepath.Join("..", "..", "perfbench"), l.Module()+"/perfbench")
	if err != nil {
		t.Fatalf("loading perfbench: %v", err)
	}
	pkgs = append(pkgs, bench)

	provided := interfaceMethods(pkgs)
	used := make(map[*types.Func]bool)
	var defined []*types.Func
	for _, p := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, l.Module()), "/")
		checked := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = p.Info.Defs[fd.Name].(*types.Func)
					if checked && self != nil && !exemptFunc(fd, self, provided) {
						defined = append(defined, self)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true
					}
					return true
				})
			}
		}
	}

	var unused []string
	for _, fn := range defined {
		if name := qualifiedName(fn, l.Module()); !used[fn] && !testOnlyExempt[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: no non-test code references it; delete it, or move it into the tests that use it", name)
	}
}

// exemptFunc reports whether a declaration is one the test does not
// check: main and init, which the runtime calls, and methods some type
// provides to an interface.
func exemptFunc(fd *ast.FuncDecl, fn *types.Func, provided map[*types.Func]bool) bool {
	if fd.Recv != nil {
		return provided[fn]
	}
	return fd.Name.Name == "main" || fd.Name.Name == "init"
}

// qualifiedName is fn's module-relative package path and name, with a
// method's receiver type: "internal/macmodel.Names",
// "internal/opt.Bounds.Clamp".
func qualifiedName(fn *types.Func, module string) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), module), "/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// interfaceMethods returns the methods that named types declared in
// the packages provide to interfaces: for each type whose pointer
// implements a non-empty interface, the method, promoted or its own,
// that each of the interface's names selects on it. The interfaces are
// every interface the packages declare or write inline, every interface
// the packages they import (transitively) declare at package level, and
// error.
func interfaceMethods(pkgs []*Package) map[*types.Func]bool {
	var ifaces []*types.Interface
	seenIface := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		walk(p.Types)
	}

	provided := make(map[*types.Func]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			if mset.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if fn, ok := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
						provided[fn.Origin()] = true
					}
				}
			}
		}
	}
	return provided
}
