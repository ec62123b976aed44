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
// methods named in some interface's method set, which callers may reach
// through the interface, and the root package, whose exported surface
// the apisurface golden pins.
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

	ifaceMethods := interfaceMethodNames(pkgs)
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
					if checked && self != nil && !exemptFunc(fd, ifaceMethods) {
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
// check: main and init, which the runtime calls, and methods whose name
// some interface declares.
func exemptFunc(fd *ast.FuncDecl, ifaceMethods map[string]bool) bool {
	if fd.Recv != nil {
		return ifaceMethods[fd.Name.Name]
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

// interfaceMethodNames collects the method names of every interface the
// packages declare or write inline, of every interface the packages
// they import (transitively) declare at package level, and of error.
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names := make(map[string]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
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
	return names
}
