package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExempt names the functions, struct fields, struct types (all
// of their fields) and interface methods TestNoTestOnlyCode lets stand
// although no non-test code uses them.
var testOnlyExempt = map[string]bool{
	// The canonical protocol order: tests in four other packages range
	// over it to cover every model, so moving it into one package's
	// tests would copy it into the others.
	"internal/macmodel.Names": true,
	// The paper's per-component energy breakdown: model_test checks
	// each model's Energy against the sum of its components bit for
	// bit, so it is the reference implementation Energy is held to.
	"internal/macmodel.Model.EnergyAt": true,
	"internal/macmodel.Components":     true,
	// Counts of the medium's pooled allocations: the crash-leak tests
	// assert on them to show a crashed node's frames go back to the
	// pools.
	"internal/sim.Medium.txMade":     true,
	"internal/sim.Medium.framesMade": true,
	// A finished run's time in each radio state: TestSimDigest pins
	// them, and they are the only way a test sees that split.
	"internal/sim.Result.ListenTime": true,
	"internal/sim.Result.TxTime":     true,
}

// TestNoTestOnlyCode fails on code under internal/ or cmd/ that only
// tests use, so code kept alive by its own tests does not come back.
// It checks three kinds:
//   - every function and method must be referenced by non-test code;
//     a function's references from its own body do not count;
//   - every field of a package-level struct type must be read by
//     non-test code; a composite-literal key and the target of an
//     assignment, op-assign, ++ or -- (through any index) only write
//     it. Tagged fields, which encoding/json reads, and embedded
//     fields are exempt;
//   - every method of a package-level interface must be called, or
//     taken as a method value, by non-test code, through the interface
//     or through a type that implements it.
//
// The root package is checked too, its names printed as "edmac.X":
// an exported function only tests call is API nothing in the module
// needs. The benchmark module in perfbench/ is loaded too, so its uses
// count. The first check exempts methods some named type
// provides to a non-empty interface it implements (promoted methods
// count), which callers may reach through the interface; a method
// whose name merely matches an interface's, on a type that does not
// implement it, is checked.
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
	read := make(map[*types.Var]bool)
	var defined []*types.Func
	var fields []namedField
	var ifaces []*types.Interface
	for _, p := range pkgs {
		rel := relPath(p.Types, l.Module())
		checked := p.Path == l.Module() || strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		if checked {
			fs, its := declaredTypes(p, rel)
			fields, ifaces = append(fields, fs...), append(ifaces, its...)
		}
		writes := fieldWrites(p)
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
					switch obj := p.Info.Uses[id].(type) {
					case *types.Func:
						if obj.Origin() != self {
							used[obj.Origin()] = true
						}
					case *types.Var:
						if obj.IsField() && !writes[id] {
							read[obj.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	var findings []string
	for _, fn := range defined {
		if name := qualifiedName(fn, l.Module()); !used[fn] && !testOnlyExempt[name] {
			findings = append(findings, name+": no non-test code references it")
		}
	}
	for _, f := range fields {
		if !read[f.v] && !testOnlyExempt[f.name] && !testOnlyExempt[f.owner] {
			findings = append(findings, f.name+": no non-test code reads this field")
		}
	}
	for _, it := range ifaces {
		called := make(map[*types.Func]bool)
		implementations(pkgs, it, func(m, impl *types.Func) {
			called[m] = called[m] || used[impl]
		})
		for i := 0; i < it.NumExplicitMethods(); i++ {
			m := it.ExplicitMethod(i)
			if name := qualifiedName(m, l.Module()); !used[m] && !called[m] && !testOnlyExempt[name] {
				findings = append(findings, name+": no non-test code calls this interface method")
			}
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("%s; delete it, or move it into the tests that use it", f)
	}
}

// namedField is a struct field with its module-relative names:
// "internal/opt.Result.Violation", owned by "internal/opt.Result".
type namedField struct {
	v           *types.Var
	name, owner string
}

// declaredTypes returns what TestNoTestOnlyCode checks among p's
// package-level types, rel being p's module-relative path: the
// untagged, non-embedded fields of its struct types, and its
// interfaces.
func declaredTypes(p *Package, rel string) ([]namedField, []*types.Interface) {
	var fields []namedField
	var ifaces []*types.Interface
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		switch u := tn.Type().Underlying().(type) {
		case *types.Interface:
			ifaces = append(ifaces, u)
		case *types.Struct:
			owner := rel + "." + tn.Name()
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Pkg() == p.Types && !f.Embedded() && u.Tag(i) == "" {
					fields = append(fields, namedField{f, owner + "." + f.Name(), owner})
				}
			}
		}
	}
	return fields, ifaces
}

// fieldWrites returns the identifiers in p's files that name a field
// only to write it: the keys of composite literals, and the selected
// field at the top of each target of =, an op-assign, ++ and --, after
// any index or parentheses. It covers the whole package, so a use in
// one file is classified against writes in all of them.
func fieldWrites(p *Package) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				writes[x.Sel] = true
				return
			default:
				return
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			}
			return true
		})
	}
	return writes
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

// relPath is pkg's module-relative path, or its name for the module's
// root package: "internal/opt", "edmac".
func relPath(pkg *types.Package, module string) string {
	if pkg.Path() == module {
		return pkg.Name()
	}
	return strings.TrimPrefix(pkg.Path(), module+"/")
}

// qualifiedName is fn's module-relative package path and name, with a
// method's receiver type: "internal/macmodel.Names",
// "internal/opt.Bounds.Clamp", "edmac.WithCache".
func qualifiedName(fn *types.Func, module string) string {
	pkg := relPath(fn.Pkg(), module)
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
	for _, it := range ifaces {
		implementations(pkgs, it, func(_, impl *types.Func) { provided[impl] = true })
	}
	return provided
}

// implementations calls f with each method m of it and impl, the
// method, promoted or its own, that m selects on each named type
// declared in pkgs whose pointer implements it.
func implementations(pkgs []*Package, it *types.Interface, f func(m, impl *types.Func)) {
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(ptr, it) {
				continue
			}
			mset := types.NewMethodSet(ptr)
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if impl, ok := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					f(m, impl.Origin())
				}
			}
		}
	}
}
