package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Apisurface freezes the exported surface of the root edmac package —
// the Client facade, its options, and the request and report types it
// speaks. Every exported identifier is rendered to one canonical line
// (sorted, package-qualified types) and diffed against a committed
// golden: an accidental signature change, removed symbol, or new export
// fails `make lint` here instead of surfacing in a consumer's build.
// Intentional changes regenerate with `make api-golden`.
var Apisurface = &Analyzer{
	Name: "apisurface",
	Doc:  "the root package's exported API matches the committed surface golden",
	Run:  runApisurface,
}

// apiGoldenRel is the committed golden's module-relative path. A
// fixture package can override it with its own api_golden.txt sitting
// next to the sources.
const apiGoldenRel = "internal/lint/testdata/api_surface.txt"

func runApisurface(p *Package) []Diagnostic {
	goldenPath := filepath.Join(p.Dir, "api_golden.txt")
	if _, err := os.Stat(goldenPath); err != nil {
		goldenPath = filepath.Join(p.Dir, filepath.FromSlash(apiGoldenRel))
	}
	lines, posOf := APISurface(p)
	pkgPos := token.NoPos
	if len(p.Files) > 0 {
		pkgPos = p.Files[0].Package
	}
	want, err := readGoldenLines(goldenPath)
	if err != nil {
		return []Diagnostic{diag(p, pkgPos, "apisurface",
			"API surface golden unreadable (run `make api-golden` to create it): %v", err)}
	}
	missing, extra := diffLines(want, lines)
	var out []Diagnostic
	for _, l := range extra {
		pos := pkgPos
		if pp, ok := posOf[l]; ok {
			pos = pp
		}
		out = append(out, diag(p, pos, "apisurface",
			"exported surface gained %q, not in the committed golden; run `make api-golden` if intentional", l))
	}
	for _, l := range missing {
		out = append(out, diag(p, pkgPos, "apisurface",
			"%q was removed from the exported API surface; a breaking change — run `make api-golden` if intentional", l))
	}
	return out
}

// APISurface renders the package's exported surface as sorted canonical
// lines, plus each line's declaration position for diagnostics.
func APISurface(p *Package) ([]string, map[string]token.Pos) {
	qual := types.RelativeTo(p.Types)
	var lines []string
	posOf := make(map[string]token.Pos)
	add := func(line string, pos token.Pos) {
		lines = append(lines, line)
		posOf[line] = pos
	}

	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Const:
			add(fmt.Sprintf("const %s %s", name, types.TypeString(o.Type(), qual)), o.Pos())
		case *types.Var:
			add(fmt.Sprintf("var %s %s", name, types.TypeString(o.Type(), qual)), o.Pos())
		case *types.Func:
			add(fmt.Sprintf("func %s%s", name, sigString(o.Type().(*types.Signature), qual)), o.Pos())
		case *types.TypeName:
			if o.IsAlias() {
				add(fmt.Sprintf("type %s = %s", name, types.TypeString(o.Type(), qual)), o.Pos())
				continue
			}
			named, ok := o.Type().(*types.Named)
			if !ok {
				continue
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				add(fmt.Sprintf("type %s struct", name), o.Pos())
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					if !f.Exported() {
						continue
					}
					add(fmt.Sprintf("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), qual)), f.Pos())
				}
			case *types.Interface:
				add(fmt.Sprintf("type %s interface", name), o.Pos())
				for i := 0; i < u.NumMethods(); i++ {
					m := u.Method(i)
					if !m.Exported() {
						continue
					}
					add(fmt.Sprintf("method %s.%s%s", name, m.Name(), sigString(m.Type().(*types.Signature), qual)), m.Pos())
				}
			default:
				add(fmt.Sprintf("type %s %s", name, types.TypeString(named.Underlying(), qual)), o.Pos())
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				recv := name
				if sig, ok := m.Type().(*types.Signature); ok && sig.Recv() != nil {
					if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
						recv = "*" + name
					}
				}
				add(fmt.Sprintf("method (%s).%s%s", recv, m.Name(), sigString(m.Type().(*types.Signature), qual)), m.Pos())
			}
		}
	}
	sort.Strings(lines)
	return lines, posOf
}

// sigString renders a signature without the leading "func" keyword.
func sigString(sig *types.Signature, qual types.Qualifier) string {
	return strings.TrimPrefix(types.TypeString(sig, qual), "func")
}

// WriteAPIGolden loads the module's root package and rewrites the
// committed API-surface golden from its current exports.
func WriteAPIGolden(root string) (string, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	l, err := NewLoader(absRoot)
	if err != nil {
		return "", err
	}
	p, err := l.Load(l.Module())
	if err != nil {
		return "", err
	}
	lines, _ := APISurface(p)
	path := filepath.Join(absRoot, filepath.FromSlash(apiGoldenRel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("# Exported API surface of the root edmac package, one symbol per\n")
	b.WriteString("# line, sorted. A diff here is a breaking (or surface-widening)\n")
	b.WriteString("# change; regenerate intentionally with `make api-golden`.\n")
	for _, line := range lines {
		b.WriteString(line)
		b.WriteString("\n")
	}
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}
