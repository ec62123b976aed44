package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"reflect"
	"regexp"
	"strconv"
	"strings"
)

// Jsonwire guards the serialized API surface (established by PR 5 and
// frozen ever since: the suite golden, the response cache keys and
// every HTTP client depend on stable bytes). On wire structs — structs
// that already carry at least one json tag — every exported field must
// have an explicit snake_case json name (or "-"), so a new field can
// never silently serialize under its Go name; and every error code
// handed to the serve envelope must come from the pinned code set
// clients branch on (PR 7's unified envelope).
var Jsonwire = &Analyzer{
	Name: "jsonwire",
	Doc:  "wire structs carry explicit snake_case json tags; envelope codes come from the pinned set",
	Run:  runJsonwire,
}

// snakeCase is the permitted wire-name shape.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// pinnedCodes is the frozen machine-readable error-code set of the
// serve envelope. Growing it is an API change: add the code here and in
// internal/serve in the same commit, and document it in the README's
// error-code table.
var pinnedCodes = map[string]bool{
	"invalid_request":    true,
	"infeasible":         true,
	"timeout":            true,
	"queue_full":         true,
	"rate_limited":       true,
	"not_found":          true,
	"method_not_allowed": true,
	"cancelled":          true,
	"client_closed":      true,
	"internal":           true,
}

func runJsonwire(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				out = append(out, checkWireStruct(p, n)...)
			case *ast.CallExpr:
				out = append(out, checkEnvelopeCode(p, n)...)
			case *ast.FuncDecl:
				out = append(out, checkErrorStatusReturns(p, n)...)
			}
			return true
		})
	}
	return out
}

// checkErrorStatusReturns pins the code half of every return in
// errorStatus, the classifier feeding writeError: together with the
// writeCoded argument rule this closes the loop — every code reaching
// the wire is mechanically a member of the pinned set.
func checkErrorStatusReturns(p *Package, fd *ast.FuncDecl) []Diagnostic {
	if fd.Name.Name != "errorStatus" || fd.Body == nil {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		arg := ret.Results[len(ret.Results)-1]
		tv, ok := p.Info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			out = append(out, diag(p, arg.Pos(), "jsonwire",
				"errorStatus must return a pinned code constant, not a computed value"))
			return true
		}
		if code := constant.StringVal(tv.Value); !pinnedCodes[code] {
			out = append(out, diag(p, arg.Pos(), "jsonwire",
				"errorStatus returns code %q, which is not in the pinned envelope code set", code))
		}
		return true
	})
	return out
}

// checkWireStruct validates one struct's tags if it is a wire struct
// (has at least one json-tagged field).
func checkWireStruct(p *Package, st *ast.StructType) []Diagnostic {
	wire := false
	for _, field := range st.Fields.List {
		if _, ok := jsonTag(field); ok {
			wire = true
			break
		}
	}
	if !wire {
		return nil
	}
	var out []Diagnostic
	for _, field := range st.Fields.List {
		names := field.Names
		if len(names) == 0 {
			// An untagged embedded struct inlines its (tagged) fields —
			// the deliberate composition idiom (a report extending
			// another by embedding it). Any other embedded kind would
			// serialize under its Go type name, so it must be tagged.
			if id := embeddedName(field.Type); id != nil && id.IsExported() {
				if _, ok := jsonTag(field); !ok && !isStructType(p, field.Type) {
					out = append(out, diag(p, field.Pos(), "jsonwire",
						"embedded non-struct field %s on a wire struct has no json tag; it serializes under its Go type name", id.Name))
				}
			}
			continue
		}
		for _, name := range names {
			if !name.IsExported() {
				continue
			}
			tag, ok := jsonTag(field)
			if !ok {
				out = append(out, diag(p, name.Pos(), "jsonwire",
					"exported field %s on a wire struct has no json tag; it would serialize under its Go name", name.Name))
				continue
			}
			wireName := strings.Split(tag, ",")[0]
			if wireName == "-" {
				continue
			}
			if wireName == "" {
				out = append(out, diag(p, name.Pos(), "jsonwire",
					"field %s's json tag has no name; options without a name fall back to the Go name", name.Name))
				continue
			}
			if !snakeCase.MatchString(wireName) {
				out = append(out, diag(p, name.Pos(), "jsonwire",
					"field %s's wire name %q is not snake_case", name.Name, wireName))
			}
		}
	}
	return out
}

// jsonTag extracts the json struct tag, reporting whether one exists.
func jsonTag(field *ast.Field) (string, bool) {
	if field.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return "", false
	}
	return reflect.StructTag(raw).Lookup("json")
}

// isStructType reports whether the field type is (a pointer to) a
// struct, whose untagged embedding inlines fields instead of nesting.
func isStructType(p *Package, t ast.Expr) bool {
	typ := p.Info.TypeOf(t)
	if typ == nil {
		return false
	}
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	_, ok := typ.Underlying().(*types.Struct)
	return ok
}

// embeddedName digs the identifier out of an embedded field's type.
func embeddedName(t ast.Expr) *ast.Ident {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// checkEnvelopeCode pins the code argument of writeCoded calls: it must
// be a constant whose value is in the pinned set, so a typo'd or ad-hoc
// code can never reach a client.
func checkEnvelopeCode(p *Package, call *ast.CallExpr) []Diagnostic {
	name := calleeName(call)
	if name != "writeCoded" || len(call.Args) < 3 {
		return nil
	}
	arg := call.Args[2]
	tv, ok := p.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return []Diagnostic{diag(p, arg.Pos(), "jsonwire",
			"error code passed to writeCoded is not a string constant; use one of the pinned code constants")}
	}
	code := constant.StringVal(tv.Value)
	if !pinnedCodes[code] {
		return []Diagnostic{diag(p, arg.Pos(), "jsonwire",
			"error code %q is not in the pinned envelope code set", code)}
	}
	return nil
}

// calleeName names the called function for plain and method calls.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
