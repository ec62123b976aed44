package lint

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Escapegold pins hot-path allocation behavior with the compiler's own
// escape analysis instead of AST approximation. `edvet -escape` runs
// `go build -gcflags=-m=2` over the escape-scope packages, extracts the
// escape/heap decisions landing inside //edvet:hotpath functions, and
// diffs them against the committed golden
// (internal/lint/testdata/escape_golden.txt). That catches what
// hotalloc structurally cannot: generics-driven boxing, inlining
// changes, and new escapes introduced by refactors far from the
// annotated function.
//
// In the normal per-package pass the analyzer is a cheap scope guard:
// a //edvet:hotpath annotation in a package outside the escape scope
// would silently evade the compiler gate, so it is a diagnostic until
// the package is added to escapeScope and the golden regenerated.
var Escapegold = &Analyzer{
	Name: "escapegold",
	Doc:  "//edvet:hotpath escape decisions match the committed compiler golden (edvet -escape)",
	Run:  runEscapegoldScope,
}

// escapeScope lists the packages (module-relative) the escape golden
// covers. Every //edvet:hotpath annotation in the tree must live in one
// of them.
var escapeScope = []string{
	"internal/macmodel",
	"internal/nbs",
	"internal/sim",
}

// escapeGoldenRel is the committed golden's module-relative path.
const escapeGoldenRel = "internal/lint/testdata/escape_golden.txt"

func runEscapegoldScope(p *Package) []Diagnostic {
	for _, s := range escapeScope {
		if p.Path == s || strings.HasSuffix(p.Path, "/"+s) {
			return nil
		}
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fd) {
				continue
			}
			out = append(out, diag(p, fd.Pos(), "escapegold",
				"//edvet:hotpath function %s is outside the escape-golden scope (%s); add its package to escapeScope in internal/lint/escapegold.go and run make escape-golden",
				funcDisplayName(fd), strings.Join(escapeScope, ", ")))
		}
	}
	return out
}

// EscapeResult is one `edvet -escape` run: the current compiler facts
// and their drift against the committed golden.
type EscapeResult struct {
	// Lines are the current escape facts, one per line, sorted.
	Lines []string
	// Missing are golden lines the compiler no longer reports.
	Missing []string
	// Extra are compiler facts absent from the golden.
	Extra []string
	// GoldenPath is the absolute path of the golden file.
	GoldenPath string
}

// Clean reports whether the current facts match the golden exactly.
func (r *EscapeResult) Clean() bool { return len(r.Missing) == 0 && len(r.Extra) == 0 }

// hotRange is one annotated function's source extent.
type hotRange struct {
	file       string // absolute path
	start, end int    // line range, inclusive
	display    string // "internal/sim.(*Medium).setState"
}

// escapeLineRe matches one compiler diagnostic line:
// "internal/sim/medium.go:123:7: msg".
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeFactRe selects the decision lines worth pinning; the -m=2
// "flow:"/"from" provenance chatter and inlining decisions are noise
// that changes with unrelated refactors.
var escapeFactRe = regexp.MustCompile(`escapes to heap|moved to heap|does not escape|leaking param`)

// RunEscape executes the compiler over the escape-scope packages,
// extracts the escape facts inside //edvet:hotpath functions, and
// diffs (or, with update, rewrites) the committed golden.
func RunEscape(root string, update bool) (*EscapeResult, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l, err := NewLoader(absRoot)
	if err != nil {
		return nil, err
	}

	var hot []hotRange
	for _, scope := range escapeScope {
		p, err := l.Load(importPathFor(l.Module(), scope))
		if err != nil {
			return nil, err
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHotpath(fd) {
					continue
				}
				start := p.Fset.Position(fd.Pos())
				end := p.Fset.Position(fd.End())
				hot = append(hot, hotRange{
					file:    start.Filename,
					start:   start.Line,
					end:     end.Line,
					display: scope + "." + funcDisplayName(fd),
				})
			}
		}
	}

	args := []string{"build", "-gcflags=-m=2"}
	for _, scope := range escapeScope {
		args = append(args, "./"+filepath.ToSlash(scope))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = absRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	lines := parseEscapeFacts(absRoot, string(out), hot)

	goldenPath := filepath.Join(absRoot, filepath.FromSlash(escapeGoldenRel))
	res := &EscapeResult{Lines: lines, GoldenPath: goldenPath}
	if update {
		return res, writeEscapeGolden(goldenPath, lines)
	}
	want, err := readGoldenLines(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading escape golden (run `make escape-golden` to create it): %w", err)
	}
	res.Missing, res.Extra = diffLines(want, lines)
	return res, nil
}

// parseEscapeFacts maps compiler output to sorted, deduplicated
// "func: fact" lines restricted to the hotpath ranges.
func parseEscapeFacts(root, out string, hot []hotRange) []string {
	set := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		m := escapeLineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || strings.HasPrefix(m[1], "<autogenerated>") {
			continue
		}
		msg := strings.TrimSuffix(m[4], ":")
		if !escapeFactRe.MatchString(msg) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, filepath.FromSlash(file))
		}
		ln, _ := strconv.Atoi(m[2])
		for _, h := range hot {
			if file == h.file && ln >= h.start && ln <= h.end {
				set[h.display+": "+msg] = true
				break
			}
		}
	}
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return lines
}

// writeEscapeGolden rewrites the golden with a regeneration header.
func writeEscapeGolden(path string, lines []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# Escape-analysis golden for //edvet:hotpath functions.\n")
	b.WriteString("# One compiler fact per line, sorted; line numbers are elided so the\n")
	b.WriteString("# golden survives edits that move code without changing decisions.\n")
	b.WriteString("# Regenerate with `make escape-golden` after an intentional change.\n")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readGoldenLines loads a golden file, dropping comments and blanks.
func readGoldenLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, l := range strings.Split(string(data), "\n") {
		l = strings.TrimRight(l, "\r")
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		out = append(out, l)
	}
	return out, nil
}

// diffLines reports want-lines absent from got (missing) and got-lines
// absent from want (extra). Both inputs may be unsorted.
func diffLines(want, got []string) (missing, extra []string) {
	w := make(map[string]bool, len(want))
	for _, l := range want {
		w[l] = true
	}
	g := make(map[string]bool, len(got))
	for _, l := range got {
		g[l] = true
		if !w[l] {
			extra = append(extra, l)
		}
	}
	for _, l := range want {
		if !g[l] {
			missing = append(missing, l)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return missing, extra
}
