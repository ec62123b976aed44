package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureState shares one loader (and thus one type-checked stdlib)
// across every fixture test in the package.
var fixtureState struct {
	once sync.Once
	l    *Loader
	err  error
}

// sharedLoader returns the loader every test in the package shares, so
// the standard library is type-checked once.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	fixtureState.once.Do(func() {
		fixtureState.l, fixtureState.err = NewLoader(filepath.Join("..", ".."))
	})
	if fixtureState.err != nil {
		t.Fatalf("NewLoader: %v", fixtureState.err)
	}
	return fixtureState.l
}

// fixturePkg loads one testdata fixture package under a synthetic
// import path.
func fixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	p, err := sharedLoader(t).LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return p
}

var (
	wantRe   = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

// wantsIn parses a fixture source's // want comments into line →
// expected message substrings.
func wantsIn(t *testing.T, path string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	out := make(map[int][]string)
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
			out[i+1] = append(out[i+1], q[1])
		}
	}
	return out
}

// checkFixture runs one analyzer over its fixture package and matches
// diagnostics against the // want comments line-exactly, in both
// directions: every diagnostic needs a want on its line, every want
// needs a diagnostic.
func checkFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	p := fixturePkg(t, name)
	diags := a.Run(p)

	type key struct {
		file string
		line int
	}
	got := make(map[key][]string)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d.Message)
	}

	dir := filepath.Join("testdata", "src", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	want := make(map[key][]string)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		for line, subs := range wantsIn(t, path) {
			want[key{path, line}] = subs
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", name)
	}

	for k, msgs := range got {
		subs := want[k]
		for _, msg := range msgs {
			matched := -1
			for i, s := range subs {
				if s != "" && strings.Contains(msg, s) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
				continue
			}
			subs[matched] = "" // consumed
		}
	}
	for k, subs := range want {
		for _, s := range subs {
			if s != "" {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, s)
			}
		}
	}
}

func TestDetrandFixture(t *testing.T)    { checkFixture(t, Detrand, "detrand") }
func TestFramescopeFixture(t *testing.T) { checkFixture(t, Framescope, "framescope") }
func TestJsonwireFixture(t *testing.T)   { checkFixture(t, Jsonwire, "jsonwire") }
func TestCtxfirstFixture(t *testing.T)   { checkFixture(t, Ctxfirst, "ctxfirst") }
func TestHotallocFixture(t *testing.T)   { checkFixture(t, Hotalloc, "hotalloc") }
func TestLockorderFixture(t *testing.T)  { checkFixture(t, Lockorder, "lockorder") }
func TestGoroleakFixture(t *testing.T)   { checkFixture(t, Goroleak, "goroleak") }
func TestEscapegoldFixture(t *testing.T) { checkFixture(t, Escapegold, "escapegold") }
func TestApisurfaceFixture(t *testing.T) { checkFixture(t, Apisurface, "apisurface") }

// TestIgnoreDirectives pins the directive machinery end to end: an
// explained ignore suppresses and is marked used; unexplained or
// unknown-analyzer directives become diagnostics and suppress nothing.
func TestIgnoreDirectives(t *testing.T) {
	p := fixturePkg(t, "ignores")

	diags := Detrand.Run(p)
	if len(diags) != 3 {
		t.Fatalf("Detrand found %d diagnostics, want 3 (one per time.Now)", len(diags))
	}

	igs, bad := collectIgnores(p)
	if len(igs) != 1 {
		t.Fatalf("collected %d well-formed ignores, want 1", len(igs))
	}
	if len(bad) != 2 {
		t.Fatalf("collected %d malformed-directive diagnostics, want 2 (unexplained + unknown analyzer)", len(bad))
	}
	if ig := igs[0]; ig.Analyzer != "detrand" || ig.Reason != "fixture: exercising the suppression path" {
		t.Fatalf("parsed ignore = %s %q, want detrand with the fixture reason", ig.Analyzer, ig.Reason)
	}

	kept := applyIgnores(diags, igs)
	if len(kept) != 2 {
		t.Fatalf("%d diagnostics survive the explained ignore, want 2", len(kept))
	}
	if !igs[0].Used {
		t.Fatal("the explained ignore suppressed a diagnostic but is not marked used")
	}
}

// TestIgnoreCoversNewAnalyzers pins the directive machinery for the v2
// analyzers: each new name resolves (so directives for it are
// well-formed), and the goroleak fixture's explained ignore suppresses
// exactly one of its leaks.
func TestIgnoreCoversNewAnalyzers(t *testing.T) {
	for _, name := range []string{"lockorder", "goroleak", "escapegold", "apisurface"} {
		if byName(name) == nil {
			t.Errorf("byName(%q) = nil; ignore directives for it would be rejected as unknown", name)
		}
	}

	p := fixturePkg(t, "goroleak")
	diags := Goroleak.Run(p)
	igs, bad := collectIgnores(p)
	if len(bad) != 0 {
		t.Fatalf("goroleak fixture has %d malformed directives, want 0: %v", len(bad), bad)
	}
	if len(igs) != 1 || igs[0].Analyzer != "goroleak" {
		t.Fatalf("collected ignores = %+v, want exactly one for goroleak", igs)
	}
	kept := applyIgnores(diags, igs)
	if len(kept) != len(diags)-1 {
		t.Fatalf("%d of %d diagnostics survive the ignore, want one suppressed", len(kept), len(diags))
	}
	if !igs[0].Used {
		t.Fatal("the goroleak ignore suppressed a diagnostic but is not marked used")
	}
}

// TestEscapeGolden is the compiler-fact gate in test form: the escape
// decisions inside //edvet:hotpath functions must match the committed
// golden byte for byte (modulo line numbers, which the extraction
// elides).
func TestEscapeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go compiler over the escape scope")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go binary unavailable")
	}
	res, err := RunEscape(filepath.Join("..", ".."), false)
	if err != nil {
		t.Fatalf("RunEscape: %v", err)
	}
	if len(res.Lines) == 0 {
		t.Fatal("no escape facts extracted — the parser or the hotpath scope broke")
	}
	for _, l := range res.Missing {
		t.Errorf("escape golden drift: compiler no longer reports %q (make escape-golden if intentional)", l)
	}
	for _, l := range res.Extra {
		t.Errorf("escape golden drift: compiler newly reports %q (make escape-golden if intentional)", l)
	}
}

// TestAPISurfaceGolden mirrors the apisurface analyzer for the real
// root package, so `go test` catches facade drift even without the
// edvet driver.
func TestAPISurfaceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the root package and its imports")
	}
	l := sharedLoader(t)
	p, err := l.Load(l.Module())
	if err != nil {
		t.Fatalf("loading root package: %v", err)
	}
	for _, d := range Apisurface.Run(p) {
		t.Errorf("api surface drift: %s", d)
	}
}

// TestDiscoverFindsCorePackages pins the walker: the packages the
// analyzers exist for must be in the default ./... set, and testdata
// fixtures must not.
func TestDiscoverFindsCorePackages(t *testing.T) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := l.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	found := make(map[string]bool, len(paths))
	for _, p := range paths {
		found[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("Discover included a testdata package: %s", p)
		}
	}
	for _, want := range []string{
		l.Module() + "/internal/sim",
		l.Module() + "/internal/serve",
		l.Module() + "/internal/lint",
		l.Module() + "/cmd/edvet",
	} {
		if !found[want] {
			t.Errorf("Discover missed %s", want)
		}
	}
}

// TestRepoClean is the self-check the suite hangs off: edvet ./... must
// be clean on the repo itself, and every suppression in the tree must
// actually suppress something.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	res, err := Run(filepath.Join("..", ".."), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("repo is not edvet-clean: %s", d)
	}
	for _, ig := range res.Ignores {
		if !ig.Used {
			t.Errorf("%s:%d: unused //edvet:ignore %s (%s)", ig.File, ig.Line, ig.Analyzer, ig.Reason)
		}
	}
}
