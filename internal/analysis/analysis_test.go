package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestScopes(t *testing.T) {
	simPkgs := []string{
		"repro/internal/sim", "repro/internal/core", "repro/internal/buffer",
		"repro/internal/cc", "repro/internal/storage", "repro/internal/workload",
		"repro/internal/recovery", "repro/internal/experiments",
		"repro/internal/trace", "repro/internal/stats",
		"repro/internal/costmodel", "repro/internal/lru",
		"repro/internal/hashtab",
	}
	for _, p := range simPkgs {
		if !inSimScope(p) {
			t.Errorf("inSimScope(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"repro", "repro/cmd/tpsim", "repro/cmd/detlint",
		"repro/internal/rng", "repro/internal/analysis",
		"repro/examples/quickstart",
	} {
		if inSimScope(p) {
			t.Errorf("inSimScope(%q) = true, want false", p)
		}
	}
	// rngstream runs module-wide except the sanctioned wrapper itself.
	if RngstreamAnalyzer.Applies("repro/internal/rng") {
		t.Error("rngstream must not apply to internal/rng")
	}
	if !RngstreamAnalyzer.Applies("repro/cmd/experiments") {
		t.Error("rngstream must apply to cmd packages")
	}
	for _, f := range rawgoSeams {
		if !rawgoSeam(f) {
			t.Errorf("rawgoSeam(%q) = false", f)
		}
	}
	if rawgoSeam("internal/core/engine.go") {
		t.Error("engine.go must not be a concurrency seam")
	}
	// The PDES coordinator lost its seam status when the worker pool moved
	// into barrier.go (which carries a file-scoped //detlint:allow instead).
	if rawgoSeam("internal/core/pdes.go") {
		t.Error("pdes.go must no longer be a concurrency seam")
	}
}

// TestRawgoSeamsStillConcurrent: every whitelisted seam still holds a go
// statement or a multi-case select. A seam whose concurrency has gone
// would let a goroutine added there later pass lint unexamined.
func TestRawgoSeamsStillConcurrent(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rawgoSeams {
		f, err := parser.ParseFile(l.Fset, filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		concurrent := false
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				concurrent = true
			case *ast.SelectStmt:
				concurrent = concurrent || len(st.Body.List) > 1
			}
			return !concurrent
		})
		if !concurrent {
			t.Errorf("rawgo seam %s has no go statement or multi-case select; drop it from rawgoSeams", rel)
		}
	}
}

// TestRawgoAllowedOnlyAtBarrier pins where a directive may excuse raw
// concurrency: read as collectSuppressions reads them, the module's Go
// files outside testdata carry one //detlint:allow rawgo, the file-scoped
// one of internal/core/barrier.go. A goroutine shim cannot return to the
// kernel behind a line-scoped allow.
func TestRawgoAllowedOnlyAtBarrier(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	err = filepath.WalkDir(l.ModuleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == l.ModuleRoot {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, fixtures, or tool state
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(l.ModuleRoot, path)
		f, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.ParseComments)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sup := collectSuppressions(fset, files, RuleNames())
	var got []string
	for file, rules := range sup.file {
		if rules["rawgo"] {
			got = append(got, file+" (file-scoped)")
		}
	}
	for file, lines := range sup.line {
		for line, rules := range lines {
			if rules["rawgo"] && !lines[line-1]["rawgo"] { // a directive covers its line and the next
				got = append(got, fmt.Sprintf("%s:%d", file, line))
			}
		}
	}
	slices.Sort(got)
	if want := []string{"internal/core/barrier.go (file-scoped)"}; !slices.Equal(got, want) {
		t.Errorf("//detlint:allow rawgo found at %v, want only %v", got, want)
	}
}

// TestSimScopeCoversSimulationImports: every internal package that the
// engine or the experiment harness imports, directly or transitively, runs
// inside the simulation, so the full contract must be in force there. The
// one exception is internal/rng, the sanctioned randomness source.
func TestSimScopeCoversSimulationImports(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	roots, err := l.Load("internal/core", "internal/experiments")
	if err != nil {
		t.Fatal(err)
	}
	internal := l.ModulePath + "/internal/"
	seen := map[string]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, imp := range p.Imports() {
			if strings.HasPrefix(imp.Path(), internal) {
				visit(imp)
			}
		}
	}
	for _, p := range roots {
		visit(p.Types)
	}
	for _, path := range slices.Sorted(maps.Keys(seen)) {
		if path != internal+"rng" && !inSimScope(path) {
			t.Errorf("%s is reached from internal/core or internal/experiments but is not in simScope", path)
		}
	}
}

func TestRuleNamesMatchRegistry(t *testing.T) {
	names := RuleNames()
	if len(names) != len(All()) {
		t.Fatalf("RuleNames() has %d entries, want %d", len(names), len(All()))
	}
	for _, a := range All() {
		if !names[a.Name] {
			t.Errorf("missing rule %q", a.Name)
		}
		if a.Doc == "" || a.Applies == nil || a.Run == nil {
			t.Errorf("rule %q is missing Doc/Applies/Run", a.Name)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "internal/core/engine.go", Line: 42, Column: 7},
		Rule:    "maporder",
		Message: "map iteration order leaks into results",
	}
	want := "internal/core/engine.go:42: maporder: map iteration order leaks into results"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d, want)
	}
}

// TestDefaultScopeHonored: without -scope=all the seeded fixture (whose
// import path is not a simulation package) only trips the module-wide
// rngstream rule — which is why the CI self-test passes -scope=all.
func TestDefaultScopeHonored(t *testing.T) {
	pkg := loadFixture(t, "internal/analysis/testdata/seeded")
	for _, d := range RunAnalyzers(pkg, All(), false) {
		if d.Rule != "rngstream" {
			t.Errorf("rule %q applied outside its scope: %s", d.Rule, d)
		}
	}
}

// TestRealSeamsStayClean locks the whitelist + annotation story for the
// real concurrency seams: the PDES engine, the experiment pool and the
// kernel all lint clean, while the same rules do fire on fixtures
// (proven by the fixture tests) — so a clean run is a checked negative,
// not a skipped check.
func TestRealSeamsStayClean(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal/sim", "internal/core", "internal/experiments", "internal/buffer"} {
		pkgs, err := l.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range RunAnalyzers(pkgs[0], All(), false) {
			t.Errorf("%s: unexpected diagnostic: %s", dir, d)
		}
	}
}

func TestLoaderErrors(t *testing.T) {
	tmp := t.TempDir()
	if _, err := NewLoader(tmp); err == nil {
		t.Error("NewLoader outside any module should fail")
	}

	// A go.mod without a module line is rejected.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "go.mod"), []byte("go 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLoader(bad); err == nil || !strings.Contains(err.Error(), "no module line") {
		t.Errorf("NewLoader(bad go.mod) err = %v, want module-line error", err)
	}

	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{"../escape", "/abs", "no/such/dir", "internal/experiments/testdata/golden"} {
		if _, err := l.Load(pat); err == nil {
			t.Errorf("Load(%q) succeeded, want error", pat)
		}
	}
}

func TestLoaderCachesPackages(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.Load("internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Load("internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Error("loading the same dir twice should return the cached package")
	}
	if a[0].Path != "repro/internal/rng" || a[0].RelDir != "internal/rng" {
		t.Errorf("unexpected identity: path %q reldir %q", a[0].Path, a[0].RelDir)
	}
}

// TestWalkSkipsTestdataAndAnalysisFixtures: the ./... expansion must never
// descend into testdata, or the seeded violations would break the
// clean-tree gate.
func TestWalkSkipsTestdata(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	foundCore := false
	for _, p := range pkgs {
		if strings.Contains(p.RelDir, "testdata") {
			t.Errorf("./... descended into %s", p.RelDir)
		}
		if p.Path == "repro/internal/core" {
			foundCore = true
		}
	}
	if !foundCore || len(pkgs) < 20 {
		t.Errorf("./... loaded %d packages (core found: %v); expected the whole module", len(pkgs), foundCore)
	}
}
